"""Proper interval and circular-arc machinery.

Completion to acyclic local tournaments goes through the consentaneous
closure, a search-order pass (LBFS with an arc-aware tie-break), a
perfect elimination check and a lexicographic 2-colouring of the
auxiliary graph.  Representations place each vertex at an even start
point, which makes the induced orientation unambiguous.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property

from .auxgraph import _orient_classes, consentaneous_closure
from .errors import (InvariantError, NotInClassError, NoZeroOutdegreeStartError,
                     ParseError, RepresentationError)
from .graph import _lex_bfs, bfs_path
from .pog import Certificate, Ordering, Pog, _Record, _triangles, classify, \
    find_directed_cycle, require_oriented
from .rounds import find_round_ordering


# -- representations ---------------------------------------------------


class Representation(_Record):
    kind: str        # 'interval' or 'circular'
    names: tuple
    spans: tuple     # (left, right) per name; circular spans may wrap
    modulus: int = 0

    def __post_init__(self):
        if self.kind not in ("interval", "circular"):
            raise RepresentationError("kind must be interval or circular")
        if len(self.names) != len(self.spans):
            raise RepresentationError("one span per vertex required")
        if len(self.index) != len(self.names):
            dup = next(v for k, v in enumerate(self.names)
                       if self.index[v] != k)
            raise RepresentationError("duplicate span for %s" % dup)
        if self.kind == "interval":
            for l, r in self.spans:
                if l > r:
                    raise RepresentationError("interval with negative length")
        else:
            if self.names and self.modulus <= 0:
                raise RepresentationError("circular representation needs a modulus")
            for l, r in self.spans:
                if not (0 <= l < self.modulus and 0 <= r < self.modulus):
                    raise RepresentationError("arc endpoint outside the circle")

    @cached_property
    def index(self):
        return {v: k for k, v in enumerate(self.names)}


def parse_representation(text):
    kind = None
    spans, modulus = {}, 0
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "iv" and len(parts) == 4:
            want, vals = "interval", parts[2:]
        elif parts[0] == "ca" and len(parts) == 5:
            want, vals = "circular", parts[2:]
        else:
            raise ParseError("expected 'iv NAME L R' or 'ca NAME S E M'", ln)
        if kind not in (None, want):
            raise ParseError("mixed interval and circular lines", ln)
        kind = want
        if parts[1] in spans:
            raise ParseError("duplicate span for %s" % parts[1], ln)
        try:
            vals = [int(x) for x in vals]
        except ValueError:
            raise ParseError("endpoints must be integers", ln)
        if want == "circular":
            if modulus and vals[2] != modulus:
                raise ParseError("inconsistent modulus", ln)
            modulus = vals[2]
        spans[parts[1]] = (vals[0], vals[1])
    if kind is None:
        raise ParseError("no representation found")
    try:
        return Representation(kind, tuple(spans), tuple(spans.values()),
                              modulus)
    except RepresentationError as exc:
        raise ParseError(str(exc))


def render_representation(R):
    out = []
    for v, (l, r) in zip(R.names, R.spans):
        if R.kind == "interval":
            out.append("iv %s %d %d" % (v, l, r))
        else:
            out.append("ca %s %d %d %d" % (v, l, r, R.modulus))
    return "\n".join(out) + "\n"


def _cover_counts(R):
    """Per span k of a representation with distinct start points: how
    many other start points span k covers, and how many other spans
    cover the start point of span k.  Two bisections per span on the
    sorted start points, and on the sorted ends of the spans that do
    not wrap and of those that do (circular only)."""
    starts = sorted(l for l, _ in R.spans)
    flat = [s for s in R.spans if s[0] <= s[1]]
    wrap = [s for s in R.spans if s[0] > s[1]]
    flat_l, flat_r = sorted(l for l, _ in flat), sorted(r for _, r in flat)
    wrap_l, wrap_r = sorted(l for l, _ in wrap), sorted(r for _, r in wrap)
    n, nw = len(starts), len(wrap_r)
    cov, stab = [], []
    for l, r in R.spans:
        if l <= r:
            c = bisect_right(starts, r) - bisect_left(starts, l)
        else:  # from l up round the circle, then from 0 to r
            c = n - bisect_left(starts, l) + bisect_right(starts, r)
        cov.append(c - 1)
        # a flat span ending before l started before it; a wrapping
        # span covers l from its start on or up to its end, never both
        stab.append(bisect_right(flat_l, l) - bisect_left(flat_r, l)
                    + bisect_right(wrap_l, l) + nw - bisect_left(wrap_r, l)
                    - 1)
    return cov, stab


def _check_pair(R, k, m, km, mk, adjacent, inside):
    """The checks of validate_representation on spans k and m, in
    order, given whether each covers the start point of the other,
    whether their vertices are adjacent and whether one lies strictly
    inside the other."""
    if (km or mk) != adjacent:
        raise RepresentationError(
            "intersection mismatch on %s,%s" % (R.names[k], R.names[m]))
    if inside:
        raise RepresentationError(
            "strict containment on %s,%s" % (R.names[k], R.names[m]))
    # only arcs can: intervals with distinct starts never do
    if km and mk:
        raise RepresentationError(
            "%s,%s cover the whole circle" % (R.names[k], R.names[m]))


def validate_representation(G, R):
    """Check R is a proper representation of UG(G) usable for
    orientation: correct intersection graph, no strict containment,
    pairwise distinct start points, and (circular) no two spans
    covering the whole circle.  Returns the arcs R induces on UG(G):
    u -> v exactly when the span of u covers the start point of the
    span of v.  The first failing pair k < m in the order of R is the
    one reported.

    Rows k = 0, 1, ... are checked in turn, in O(n log n + m) overall.
    Once rows before k have passed, span k meets an earlier span
    exactly when they are adjacent, and spans that do not meet pass
    every check (containment and covering the circle need a covered
    start point).  So the counts of _cover_counts, less what the
    earlier rows saw of span k, are what the later spans give.  When
    k's later neighbours give as much, only they can meet k and need
    checking; otherwise a later non-neighbour meets k, a failing pair,
    and the whole row is checked to report the first.

    The span tests are read off flat lists of starts, ends and lengths:
    the offset of a point from the start of span k is taken modulo the
    circle, and intervals lie on a circle too long to wrap (more than
    twice the distance between any two endpoints), so that a point
    before the start of an interval has an offset beyond every length."""
    if set(R.names) != set(G.names):
        raise RepresentationError("representation names do not match the graph")
    starts = [l for l, _ in R.spans]
    if len(set(starts)) != len(starts):
        raise RepresentationError("start points must be pairwise distinct")
    ends = [r for _, r in R.spans]
    if R.kind == "circular":
        M = R.modulus
    else:
        M = 2 * (max(starts + ends, default=0) - min(starts + ends, default=0)) + 1
    size = [(r - l) % M for l, r in R.spans]
    at = [G.index[v] for v in R.names]
    row = {v: k for k, v in enumerate(at)}
    cov, stab = _cover_counts(R)

    def pairs(k, later):
        """(m, offset of m's start from k's, and of k's from m's) per m."""
        s = starts[k]
        return [(m, (starts[m] - s) % M, (s - starts[m]) % M) for m in later]

    arcs = set()
    for k in range(len(at)):
        nbrs, s, e, z = G.adj[at[k]], starts[k], ends[k], size[k]
        later = pairs(k, sorted(m for m in map(row.__getitem__, nbrs) if m > k))
        if cov[k] != sum(a <= z for _, a, _ in later) or \
                stab[k] != sum(b <= size[m] for m, _, b in later):
            later = pairs(k, range(k + 1, len(at)))
        for m, a, b in later:
            km, mk = a <= z, b <= size[m]  # each covers the other's start
            # m strictly inside k needs km, k inside m needs mk
            _check_pair(R, k, m, km, mk, at[m] in nbrs,
                        km and 0 < a <= (ends[m] - s) % M < z
                        or mk and 0 < b <= (e - starts[m]) % M < size[m])
            cov[m] -= mk
            stab[m] -= km
            if km or mk:
                arcs.add((at[k], at[m]) if km else (at[m], at[k]))
    return arcs


def orientation_from_representation(G, R):
    """Orient UG(G) as R induces it (see validate_representation)."""
    return Pog._trusted(G.names, frozenset(),
                        frozenset(validate_representation(G, R)), like=G)


# -- search order and elimination --------------------------------------


def lbfs(G, arc_aware=None):
    """Lexicographic breadth-first search producing a linear ordering
    (a perfect elimination ordering when UG(G) is chordal), by partition
    refinement in O((n + m) log n) (`graph._lex_bfs`).  The first vertex
    numbered is the last of the ordering; ties go to the smallest index.

    With `arc_aware`, a pog on the same vertices, the start vertex must
    have no out-arcs and ties prefer vertices without out-arcs into the
    unlabelled set.
    """
    if arc_aware is None or not arc_aware.arcs:  # then every tie is quiet
        return Ordering("linear", tuple(_lex_bfs(G.adj)))
    out = arc_aware.out_nbrs
    if all(out):
        raise NoZeroOutdegreeStartError("every vertex has an out-arc")
    return Ordering("linear", tuple(_lex_bfs(G.adj, out)))


def check_peo(G, O):
    """Perfect elimination check: (True, None) or (False, triple)."""
    for idx, v in enumerate(O.seq):
        later = [w for w in G.adj[v] if O.pos[w] > idx]
        if not later:
            continue
        u = min(later, key=lambda w: O.pos[w])
        for w in sorted(later, key=lambda w: O.pos[w]):
            if w != u and not G.adjacent(u, w):
                return False, (G.names[v], G.names[u], G.names[w])
    return True, None


# -- obstructions ------------------------------------------------------


def _find_hole(G, triple):
    """The hole through the triple (v, u, w) of names at which check_peo
    failed on an order of lbfs, as a NotChordal certificate: v, then the
    shortest u-w path that avoids N[v] - {u, w}, found by one
    breadth-first search.

    u and w are non-adjacent neighbours of v that the search visited
    before v; write a < b when a was visited before b.  If a < b < c,
    ac is an edge and ab is not, then b was chosen over c with a in the
    label of c only, so the first vertex d (in visit order) on which the
    labels of b and c differ is a neighbour of b and not of c, and d < a.
    By induction on b there is an a-b path whose inner vertices come
    before a and lie outside N[c]: a, d, b when ad is an edge, and
    otherwise the path of the triple d < a < b, whose inner vertices come
    before d and lie outside N[b], hence outside N[c] (b and c see the
    same vertices before d), followed by d and b.  With {a, b} = {u, w}
    and c = v, some u-w path avoids N[v] - {u, w}.  The shortest one has
    no chord, v is adjacent to its ends only, and u, w are not adjacent,
    so with v it closes a chordless cycle of length at least 4."""
    v, u, w = map(G.index.__getitem__, triple)
    banned = (G.adj[v] | {v}) - {u, w}
    path = bfs_path(lambda a: [b for b in sorted(G.adj[a]) if b not in banned],
                    u, w)
    if path is None:
        raise InvariantError("no hole through a failed elimination")
    return Certificate("NotChordal", {
        "kind": "hole", "vertices": [G.names[x] for x in [v] + path]})


def _find_tent(G):
    for t1, t2, t3 in _triangles(G):
        tri = [t1, t2, t3]
        side = []
        for s in range(3):
            a, b, c = tri[s], tri[(s + 1) % 3], tri[(s + 2) % 3]
            side.append(sorted(q for q in (G.adj[a] & G.adj[b])
                               if q not in tri and not G.adjacent(q, c)))
        # only side[s] misses tri[s - 1], so the sides are disjoint
        for q1 in side[0]:
            for q2 in side[1]:
                if G.adjacent(q1, q2):
                    continue
                for q3 in side[2]:
                    if G.adjacent(q1, q3) or G.adjacent(q2, q3):
                        continue
                    return [t1, t2, t3, q1, q2, q3]
    return None


# -- completion to acyclic local tournaments ---------------------------


def complete_to_acyclic_lt(P):
    """Complete a pog to an acyclic local tournament, or return a
    certificate refuting the completion."""
    closed = consentaneous_closure(P)
    if isinstance(closed, Certificate):
        return closed
    cyc = find_directed_cycle(closed)
    if cyc is not None:
        payload = {"cycle": [P.names[v] for v in cyc]}
        if any((u, v) not in P.arcs
               for u, v in zip(cyc, cyc[1:] + cyc[:1])):
            payload["location"] = {"kind": "closure"}
        return Certificate("DirectedCycle", payload)
    O = lbfs(P.underlying_graph(), arc_aware=closed)  # acyclic: it has a sink
    for u, v in closed.arcs:
        if O.pos[u] > O.pos[v]:
            raise InvariantError("search order produced a backward arc")
    ok, triple = check_peo(P.underlying_graph(), O)
    if not ok:
        return _find_hole(P, triple)
    # a component without arcs orients the class of its pair that comes
    # first by the positions of both endpoints
    D = _orient_classes(closed,
                        fill=lambda pair: (O.pos[pair[0]], O.pos[pair[1]]))
    if not classify(D).acyclic_local_tournament:
        # The aux graph is 2-coloured, so UG(P) has a local tournament
        # orientation, and so has each induced subgraph; the claw and the
        # net have none.  The elimination check passed, so UG(P) is
        # chordal, and a chordal graph without claw, net or tent is a
        # proper interval graph (Wegner): only a tent can be left.
        tent = _find_tent(P)
        if tent is None:
            raise InvariantError("colouring failed on a proper interval graph")
        return Certificate("NotChordal", {
            "kind": "tent", "vertices": [P.names[v] for v in tent]})
    return D


# -- building representations ------------------------------------------


def _linear_order(D, O):
    """The round ordering O of D with each component rotated to start
    at its first vertex without in-arcs.  Out-neighbours follow their
    tail directly, so an arc across that cut would make its tail an
    in-neighbour of that vertex: every arc points forwards.  So a round
    component is acyclic exactly when it has such a vertex."""
    seq = []
    for part in D.ug_parts(O.seq):
        s = next((t for t, v in enumerate(part) if not D.in_nbrs[v]), None)
        if s is None:
            raise NotInClassError("not an acyclic local tournament")
        seq.extend(part[s:] + part[:s])
    return seq


def representation_from_orientation(D, kind):
    """Unit-style representation realizing an oriented graph.

    `interval` needs an acyclic local tournament, `circular` a locally
    transitive local tournament, acyclic when its underlying graph is
    disconnected: the arcs of a component that covers the circle meet
    every other arc, so then every component is laid out as intervals.
    The vertex at position t of a round ordering starts at 2t and runs
    to just past its last out-neighbour, the next d+(v) positions.

    A round ordering decides both classes: a connected local tournament
    is round exactly when it is locally transitive (Huang, JCTB 63,
    1995), and acyclic local tournaments are locally transitive.
    """
    require_oriented(D)
    if kind not in ("interval", "circular"):
        raise ValueError("kind must be interval or circular")
    O = find_round_ordering(D)
    if O is None:
        raise NotInClassError("not a locally transitive local tournament"
                              if kind == "circular"
                              else "not an acyclic local tournament")
    linear = kind == "interval" or len(D.ug_components) > 1
    seq = _linear_order(D, O) if linear else O.seq
    n = D.n
    R = Representation(kind, tuple(D.names[v] for v in seq),
                       tuple((2 * t, 2 * ((t + len(D.out_nbrs[v])) % n) + 1)
                             for t, v in enumerate(seq)),
                       2 * n if kind == "circular" else 0)
    try:
        back = orientation_from_representation(D, R)
    except RepresentationError as exc:
        raise InvariantError("constructed representation is invalid: %s" % exc)
    if back.arcs != D.arcs:
        raise InvariantError("representation does not induce the orientation")
    return R


def _orient_window(G, partial):
    """UG(G) with, as arcs, the orientation that a partial representation
    induces on the vertices it names.  Raises RepresentationError when it
    names an unknown vertex or does not represent the subgraph they
    induce."""
    missing = set(partial.names) - set(G.names)
    if missing:
        raise RepresentationError("unknown vertex %s" % sorted(missing)[0])
    U = G.underlying_graph()
    window = orientation_from_representation(
        U.induced([G.index[v] for v in partial.names]), partial)
    return U.orient([(G.index[window.names[i]], G.index[window.names[j]])
                     for i, j in window.arcs])


def extend_interval_representation(G, partial=None):
    """Extend a proper interval representation of an induced subgraph to
    the whole graph, matching it at the orientation level.  Returns a
    Representation or a refuting certificate.  With no partial
    representation this is plain recognition."""
    D = complete_to_acyclic_lt(G.underlying_graph() if partial is None
                               else _orient_window(G, partial))
    if isinstance(D, Certificate):
        return D
    return representation_from_orientation(D, "interval")
