"""Proper interval and circular-arc machinery.

Completion to acyclic local tournaments goes through the consentaneous
closure, a search-order pass (LBFS with an arc-aware tie-break), a
perfect elimination check and a lexicographic 2-colouring of the
auxiliary graph.  Representations place each vertex at an even start
point, which makes the induced orientation unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .auxgraph import _orient_classes, build_aux, consentaneous_closure
from .errors import (InvariantError, NotInClassError, NoZeroOutdegreeStartError,
                     ParseError, RepresentationError)
from .pog import Certificate, Ordering, Pog, _components, bfs_path, classify, \
    find_directed_cycle, require_oriented
from .rounds import find_round_ordering


# -- representations ---------------------------------------------------


@dataclass(frozen=True)
class Representation:
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

    def _off(self, k, x):
        """Distance from the start of span k to point x: along the line,
        or clockwise round the circle."""
        d = x - self.spans[k][0]
        return d % self.modulus if self.kind == "circular" else d

    def length(self, k):
        return self._off(k, self.spans[k][1])

    def covers(self, k, point):
        return 0 <= self._off(k, point) <= self.length(k)

    def intersects(self, k, m):
        return (self.covers(k, self.spans[m][0])
                or self.covers(m, self.spans[k][0]))

    def contains_strictly(self, k, m):
        """Span m strictly inside span k (no shared endpoint)."""
        c, d = self.spans[m]
        return 0 < self._off(k, c) <= self._off(k, d) < self.length(k)


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


def validate_representation(G, R):
    """Check R is a proper representation of UG(G) usable for
    orientation: correct intersection graph, no strict containment,
    pairwise distinct start points, and (circular) no two spans
    covering the whole circle.  Returns the arcs R induces on UG(G):
    u -> v exactly when the span of u covers the start point of the
    span of v."""
    if set(R.names) != set(G.names):
        raise RepresentationError("representation names do not match the graph")
    starts = [l for l, _ in R.spans]
    if len(set(starts)) != len(starts):
        raise RepresentationError("start points must be pairwise distinct")
    at = [G.index[v] for v in R.names]
    arcs = set()
    for k in range(len(at)):
        for m in range(k + 1, len(at)):
            km, mk = R.covers(k, starts[m]), R.covers(m, starts[k])
            if (km or mk) != G.adjacent(at[k], at[m]):
                raise RepresentationError(
                    "intersection mismatch on %s,%s" % (R.names[k], R.names[m]))
            if R.contains_strictly(k, m) or R.contains_strictly(m, k):
                raise RepresentationError(
                    "strict containment on %s,%s" % (R.names[k], R.names[m]))
            # only arcs can: intervals with distinct starts never do
            if km and mk:
                raise RepresentationError(
                    "%s,%s cover the whole circle" % (R.names[k], R.names[m]))
            if km or mk:
                arcs.add((at[k], at[m]) if km else (at[m], at[k]))
    return arcs


def orientation_from_representation(G, R):
    """Orient UG(G) as R induces it (see validate_representation)."""
    return Pog(G.names, frozenset(), frozenset(validate_representation(G, R)))


# -- search order and elimination --------------------------------------


def lbfs(G, arc_aware=None):
    """Lexicographic breadth-first search producing a linear ordering
    (a perfect elimination ordering when UG(G) is chordal).

    With `arc_aware`, the start vertex must have no out-arcs and ties
    prefer vertices without out-arcs into the unlabelled set.
    """
    n = G.n
    label = [() for _ in range(n)]
    seq = [None] * n
    unlabeled = set(range(n))
    out = arc_aware.out_nbrs if arc_aware is not None else None
    for i in range(n, 0, -1):
        if i == n:
            cand = sorted(unlabeled)
            if out is not None:
                cand = [v for v in cand if not out[v]]
                if not cand:
                    raise NoZeroOutdegreeStartError(
                        "every vertex has an out-arc")
        else:
            best = max(label[v] for v in unlabeled)
            cand = sorted(v for v in unlabeled if label[v] == best)
            if out is not None:
                quiet = [v for v in cand if not (out[v] & unlabeled)]
                if quiet:
                    cand = quiet
        v = cand[0]
        seq[i - 1] = v
        unlabeled.discard(v)
        for w in G.adj[v]:
            if w in unlabeled:
                label[w] = label[w] + (i,)
    return Ordering("linear", tuple(seq))


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


def _find_hole(G):
    """Hole x, y, ..., z for the first x and first non-adjacent pair y, z
    in N(x) joined by a path avoiding N[x] - {y, z}, or None.  Such a
    path exists exactly when y and z both touch one component of
    G - N[x], so the path search runs once, for that pair."""
    for x in range(G.n):
        closed = G.adj[x] | {x}
        rest = {v: G.adj[v] - closed for v in range(G.n) if v not in closed}
        comp = {}  # vertex of G - N[x] -> first vertex of its component
        for members in _components(rest, rest.__getitem__):
            comp.update(dict.fromkeys(members, members[0]))
        touch = {y: {comp[w] for w in G.adj[y] - closed} for y in G.adj[x]}
        na = sorted(G.adj[x])
        for s in range(len(na)):
            for t in range(s + 1, len(na)):
                y, z = na[s], na[t]
                if G.adjacent(y, z) or not touch[y] & touch[z]:
                    continue
                banned = closed - {y, z}
                return [x] + bfs_path(lambda a: [b for b in sorted(G.adj[a])
                                                 if b not in banned], y, z)
    return None


def _find_claw(G):
    for c in range(G.n):
        na = sorted(G.adj[c])
        for s in range(len(na)):
            for t in range(s + 1, len(na)):
                if G.adjacent(na[s], na[t]):
                    continue
                for u in range(t + 1, len(na)):
                    if not G.adjacent(na[s], na[u]) and not G.adjacent(na[t], na[u]):
                        return [c, na[s], na[t], na[u]]
    return None


def _triangles(G):
    for a in range(G.n):
        for b in sorted(G.adj[a]):
            if b <= a:
                continue
            for c in sorted(G.adj[a] & G.adj[b]):
                if c > b:
                    yield a, b, c


def _find_net(G):
    for t1, t2, t3 in _triangles(G):
        tri = {t1, t2, t3}
        pend = []
        for tt in (t1, t2, t3):
            others = tri - {tt}
            pend.append(sorted(p for p in G.adj[tt]
                               if p not in tri and not (G.adj[p] & others)))
        for p1 in pend[0]:
            for p2 in pend[1]:
                if p2 == p1 or G.adjacent(p1, p2):
                    continue
                for p3 in pend[2]:
                    if p3 in (p1, p2) or G.adjacent(p1, p3) or G.adjacent(p2, p3):
                        continue
                    return [t1, t2, t3, p1, p2, p3]
    return None


def _find_tent(G):
    for t1, t2, t3 in _triangles(G):
        tri = [t1, t2, t3]
        side = []
        for s in range(3):
            a, b, c = tri[s], tri[(s + 1) % 3], tri[(s + 2) % 3]
            side.append(sorted(q for q in (G.adj[a] & G.adj[b])
                               if q not in tri and not G.adjacent(q, c)))
        for q1 in side[0]:
            for q2 in side[1]:
                if q2 == q1 or G.adjacent(q1, q2):
                    continue
                for q3 in side[2]:
                    if q3 in (q1, q2) or G.adjacent(q1, q3) or G.adjacent(q2, q3):
                        continue
                    return [t1, t2, t3, q1, q2, q3]
    return None


def find_proper_interval_obstruction(G):
    """A hole, claw, net or tent in UG(G), as a NotChordal certificate,
    or None when UG(G) is a proper interval graph."""
    hole = _find_hole(G)
    if hole is not None:
        return Certificate("NotChordal", {
            "kind": "hole", "vertices": [G.names[v] for v in hole]})
    for kind, find in (("claw", _find_claw), ("net", _find_net),
                       ("tent", _find_tent)):
        got = find(G)
        if got is not None:
            return Certificate("NotChordal", {
                "kind": kind, "vertices": [G.names[v] for v in got]})
    return None


# -- completion to acyclic local tournaments ---------------------------


def complete_to_acyclic_lt(P):
    """Complete a pog to an acyclic local tournament, or return a
    certificate refuting the completion."""
    X = build_aux(P)
    closed = consentaneous_closure(P, aux=X)
    if isinstance(closed, Certificate):
        return closed
    cyc = find_directed_cycle(closed)
    if cyc is not None:
        payload = {"cycle": [P.names[v] for v in cyc]}
        if any((u, v) not in P.arcs
               for u, v in zip(cyc, cyc[1:] + cyc[:1])):
            payload["location"] = {"kind": "closure"}
        return Certificate("DirectedCycle", payload)
    try:
        O = lbfs(P.underlying_graph(), arc_aware=closed)
    except NoZeroOutdegreeStartError:
        raise InvariantError("cycle-free closure has no sink-free start") from None
    for u, v in closed.arcs:
        if O.pos[u] > O.pos[v]:
            raise InvariantError("search order produced a backward arc")
    ok, _triple = check_peo(P.underlying_graph(), O)
    if not ok:
        cert = find_proper_interval_obstruction(P)
        if cert is None:
            raise InvariantError("elimination failed on a chordal graph")
        return cert
    # a component without arcs orients the class of its pair that comes
    # first by the positions of both endpoints
    D = _orient_classes(closed, X,
                        fill=lambda pair: (O.pos[pair[0]], O.pos[pair[1]]))
    if not classify(D).acyclic_local_tournament:
        cert = find_proper_interval_obstruction(P)
        if cert is None:
            raise InvariantError("colouring failed on a proper interval graph")
        return cert
    return D


# -- building representations ------------------------------------------


def _linear_order(D, O):
    """The round ordering O of an acyclic D with each component rotated
    to start at its first vertex without in-arcs.  Out-neighbours follow
    their tail directly, so an arc across that cut would make its tail
    an in-neighbour of that vertex: every arc points forwards."""
    seq = []
    for part in D.ug_parts(O.seq):
        s = next(t for t, v in enumerate(part) if not D.in_nbrs[v])
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
    """
    require_oriented(D)
    if kind not in ("interval", "circular"):
        raise ValueError("kind must be interval or circular")
    rep = classify(D)
    if kind == "circular" and not rep.locally_transitive:
        raise NotInClassError("not a locally transitive local tournament")
    linear = kind == "interval" or len(D.ug_components()) > 1
    if linear and not rep.acyclic_local_tournament:
        raise NotInClassError("not an acyclic local tournament")
    O = find_round_ordering(D)
    if O is None:
        raise NotInClassError("digraph is not round")
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
