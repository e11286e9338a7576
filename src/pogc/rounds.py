"""Round, excellent and nice orderings; locally transitive tournaments.

A round ordering places the out-neighbours of every vertex immediately
after it and the in-neighbours immediately before it (cyclically,
within each connected component of the underlying graph).  Excellence
forbids an arc running backwards inside the cyclic span of another
arc; `check_ordering` decides it and `maximal_arcs` lists the arcs in
no other arc's span, both by a running maximum, O(n + arcs log arcs).

A tournament is round on a cyclic ordering O when every vertex beats
a run of the vertices right after it, and the round tournaments are
the locally transitive ones (Huang, JCTB 63, 1995).  `_round_tournament`
builds the one that contains a pog's arcs by a rule on the arcs' spans;
it exists exactly when O is excellent for the arcs.  `ordering_to_ltt`
reads its tournament off it, and completion under an excellent
ordering orients the edges as that tournament does.  `round_to_ltt`
builds it per component, on the component's round ordering, and merges
the parts, as the friendly completion of a complete pog does for its
arc parts.  Each public answer is self-checked once, on the ordering
it was built on: O is a round ordering of the tournament, read along
its one cycle, and the tournament keeps the input arcs.

The round ordering also decides membership: a pog is a locally
transitive tournament exactly when it is an oriented tournament with a
round ordering (`_ltt_ordering`).  Its Moon parts are the maximal runs
of consecutive twins on that ordering; they are transitive, and the
frame on one vertex per part is highly regular.  `merge_ltt` reads
both tournaments' parts off their orderings and interleaves them into
one round tournament.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, combinations, product

from .errors import InvariantError, NotInClassError, NotRoundError
from .pog import Ordering, Pog, _Record, require_oriented

ORDER_KINDS = ("round", "excellent", "nice")


def check_ordering(P, O, kind):
    """Validate an ordering property.  Returns (ok, witness) where the
    witness is the first violation in scan order (vertex names)."""
    if kind not in ORDER_KINDS:
        raise ValueError("unknown ordering kind %r" % kind)
    if len(O.seq) != P.n:
        raise InvariantError("ordering does not cover the vertex set")
    if kind == "round":
        if not P.is_oriented():
            raise NotInClassError("round orderings need an oriented graph")
        for part in P.ug_parts(O.seq):
            wit = _check_round(P, part)
            if wit is not None:
                return False, wit
        return True, None
    if kind == "excellent":
        return _check_excellent(P, O)
    return _check_nice(P, O)


def _check_round(P, seq):
    """First violation of roundness in the cyclic arrangement seq of one
    component, as (vertex, side, neighbour) names, or None."""
    k = len(seq)
    for t, v in enumerate(seq):
        out = P.out_nbrs[v]
        want = {seq[(t + 1 + s) % k] for s in range(len(out))}
        if out != want:
            return P.names[v], "out", P.names[min(out ^ want)]
        inn = P.in_nbrs[v]
        want = {seq[(t - 1 - s) % k] for s in range(len(inn))}
        if inn != want:
            return P.names[v], "in", P.names[min(inn ^ want)]
    return None


def _excellent_violation(P, O, a, b):
    """Arc b runs backwards inside the cyclic span of arc a."""
    if a == b:
        return False
    n = P.n
    i, j = a
    s, t = b
    base = O.pos[i]
    r = lambda x: (O.pos[x] - base) % n
    return r(t) < r(s) <= r(j)


def _by_position(P, O):
    return sorted(P.arcs, key=lambda a: (O.pos[a[0]], O.pos[a[1]]))


def _check_excellent(P, O):
    """Arc (i, j) has a backward arc inside its span exactly when a tail
    in [pos i, pos i + span], on the cycle unrolled twice, reaches pos i
    + n or beyond; a tail before pos i reaches less.  So it fails when
    far[pos i + span] >= pos i + n, O(n + arcs log arcs) with the arcs
    sorted; the witness b is then named by one scan over the arcs."""
    n, pos = P.n, O.pos
    arcs = _by_position(P, O)
    far = _furthest_heads(P, O, arcs)
    for a in arcs:
        lo = pos[a[0]]
        if far[lo + (pos[a[1]] - lo) % n] >= lo + n:
            b = next(b for b in arcs if _excellent_violation(P, O, a, b))
            return False, ((P.names[a[0]], P.names[a[1]]),
                           (P.names[b[0]], P.names[b[1]]))
    return True, None


def _check_nice(P, O):
    """Arc (v_i, v_k) is violated by an arc (v_j, v_i) whose tail lies
    in the cyclic interval (pos i, pos k); the witness is the first such
    v_j by position.  Each vertex's in-neighbour positions are sorted
    once and each arc makes one bisection, O((n + arcs) log n)."""
    pos, seq = O.pos, O.seq
    ins = [sorted(pos[j] for j in P.in_nbrs[v]) for v in range(P.n)]
    for i, k in _by_position(P, O):     # arc (v_i, v_k)
        at, a, b = ins[i], pos[i], pos[k]
        x = bisect_right(at, a)
        if b < a and at and at[0] < b:  # the interval wraps past the end
            x = 0
        if x < len(at) and (at[x] < b or b < a):
            return False, (P.names[k], P.names[i], P.names[seq[at[x]]])
    return True, None


# -- finding round orderings -------------------------------------------


def _succ_map(P, comp):
    """succ(v) = the source of N+(v): the vertex there with an arc to
    every other one; None when d+(v) = 0, raises LookupError when N+(v)
    has no source (the component is then not round).  Two sources would
    form a 2-cycle, so the first one found is the only one."""
    succ = {}
    for v in comp:
        out = P.out_nbrs[v]
        if not out:
            succ[v] = None
            continue
        src = next((u for u in out if out - {u} <= P.out_nbrs[u]), None)
        if src is None:
            raise LookupError
        succ[v] = src
    return succ


def _component_round(P, comp):
    """Round ordering of one component as a vertex list, or None.

    In a round ordering each vertex with out-neighbours is followed by
    succ(v).  A vertex without out-neighbours is followed by one without
    in-neighbours, which no out-interval can reach, so no arc joins two
    maximal succ-paths: a connected round component is one succ-path or
    one succ-cycle, and that walk is the only candidate.
    """
    try:
        succ = _succ_map(P, comp)
    except LookupError:
        return None
    nexts = [u for u in succ.values() if u is not None]
    has_pred = set(nexts)
    if len(has_pred) != len(nexts):
        return None  # succ not injective
    starts = [v for v in comp if v not in has_pred]
    if len(starts) > 1:
        return None
    walk = [starts[0] if starts else comp[0]]
    while len(walk) < len(comp):
        nxt = succ[walk[-1]]
        if nxt is None or nxt == walk[0]:
            return None  # more than one path or cycle
        walk.append(nxt)
    return walk if _check_round(P, walk) is None else None


def find_round_ordering(D):
    """A round ordering of D (cyclic, componentwise), or None."""
    require_oriented(D)
    seq = []
    for comp in D.ug_components:
        part = _component_round(D, comp)
        if part is None:
            return None
        low = part.index(min(part))
        seq.extend(part[low:] + part[:low])
    return Ordering("cyclic", tuple(seq))


# -- excellence based completion ---------------------------------------


def _furthest_heads(P, O, arcs):
    """far[x], x < 2n: the furthest head reached by an arc of `arcs` (P's
    arcs, fastest sorted) with tail at or before x, unrolled twice, or -1."""
    n, pos = P.n, O.pos
    far = [-1] * (2 * n)
    for u, v in arcs:
        x = pos[u]
        head = x + (pos[v] - x) % n
        if head > far[x]:
            far[x] = head
        if head + n > far[x + n]:
            far[x + n] = head + n
    return list(accumulate(far, max))


def maximal_arcs(P, O):
    """Arcs not lying inside the cyclic span of any other arc.

    With x = pos i + n, arc (i, j) lies in another arc's span exactly
    when a longer arc leaves i (far[x] passes its head) or one whose
    tail is 1 to n - 1 positions before i reaches its head (far[x - 1]
    does); a tail n or more positions back reaches less than x.
    O(n + arcs log arcs) with the arcs sorted."""
    n, pos = P.n, O.pos
    arcs = _by_position(P, O)
    far = _furthest_heads(P, O, arcs)
    out = []
    for i, j in arcs:
        x = pos[i] + n
        head = x + (pos[j] - pos[i]) % n
        if far[x] == head and far[x - 1] < head:
            out.append((i, j))
    return out


def _round_tournament(P, O):
    """The round tournament on O that contains P's arcs, or None; None
    exactly when O is not excellent for P.

    The rule: on positions of O, with the cycle unrolled, "i beats i+d"
    (0 < d < n) is forced when the segment [i, i+d] lies inside the span
    of an arc of P, forbidden when [i+d, i+n] does, and otherwise the
    shorter way round wins, i < n/2 at d = n/2.  Forced for (i, d) is
    forbidden for (i+d, n-d) and the default is antisymmetric, so with
    no (i, d) both forced and forbidden every pair is oriented once, and
    each arc of P is forced by its own span.

    Round: every sub-segment of a segment inside a span is inside it,
    so for each i the forced d are 1 .. f(i), the forbidden ones
    d0(i) .. n-1 and the default ones 1 .. h(i).  So i beats exactly
    i+1 .. i+k with k = max(f(i), min(h(i), d0(i) - 1)), and the round
    tournaments are the locally transitive ones (Huang, JCTB 63, 1995).

    A conflict is a non-excellence.  If arc (s, t) runs backwards inside
    the span of arc a, "t beats s" is forced by a and forbidden by
    (s, t), whose span is [s, t+n].  Conversely, let [i, i+d] lie in the
    span A of an arc a and [i+d, i+n] in the span B of an arc (s, t).
    A and B cover the cycle, so B holds the part outside A and, being
    shorter than the cycle, has both ends in A.  Were s before t in A,
    B would lie inside A; so (s, t) runs backwards inside a's span.

    With far from `_furthest_heads`, f(i) = far[i+n] - (i+n), and d is
    forbidden exactly when far[i+d] >= i+n; the first such i+d never
    moves back as i grows.  Deciding is O(n + arcs); writing the
    tournament out is Theta(n^2)."""
    n, seq = P.n, O.seq
    far = _furthest_heads(P, O, P.arcs)
    arcs, x = [], 0             # x - i is d0(i), or n when none
    for i in range(n):
        forced = far[i + n] - (i + n)
        while x < i + n and far[x] < i + n:     # x may be i: far[i] < i + n
            x += 1
        if forced >= x - i:
            return None
        half = n // 2 if i < n // 2 else (n - 1) // 2
        k = max(forced, min(half, x - i - 1))
        arcs.extend((seq[i], seq[(i + d) % n]) for d in range(1, k + 1))
    return Pog(P.names, frozenset(), frozenset(arcs))


def _require_excellent(P, O):
    ok, wit = check_ordering(P, O, "excellent")
    if not ok:
        raise NotInClassError("ordering is not excellent: %r" % (wit,))


def ordering_to_ltt(P, O):
    """Locally transitive tournament containing P, from an excellent
    ordering: the round tournament on O that contains P's arcs, read
    off the arcs' spans (see `_round_tournament`), then re-checked to
    be round on O."""
    _require_excellent(P, O)
    T = _round_tournament(P, O)
    if T is None:
        raise InvariantError("excellent ordering has no round tournament")
    _require_round(T, O, P.arcs, "completion")
    return T


def complete_under_excellent(P, O):
    """Orient every edge of P so that O stays excellent: each edge goes
    the way the round tournament on O orients it."""
    T = ordering_to_ltt(P, O)
    return P.orient([e if e in T.arcs else e[::-1] for e in sorted(P.edges)])


def saturate_to_round_lt(D, O):
    """Add arcs between non-adjacent pairs inside spans of maximal arcs,
    in one pass: every added arc lies inside a maximal span, so the
    maximal arcs stay the same, and excellence keeps two spans from
    ordering a pair both ways.  The result is round with ordering O."""
    require_oriented(D)
    _require_excellent(D, O)
    n = D.n
    add = set()
    for i, j in maximal_arcs(D, O):
        base = O.pos[i]
        span = [O.seq[(base + s) % n] for s in range((O.pos[j] - base) % n + 1)]
        add.update((p, q) for s, p in enumerate(span) for q in span[s + 1:]
                   if not D.adjacent(p, q))
    R = Pog(D.names, D.edges, D.arcs | frozenset(add))
    ok, wit = check_ordering(R, O, "round")
    if not ok:
        raise InvariantError("saturation did not reach a round digraph: %r" % (wit,))
    return R


# -- completion to locally transitive tournaments ----------------------


def _ltt_ordering(T):
    """A round ordering of T when T is a locally transitive tournament,
    else None: a tournament is locally transitive exactly when it is
    round (Huang, JCTB 63, 1995).  T is a tournament with no edge left
    exactly when every pair is an arc; that is tested first because
    `find_round_ordering` rejects edges."""
    if len(T.arcs) != T.n * (T.n - 1) // 2:
        return None
    return find_round_ordering(T)


def _require_round(T, O, arcs, what):
    """Self-check of a tournament T built round on O: T is a tournament,
    so connected, and O is a round ordering of it, read along its one
    cycle; and T contains the input arcs."""
    if len(T.arcs) != T.n * (T.n - 1) // 2 \
            or _check_round(T, O.seq) is not None:
        raise InvariantError("%s is not a locally transitive tournament" % what)
    if not arcs <= T.arcs:
        raise InvariantError("%s dropped an input arc" % what)


def _ltt_of_parts(D, parts):
    """The round tournament of each part of D (a vertex list inducing a
    round digraph) on its round ordering, merged, and re-indexed as in D
    unless it already is (one part holding D's vertices in order)."""
    T, O = Pog((), frozenset(), frozenset()), Ordering("cyclic", ())
    for part in parts:
        sub = D.induced(part)
        Oc = find_round_ordering(sub)
        if Oc is None:
            raise NotRoundError("digraph has no round ordering")
        Tc = _round_tournament(sub, Oc)
        if Tc is None:
            raise InvariantError("round ordering is not excellent")
        T, O = _merge(T, O, Tc, Oc)
    if T.names != D.names:
        at = [D.index[v] for v in T.names]
        T = Pog(D.names, frozenset(),
                frozenset((at[i], at[j]) for i, j in T.arcs))
        O = Ordering("cyclic", tuple(at[v] for v in O.seq))
    _require_round(T, O, D.arcs, "completion")
    return T


def round_to_ltt(D):
    """Complete a round digraph to a locally transitive tournament: the
    round tournament of each component on its round ordering, merged."""
    require_oriented(D)
    return _ltt_of_parts(D, D.ug_components)


# -- Moon decomposition and merging ------------------------------------


class MoonDecomposition(_Record):
    frame: Pog      # highly regular tournament on part representatives
    parts: tuple    # tuple of name tuples, aligned with frame vertices


def ltt_to_ordering(T, what=None):
    """The round ordering of a locally transitive tournament, which is
    excellent; NotInClassError, naming T as `what`, if T is not one."""
    O = _ltt_ordering(T)
    if O is None:
        raise NotInClassError("%s a locally transitive tournament"
                              % (what + " is not" if what else "not"))
    return O


def _moon_runs(T, O):
    """The Moon parts of T as vertex lists: O split into maximal runs
    of consecutive twins (u -> v with out(u) = out(v) + {v}), each in
    O's order, listed cyclically from the run with the smallest first
    vertex.  Each run is a transitive module and no two runs are twins.
    Out-degrees fall along a run, so some run starts for n > 0."""
    seq, out = O.seq, T.out_nbrs
    n = len(seq)
    if not n:
        return []
    starts = [k for k in range(n) if out[seq[k - 1]] != out[seq[k]] | {seq[k]}]
    runs = [[seq[x % n] for x in range(s, e)]
            for s, e in zip(starts, starts[1:] + [starts[0] + n])]
    low = min(range(len(runs)), key=lambda r: runs[r][0])
    return runs[low:] + runs[:low]


def moon_decompose(T):
    """Partition a locally transitive tournament into transitive parts
    whose quotient (the frame) is highly regular: the runs of twins of
    its round ordering."""
    runs = _moon_runs(T, ltt_to_ordering(T, "input"))
    parts = sorted(runs, key=lambda p: p[0])
    frame = Pog(tuple(T.names[p[0]] for p in parts), frozenset(),
                frozenset((x, y) for x in range(len(parts))
                          for y in range(len(parts))
                          if (parts[x][0], parts[y][0]) in T.arcs))
    q = len(parts)
    if q > 1 and any(len(frame.out_nbrs[x]) != (q - 1) // 2 for x in range(q)):
        raise InvariantError("frame is not highly regular")
    dec = MoonDecomposition(frame, tuple(tuple(T.names[v] for v in p)
                                         for p in parts))
    if _rebuild(T.names, dec).arcs != T.arcs:
        raise InvariantError("decomposition does not rebuild the tournament")
    return dec


def _rebuild(names, dec):
    idx = {v: i for i, v in enumerate(names)}
    parts = [[idx[v] for v in part] for part in dec.parts]
    arcs = set()
    for k, part in enumerate(parts):
        arcs.update(combinations(part, 2))
        for l in dec.frame.out_nbrs[k]:
            arcs.update(product(part, parts[l]))
    return Pog(tuple(names), frozenset(), frozenset(arcs))


def merge_ltt(T1, T2):
    """Merge two locally transitive tournaments on disjoint vertex sets
    into one locally transitive tournament containing both."""
    if set(T1.names) & set(T2.names):
        raise InvariantError("vertex names are not disjoint")
    O1 = ltt_to_ordering(T1, "first tournament")
    O2 = ltt_to_ordering(T2, "second tournament")
    T, O = _merge(T1, O1, T2, O2)
    _require_round(T, O, T1.arcs | {(T1.n + i, T1.n + j) for i, j in T2.arcs},
                   "merge")
    return T


def _merge(T1, O1, T2, O2):
    """merge_ltt on tournaments with known round orderings, unchecked;
    returns the merged tournament and the round ordering it is built
    on."""
    if not T1.n:
        return T2, O2
    if not T2.n:
        return T1, O1
    n1 = T1.n                   # T2's vertex v is n1 + v in the merge
    X = _moon_runs(T1, O1)
    Y = [[n1 + v for v in run] for run in _moon_runs(T2, O2)]
    if len(Y) > len(X):
        X, Y = Y, X
    a = (len(X) - 1) // 2
    b = (len(Y) - 1) // 2

    # X_0..X_b with Y_0..Y_b, then X_{a+1}..X_{a+b} with Y_{b+1}..Y_{2b}
    cells = [X[k] + Y[k] for k in range(b + 1)] + X[b + 1:a + 1]
    cells += [X[a + k] + Y[b + k] for k in range(1, b + 1)] + X[a + b + 1:]

    q = len(cells)
    arcs = set()
    for c, cell in enumerate(cells):
        arcs.update(combinations(cell, 2))
        for step in range(1, (q - 1) // 2 + 1):
            arcs.update(product(cell, cells[(c + step) % q]))
    return (Pog(T1.names + T2.names, frozenset(), frozenset(arcs)),
            Ordering("cyclic", tuple(v for cell in cells for v in cell)))
