"""Round, excellent and nice orderings; locally transitive tournaments.

A round ordering places the out-neighbours of every vertex immediately
after it and the in-neighbours immediately before it (cyclically,
within each connected component of the underlying graph).  Excellence
forbids an arc running backwards inside the cyclic span of another
arc; `check_ordering` decides it by a running maximum, O(n + arcs log
arcs).

A tournament is round on a cyclic ordering O when every vertex beats
a run of the vertices right after it, and the round tournaments are
the locally transitive ones (Huang, JCTB 63, 1995).  One is carried as
O's sequence and its run lengths (runs[t]: how many vertices after
seq[t] it beats); `_by_runs` alone writes one out.  `_round_tournament`
gives the one that contains a pog's arcs by a rule on the arcs' spans;
it exists exactly when O is excellent for the arcs.  `ordering_to_ltt`
writes it, completion under an excellent ordering orients the edges as
it does, and saturation adds the pairs the rule forces.  `round_to_ltt`
takes its runs per component, on the component's round ordering, and
merges them, as the friendly completion of a complete pog does for its
arc parts; no merge writes a tournament.  Each public answer is
self-checked once, on the ordering it was built on: O is a round
ordering of the tournament, read along its one cycle, and the
tournament keeps the input arcs.

The round ordering also decides membership: a pog is a locally
transitive tournament exactly when it is an oriented tournament with a
round ordering (`_ltt_ordering`).  Its Moon parts are the maximal runs
of consecutive twins on that ordering; they are transitive, and each
beats the next (q - 1)/2 of the q parts.  `merge_ltt` reads both
tournaments' parts off their orderings and interleaves them into one
round tournament.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

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


def _by_runs(names, seq, runs):
    """The digraph on `names` in which seq[t] beats the runs[t] vertices
    after it on the cycle seq: the one writer of a round tournament."""
    n = len(seq)
    return Pog(names, frozenset(), frozenset(
        (v, seq[(t + d) % n]) for t, v in enumerate(seq)
        for d in range(1, runs[t] + 1)))


def _spans(P, O):
    """Per position i of O, (f(i), k) of `_round_tournament`'s rule: i
    is forced to beat i+1 .. i+f(i) and beats i+1 .. i+k; None when some
    pair is both forced and forbidden (O is not excellent for P)."""
    n = P.n
    far = _furthest_heads(P, O, P.arcs)
    out, x = [], 0              # x - i is d0(i), or n when none
    for i in range(n):
        forced = max(far[i + n] - (i + n), 0)
        while x < i + n and far[x] < i + n:     # x may be i: far[i] < i + n
            x += 1
        if forced >= x - i:
            return None
        half = n // 2 if i < n // 2 else (n - 1) // 2
        out.append((forced, max(forced, min(half, x - i - 1))))
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
    moves back as i grows (`_spans`).  Deciding is O(n + arcs); writing
    the tournament out is Theta(n^2)."""
    spans = _spans(P, O)
    return None if spans is None else \
        _by_runs(P.names, O.seq, [k for f, k in spans])


def _excellent_spans(P, O):
    """`_spans` of an ordering that must be excellent for P."""
    ok, wit = check_ordering(P, O, "excellent")
    if not ok:
        raise NotInClassError("ordering is not excellent: %r" % (wit,))
    spans = _spans(P, O)
    if spans is None:
        raise InvariantError("excellent ordering has no round tournament")
    return spans


def ordering_to_ltt(P, O):
    """Locally transitive tournament containing P, from an excellent
    ordering: `_round_tournament`, re-checked to be round on O."""
    T = _by_runs(P.names, O.seq, [k for f, k in _excellent_spans(P, O)])
    _require_round(T, O, P.arcs, "completion")
    return T


def complete_under_excellent(P, O):
    """Orient every edge of P so that O stays excellent: each edge goes
    the way the round tournament on O orients it."""
    T = ordering_to_ltt(P, O)
    return P.orient([e if e in T.arcs else e[::-1] for e in sorted(P.edges)])


def saturate_to_round_lt(D, O):
    """Add an arc between every non-adjacent pair inside some arc's
    span: the result is the pairs `_round_tournament`'s rule forces,
    which hold D's arcs (each forced by its own span) and, O being
    excellent, no arc the other way.  It is round with ordering O."""
    require_oriented(D)
    R = _by_runs(D.names, O.seq, [f for f, k in _excellent_spans(D, O)])
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
    """The round tournament of each part of D (a sorted vertex list
    inducing a round digraph) on its round ordering, merged in D's
    indices and written out once."""
    seq, runs = [], []
    for part in parts:
        sub = D.induced(part)
        Oc = find_round_ordering(sub)
        if Oc is None:
            raise NotRoundError("digraph has no round ordering")
        spans = _spans(sub, Oc)
        if spans is None:
            raise InvariantError("round ordering is not excellent")
        seq, runs = _merge(seq, runs, [part[v] for v in Oc.seq],
                           [k for f, k in spans])
    T = _by_runs(D.names, seq, runs)
    _require_round(T, Ordering("cyclic", tuple(seq)), D.arcs, "completion")
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


def _ltt_runs(T, what):
    """T's round ordering as a sequence, and T's runs on it: each vertex
    beats the out-degree many vertices right after it."""
    seq = list(ltt_to_ordering(T, what).seq)
    return seq, [len(T.out_nbrs[v]) for v in seq]


def _moon_runs(seq, runs):
    """The Moon parts of the round tournament (seq, runs): seq split
    into maximal runs of consecutive twins, listed cyclically from the
    part with the smallest first vertex.  u -> v, v right after u, are
    twins (out(u) = out(v) + {v}) exactly when u's run is one longer
    than v's.  Runs fall along a part, so some part starts for n > 0."""
    n = len(seq)
    if not n:
        return []
    starts = [k for k in range(n) if runs[k - 1] != runs[k] + 1]
    parts = [[seq[x % n] for x in range(s, e)]
             for s, e in zip(starts, starts[1:] + [starts[0] + n])]
    low = min(range(len(parts)), key=lambda r: parts[r][0])
    return parts[low:] + parts[:low]


def _by_cells(cells):
    """The runs, along the cells in turn, of the round tournament in
    which each of the q cells is transitive in its order and beats the
    next (q - 1)/2 cells."""
    q = len(cells)
    h = (q - 1) // 2
    ahead = sum(len(cells[c]) for c in range(1, h + 1))
    runs = []
    for c, cell in enumerate(cells):
        m = len(cell)
        runs.extend(ahead + m - 1 - j for j in range(m))
        ahead += len(cells[(c + h + 1) % q]) - len(cells[(c + 1) % q])
    return runs


def moon_decompose(T):
    """Partition a locally transitive tournament into transitive parts
    whose quotient (the frame) is highly regular: the runs of twins of
    its round ordering.  Checked: each part beats the next (q - 1)/2
    in T, so the frame is highly regular and rebuilds T."""
    cyc = _moon_runs(*_ltt_runs(T, "input"))
    seq = [v for p in cyc for v in p]
    if _by_runs(T.names, seq, _by_cells(cyc)).arcs != T.arcs:
        raise InvariantError("decomposition does not rebuild the tournament")
    parts = sorted(cyc, key=lambda p: p[0])
    rank = {p[0]: x for x, p in enumerate(parts)}
    frame = _by_runs(tuple(T.names[p[0]] for p in parts),
                     [rank[p[0]] for p in cyc], [(len(cyc) - 1) // 2] * len(cyc))
    return MoonDecomposition(frame, tuple(tuple(T.names[v] for v in p)
                                          for p in parts))


def merge_ltt(T1, T2):
    """Merge two locally transitive tournaments on disjoint vertex sets
    into one locally transitive tournament containing both."""
    if set(T1.names) & set(T2.names):
        raise InvariantError("vertex names are not disjoint")
    s1, r1 = _ltt_runs(T1, "first tournament")
    s2, r2 = _ltt_runs(T2, "second tournament")
    n1 = T1.n                   # T2's vertex v is n1 + v in the merge
    seq, runs = _merge(s1, r1, [n1 + v for v in s2], r2)
    T = _by_runs(T1.names + T2.names, seq, runs)
    _require_round(T, Ordering("cyclic", tuple(seq)),
                   T1.arcs | {(n1 + i, n1 + j) for i, j in T2.arcs}, "merge")
    return T


def _merge(s1, r1, s2, r2):
    """merge_ltt on round tournaments given as (sequence, runs) on
    disjoint vertices, unchecked; returns the merge as the same."""
    if not s1:
        return s2, r2
    if not s2:
        return s1, r1
    X, Y = _moon_runs(s1, r1), _moon_runs(s2, r2)
    if len(Y) > len(X):
        X, Y = Y, X
    a, b = (len(X) - 1) // 2, (len(Y) - 1) // 2
    # X_0..X_b with Y_0..Y_b, then X_{a+1}..X_{a+b} with Y_{b+1}..Y_{2b}
    cells = [X[k] + Y[k] for k in range(b + 1)] + X[b + 1:a + 1]
    cells += [X[a + k] + Y[b + k] for k in range(1, b + 1)] + X[a + b + 1:]
    return [v for cell in cells for v in cell], _by_cells(cells)
