"""Completions outside the local tournament family.

Transitive tournaments reduce to acyclicity, in-tournaments to 2-SAT
over edge orientations, strong completions to one lowpoint DFS of the
bidirected relaxation, which decides Boesch-Tindell's strongness and
bridge tests and orients every edge (Chung-Garey-Tarjan).
Cycle factors match out-copies to in-copies (`graph._matching`) in the
relaxation, arcs one way and edges both ways, at every branch of a
bounded search over edge orientations; a Hall set refutes a completion.
"""

from __future__ import annotations

from .errors import SizeGuardError
from .graph import _lowlink, _matching, bfs_path, topological_order
from .pog import (Certificate, _is_complete, _nonadjacent_pairs, _norm,
                  find_directed_cycle, require_oriented)

MAX_CYCLE_FACTOR_EDGES = 20


# -- transitive tournaments --------------------------------------------


def complete_to_transitive_tournament(P):
    """Complete a partially oriented complete graph to a transitive
    tournament, or return a certificate."""
    if not _is_complete(P):
        pair = next(_nonadjacent_pairs(P, range(P.n)))
        return Certificate("NonAdjacentPair",
                           {"pair": [P.names[v] for v in pair]})
    order = topological_order(range(P.n), P.out_nbrs.__getitem__)
    if order is None:
        cyc = find_directed_cycle(P)
        return Certificate("DirectedCycle", {"cycle": [P.names[v] for v in cyc]})
    pos = {v: k for k, v in enumerate(order)}
    return P.orient([(u, v) if pos[u] < pos[v] else (v, u) for u, v in P.edges])


# -- 2-SAT --------------------------------------------------------------


def two_sat(n, succ):
    """Solve 2-SAT on an implication digraph over nodes 0..n-1, n even,
    in which node k ^ 1 is the negation of node k and `succ(k)` lists
    the nodes k implies, in the order the searches try them.  Returns
    ('sat', truth) with truth[i] the value of node 2i, or ('unsat',
    cycle), a closed walk of nodes from the first 2i that shares a
    strong component with 2i + 1, through 2i + 1 and back."""
    comp = _lowlink(n, succ)[0]
    for k in range(0, n, 2):
        if comp[k] == comp[k + 1]:  # so each reaches the other
            there, back = bfs_path(succ, k, k + 1), bfs_path(succ, k + 1, k)
            return "unsat", there + back[1:]
    # smaller component id = earlier finish = closer to a sink
    return "sat", [comp[k] < comp[k + 1] for k in range(0, n, 2)]


# -- in-tournaments ------------------------------------------------------


def complete_to_in_tournament(P):
    """Complete P to an in-tournament or certify impossibility with an
    implication cycle.

    One 2-SAT variable per adjacent pair (Aspvall, Plass and Tarjan,
    IPL 8, 1979), whose implication digraph is read off P and never
    stored.  The ordered pair (p, q) is node 2r + (p > q), r the rank of
    its pair in sorted(und_pairs), and asserts p -> q; node k ^ 1 is the
    reverse pair.  A completion is an in-tournament iff no
    in-neighbourhood holds two non-adjacent vertices, so p -> q forces
    q -> y for each y in N(q) - N[p], and it forces q -> p when q -> p
    is an arc of P.  succ lists (q, p) first when it is such an arc, then
    the (q, y) in increasing y: the order fixes the search's tree, and so
    the completion and the implication cycle chosen."""
    pairs = sorted(P.und_pairs)
    adj, arcs = P.adj, P.arcs
    node = [{} for _ in range(P.n)]  # node[p][q]: the node of (p, q)
    for r, (u, v) in enumerate(pairs):
        node[u][v], node[v][u] = 2 * r, 2 * r + 1

    def pair(k):
        p, q = pairs[k >> 1]
        return (q, p) if k & 1 else (p, q)

    def succ(k):
        p, q = pair(k)
        out = [k ^ 1] if (q, p) in arcs else []
        at = node[q]
        out += [at[y] for y in sorted(adj[q] - adj[p]) if y != p]
        return out

    status, res = two_sat(2 * len(pairs), succ)
    if status == "unsat":
        return Certificate("NoCompletion", {
            "kind": "two_sat_core",
            "cycle": [[P.names[v] for v in pair(k)] for k in res]})
    edges = P.edges
    return P.orient([(u, v) if res[r] else (v, u)
                     for r, (u, v) in enumerate(pairs) if (u, v) in edges])


# -- strong completions --------------------------------------------------


def complete_to_strong(P):
    """Complete P to a strong oriented graph, or return a Bridge or
    DirectedCut certificate.

    P has a strong completion iff UG(P) is connected and bridgeless and
    the doubled digraph D (`succ` below) is strong (Boesch and Tindell,
    Amer. Math. Monthly 87, 1980).  One DFS decides it and, as Chung,
    Garey and Tarjan (Networks 15, 1985) do, orients the edges: the
    lowpoint DFS of `graph._lowlink` over D, from vertex 0 with
    neighbours in increasing order, never stepping back along the edge
    it came in on.  Its cut holds the tree edges p -> v into the
    vertices v whose lowpoint stays num[v].  If D is not strong, the
    DirectedCut is UG(P)'s first component or, UG(P) connected, the
    smallest vertex's among the components of D that no arc enters.
    Else the Bridge is the smallest p -> v in cut whose subtree S, the
    preorder interval [num[v], num[v] + size[v]), no arc of P enters.
    Else each edge goes the way the search first stepped along it, then
    each edge in cut is turned to v -> p; O(n + m log n) with sorting.

    Its components are D's strong components: the search is Tarjan's
    over D, with the same tree, except that it ignores the arc x -> b
    back along a tree edge b -> x of an edge, and such an x closes none.
    By induction on finishing order, Tarjan's lowlink of x is
    min(low[x], num[b]), or low[x] if b -> x is no edge, as a child c
    under an edge gives Tarjan min(low[c], num[x]) and this search
    low[c] if below num[c], both minima starting at num[x].  So both
    close the same components.

    Now let D be strong.  The ends of an edge are an ancestor and a
    descendant, as the end reached first reaches the other before it
    finishes.  The search first steps along a tree edge from the
    ancestor, and along any other edge from the descendant, since the
    ancestor gets back to it only once the descendant has finished.
    Call the arcs stepped along first used: P's arcs, tree edges
    downwards, other edges upwards.  low[x] is the least num that x
    reaches by tree arcs into vertices whose tree edge is not in cut
    and then one used arc.
    (1) Let p -> v be in cut, S its subtree.  No used arc leaves S: from
    x in S it would reach a vertex numbered below num[v] (all others
    reached before x finished lie in S), and lower below its own number
    the lowpoint of v or of a vertex of S whose tree edge is in cut.  So
    the arc of D that leaves S is unused: the reverse of an edge first
    stepped along into S, which only pv is (an edge used upwards into S
    would start at a descendant of S, inside S).  So pv is an edge and
    the result R can turn it.  Any other pair of UG(P) between S and the
    rest is an arc x -> y of P into S, as an edge would be used out of
    S; pv is a bridge iff there is none, and else x finishes after v
    (had x finished first, y would have become its descendant).  Each
    bridge is such a pv: a tree edge into the side S without 0, in cut
    as the search ignores v -> p, the one arc of D out of S.
    (2) Every vertex reaches 0 in R, by induction on num: v in (1) by
    v -> p, any other x by unturned tree arcs and a used arc to a
    vertex numbered low[x] < num[x].
    (3) 0 reaches every vertex in R, by induction on finishing order,
    last first: a vertex whose tree edge is not in cut from its parent,
    and v in (1) by x -> y, as y reaches 0 by (2) and so passes v,
    whose v -> p is the one arc of R out of S."""
    if P.n <= 1:
        return P
    n, edges = P.n, P.edges
    succ = [list(s) for s in P.out_nbrs]  # D: arcs, then edges both ways
    for u, v in edges:
        succ[u].append(v)
        succ[v].append(u)
    for s in succ:
        s.sort()
    comp, cut, num, parent = _lowlink(
        n, succ.__getitem__, lambda v, w: _norm(v, w) in edges)
    if max(comp):
        side = P.ug_components[0]
        if len(side) == n:
            entered = {comp[w] for v in range(n) for w in succ[v]
                       if comp[v] != comp[w]}
            first = next(c for c in comp if c not in entered)
            side = [v for v in range(n) if comp[v] == first]
        return Certificate("DirectedCut", {"side": [P.names[v] for v in side]})
    if cut:
        # per subtree: size, least and greatest num of vertex or arc tail
        size, lo, hi = [1] * n, num[:], num[:]
        for x, y in P.arcs:
            lo[y], hi[y] = min(lo[y], num[x]), max(hi[y], num[x])
        for v in sorted(range(1, n), key=num.__getitem__, reverse=True):
            p = parent[v]
            size[p] += size[v]
            lo[p], hi[p] = min(lo[p], lo[v]), max(hi[p], hi[v])
        bridges = [_norm(p, v) for p, v in cut
                   if lo[v] >= num[v] and hi[v] < num[v] + size[v]]
        if bridges:
            return Certificate("Bridge",
                               {"edge": [P.names[v] for v in min(bridges)]})
    turned = set(cut)
    chosen = []
    for u, v in edges:
        if num[u] > num[v]:
            u, v = v, u  # u is reached first, so v descends from u
        down = parent[v] == u and (u, v) not in turned
        chosen.append((u, v) if down else (v, u))
    return P.orient(chosen)


# -- cycle factors and arc-strongness ------------------------------------


def find_cycle_factor(D):
    """Spanning collection of disjoint directed cycles, or None.
    A perfect matching between out-copies and in-copies is exactly a
    successor function; each cycle starts at its smallest vertex."""
    require_oriented(D)
    out = [sorted(s) for s in D.out_nbrs]
    match, hall = _matching(range(D.n), out.__getitem__)
    if hall is not None:
        return None
    succ = {u: w for w, u in match.items()}
    cycles = []
    for v in range(D.n):
        if v in succ:
            cycles.append([v])
            while (w := succ.pop(cycles[-1][-1])) != v:
                cycles[-1].append(w)
    return cycles


def _doubled(P):
    """Successor sets of P's arcs and both directions of each edge.  The
    sets an edge extends are copies; the rest are P.out_nbrs' own, which
    iterate as their set copies do (each is a frozenset copy of a set),
    so the matching meets neighbours in the same order."""
    succ = list(P.out_nbrs)
    for v in {v for e in P.edges for v in e}:
        succ[v] = set(succ[v])
    for i, j in P.edges:
        succ[i].add(j)
        succ[j].add(i)
    return succ


def complete_to_cycle_factor_bruteforce(P):
    """First completion with a directed cycle factor in mask order (bit
    k set: sorted edge k backwards), or a certificate.  Depth first, last
    edge first and forwards first, the search takes each chosen
    direction's reverse out of the relaxation `_doubled`, which a cycle
    factor below matches, and prunes where it has no perfect matching:
    a Hall set at the root refutes P; at a leaf it is the completion."""
    succ, edges = _doubled(P), sorted(P.edges)

    def search(k):  # None once succ is a completion's, edges[:k] open
        hall = _matching(range(P.n), succ.__getitem__)[1]
        if hall is not None or not k:
            return hall
        if k > MAX_CYCLE_FACTOR_EDGES:  # only at the root
            raise SizeGuardError("MAX_CYCLE_FACTOR_EDGES",
                                 MAX_CYCLE_FACTOR_EDGES, k, "unoriented edges")
        for u, v in (edges[k - 1], edges[k - 1][::-1]):
            succ[v].discard(u)
            if search(k - 1) is None:
                return None
            succ[v].add(u)
        return ()

    hall = search(len(edges))
    if hall is None:
        return P.orient([(u, v) if v in succ[u] else (v, u)
                         for u, v in edges]) if edges else P
    pay = {"kind": "hall" if hall else "exhausted", "target": "cycle_factor"}
    if hall:
        pay["set"] = [P.names[v] for v in hall]
    return Certificate("NoCompletion", pay)


def is_k_arc_strong(D, k):
    """True when D stays strong after deleting any k-1 arcs: unit
    capacity max-flow at least k from vertex 0 to every t and back.
    That suffices because every s-t arc cut also separates s from 0 or
    0 from t (Menger)."""
    require_oriented(D)
    if k < 1:
        raise ValueError("k must be positive")
    return all(_max_flow(D, s, t, k) >= k
               for v in range(1, D.n) for s, t in ((0, v), (v, 0)))


def _max_flow(D, s, t, cap):
    used = set()  # saturated arcs
    flow = 0

    def residual(v):
        return ([w for w in sorted(D.out_nbrs[v]) if (v, w) not in used]
                + [w for w in sorted(D.in_nbrs[v]) if (w, v) in used])

    while flow < cap:
        path = bfs_path(residual, s, t)
        if path is None:
            return flow
        for v, w in zip(path, path[1:]):
            if (v, w) in D.arcs:
                used.add((v, w))
            else:
                used.discard((w, v))
        flow += 1
    return flow
