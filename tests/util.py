"""Shared test helpers: brute-force oracles and random generators."""

import itertools

from pogc.auxgraph import build_aux
from pogc.classes import ROWS, ClassRow
from pogc.completions import two_sat
from pogc.errors import (InvariantError, NotInClassError,
                         NoZeroOutdegreeStartError, ParseError,
                         RepresentationError)
from pogc.graph import _reach, bfs_path
from pogc.hardness import CnfFormula
from pogc.interval import Representation, orientation_from_representation
from pogc.pog import (NAME_RE, Certificate, Ordering, Pog, _neighbourhoods,
                      _nonadjacent_pairs, _norm, _triangles, classify,
                      find_directed_cycle, require_oriented)
from pogc.rounds import (MoonDecomposition, check_ordering,
                         find_round_ordering)

MAX_NICE_VERTICES = 10


def names(n):
    return tuple("v%d" % k for k in range(n))


def all_graphs(n):
    """Every labelled simple graph on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = frozenset(p for k, p in enumerate(pairs) if (mask >> k) & 1)
        yield Pog(names(n), edges, frozenset())


def all_pogs(n):
    """Every labelled pog on n vertices: each pair is a non-adjacency,
    an edge, or an arc either way."""
    pairs = list(itertools.combinations(range(n), 2))
    for choice in itertools.product(range(4), repeat=len(pairs)):
        edges, arcs = set(), set()
        for c, (i, j) in zip(choice, pairs):
            if c == 1:
                edges.add((i, j))
            elif c == 2:
                arcs.add((i, j))
            elif c == 3:
                arcs.add((j, i))
        yield Pog(names(n), frozenset(edges), frozenset(arcs))


def random_graph(rng, n, p=0.5):
    edges = frozenset((i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < p)
    return Pog(names(n), edges, frozenset())


def random_pog(rng, n, p_adj=0.6, p_arc=0.4):
    edges, arcs = set(), set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() >= p_adj:
                continue
            if rng.random() < p_arc:
                arcs.add((i, j) if rng.random() < 0.5 else (j, i))
            else:
                edges.add((i, j))
    return Pog(names(n), frozenset(edges), frozenset(arcs))


def orientations(P):
    """Every full orientation of P's edges."""
    edges = sorted(P.edges)
    for mask in range(1 << len(edges)):
        arcs = [(u, v) if not (mask >> k) & 1 else (v, u)
                for k, (u, v) in enumerate(edges)]
        yield P.orient(arcs)


def cycle_factor_enumeration_reference(P):
    """First orientation of P's edges, in the order of `orientations`,
    whose out-copy/in-copy matching is perfect, or None: the search that
    pogc.completions.complete_to_cycle_factor_bruteforce ran on every
    pog before it tried the relaxation first.  2^edges matchings."""
    edges = sorted(P.edges)
    for mask in range(1 << len(edges)):
        arcs = [(u, v) if not (mask >> k) & 1 else (v, u)
                for k, (u, v) in enumerate(edges)]
        succ = [list(s) for s in P.out_nbrs]
        for u, v in arcs:
            succ[u].append(v)
        if matching_reference(range(P.n), succ.__getitem__)[1] is None:
            return P.orient(arcs)
    return None


def matching_reference(left, nbrs):
    """pogc.graph._matching as it was before its augmenting search ran
    over left vertices only: the same greedy start, then one bfs_path
    search per free left vertex over left nodes, right vertices and a
    sink, stopping when it pops the sink.  Returns the same (match,
    hall).  Left vertices are searched as ~i, i their index in `left`,
    so any sortable labels work; right vertices must be integers >= 0."""
    labels = list(left)
    match, free, sink = {}, [], object()
    for i, u in enumerate(labels):
        for w in nbrs(u):
            if w not in match:
                match[w] = i
                break
        else:
            free.append(i)
    reached = []  # left vertices the current search has expanded

    def residual(x):  # left vertex i is ~i; a free right vertex leads to sink
        if x < 0:
            reached.append(~x)
            return nbrs(labels[~x])
        return (~match[x],) if x in match else (sink,)

    hall = None
    for i in free:
        reached.clear()
        path = bfs_path(residual, ~i, sink)
        if path is None:  # the search expanded every vertex it reached
            hall = sorted(labels[k] for k in reached)
            break
        match.update((w, ~x) for x, w in zip(path[::2], path[1::2]))
    return {w: labels[i] for w, i in match.items()}, hall


def brute_force_completion(P, pred):
    """First full orientation whose classify report satisfies pred."""
    for D in orientations(P):
        if pred(classify(D)):
            return D
    return None


def _lt_ok(adj, out, inn, u, v):
    """Out(u) and in(v) stay adjacent to the new end of arc u->v."""
    return out[u] <= adj[v] and inn[v] <= adj[u]


# exact_oracle target -> (classify property every completion must have,
# a necessary condition of the class on a new arc u->v given the arcs
# already decided)
_ORACLE = {
    "local_tournament": ("local_tournament", _lt_ok),
    "ltlt": ("locally_transitive", _lt_ok),
    "in_tournament": ("in_tournament",
                      lambda adj, out, inn, u, v: inn[v] <= adj[u]),
    "quasi_transitive": ("quasi_transitive",
                         lambda adj, out, inn, u, v: (out[v] <= adj[u]
                                                      and inn[u] <= adj[v])),
    "acyclic_local_tournament": (
        "acyclic_local_tournament",
        lambda adj, out, inn, u, v: (_lt_ok(adj, out, inn, u, v)
                                     and u not in _reach(out.__getitem__, v))),
}


def exact_oracle(P, target):
    """First completion of P in the target class, or None.

    Reference for the polynomial completers: backtracks over P's arcs
    and then over sorted(P.edges), each edge both ways round, prunes an
    arc that breaks the target's rule on the arcs already decided, and
    judges every leaf with classify."""
    prop, ok = _ORACLE[target]
    adj = P.adj
    out = [set() for _ in range(P.n)]
    inn = [set() for _ in range(P.n)]
    steps = [[a] for a in sorted(P.arcs)]
    steps += [[(i, j), (j, i)] for i, j in sorted(P.edges)]
    chosen = []

    def rec(k):
        if k == len(steps):
            D = Pog(P.names, frozenset(), frozenset(chosen))
            return D if getattr(classify(D), prop) else None
        for u, v in steps[k]:
            if not ok(adj, out, inn, u, v):
                continue
            out[u].add(v)
            inn[v].add(u)
            chosen.append((u, v))
            D = rec(k + 1)
            chosen.pop()
            out[u].discard(v)
            inn[v].discard(u)
            if D is not None:
                return D
        return None

    return rec(0)


def parse_pog_reference(text):
    """The native-format parser as it was before the one-pass rewrite:
    every name mention is checked against NAME_RE, every line is split
    on '#', and edges are normalised after the loop.  Reference for
    pogc.pog.parse_pog."""
    names = []
    idx = {}
    edges = []
    arcs = []

    def vid(name, ln):
        if not NAME_RE.match(name):
            raise ParseError("bad vertex name %.60r" % name, ln)
        if name not in idx:
            idx[name] = len(names)
            names.append(name)
        return idx[name]

    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "v":
            if len(parts) != 2:
                raise ParseError("expected 'v NAME'", ln)
            if parts[1] in idx:
                raise ParseError("vertex %.60s declared twice" % parts[1], ln)
            vid(parts[1], ln)
        elif parts[0] in ("edge", "arc"):
            if len(parts) != 3:
                raise ParseError("expected '%s U V'" % parts[0], ln)
            u, v = vid(parts[1], ln), vid(parts[2], ln)
            if u == v:
                raise ParseError("loop on %.60s" % parts[1], ln)
            (edges if parts[0] == "edge" else arcs).append((u, v))
        else:
            raise ParseError("unknown directive %.60r" % parts[0], ln)
    try:
        return Pog(tuple(names),
                   frozenset(_norm(u, v) for u, v in edges),
                   frozenset(arcs))
    except InvariantError as exc:
        raise ParseError(str(exc))


def assert_extends(P, D):
    assert D.is_oriented()
    assert P.arcs <= D.arcs
    assert D.und_pairs == P.und_pairs


def search_nice_ordering(D):
    """First nice cyclic ordering by brute force over the (n - 1)!
    cyclic orderings, or None."""
    assert D.is_oriented() and D.n <= MAX_NICE_VERTICES
    if D.n == 0:
        return Ordering("cyclic", ())
    for perm in itertools.permutations(range(1, D.n)):
        O = Ordering("cyclic", (0,) + perm)
        if check_ordering(D, O, "nice")[0]:
            return O
    return None


def all_tournaments(n):
    """Every labelled tournament on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Pog(names(n), frozenset(),
                  frozenset((j, i) if (mask >> k) & 1 else (i, j)
                            for k, (i, j) in enumerate(pairs)))


def clause_succ(nvars, clauses):
    """The implication digraph of 1- and 2-literal clauses over the
    variables 1..nvars, as successor lists for `two_sat(n, succ)`: the
    literal x is node 2(x - 1) and -x is node 2(x - 1) + 1, the clause
    (a,) adds -a -> a and (a, b) adds -a -> b and -b -> a, in clause
    order."""
    def node(lit):
        return 2 * (abs(lit) - 1) + (lit < 0)
    succ = [[] for _ in range(2 * nvars)]
    for cl in clauses:
        if len(cl) == 1:
            succ[node(-cl[0])].append(node(cl[0]))
        else:
            a, b = cl
            succ[node(-a)].append(node(b))
            succ[node(-b)].append(node(a))
    return succ


def in_tournament_clauses(P):
    """The in-tournament 2-SAT of P as clauses: variable k + 1 asserts
    the k-th pair (u, v) of sorted(P.und_pairs) as the arc u -> v, a
    unit clause per arc of P in sorted order, then, for each vertex v in
    order and each non-adjacent pair x < y of its neighbours in
    lexicographic order, the clause "not x -> v or not y -> v".
    Returns (pairs, clauses)."""
    pairs = sorted(P.und_pairs)
    var_of = {p: k + 1 for k, p in enumerate(pairs)}

    def lit(u, v):
        return var_of[u, v] if u < v else -var_of[v, u]
    clauses = [(lit(u, v),) for u, v in sorted(P.arcs)]
    for v in range(P.n):
        for x, y in _nonadjacent_pairs(P, P.adj[v]):
            clauses.append((-lit(x, v), -lit(y, v)))
    return pairs, clauses


def in_tournament_clauses_reference(P):
    """complete_to_in_tournament as it ran on stored clauses: the 2-SAT
    of `in_tournament_clauses` solved on `clause_succ`'s implication
    lists.  Returns the completion, or the NoCompletion two_sat_core
    certificate of the implication cycle."""
    pairs, clauses = in_tournament_clauses(P)
    status, res = two_sat(2 * len(pairs),
                          clause_succ(len(pairs), clauses).__getitem__)
    if status == "unsat":
        cycle = []
        for k in res:
            u, v = pairs[k // 2]
            cycle.append([P.names[v], P.names[u]] if k % 2
                         else [P.names[u], P.names[v]])
        return Certificate("NoCompletion", {"kind": "two_sat_core",
                                            "cycle": cycle})
    return P.orient([(u, v) if res[k] else (v, u)
                     for k, (u, v) in enumerate(pairs) if (u, v) in P.edges])


def in_tournament_core_reference(P, cycle):
    """The clause-list check of a two_sat_core cycle: a closed walk of
    literals, one per listed ordered pair, that holds some literal and
    its negation, each step an edge of the implication lists of all of
    P's in-tournament clauses."""
    pairs, clauses = in_tournament_clauses(P)
    var_of = {p: k + 1 for k, p in enumerate(pairs)}
    try:
        lits = []
        for u, v in cycle:
            u, v = P.index[u], P.index[v]
            lits.append(var_of[u, v] if u < v else -var_of[v, u])
    except (KeyError, ValueError):
        return False
    if len(lits) < 2 or lits[0] != lits[-1]:
        return False
    if not any(-l in lits for l in lits):
        return False
    succ = clause_succ(len(pairs), clauses)

    def node(lit):
        return 2 * (abs(lit) - 1) + (lit < 0)
    return all(node(b) in succ[node(a)] for a, b in zip(lits, lits[1:]))


def round_tournament_2sat_reference(P, O):
    """A round tournament on O that contains P's arcs, or None, by one
    2-SAT instance (Aspvall, Plass and Tarjan, IPL 8, 1979): a variable
    per pair of positions, "i beats i+k implies i beats i+k-1" for
    every i and k >= 2, and a unit clause per arc of P.  Satisfiable
    exactly when O is excellent for P; which round tournament comes
    back is set by the numbering of the pairs."""
    n, seq, pos = P.n, O.seq, O.pos
    var = {}
    for i in range(n):
        for j in range(n - 1, i, -1):
            var[i, j] = len(var) + 1

    def beats(i, j):
        return var[i, j] if i < j else -var[j, i]
    clauses = [(-beats(i, (i + k) % n), beats(i, (i + k - 1) % n))
               for i in range(n) for k in range(2, n)]
    clauses += [(beats(pos[u], pos[v]),) for u, v in sorted(P.arcs)]
    status, value = two_sat(2 * len(var),
                            clause_succ(len(var), clauses).__getitem__)
    if status == "unsat":
        return None
    return Pog(P.names, frozenset(),
               frozenset((seq[i], seq[j]) if value[x - 1] else (seq[j], seq[i])
                         for (i, j), x in var.items()))


def round_tournament_rule_reference(P, O):
    """The round tournament rule of pogc.rounds._round_tournament, pair
    by pair: "position i beats i+d" is forced when some arc's span holds
    the segment [i, i+d], forbidden when one holds [i+d, i+n], and
    otherwise goes the shorter way round, to i < n/2 at d = n/2.  None
    when some pair is both forced and forbidden.  Scans every arc for
    every pair."""
    n, seq, pos = P.n, O.seq, O.pos
    spans = [(pos[u], (pos[v] - pos[u]) % n) for u, v in P.arcs]

    def inside(a, length):
        return any((a - p) % n + length <= s for p, s in spans)
    arcs = set()
    for i in range(n):
        for d in range(1, n):
            forced, forbidden = inside(i, d), inside(i + d, n - d)
            if forced and forbidden:
                return None
            if forced or (not forbidden
                          and (2 * d < n or (2 * d == n and i < d))):
                arcs.add((seq[i], seq[(i + d) % n]))
    return Pog(P.names, frozenset(), frozenset(arcs))


def random_ltt(rng, n, prefix="v"):
    """A random locally transitive tournament on n vertices named
    prefix0, prefix1, ...: shuffled vertices cut into an odd number q of
    transitive parts, part k beating parts k+1 .. k+(q-1)/2 mod q."""
    q = rng.choice(range(1, n + 1, 2))
    cut = [0] + sorted(rng.sample(range(1, n), q - 1)) + [n]
    perm = list(range(n))
    rng.shuffle(perm)
    parts = [perm[cut[k]:cut[k + 1]] for k in range(q)]
    arcs = set()
    for k, part in enumerate(parts):
        arcs.update(itertools.combinations(part, 2))
        for step in range(1, (q - 1) // 2 + 1):
            arcs.update(itertools.product(part, parts[(k + step) % q]))
    return Pog(tuple("%s%d" % (prefix, k) for k in range(n)), frozenset(),
               frozenset(arcs))


def moon_decompose_reference(T):
    """Moon decomposition by the greedy twin fixpoint: merge two parts
    whose first vertices u -> v agree on every other part's first
    vertex, until no pair merges."""
    assert classify(T).locally_transitive_tournament
    parts = [[v] for v in range(T.n)]
    merged = True
    while merged:
        merged = False
        for x in range(len(parts)):
            for y in range(len(parts)):
                if x == y:
                    continue
                A, B = parts[x], parts[y]
                if (A[0], B[0]) not in T.arcs:
                    continue
                rest = [p[0] for k, p in enumerate(parts) if k not in (x, y)]
                if all(((r, A[0]) in T.arcs) == ((r, B[0]) in T.arcs)
                       and ((A[0], r) in T.arcs) == ((B[0], r) in T.arcs)
                       for r in rest):
                    parts[x] = A + B
                    del parts[y]
                    merged = True
                    break
            if merged:
                break
    parts.sort(key=lambda p: p[0])
    frame = Pog(tuple(T.names[p[0]] for p in parts), frozenset(),
                frozenset((x, y) for x in range(len(parts))
                          for y in range(len(parts))
                          if (parts[x][0], parts[y][0]) in T.arcs))
    named = []
    for p in parts:
        p = sorted(p, key=lambda v: -len([w for w in p if (v, w) in T.arcs]))
        named.append(tuple(T.names[v] for v in p))
    return MoonDecomposition(frame, tuple(named))


def frame_cycle_reference(dec):
    """Parts in the frame's round order, each as a name list, from the
    part holding frame vertex 0."""
    if len(dec.parts) == 1:
        return [list(dec.parts[0])]
    O = find_round_ordering(dec.frame)
    start = O.seq.index(0)
    order = O.seq[start:] + O.seq[:start]
    return [list(dec.parts[k]) for k in order]


def merge_ltt_reference(T1, T2):
    """merge_ltt on the greedy decompositions of two non-empty
    locally transitive tournaments: the cells pair the larger frame's
    parts X_0..X_b with Y_0..Y_b and X_{a+1}..X_{a+b} with
    Y_{b+1}..Y_{2b}, and cell c beats cells c+1 .. c+(q-1)/2 mod q."""
    d1, d2 = moon_decompose_reference(T1), moon_decompose_reference(T2)
    if len(d2.parts) > len(d1.parts):
        d1, d2 = d2, d1
    a = (len(d1.parts) - 1) // 2
    b = (len(d2.parts) - 1) // 2
    X, Y = frame_cycle_reference(d1), frame_cycle_reference(d2)
    cells = [X[k] + Y[k] for k in range(b + 1)]
    cells += [X[k] for k in range(b + 1, a + 1)]
    cells += [X[a + k] + Y[b + k] for k in range(1, b + 1)]
    cells += [X[k] for k in range(a + b + 1, 2 * a + 1)]
    names = T1.names + T2.names
    idx = {v: i for i, v in enumerate(names)}
    q = len(cells)
    arcs = set()
    for c, cell in enumerate(cells):
        arcs.update((idx[u], idx[w]) for u, w in itertools.combinations(cell, 2))
        for step in range(1, (q - 1) // 2 + 1):
            arcs.update((idx[u], idx[w])
                        for u, w in itertools.product(cell, cells[(c + step) % q]))
    return Pog(names, frozenset(), frozenset(arcs))


def directed_cycle_reference(out, verts):
    """A directed cycle (vertex list) of the digraph with out-neighbour
    sets `out` induced on the vertex list verts, or None, by a DFS that
    tries roots in verts order and out-neighbours in increasing order.
    Reference for pogc.pog.find_directed_cycle."""
    allowed = set(verts)
    colour = {}
    stack_path = []
    for s in verts:
        if colour.get(s):
            continue
        stack = [(s, iter(sorted(out[s] & allowed)))]
        colour[s] = 1
        stack_path.append(s)
        while stack:
            v, it = stack[-1]
            adv = False
            for w in it:
                if colour.get(w) == 1:
                    return stack_path[stack_path.index(w):]
                if not colour.get(w):
                    colour[w] = 1
                    stack_path.append(w)
                    stack.append((w, iter(sorted(out[w] & allowed))))
                    adv = True
                    break
            if not adv:
                colour[v] = 2
                stack_path.pop()
                stack.pop()
    return None


def neighbourhood_cycle_reference(P):
    """The first directed cycle inside an out- or in-neighbourhood (in
    _neighbourhoods order) as (cycle, v, side), or None, by a cycle
    search on every hood.  Reference for pogc.pog._neighbourhood_cycle."""
    for v, side, hood in _neighbourhoods(P):
        cyc = find_directed_cycle(P, within=hood)
        if cyc is not None:
            return cyc, v, side
    return None


def forbidden_cycle_reference(P):
    """The certificate of pogc.friendly.complete_cells(P), else of
    pogc.friendly.forbidden_cycle(P): a cycle search on every
    non-universal cell of 3 or more vertices, then on every hood."""
    cs, universal = P.cells
    for k, cell in enumerate(cs):
        if k == universal or len(cell) < 3:
            continue
        cyc = find_directed_cycle(P, within=cell)
        if cyc is not None:
            return Certificate("DirectedCycle", {
                "cycle": [P.names[v] for v in cyc],
                "location": {"kind": "cell"}})
    found = neighbourhood_cycle_reference(P)
    if found is None:
        return None
    cyc, v, side = found
    return Certificate("DirectedCycle", {
        "cycle": [P.names[x] for x in cyc],
        "location": {"kind": side, "vertex": P.names[v]}})


def planted_formula(rng, n, m):
    """(F, t): a random 3-CNF on n >= 3 variables and m >= n / 3 clauses,
    every variable occurring, and an assignment t that satisfies it."""
    t = {i: rng.random() < 0.5 for i in range(1, n + 1)}
    order = rng.sample(range(1, n + 1), n)
    clauses = []
    for j in range(m):
        vs = order[3 * j:3 * j + 3]  # the first clauses cover every variable
        vs += rng.sample([v for v in range(1, n + 1) if v not in vs], 3 - len(vs))
        cl = [v if rng.random() < 0.5 else -v for v in vs]
        if not any((l > 0) == t[abs(l)] for l in cl):
            cl[0] = -cl[0]
        clauses.append(tuple(cl))
    return CnfFormula(n, tuple(clauses)), t


def lbfs_reference(G, arc_aware=None):
    """Lexicographic BFS by comparing label tuples: each step takes the
    largest label over every unlabelled vertex and the smallest index
    among the vertices that carry it.  With `arc_aware`, the start
    vertex must have no out-arcs and ties prefer vertices without
    out-arcs into the unlabelled set.  Reference for
    pogc.interval.lbfs; quadratic."""
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


def _ref_length(R, k):
    l, r = R.spans[k]
    return (r - l) % R.modulus if R.kind == "circular" else r - l


def _find_claw(G):
    """An induced claw c, a, b, d of UG(G) (c the centre), or None."""
    for c in range(G.n):
        na = sorted(G.adj[c])
        for a, b in _nonadjacent_pairs(G, na):
            for d in na:
                if d > b and not G.adjacent(a, d) and not G.adjacent(b, d):
                    return [c, a, b, d]
    return None


def _find_net(G):
    """An induced net t1, t2, t3, p1, p2, p3 of UG(G) (p_i pendant at
    t_i), or None."""
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


def with_row(command, name, **changes):
    """The class row of `pogc COMMAND --class NAME` with the given fields
    changed, for a test to put in its place in `classes.ROWS`."""
    row = ROWS[command, name]
    return ClassRow(**dict(zip(row._fields, row._values(row)), **changes))


def bad_triples_reference(P):
    """pogc.friendly.bad_triples by a scan of every triangle x < y < z of
    UG(P) in lexicographic order: those with exactly two oriented pairs,
    the three pairs in three different aux components."""
    X = build_aux(P)
    out = []
    for x in range(P.n):
        for y in sorted(P.adj[x]):
            for z in sorted(P.adj[x] & P.adj[y]):
                if x < y < z:
                    pairs = [(x, y), (y, z), (x, z)]
                    if len({X.comp[X.vid[p]] for p in pairs}) == 3 \
                            and sum(p not in P.edges for p in pairs) == 2:
                        out.append((x, y, z))
    return out


def maximal_arcs_reference(P, O):
    """The pairwise scan: arcs, in (pos tail, pos head) order, that lie
    inside the cyclic span of no other arc."""
    n = P.n
    arcs = sorted(P.arcs, key=lambda a: (O.pos[a[0]], O.pos[a[1]]))
    out = []
    for ia, ja in arcs:
        for b in arcs:
            if b == (ia, ja):
                continue
            r = lambda x: (O.pos[x] - O.pos[b[0]]) % n
            if r(ia) < r(ja) <= r(b[1]):
                break
        else:
            out.append((ia, ja))
    return out


def saturate_to_round_lt_reference(D, O):
    """pogc.rounds.saturate_to_round_lt by a scan of all n vertices per
    maximal arc, its span sorted by offset from the tail."""
    n = D.n
    add = set()
    for i, j in maximal_arcs_reference(D, O):
        base = O.pos[i]
        r = lambda x: (O.pos[x] - base) % n
        span = sorted((x for x in range(n) if r(x) <= r(j)), key=r)
        add.update((p, q) for s, p in enumerate(span) for q in span[s + 1:]
                   if not D.adjacent(p, q))
    return Pog(D.names, D.edges, D.arcs | frozenset(add))


def representation_from_orientation_reference(D, kind):
    """pogc.interval.representation_from_orientation deciding its class
    by classify first: locally transitive local tournament for
    `circular`, acyclic local tournament for `interval` or a
    disconnected D; then the round ordering, each component rotated to
    start at its first vertex without in-arcs when laid out as
    intervals."""
    require_oriented(D)
    if kind not in ("interval", "circular"):
        raise ValueError("kind must be interval or circular")
    rep = classify(D)
    if kind == "circular" and not rep.locally_transitive:
        raise NotInClassError("not a locally transitive local tournament")
    linear = kind == "interval" or len(D.ug_components) > 1
    if linear and not rep.acyclic_local_tournament:
        raise NotInClassError("not an acyclic local tournament")
    O = find_round_ordering(D)
    if O is None:
        raise NotInClassError("digraph is not round")
    seq = O.seq
    if linear:
        seq = []
        for part in D.ug_parts(O.seq):
            s = next(t for t, v in enumerate(part) if not D.in_nbrs[v])
            seq.extend(part[s:] + part[:s])
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
