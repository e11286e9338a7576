"""Transitive, strong, in-tournament, 2-SAT, cycle factors, arc-strength."""

import itertools
import random
import time

from pogc import classes, completions
from pogc.classes import ROWS
from pogc.completions import (complete_to_cycle_factor_bruteforce,
                              complete_to_in_tournament, complete_to_strong,
                              complete_to_transitive_tournament,
                              find_cycle_factor,
                              is_k_arc_strong, two_sat)
from pogc.graph import _lowlink, _matching
from pogc.cli import run
from pogc.pog import Certificate, Pog, classify, parse_pog, render_pog
from pogc.verify import verify_certificate
from util import (all_pogs, brute_force_completion, clause_succ,
                  cycle_factor_enumeration_reference, in_tournament_clauses,
                  in_tournament_clauses_reference, in_tournament_core_reference,
                  matching_reference, names, random_pog)


def _complete_pog(n, arcs):
    edges = {(i, j) for i in range(n) for j in range(i + 1, n)}
    arcset = frozenset(arcs)
    edges -= {tuple(sorted(a)) for a in arcset}
    return Pog(names(n), frozenset(edges), arcset)


# -- transitive tournaments ----------------------------------------------


def test_transitive_k3_with_arc():
    D = complete_to_transitive_tournament(_complete_pog(3, [(0, 1)]))
    rep = classify(D)
    assert rep.transitive_tournament
    assert (0, 1) in D.arcs


def test_transitive_rejects_cycle_and_gap():
    cyc = Pog(names(3), frozenset(),
              frozenset({(0, 1), (1, 2), (2, 0)}))
    cert = complete_to_transitive_tournament(cyc)
    assert cert.tag == "DirectedCycle"
    assert verify_certificate(cyc, cert)
    gap = Pog.build(("a", "b", "c"), edges=[("a", "b")])
    cert = complete_to_transitive_tournament(gap)
    assert cert.tag == "NonAdjacentPair"
    assert verify_certificate(gap, cert)


def test_transitive_random_deterministic():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 6)
        arcs = []
        perm = list(range(n))
        rng.shuffle(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    arcs.append((perm[i], perm[j]))
        P = _complete_pog(n, arcs)
        D = complete_to_transitive_tournament(P)
        assert classify(D).transitive_tournament
        assert complete_to_transitive_tournament(P).arcs == D.arcs


def test_transitive_completion_leaves_adj_unbuilt():
    """Completeness is read off the pair counts, so completing a
    complete graph never builds its neighbour sets."""
    P = _complete_pog(40, [(i, i + 1) for i in range(0, 39, 3)])
    D = complete_to_transitive_tournament(P)
    assert classify(D).transitive_tournament
    assert "adj" not in P.__dict__


# -- strong ----------------------------------------------------------------


def test_strong_triangle_with_arc():
    P = Pog.build(("a", "b", "c"),
                  edges=[("b", "c"), ("a", "c")], arcs=[("a", "b")])
    D = complete_to_strong(P)
    assert classify(D).strong


def test_strong_bridge():
    P = Pog.build(("a", "b"), edges=[("a", "b")])
    cert = complete_to_strong(P)
    assert cert.tag == "Bridge"
    assert verify_certificate(P, cert)


def test_strong_directed_cut():
    P = Pog.build(("a", "b", "c", "d"),
                  edges=[("b", "c"), ("c", "d")],
                  arcs=[("a", "b"), ("a", "d")])
    cert = complete_to_strong(P)
    assert cert.tag == "DirectedCut"
    assert verify_certificate(P, cert)


def test_strong_cut_comes_before_bridge():
    """A bridge of UG(P) is named only when the doubled digraph is
    strong: otherwise the certificate is its first source component."""
    triangle = [("b", "c"), ("c", "d"), ("b", "d")]
    for arc, side in ((("a", "b"), ["a"]), (("d", "a"), ["b", "c", "d"])):
        P = Pog.build(("a", "b", "c", "d"), edges=triangle, arcs=[arc])
        cert = complete_to_strong(P)
        assert cert == Certificate("DirectedCut", {"side": side}), arc
        assert verify_certificate(P, cert)
    P = Pog.build(("a", "b", "c", "d"), edges=triangle + [("a", "b")])
    assert complete_to_strong(P) == Certificate("Bridge", {"edge": ["a", "b"]})


def test_strong_exhaustive_n5_vs_brute_force():
    rng = random.Random(7)
    for _ in range(400):
        P = random_pog(rng, rng.randint(2, 5), p_adj=0.7, p_arc=0.4)
        if len(P.ug_components) > 1:
            continue
        res = complete_to_strong(P)
        want = brute_force_completion(P, lambda rep: rep.strong)
        if isinstance(res, Certificate):
            assert want is None, (P.edges, P.arcs)
            assert verify_certificate(P, res)
        else:
            assert want is not None
            assert classify(res).strong
            assert P.arcs <= res.arcs


def _doubled(Q):
    """Successor sets of Q's arcs plus both directions of each edge."""
    succ = [set(Q.out_nbrs[v]) for v in range(Q.n)]
    for i, j in Q.edges:
        succ[i].add(j)
        succ[j].add(i)
    return succ


def _first_source_component(succ):
    """The strong component (vertices that reach each other) of the
    digraph `succ` that no arc enters and that holds the smallest vertex
    among such components, sorted; the digraph is strong iff that is
    all of it."""
    n = len(succ)
    reach = []
    for s in range(n):
        seen, stack = {s}, [s]
        while stack:
            for w in succ[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach.append(seen)
    scc = [{w for w in reach[v] if v in reach[w]} for v in range(n)]
    return next(sorted(scc[v]) for v in range(n)
                if not any(w in scc[v] for u in range(n) if u not in scc[v]
                           for w in succ[u]))


def _strong_reference(P):
    """complete_to_strong as an orient-and-SCC loop: the first component
    of a disconnected UG(P), then the first source component of the
    doubled digraph when it is not strong, then the smallest bridge by
    one search per pair, then each edge in sorted order oriented u -> v
    when the digraph with the remaining edges doubled stays strong,
    else v -> u."""
    if P.n <= 1:
        return P
    comps = P.ug_components
    if len(comps) > 1:
        return Certificate("DirectedCut",
                           {"side": [P.names[v] for v in comps[0]]})
    side = _first_source_component(_doubled(P))
    if len(side) < P.n:
        return Certificate("DirectedCut", {"side": [P.names[v] for v in side]})
    for u, v in sorted(P.und_pairs):
        seen, stack = {u}, [u]
        while stack:
            x = stack.pop()
            for y in P.adj[x]:
                if {x, y} != {u, v} and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if v not in seen:
            return Certificate("Bridge", {"edge": [P.names[u], P.names[v]]})
    cur = P
    for u, v in sorted(P.edges):
        nxt = cur.orient([(u, v)])
        strong = len(_first_source_component(_doubled(nxt))) == P.n
        cur = nxt if strong else cur.orient([(v, u)])
    return cur


def _strong_corpus():
    """Every pog on at most 4 vertices, then 1,500 seeded random pogs on
    at most 10."""
    pogs = [P for n in range(5) for P in all_pogs(n)]
    rng = random.Random(29)
    for _ in range(1500):
        pogs.append(random_pog(rng, rng.randint(2, 10),
                               p_adj=rng.choice((0.3, 0.5, 0.7, 0.9)),
                               p_arc=rng.choice((0.0, 0.2, 0.5))))
    return pogs


def _strong_bits(n, out, inn):
    """Strongness of the digraph on 0..n-1 whose out- and in-neighbours
    are the bitmasks out[v] and inn[v]: vertex 0 reaches every vertex
    forwards and backwards; the empty digraph is strong."""
    if not n:
        return True
    full = (1 << n) - 1
    for nbrs in (out, inn):
        seen = frontier = 1
        while frontier:
            step = 0
            for v in range(n):
                if frontier >> v & 1:
                    step |= nbrs[v]
            frontier = step & ~seen
            seen |= step
        if seen != full:
            return False
    return True


def _completes_strongly(P, D):
    """D, on P's vertex names, orients every edge of P either way, keeps
    every arc of P and has no other pair, and every vertex reaches every
    other in D: the first vertex reaches every vertex forwards and
    backwards."""
    arcs = {(P.names[u], P.names[v]) for u, v in P.arcs}
    edges = {frozenset((P.names[u], P.names[v])) for u, v in P.edges}
    got = {(D.names[u], D.names[v]) for u, v in D.arcs}
    if sorted(D.names) != sorted(P.names) or D.edges or not arcs <= got:
        return False
    new = got - arcs
    if {frozenset(a) for a in new} != edges or len(new) != len(edges):
        return False
    succ, pred = {v: [] for v in P.names}, {v: [] for v in P.names}
    for u, v in got:
        succ[u].append(v)
        pred[v].append(u)
    for nbrs in (succ, pred):
        seen, todo = set(P.names[:1]), list(P.names[:1])
        while todo:
            for w in nbrs[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        if len(seen) != P.n:
            return False
    return True


def _has_strong_orientation(P):
    """Brute force: some orientation of P's edges is strong."""
    out, inn = [0] * P.n, [0] * P.n
    for u, v in P.arcs:
        out[u] |= 1 << v
        inn[v] |= 1 << u
    edges = sorted(P.edges)
    for mask in range(1 << len(edges)):
        o, i = out[:], inn[:]
        for k, (u, v) in enumerate(edges):
            if mask >> k & 1:
                u, v = v, u
            o[u] |= 1 << v
            i[v] |= 1 << u
        if _strong_bits(P.n, o, i):
            return True
    return False


def test_strong_matches_orient_and_scc_loop():
    """Certificates equal the reference's; a completion is checked by
    this test's own search rather than against the reference's choice
    of directions."""
    completed = 0
    for P in _strong_corpus():
        got, want = complete_to_strong(P), _strong_reference(P)
        assert type(got) is type(want), (P.edges, P.arcs)
        if isinstance(got, Certificate):
            assert got == want, (P.edges, P.arcs)
        else:
            assert _completes_strongly(P, got), (P.edges, P.arcs)
            completed += bool(P.edges)
    assert completed > 300


def test_strong_runs_one_search(monkeypatch):
    """Every call on more than one vertex runs one lowlink DFS, and the
    check of its class row classifies only the completion it returns."""
    row = ROWS["complete", "strong"]
    searches, classified = [], []
    real_lowlink, real_classify = completions._lowlink, classes.classify

    def lowlink(*args):
        searches.append(args)
        return real_lowlink(*args)

    def counting_classify(P):
        classified.append(P)
        return real_classify(P)

    monkeypatch.setattr(completions, "_lowlink", lowlink)
    monkeypatch.setattr(classes, "classify", counting_classify)
    refuted = 0
    for P in _strong_corpus():
        searches.clear()
        classified.clear()
        got = row.checked(P, complete_to_strong(P))
        assert len(searches) == (P.n > 1), (P.edges, P.arcs)
        if isinstance(got, Certificate):
            assert classified == [], (P.edges, P.arcs)
            refuted += 1
        else:
            assert len(classified) == 1 and classified[0] is got
    assert refuted > 1000


def test_strong_verdict_matches_brute_force_over_orientations():
    """Every pog of the corpus with at most 12 edges: a completion
    exactly when some orientation of its edges is strong."""
    verdicts = []
    for P in _strong_corpus():
        if len(P.edges) <= 12:
            got = complete_to_strong(P)
            want = _has_strong_orientation(P)
            assert isinstance(got, Pog) == want, (P.edges, P.arcs)
            verdicts.append(want)
    assert verdicts.count(True) > 1000 and verdicts.count(False) > 1000


def _ring_chord_strong(n, seed):
    """Ring v0 -> v1 -> ... -> v0 plus n/4 chords, a matching of ring
    distance at least 3, with 30 % of the pairs revealed as arcs: ring
    pairs along the ring, chords either way.  The ring is strong, so a
    strong completion exists."""
    rng = random.Random(seed)
    pairs = [(i, (i + 1) % n) for i in range(n)]
    used = set()
    while len(pairs) < n + n // 4:
        a, b = rng.sample(range(n), 2)
        if a in used or b in used or min((a - b) % n, (b - a) % n) < 3:
            continue
        used |= {a, b}
        pairs.append((a, b) if rng.random() < 0.5 else (b, a))
    edges, arcs = set(), set()
    for a, b in pairs:
        if rng.random() < 0.3:
            arcs.add((a, b))
        else:
            edges.add((min(a, b), max(a, b)))
    return Pog(names(n), frozenset(edges), frozenset(arcs))


def test_complete_strong_is_near_linear(tmp_path, capsys):
    """`complete --class strong` on band-4 and on the ring with chords
    at n = 10^4, through the command line, each under 2 s; each answer
    is parsed back and checked by this file's own search."""
    n = 10 ** 4
    band = Pog(names(n), frozenset((i, j) for i in range(n)
                                   for j in range(i + 1, min(n, i + 5))),
               frozenset())
    for P in (band, _ring_chord_strong(n, 3)):
        path = tmp_path / "strong.pog"
        path.write_text(render_pog(P))
        t0 = time.perf_counter()
        status = run(["complete", "--class", "strong", str(path)])
        assert time.perf_counter() - t0 < 2.0
        assert status == 0
        assert _completes_strongly(P, parse_pog(capsys.readouterr().out))


def test_strong_refutations_are_near_linear(tmp_path, capsys):
    """`complete --class strong` at n = 10^4 on band-4 with a pendant
    edge, on two band-4 halves joined by one edge, and on band-4 with
    every pair across its middle revealed left to right: each exits 1
    under 2 s with the expected certificate, which verify-cert
    accepts."""
    n, h = 10 ** 4, 10 ** 4 // 2
    band = {(i, j) for i in range(n) for j in range(i + 1, min(n, i + 5))}
    pendant = {p for p in band if p[1] < n - 1} | {(n - 2, n - 1)}
    halves = {p for p in band if (p[0] < h) == (p[1] < h)} | {(h - 1, h)}
    across = {p for p in band if p[0] < h <= p[1]}
    for edges, arcs, tag, field, want in (
            (pendant, set(), "Bridge", "edge", [n - 2, n - 1]),
            (halves, set(), "Bridge", "edge", [h - 1, h]),
            (band - across, across, "DirectedCut", "side", range(h))):
        P = Pog(names(n), frozenset(edges), frozenset(arcs))
        path = tmp_path / "strong.pog"
        path.write_text(render_pog(P))
        t0 = time.perf_counter()
        status = run(["complete", "--class", "strong", str(path)])
        assert time.perf_counter() - t0 < 2.0, tag
        assert status == 1
        out = capsys.readouterr().out
        assert Certificate.from_json(out) == Certificate(
            tag, {field: [P.names[v] for v in want]})
        (tmp_path / "cert.json").write_text(out)
        assert run(["verify-cert", str(path), str(tmp_path / "cert.json")]) == 0
        assert capsys.readouterr().out.strip() == "valid"


# -- 2-SAT -----------------------------------------------------------------


def _two_sat(nvars, clauses):
    return two_sat(2 * nvars, clause_succ(nvars, clauses).__getitem__)


def test_two_sat_basics():
    status, t = _two_sat(1, [(1,)])
    assert status == "sat" and t[0] is True
    status, cyc = _two_sat(2, [(1, 2), (-1, 2), (1, -2), (-1, -2)])
    assert status == "unsat"
    assert cyc[0] == cyc[-1] and any(k ^ 1 in cyc for k in cyc)


def test_two_sat_vs_truth_table():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 6)
        m = rng.randint(1, 12)
        clauses = []
        for _ in range(m):
            w = rng.randint(1, 2)
            clauses.append(tuple(rng.randint(1, n) * rng.choice([1, -1])
                                 for _ in range(w)))
        status, res = _two_sat(n, clauses)
        feasible = any(
            all(any((l > 0) == bits[abs(l) - 1] for l in cl)
                for cl in clauses)
            for bits in itertools.product([False, True], repeat=n))
        assert (status == "sat") == feasible
        if status == "sat":
            assert all(any((l > 0) == res[abs(l) - 1] for l in cl)
                       for cl in clauses)


def _sccs_reference(adj):
    """Iterative Tarjan over the successor lists adj, kept as the
    reference for graph._lowlink; returns component ids (sinks numbered
    first)."""
    n = len(adj)
    comp = [-1] * n
    low = [0] * n
    num = [-1] * n
    stack, on = [], [False] * n
    counter = [0]
    ncomp = [0]
    for root in range(n):
        if num[root] >= 0:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                num[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on[v] = True
            advanced = False
            for k in range(pi, len(adj[v])):
                w = adj[v][k]
                if num[w] < 0:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on[w]:
                    low[v] = min(low[v], num[w])
            if advanced:
                continue
            if low[v] == num[v]:
                while True:
                    w = stack.pop()
                    on[w] = False
                    comp[w] = ncomp[0]
                    if w == v:
                        break
                ncomp[0] += 1
            work.pop()
            if work:
                p = work[-1][0]
                low[p] = min(low[p], low[v])
    return comp


def _ring_chord_pog(rng, n):
    """Ring 0..n-1 plus a matching of chords, part of it revealed as arcs."""
    pairs = {(i, (i + 1) % n) for i in range(n)}
    free = list(range(n))
    rng.shuffle(free)
    for a, b in zip(free[:n // 4], free[n // 4:n // 2]):
        if min((a - b) % n, (b - a) % n) >= 2:
            pairs.add((a, b))
    edges, arcs = set(), set()
    for a, b in pairs:
        if rng.random() < 0.3:
            arcs.add((a, b) if rng.random() < 0.5 else (b, a))
        else:
            edges.add((min(a, b), max(a, b)))
    return Pog(names(n), frozenset(edges), frozenset(arcs))


def _clause_sets():
    """Seeded random 2-SAT instances and the in-tournament clauses of
    seeded ring-and-chord pogs, as (nvars, clauses)."""
    rng = random.Random(17)
    for _ in range(400):
        n = rng.randint(1, 12)
        yield n, [tuple(rng.randint(1, n) * rng.choice((1, -1))
                        for _ in range(rng.randint(1, 2)))
                  for _ in range(rng.randint(1, 3 * n))]
    for _ in range(200):
        P = _ring_chord_pog(rng, rng.randint(4, 30))
        pairs, clauses = in_tournament_clauses(P)
        yield len(pairs), clauses


def test_lowlink_sccs_match_reference():
    rng = random.Random(23)
    digraphs = []
    for _ in range(2000):
        n = rng.randint(0, 12)
        p = rng.choice((0.05, 0.15, 0.3, 0.6))
        # self-loops and repeated successors occur in implication graphs
        digraphs.append([[w for w in range(n) for _ in range(rng.choice((1, 1, 2)))
                          if rng.random() < p] for _ in range(n)])
    digraphs += [clause_succ(n, clauses) for n, clauses in _clause_sets()]
    n = 20000  # a long directed path, then a long directed cycle
    digraphs += [[[v + 1] for v in range(n - 1)] + [[]],
                 [[(v + 1) % n] for v in range(n)]]
    for adj in digraphs:
        assert _lowlink(len(adj), adj.__getitem__)[0] == _sccs_reference(adj)


def test_two_sat_unchanged_by_lowlink(monkeypatch):
    """two_sat gives the same assignments and implication cycles as with
    the reference SCC routine."""
    instances = list(_clause_sets())
    got = [_two_sat(n, clauses) for n, clauses in instances]
    monkeypatch.setattr(completions, "_lowlink", lambda n, nbrs: (
        _sccs_reference([nbrs(v) for v in range(n)]), None))
    want = [_two_sat(n, clauses) for n, clauses in instances]
    assert got == want
    statuses = [status for status, _ in got]
    assert statuses.count("sat") > 100 and statuses.count("unsat") > 100


# -- in-tournaments ----------------------------------------------------------


def test_in_tournament_claw():
    claw = Pog.build(("c", "x", "y", "z"),
                     edges=[("c", "x"), ("c", "y"), ("c", "z")])
    D = complete_to_in_tournament(claw)
    assert D.arcs == frozenset({(0, 1), (0, 2), (0, 3)})
    bad = Pog.build(("c", "x", "y", "z"),
                    edges=[("c", "z")], arcs=[("x", "c"), ("y", "c")])
    cert = complete_to_in_tournament(bad)
    assert isinstance(cert, Certificate)
    assert verify_certificate(bad, cert)


def test_in_tournament_chordal_graphs_succeed():
    # every chordal graph orients as an (acyclic) in-tournament
    from pogc.interval import check_peo, lbfs
    rng = random.Random(13)
    done = 0
    while done < 100:
        from util import random_graph
        G = random_graph(rng, rng.randint(1, 7))
        if not check_peo(G, lbfs(G))[0]:
            continue
        done += 1
        D = complete_to_in_tournament(G)
        assert not isinstance(D, Certificate)
        assert classify(D).in_tournament


def test_in_tournament_exhaustive_vs_brute_force():
    rng = random.Random(17)
    for _ in range(400):
        P = random_pog(rng, rng.randint(1, 5))
        res = complete_to_in_tournament(P)
        want = brute_force_completion(P, lambda rep: rep.in_tournament)
        if isinstance(res, Certificate):
            assert want is None
            assert verify_certificate(P, res)
        else:
            assert want is not None
            assert classify(res).in_tournament
            assert P.arcs <= res.arcs


def _mutated_walks(rng, P, cycle):
    """The cycle, then copies of it with one step reversed, one step
    dropped, or one vertex of the walk (the second end of one step and
    the first end of the next) swapped for a random vertex of P."""
    yield cycle
    k = len(cycle)
    for i in rng.sample(range(k), min(k, 3)):
        yield cycle[:i] + [cycle[i][::-1]] + cycle[i + 1:]
        yield cycle[:i] + cycle[i + 1:]
        if i + 1 < k:
            x = rng.choice(P.names)
            yield (cycle[:i] + [[cycle[i][0], x], [x, cycle[i + 1][1]]]
                   + cycle[i + 2:])


def test_in_tournament_matches_clause_reference():
    """complete_to_in_tournament, which reads its implications off P,
    returns exactly the completion or implication cycle of the 2-SAT on
    stored clauses, and verify_certificate, which checks each step
    against P, judges mutated cycles as the walk check on all clauses
    does."""
    rng = random.Random(29)
    refuted, verdicts = 0, []
    for _ in range(5000):
        P = random_pog(rng, rng.randint(1, 8), rng.choice((0.4, 0.6, 0.8)),
                       rng.choice((0.2, 0.4)))
        got = complete_to_in_tournament(P)
        want = in_tournament_clauses_reference(P)
        if not isinstance(want, Certificate):
            assert not isinstance(got, Certificate) and got.arcs == want.arcs
            continue
        assert got == want
        refuted += 1
        for walk in _mutated_walks(rng, P, want.payload["cycle"]):
            cert = Certificate("NoCompletion", {"kind": "two_sat_core",
                                                "cycle": walk})
            verdicts.append(verify_certificate(P, cert))
            assert verdicts[-1] == in_tournament_core_reference(P, walk), walk
    assert refuted > 500
    assert verdicts.count(False) > 1000 and verdicts.count(True) > refuted


# -- cycle factors ------------------------------------------------------------


def test_cycle_factor_examples():
    c3 = Pog(names(3), frozenset(), frozenset({(0, 1), (1, 2), (2, 0)}))
    assert find_cycle_factor(c3) == [[0, 1, 2]]
    trans = Pog(names(3), frozenset(),
                frozenset({(0, 1), (0, 2), (1, 2)}))
    assert find_cycle_factor(trans) is None
    two = Pog(names(6), frozenset(),
              frozenset({(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)}))
    assert find_cycle_factor(two) is not None


def _assert_cycle_factor(D, cycles):
    """The cycles use arcs of D and partition its vertex set."""
    assert sorted(v for cyc in cycles for v in cyc) == list(range(D.n))
    for cyc in cycles:
        assert all((u, w) in D.arcs for u, w in zip(cyc, cyc[1:] + cyc[:1]))


def test_cycle_factor_vs_exhaustive():
    rng = random.Random(19)
    for _ in range(300):
        P = random_pog(rng, rng.randint(1, 6), p_adj=0.6, p_arc=1.0)
        got = find_cycle_factor(P)
        want = _cycle_cover_exists(P)
        assert (got is not None) == want, P.arcs
        if got is not None:
            _assert_cycle_factor(P, got)


def _kuhn_reference(D):
    """The depth-first augmenting-path matching find_cycle_factor ran
    before it called graph._matching, kept as the reference: a cycle
    factor of the oriented graph D as a list of cycles, or None."""
    n = D.n
    out = [sorted(s) for s in D.out_nbrs]
    match_r = [-1] * n  # in-copy -> out-copy
    for root in range(n):
        # depth-first augmenting path search; a frame is [out-copy,
        # its untried in-copies, the in-copy it is trying]
        seen = set()
        stack = [[root, iter(out[root]), None]]
        while stack:
            frame = stack[-1]
            for w in frame[1]:
                if w not in seen:
                    break
            else:
                stack.pop()
                continue
            seen.add(w)
            frame[2] = w
            if match_r[w] < 0:
                for u, _, w in stack:
                    match_r[w] = u
                break
            stack.append([match_r[w], iter(out[match_r[w]]), None])
        else:
            return None
    succ = {match_r[w]: w for w in range(n)}
    cycles, left = [], set(range(n))
    while left:
        v = min(left)
        cyc = [v]
        left.discard(v)
        while succ[cyc[-1]] != v:
            cyc.append(succ[cyc[-1]])
            left.discard(cyc[-1])
        cycles.append(cyc)
    return cycles


def _all_arc(n, factor):
    """Arcs i -> i+1, i -> i+2 and v[n-1] -> v[1]; with `factor` also
    v[n-2] -> v[0].  Without it v0 has no in-arc, so no cycle factor."""
    arcs = ([(i, i + 1) for i in range(n - 1)]
            + [(i, i + 2) for i in range(n - 2)] + [(n - 1, 1)])
    if factor:
        arcs.append((n - 2, 0))
    return Pog(names(n), frozenset(), frozenset(arcs))


def _cycle_factor_corpus():
    """Every oriented graph on <= 4 vertices, 6,000 seeded random ones
    on <= 10 vertices and the all-arc digraphs at n = 400, 1,200 and
    3,000, with and without their cycle factor."""
    for n in range(5):
        yield from (P for P in all_pogs(n) if not P.edges)
    rng = random.Random(23)
    for _ in range(6000):
        n = rng.randint(1, 10)
        p = rng.choice((0.5, 0.7, 0.9, 1.0))
        arcs = {(i, j) if rng.random() < 0.5 else (j, i)
                for i, j in itertools.combinations(range(n), 2)
                if rng.random() < p}
        yield Pog(names(n), frozenset(), frozenset(arcs))
    for n in (400, 1200, 3000):
        yield _all_arc(n, True)
        yield _all_arc(n, False)


def test_cycle_factor_matches_kuhn_reference():
    verdicts = {True: 0, False: 0}
    for D in _cycle_factor_corpus():
        got = find_cycle_factor(D)
        assert (got is not None) == (_kuhn_reference(D) is not None), D.arcs
        if got is not None:
            _assert_cycle_factor(D, got)
        verdicts[got is not None] += 1
    assert min(verdicts.values()) >= 1000, verdicts


def _doubled_copying_every_set(P):
    """completions._doubled as it was before it copied only the sets
    that an edge extends."""
    succ = [set(s) for s in P.out_nbrs]
    for i, j in P.edges:
        succ[i].add(j)
        succ[j].add(i)
    return succ


def test_matching_matches_bfs_path_reference():
    """The left-side augmenting search returns the (match, hall) of the
    bfs_path search it replaced, the key order of match included: on
    20,000 seeded bipartite graphs with string left labels and list
    (with repeats) or set neighbours, on the sorted out-lists that
    find_cycle_factor matches for every digraph of _cycle_factor_corpus,
    and on the relaxation of every pog with edges in
    _cycle_factor_differential_corpus (against every set copied, so
    the order in which the greedy meets neighbours is checked too)."""
    def check(left, nbrs, want_nbrs=None):
        got = _matching(left, nbrs)
        want = matching_reference(left, want_nbrs or nbrs)
        assert got == want and list(got[0]) == list(want[0])
        verdicts[got[1] is None] += 1

    verdicts = {True: 0, False: 0}
    rng = random.Random(41)
    for _ in range(20000):
        left = ["u%d" % k for k in rng.sample(range(20), rng.randint(0, 8))]
        right = rng.randint(1, 9)
        if rng.random() < 0.5:
            adj = {u: [rng.randrange(right) for _ in range(rng.randint(0, 4))]
                   for u in left}
        else:
            adj = {u: set(rng.sample(range(right), rng.randint(0, min(right, 4))))
                   for u in left}
        check(left, adj.__getitem__)
    assert min(verdicts.values()) >= 5000, verdicts
    for D in _cycle_factor_corpus():
        out = [sorted(s) for s in D.out_nbrs]
        check(range(D.n), out.__getitem__)
    for P in _cycle_factor_differential_corpus():
        if P.edges:
            check(range(P.n), completions._doubled(P).__getitem__,
                  _doubled_copying_every_set(P).__getitem__)


def _cycle_cover_exists(D):
    outs = [sorted(D.out_nbrs[v]) for v in range(D.n)]
    used = [False] * D.n

    def rec(v):
        if v == D.n:
            return True
        for w in outs[v]:
            if not used[w]:
                used[w] = True
                if rec(v + 1):
                    return True
                used[w] = False
        return False

    return rec(0)


def test_complete_to_cycle_factor():
    c4 = Pog.build(("a", "b", "c", "d"),
                   edges=[("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    D = complete_to_cycle_factor_bruteforce(c4)
    assert find_cycle_factor(D) is not None
    lonely = Pog.build(("a", "b", "c"), edges=[("a", "b")])
    cert = complete_to_cycle_factor_bruteforce(lonely)
    assert isinstance(cert, Certificate)
    assert verify_certificate(lonely, cert)


def _relaxation_saturable(P):
    """Whether distinct successors can be picked for all vertices of P,
    each along an arc of P or either way along an edge (backtracking)."""
    succ = [[] for _ in range(P.n)]
    for u, v in P.arcs:
        succ[u].append(v)
    for u, v in P.edges:
        succ[u].append(v)
        succ[v].append(u)
    used = set()

    def rec(v):
        if v == P.n:
            return True
        for w in succ[v]:
            if w not in used:
                used.add(w)
                if rec(v + 1):
                    return True
                used.discard(w)
        return False

    return rec(0)


def _cycle_factor_differential_corpus():
    """Every pog on <= 4 vertices and 2,000 seeded random pogs on <= 9
    vertices with at most 12 edges."""
    for n in range(5):
        yield from all_pogs(n)
    rng = random.Random(31)
    count = 0
    while count < 2000:
        P = random_pog(rng, rng.randint(1, 9), p_adj=rng.choice((0.3, 0.5, 0.7)),
                       p_arc=rng.choice((0.4, 0.6, 0.8)))
        if len(P.edges) <= 12:
            count += 1
            yield P


def test_cycle_factor_completion_matches_enumeration_reference():
    """The relaxation-first completer against the plain enumeration: the
    same verdict, the same arcs on every "yes", a `hall` refutation
    exactly when brute force finds no perfect matching of the relaxation,
    and every refutation verifies."""
    kinds = {"yes": 0, "hall": 0, "exhausted": 0}
    for P in _cycle_factor_differential_corpus():
        got = complete_to_cycle_factor_bruteforce(P)
        want = cycle_factor_enumeration_reference(P)
        if want is not None:
            assert not isinstance(got, Certificate), P
            assert got.arcs == want.arcs and not got.edges
            kinds["yes"] += 1
            continue
        assert isinstance(got, Certificate), P
        kind = got.payload["kind"]
        assert (kind == "hall") == (not _relaxation_saturable(P)), P
        assert verify_certificate(P, got), got.to_json()
        kinds[kind] += 1
    assert min(kinds.values()) >= 300, kinds


# -- k-arc-strong --------------------------------------------------------------


def test_k_arc_strong():
    c3 = Pog(names(3), frozenset(), frozenset({(0, 1), (1, 2), (2, 0)}))
    assert is_k_arc_strong(c3, 1)
    assert not is_k_arc_strong(c3, 2)
    # each vertex points at the next two around a 5-cycle
    arcs = set()
    for v in range(5):
        arcs.add((v, (v + 1) % 5))
        arcs.add((v, (v + 2) % 5))
    D = Pog(names(5), frozenset(), frozenset(arcs))
    assert is_k_arc_strong(D, 2)
    assert not is_k_arc_strong(D, 3)


def _strong_without(n, arcs):
    """True when the digraph on n vertices with these arcs is strong:
    every vertex reached from vertex 0 and reaching it."""
    for pairs in (arcs, [(j, i) for i, j in arcs]):
        seen, todo = {0}, [0]
        while todo:
            v = todo.pop()
            for i, j in pairs:
                if i == v and j not in seen:
                    seen.add(j)
                    todo.append(j)
        if len(seen) < n:
            return False
    return True


def test_k_arc_strong_matches_all_pairs_definition():
    """is_k_arc_strong against its definition by arc deletion: D stays
    strong after any fewer than k of its arcs are deleted (by Menger,
    every ordered pair is joined by k arc-disjoint paths), on random
    digraphs and on a gadget where the flow search sends flow back
    along a used arc."""
    rng = random.Random(41)
    digraphs = []
    for _ in range(300):
        n = rng.randint(1, 7)
        p = rng.choice((0.4, 0.6, 0.8))
        arcs = set()
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < p:
                arcs.add((i, j) if rng.random() < 0.5 else (j, i))
        digraphs.append((n, sorted(arcs)))
    # the first flow, from 0 to 1, takes the path 0 2 3 1, which blocks
    # the two others; the second path 0 4 3 2 5 1 runs back along (2, 3).
    # The spare arcs, out of 1 or into 0, lie on no path from 0 to 1.
    gadget = [(0, 2), (2, 3), (3, 1), (0, 4), (4, 3), (2, 5), (5, 1)]
    spare = [(1, 0), (1, 2), (1, 4), (3, 0), (5, 0)]
    digraphs += [(6, gadget + [a for t, a in enumerate(spare) if mask >> t & 1])
                 for mask in range(1 << len(spare))]
    verdicts = set()
    for n, arcs in digraphs:
        D = Pog(names(n), frozenset(), frozenset(arcs))
        for k in (1, 2, 3):
            want = all(_strong_without(n, [a for a in arcs if a not in cut])
                       for r in range(k) for cut in itertools.combinations(arcs, r))
            assert is_k_arc_strong(D, k) == want, (arcs, k)
            verdicts.add((k, want))
    assert verdicts == {(k, b) for k in (1, 2, 3) for b in (True, False)}
