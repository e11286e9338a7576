"""Cells, bad triples, friendliness, LTLT completions, circular extension."""

import itertools
import random
from collections import Counter, deque

from pogc import friendly
from pogc.auxgraph import aux_adjacent, build_aux
from pogc.errors import InvariantError, NotFriendlyError
from pogc.friendly import (bad_triples, complement_components,
                           complete_cells, complete_friendly,
                           extend_circular_arc_representation,
                           forbidden_cycle, is_friendly)
from pogc.interval import (Representation, complete_to_acyclic_lt,
                           orientation_from_representation,
                           validate_representation)
from pogc.pog import Certificate, Pog, _norm, classify
from pogc.verify import verify_certificate
from util import (_ref_length, all_graphs, all_pogs, bad_triples_reference,
                  brute_force_completion,
                  exact_oracle, forbidden_cycle_reference, names, random_graph,
                  random_pog)


def _c4():
    return Pog.build(("a", "b", "c", "d"),
                     edges=[("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])


def test_cells_k4_universal():
    K4 = Pog(names(4),
             frozenset((i, j) for i in range(4) for j in range(i + 1, 4)),
             frozenset())
    cs, universal = K4.cells
    assert cs == (tuple(range(4)),)
    assert universal == 0


def test_cells_p3():
    P = Pog.build(("a", "b", "c"), edges=[("a", "b"), ("b", "c")])
    cs, universal = P.cells
    # closed neighbourhoods all differ; b is the universal vertex
    assert cs == ((0,), (1,), (2,))
    assert universal == 1


def test_complement_components_c4():
    comps = complement_components(_c4())
    assert comps == [[0, 2], [1, 3]]


def test_bad_triples_need_two_arcs():
    G = Pog(names(5),
            frozenset((i, j) for i in range(5) for j in range(i + 1, 5)),
            frozenset())
    assert bad_triples(G) == []


def _old_bipartition(P, comp, anchor):
    """The complement bipartition by its own BFS, as it was written
    before the shared colouring search."""
    colour = {anchor: 0}
    q = deque([anchor])
    while q:
        v = q.popleft()
        for w in comp:
            if w == v or P.adjacent(v, w):
                continue
            if w not in colour:
                colour[w] = 1 - colour[v]
                q.append(w)
            elif colour[w] == colour[v]:
                raise InvariantError("complement component is not bipartite")
    if len(colour) != len(set(comp)):
        raise InvariantError("complement component fell apart")
    return (tuple(v for v in comp if colour[v] == 0),
            tuple(v for v in comp if colour[v] == 1))


def test_bipartition_and_bad_triples_match_their_old_loops(monkeypatch):
    """bad_triples against the triangle scan, and the sides of every
    complement component that the split path reads off the aux colours
    against the complement's own BFS, on at least 1,000 pogs that reach
    that path."""
    rng = random.Random(71)
    corpus = [P for n in range(1, 5) for P in all_pogs(n)]
    corpus += [random_pog(rng, rng.randint(1, 9), p_adj=rng.choice((0.4, 0.7, 0.9)))
               for _ in range(400)]
    # graphs and dense pogs with few arcs: friendly, with split complements
    corpus += list(all_graphs(5))
    corpus += [random_pog(rng, rng.randint(4, 8), p_adj=0.75, p_arc=0.05)
               for _ in range(2000)]
    split, real = [], friendly._complement_sides

    def checked(P, bar):
        sides = real(P, bar)
        assert sides == [_old_bipartition(P, C, C[0]) for C in bar], (P, bar)
        split.append(P)
        return sides

    monkeypatch.setattr(friendly, "_complement_sides", checked)
    bad = 0
    for P in corpus:
        got = bad_triples(P)
        assert got == bad_triples_reference(P)
        bad += bool(got)
        try:
            complete_friendly(P)
        except NotFriendlyError:
            pass
    assert 0 < bad < len(corpus)
    assert len(split) >= 1000, len(split)


def test_bad_triples_from_arc_pairs_match_the_triangle_scan(monkeypatch):
    """Bands with some arcs revealed and denser random pogs, many with
    bad triples, give the triangle scan's bad triples in its order; a pog
    with no triangle of two arcs builds no aux graph, however many
    triangles it has."""
    rng = random.Random(72)
    bad = 0
    for _ in range(150):
        P = random_pog(rng, rng.randint(5, 14), p_adj=rng.choice((0.5, 0.7, 0.9)),
                       p_arc=rng.choice((0.2, 0.4)))
        got = bad_triples(P)
        assert got == bad_triples_reference(P)
        bad += bool(got)
        n, w = rng.randint(3, 30), rng.randint(1, 4)
        p_arc = rng.choice((0.1, 0.3, 0.6))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, min(n, i + w + 1))]
        arcs = {(i, j) if rng.random() < 0.8 else (j, i)
                for i, j in pairs if rng.random() < p_arc}
        P = Pog(names(n), frozenset(p for p in pairs if p not in arcs
                                    and p[::-1] not in arcs), frozenset(arcs))
        got = bad_triples(P)
        assert got == bad_triples_reference(P)
        bad += bool(got)
    assert bad > 30

    def no_aux(*args):
        raise AssertionError("aux graph built")

    monkeypatch.setattr(friendly, "build_aux", no_aux)
    n = 2000
    band = [(i, j) for i in range(n) for j in range(i + 1, min(n, i + 9))]
    assert bad_triples(Pog(names(n), frozenset(band), frozenset())) == []
    one_arc = Pog(names(n), frozenset(band[1:]), frozenset(band[:1]))
    assert bad_triples(one_arc) == []


def test_bad_triple_check_matches_aux_labels():
    """verify_certificate on a BadTriple, which searches only the aux
    components of the triangle's pairs, agrees with the component
    labels of build_aux: every triangle of every graph on at most 5
    vertices and of seeded random graphs, with two of its sides made
    arcs."""
    rng = random.Random(89)
    graphs = [G for n in range(3, 6) for G in all_graphs(n)]
    graphs += [random_graph(rng, rng.randint(6, 11), rng.choice((0.5, 0.7, 0.9)))
               for _ in range(300)]
    seen = Counter()
    for G in graphs:
        X = build_aux(G)
        for x in range(G.n):
            for y, z in itertools.combinations(sorted(G.adj[x]), 2):
                if x > y or not G.adjacent(y, z):
                    continue
                pairs = [(x, y), (y, z), (x, z)]
                want = len({X.comp[X.vid[p]] for p in pairs}) == 3
                P = G.orient(rng.sample(pairs, 2))
                cert = Certificate("BadTriple", {"triple": [P.names[v] for v in (x, y, z)]})
                assert verify_certificate(P, cert) == want, (G, pairs)
                seen[want] += 1
    assert min(seen.values()) > 1000


def test_is_friendly_p3_with_one_arc():
    P = Pog.build(("a", "b", "c"), edges=[("b", "c")], arcs=[("a", "b")])
    ok, cert = is_friendly(P)
    assert not ok
    assert cert.tag == "OrientationConflict"
    assert verify_certificate(P, cert)


def test_is_friendly_graph_only():
    rng = random.Random(3)
    for _ in range(50):
        G = random_graph(rng, rng.randint(1, 6))
        assert is_friendly(G)[0]


def test_complete_friendly_c4():
    D = complete_friendly(_c4())
    rep = classify(D)
    assert rep.local_tournament and rep.locally_transitive
    # the only LT orientations of C4 are the two directed 4-cycles
    assert len(D.arcs) == 4


def test_complete_friendly_k4_minus_edge():
    G = Pog.build(("a", "b", "c", "d"),
                  edges=[("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"),
                         ("a", "c")])
    D = complete_friendly(G)
    rep = classify(D)
    assert rep.local_tournament and rep.locally_transitive


def test_friendly_complete_graph_merges_triangles():
    nm = ("a", "b", "c", "x", "y", "z")
    arcs = [("a", "b"), ("b", "c"), ("c", "a"),
            ("x", "y"), ("y", "z"), ("z", "x")]
    edges = [(p, q) for p in nm[:3] for q in nm[3:]]
    P = Pog.build(nm, edges=edges, arcs=arcs)
    T = complete_friendly(P)
    rep = classify(T)
    assert rep.tournament and rep.locally_transitive
    assert P.arcs <= T.arcs


def test_friendly_complete_graph_forbidden_triangle():
    # directed triangle inside N+(w)
    nm = ("w", "a", "b", "c")
    arcs = [("w", "a"), ("w", "b"), ("w", "c"),
            ("a", "b"), ("b", "c"), ("c", "a")]
    P = Pog.build(nm, arcs=arcs)
    cert = complete_friendly(P)
    assert isinstance(cert, Certificate)
    assert cert.tag == "DirectedCycle"
    assert verify_certificate(P, cert)


def _with_twins(rng, Q, k):
    """Q with k - 1 twins of vertex 0 added: each copies 0's edges and
    arcs to the rest of Q, and the k of them are pairwise adjacent, so
    they lie in one cell."""
    edges, arcs = set(Q.edges), set(Q.arcs)
    group = [0] + list(range(Q.n, Q.n + k - 1))
    for t in group[1:]:
        edges.update(_norm(t, j) for i, j in Q.edges if i == 0)
        arcs.update((t, j) for i, j in Q.arcs if i == 0)
        arcs.update((i, t) for i, j in Q.arcs if j == 0)
    for a, b in itertools.combinations(group, 2):
        if rng.random() < 0.2:
            edges.add((a, b))
        else:
            arcs.add((a, b) if rng.random() < 0.5 else (b, a))
    return Pog(names(Q.n + k - 1), frozenset(edges), frozenset(arcs))


def test_forbidden_cycle_matches_reference():
    """complete_cells' certificate, else forbidden_cycle's, equals the
    cycle search on every cell and then on every hood: on every pog of
    at most 4 vertices and on random pogs with a planted cell of 3 to 5
    twins."""
    rng = random.Random(73)
    pogs = [P for n in range(5) for P in all_pogs(n)]
    for _ in range(1500):
        Q = random_pog(rng, rng.randint(2, 7), p_adj=rng.choice((0.5, 0.8)),
                       p_arc=rng.choice((0.5, 0.9)))
        pogs.append(_with_twins(rng, Q, rng.randint(3, 5)))
    kinds = Counter()
    for P in pogs:
        want = forbidden_cycle_reference(P)
        got = complete_cells(P)
        if not isinstance(got, Certificate):
            got = forbidden_cycle(P)
        assert got == want, P
        kinds[want and want.payload["location"]["kind"]] += 1
    assert set(kinds) == {None, "cell", "out", "in"}
    assert min(kinds.values()) >= 100, kinds


def _ltlt(rep):
    return rep.local_tournament and rep.locally_transitive


def test_graph_only_exhaustive_n5():
    for G in all_graphs(5):
        res = complete_friendly(G)
        want = brute_force_completion(G, _ltlt)
        if isinstance(res, Certificate):
            assert want is None, G.edges
            assert verify_certificate(G, res)
        else:
            assert want is not None
            assert _ltlt(classify(res))


def test_friendly_pogs_random_vs_brute_force():
    rng = random.Random(47)
    done = 0
    while done < 2000:
        P = random_pog(rng, rng.randint(1, 6), p_adj=0.6, p_arc=0.35)
        if not is_friendly(P)[0]:
            continue
        done += 1
        try:
            res = complete_friendly(P)
        except Exception as exc:  # should never happen on friendly input
            raise AssertionError("%r on %r" % (exc, P))
        want = brute_force_completion(P, _ltlt)
        if isinstance(res, Certificate):
            assert want is None, (P.edges, P.arcs)
            assert verify_certificate(P, res)
        else:
            assert want is not None
            assert _ltlt(classify(res))
            assert P.arcs <= res.arcs


def test_complete_cells_orients_inside():
    # a,b share a closed neighbourhood; their cell is not universal
    P = Pog.build(("a", "b", "c", "d"),
                  edges=[("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")])
    out = complete_cells(P)
    assert out.arcs == frozenset({(0, 1)})
    # the universal cell of a complete graph stays unoriented
    K3 = Pog.build(("a", "b", "c"),
                   edges=[("a", "b"), ("a", "c"), ("b", "c")])
    assert complete_cells(K3).arcs == frozenset()


def test_circular_representation_recognition():
    R = extend_circular_arc_representation(_c4())
    assert R.kind == "circular"
    D = orientation_from_representation(_c4(), R)
    assert len(D.arcs) == 4


def test_circular_recognition_claw_rejected():
    claw = Pog.build(("c", "x", "y", "z"),
                     edges=[("c", "x"), ("c", "y"), ("c", "z")])
    cert = extend_circular_arc_representation(claw)
    assert isinstance(cert, Certificate)
    assert verify_certificate(claw, cert)


def test_extend_circular_none_is_recognition():
    out = extend_circular_arc_representation(_c4(), None)
    assert out.kind == "circular"


def test_extend_circular_preserves_induced_orientation():
    """A window of G's own representation always extends (that
    representation is an extension), whichever complement components
    it meets, and keeps the window's orientation."""
    rng = random.Random(53)
    done = 0
    while done < 60:
        G = random_graph(rng, rng.randint(3, 7), p=0.6)
        if len(G.ug_components) > 1:
            continue
        full = extend_circular_arc_representation(G)
        if isinstance(full, Certificate):
            continue
        D = orientation_from_representation(G, full)
        kset = set(rng.sample(range(G.n), rng.randint(2, G.n)))
        partial = _window(full, {G.names[v] for v in kset})
        out = extend_circular_arc_representation(G, partial)
        assert not isinstance(out, Certificate), (G.edges, partial)
        done += 1
        got = orientation_from_representation(G, out)
        want = {(u, v) for u, v in D.arcs if u in kset and v in kset}
        have = {(u, v) for u, v in got.arcs if u in kset and v in kset}
        assert want == have


def _friendly_reference(P):
    """Friendliness from the definition: pairwise aux adjacency, parity
    from an arc in every aux component holding one, then bad triples."""
    pairs = sorted(P.und_pairs | {(j, i) for i, j in P.und_pairs})
    nbrs = {a: [b for b in pairs if aux_adjacent(P, a, b)] for a in pairs}
    comp = {}
    for a in pairs:
        if a in comp:
            continue
        parity, todo, odd = {a: 0}, [a], False
        while todo:
            x = todo.pop()
            for y in nbrs[x]:
                if y not in parity:
                    parity[y] = 1 - parity[x]
                    todo.append(y)
                odd = odd or parity[y] == parity[x]
        comp.update((x, a) for x in parity)
        arcs = [x for x in parity if x in P.arcs]
        if arcs and (odd or any(parity[x] != parity[arcs[0]] for x in arcs)
                     or any(parity[x] == parity[arcs[0]] and _norm(*x) in P.edges
                            for x in parity)):
            return False
    for x, y, z in itertools.combinations(range(P.n), 3):
        tri = [(x, y), (y, z), (x, z)]
        if all(p in P.und_pairs for p in tri) \
                and len({comp[p] for p in tri}) == 3 \
                and sum(p not in P.edges for p in tri) == 2:
            return False
    return True


def test_is_friendly_matches_definition():
    rng = random.Random(61)
    corpus = [P for n in range(1, 5) for P in all_pogs(n)]
    corpus += [random_pog(rng, rng.randint(1, 9), p_adj=rng.choice((0.5, 0.8)),
                          p_arc=rng.choice((0.1, 0.3)))
               for _ in range(1500)]
    refuted = 0
    for P in corpus:
        ok, cert = is_friendly(P)
        assert ok == _friendly_reference(P), (P.edges, P.arcs)
        if not ok:
            refuted += 1
            assert verify_certificate(P, cert), (P.edges, P.arcs, cert)
    assert 0 < refuted < len(corpus)


def _window(R, keep):
    """The spans of R on the vertex names in keep, R's order kept."""
    sub = [nm for nm in R.names if nm in keep]
    return Representation(R.kind, tuple(sub),
                          tuple(R.spans[R.index[nm]] for nm in sub),
                          R.modulus)


def _rotate(R, shift):
    M = R.modulus
    return Representation(R.kind, R.names, tuple(
        ((l + shift) % M, (r + shift) % M) for l, r in R.spans), M)


def _reflect(R):
    """Mirror image of a circular R.  Arcs that share an end point first
    get distinct ends, the longer arc the earlier one, so that no arc
    comes to contain another and the mirrored starts stay distinct."""
    K = len(R.names) + 1
    M = R.modulus * K
    by_length = sorted(range(len(R.names)), key=lambda k: -_ref_length(R, k))
    end = {k: R.spans[k][1] * K + t for t, k in enumerate(by_length)}
    return Representation(R.kind, R.names, tuple(
        ((-end[k]) % M, (-l * K) % M) for k, (l, _) in enumerate(R.spans)), M)


def _windowed(G, partial):
    """G with the orientation the partial representation induces as arcs."""
    if partial is None:
        return G
    sub = G.induced([G.index[nm] for nm in partial.names])
    oriented = orientation_from_representation(sub, partial)
    return G.orient([(G.index[oriented.names[i]], G.index[oriented.names[j]])
                     for i, j in oriented.arcs])


def _check_circular(G, out, partial=None):
    """A yes is a valid circular representation of G that keeps the
    orientation of the partial one; a no verifies against G with that
    orientation as arcs."""
    P0 = _windowed(G, partial)
    if isinstance(out, Certificate):
        assert verify_certificate(P0, out), out
        return False
    assert out.kind == "circular"
    validate_representation(G, out)
    assert P0.arcs <= orientation_from_representation(G, out).arcs
    return True


def test_circular_on_disconnected_graphs():
    # a component whose round order wraps, and C4 plus an isolated vertex
    G = Pog.build(names(5), edges=[("v0", "v2"), ("v0", "v4"), ("v1", "v2")])
    assert _check_circular(
        G, extend_circular_arc_representation(G))
    c4 = _c4()
    c4e = Pog.build(("a", "b", "c", "d", "e"),
                    edges=[(c4.names[i], c4.names[j]) for i, j in c4.edges])
    cert = extend_circular_arc_representation(c4e)
    assert not _check_circular(c4e, cert)
    # a triangle laid cyclically round the circle cannot sit beside an
    # isolated vertex
    k3e = Pog.build(("a", "b", "c", "d"),
                    edges=[("a", "b"), ("b", "c"), ("a", "c")])
    cyclic = Representation("circular", ("a", "b", "c"),
                            ((0, 3), (2, 5), (4, 1)), 6)
    out = extend_circular_arc_representation(k3e, cyclic)
    assert not _check_circular(k3e, out, cyclic)
    rng = random.Random(61)
    seen = {True: 0, False: 0}
    extended = 0
    for _ in range(400):
        G = random_graph(rng, rng.randint(2, 8), p=rng.choice((0.2, 0.35, 0.5)))
        if len(G.ug_components) < 2:
            continue
        full = extend_circular_arc_representation(G)
        yes = _check_circular(G, full)
        seen[yes] += 1
        # no exactly when some component is not proper interval
        assert yes == all(
            not isinstance(complete_to_acyclic_lt(G.induced(C)), Certificate)
            for C in G.ug_components)
        if not yes:
            continue
        for R in (full, _rotate(full, rng.randrange(full.modulus))):
            keep = set(rng.sample(G.names, rng.randint(1, G.n)))
            partial = _window(R, keep)
            out = extend_circular_arc_representation(G, partial)
            extended += _check_circular(G, out, partial)
    assert seen[True] > 50 and seen[False] > 20 and extended > 100


def test_extend_circular_rotated_and_reflected_windows():
    """Windows that need not extend: a representation of the induced
    subgraph, turned round the circle and sometimes mirrored.  Every
    answer agrees with an exhaustive search over the orientations of G
    that keep the window's arcs, also when a complement component of G
    holds no window vertex."""
    rng = random.Random(71)
    seen = {True: 0, False: 0}
    uncovered = 0
    while seen[True] < 150 or seen[False] < 15:
        G = random_graph(rng, rng.randint(2, 7), p=rng.choice((0.4, 0.6, 0.8)))
        if len(G.edges) > 15:
            continue
        keep = sorted(rng.sample(range(G.n), rng.randint(1, G.n)))
        sub = extend_circular_arc_representation(G.induced(keep))
        if isinstance(sub, Certificate):
            continue
        partial = _rotate(sub, rng.randrange(sub.modulus))
        if rng.random() < 0.5:
            partial = _reflect(partial)
        out = extend_circular_arc_representation(G, partial)
        yes = _check_circular(G, out, partial)
        seen[yes] += 1
        target = "acyclic_local_tournament" if len(G.ug_components) > 1 \
            else "ltlt"
        assert yes == (exact_oracle(_windowed(G, partial), target) is not None), \
            (G.edges, partial)
        uncovered += any(not set(C) & set(keep) for C in complement_components(G))
    assert uncovered > 20
