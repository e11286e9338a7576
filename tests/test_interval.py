"""LBFS, elimination orderings, acyclic completions, representations."""

import random

import pytest

from pogc.errors import NotInClassError, RepresentationError
from pogc.interval import (Representation, check_peo, complete_to_acyclic_lt,
                           extend_interval_representation,
                           find_proper_interval_obstruction, lbfs,
                           orientation_from_representation,
                           parse_representation, render_representation,
                           representation_from_orientation,
                           validate_representation)
from pogc.pog import Certificate, Pog, bfs_path, classify, verify_certificate
from util import (all_graphs, brute_force_completion, names, orientations,
                  random_graph, random_pog)


def _p3(**kw):
    return Pog.build(("a", "b", "c"), **kw)


def _c4():
    return Pog.build(("a", "b", "c", "d"),
                     edges=[("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])


def test_lbfs_chordal_gives_peo():
    rng = random.Random(3)
    hits = 0
    for _ in range(300):
        G = random_graph(rng, rng.randint(1, 8))
        O = lbfs(G)
        ok, wit = check_peo(G, O)
        if ok:
            hits += 1
        else:
            # a failed elimination on these graphs must come with a
            # genuine obstruction
            assert find_proper_interval_obstruction(G) is not None \
                or _has_hole(G)
    assert hits > 50


def _has_hole(G):
    from pogc.interval import _find_hole
    return _find_hole(G) is not None


def test_lbfs_c4_fails_peo():
    ok, wit = check_peo(_c4().underlying_graph(), lbfs(_c4()))
    assert not ok and len(wit) == 3


def test_check_peo_path():
    G = _p3(edges=[("a", "b"), ("b", "c")])
    from pogc.pog import Ordering
    assert check_peo(G, Ordering("linear", (0, 2, 1)))[0]


def test_lbfs_arc_aware_keeps_arcs_forward():
    P = _p3(edges=[("b", "c")], arcs=[("a", "b")])
    from pogc.auxgraph import consentaneous_closure
    closed = consentaneous_closure(P)
    O = lbfs(P.underlying_graph(), arc_aware=closed)
    for u, v in closed.arcs:
        assert O.pos[u] < O.pos[v]


def test_complete_acyclic_p3_forced():
    D = complete_to_acyclic_lt(_p3(edges=[("a", "b")], arcs=[("c", "b")]))
    assert D.arcs == frozenset({(2, 1), (1, 0)})


def test_complete_acyclic_cycle_certificate():
    P = Pog.build(("a", "b", "c"),
                  arcs=[("a", "b"), ("b", "c"), ("c", "a")])
    cert = complete_to_acyclic_lt(P)
    assert isinstance(cert, Certificate) and cert.tag == "DirectedCycle"
    assert verify_certificate(P, cert)


def test_complete_acyclic_closure_cycle_certificate():
    # no directed cycle in P itself, but the closure forces one
    P = Pog.build(("a", "b", "c", "d", "e", "f"),
                  edges=[("b", "c"), ("d", "e"), ("f", "a")],
                  arcs=[("a", "b"), ("c", "d"), ("e", "f")])
    res = complete_to_acyclic_lt(P)
    if isinstance(res, Certificate):
        assert verify_certificate(P, res)


def test_complete_acyclic_c4_rejected():
    cert = complete_to_acyclic_lt(_c4())
    assert isinstance(cert, Certificate)
    assert verify_certificate(_c4(), cert)


def test_exhaustive_graphs_n5_agreement():
    for G in all_graphs(5):
        res = complete_to_acyclic_lt(G)
        want = brute_force_completion(
            G, lambda rep: rep.acyclic_local_tournament)
        if isinstance(res, Certificate):
            assert want is None
            assert verify_certificate(G, res)
        else:
            assert want is not None
            rep = classify(res)
            assert rep.acyclic and rep.local_tournament
            R = representation_from_orientation(res, "interval")
            back = orientation_from_representation(res, R)
            assert back.arcs == res.arcs


def test_random_pogs_with_arcs():
    rng = random.Random(17)
    for _ in range(400):
        P = random_pog(rng, rng.randint(1, 6))
        res = complete_to_acyclic_lt(P)
        want = brute_force_completion(
            P, lambda rep: rep.acyclic_local_tournament)
        if isinstance(res, Certificate):
            assert want is None, P
            assert verify_certificate(P, res)
        else:
            assert want is not None
            assert P.arcs <= res.arcs


def test_representation_path():
    D = _p3(arcs=[("a", "b"), ("b", "c")])
    R = representation_from_orientation(D, "interval")
    validate_representation(D, R)
    assert orientation_from_representation(D, R).arcs == D.arcs


def test_representation_single_vertex():
    D = Pog.build(("a",))
    R = representation_from_orientation(D, "interval")
    assert R.spans[0][0] < R.spans[0][1]


def test_circular_representation_of_ltlt_k4():
    D = Pog.build(("a", "b", "c", "d"),
                  arcs=[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
                        ("a", "c"), ("b", "d")])
    R = representation_from_orientation(D, "circular")
    assert R.kind == "circular"
    assert orientation_from_representation(D, R).arcs == D.arcs


def test_circular_representation_of_directed_c5():
    D = Pog(names(5), frozenset(),
            frozenset((k, (k + 1) % 5) for k in range(5)))
    R = representation_from_orientation(D, "circular")
    assert orientation_from_representation(D, R).arcs == D.arcs


def test_representation_kind_guard():
    D = Pog.build(("a", "b", "c"),
                  arcs=[("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(NotInClassError):
        representation_from_orientation(D, "interval")


def test_representation_round_trip_all_acyclic_lts_n5():
    for G in all_graphs(5):
        for D in orientations(G):
            rep = classify(D)
            if not rep.acyclic_local_tournament:
                continue
            R = representation_from_orientation(D, "interval")
            assert orientation_from_representation(D, R).arcs == D.arcs
            break  # one orientation per graph keeps this quick


def test_parse_render_representation():
    text = "iv a 0 3\niv b 2 5\n"
    R = parse_representation(text)
    assert R.kind == "interval" and R.spans == ((0, 3), (2, 5))
    assert render_representation(R) == text
    R2 = parse_representation("ca a 0 3 8\nca b 6 1 8\n")
    assert R2.kind == "circular" and R2.modulus == 8
    with pytest.raises(Exception):
        parse_representation("iv a 5 3\n")


def test_validate_representation_rejects_mismatch():
    G = _p3(edges=[("a", "b")])
    R = Representation("interval", ("a", "b", "c"),
                       ((0, 3), (2, 5), (4, 7)))
    with pytest.raises(RepresentationError):
        validate_representation(G, R)  # b,c intersect but are non-adjacent


def test_validate_representation_rejects_containment():
    G = _p3(edges=[("a", "b"), ("b", "c"), ("a", "c")])
    R = Representation("interval", ("a", "b", "c"),
                       ((0, 9), (2, 5), (3, 4)))
    with pytest.raises(RepresentationError):
        validate_representation(G, R)


def test_extend_interval_forced():
    G = _p3(edges=[("a", "b"), ("b", "c")])
    partial = Representation("interval", ("a", "b"), ((0, 3), (2, 5)))
    R = extend_interval_representation(G, partial)
    D = orientation_from_representation(G.underlying_graph(), R)
    assert (G.index["a"], G.index["b"]) in D.arcs
    assert (G.index["b"], G.index["c"]) in D.arcs


def test_extend_interval_disjoint_partial():
    G = _p3(edges=[("a", "b"), ("b", "c")])
    partial = Representation("interval", ("a", "c"), ((0, 1), (4, 5)))
    R = extend_interval_representation(G, partial)
    assert not isinstance(R, Certificate)


def test_extend_interval_claw_rejected():
    G = Pog.build(("c", "x", "y", "z"),
                  edges=[("c", "x"), ("c", "y"), ("c", "z")])
    partial = Representation("interval", ("x",), ((0, 1),))
    cert = extend_interval_representation(G, partial)
    assert isinstance(cert, Certificate)
    assert verify_certificate(G, cert)


def test_extend_interval_random_preserves_induced_orientation():
    rng = random.Random(29)
    built = 0
    while built < 100:
        G = random_graph(rng, rng.randint(2, 8), p=0.45)
        D = complete_to_acyclic_lt(G)
        if isinstance(D, Certificate):
            continue
        R = representation_from_orientation(D, "interval")
        keep = sorted(rng.sample(range(G.n), rng.randint(1, G.n)))
        sub_names = [R.names[k] for k in range(len(R.names))
                     if G.index[R.names[k]] in keep]
        partial = Representation(
            "interval", tuple(sub_names),
            tuple(R.spans[R.index[nm]] for nm in sub_names))
        out = extend_interval_representation(G, partial)
        assert not isinstance(out, Certificate)
        full = orientation_from_representation(G.underlying_graph(), out)
        subset = set(keep)
        want = {(u, v) for u, v in D.arcs if u in subset and v in subset}
        got = {(u, v) for u, v in full.arcs if u in subset and v in subset}
        assert want == got
        built += 1


def _find_hole_reference(G):
    """One path search per non-adjacent neighbour pair of every vertex."""
    for x in range(G.n):
        na = sorted(G.adj[x])
        for s in range(len(na)):
            for t in range(s + 1, len(na)):
                y, z = na[s], na[t]
                if G.adjacent(y, z):
                    continue
                banned = (G.adj[x] | {x}) - {y, z}
                path = bfs_path(lambda a: [b for b in sorted(G.adj[a])
                                           if b not in banned], y, z)
                if path is not None:
                    return [x] + path
    return None


def test_find_hole_matches_pairwise_search():
    from pogc.interval import _find_hole
    rng = random.Random(67)
    holes = 0
    for _ in range(1500):
        G = random_graph(rng, rng.randint(1, 12), p=rng.choice((0.15, 0.3, 0.5)))
        hole = _find_hole(G)
        assert hole == _find_hole_reference(G), G.edges
        holes += hole is not None
    assert 100 < holes < 1400
