"""LBFS, elimination orderings, acyclic completions, representations."""

import itertools
import json
import random
import re
import time
from collections import Counter

import pytest

import pogc.friendly
import pogc.interval
from pogc.auxgraph import build_aux, consentaneous_closure, two_colour
from pogc.cli import run
from pogc.errors import (NoZeroOutdegreeStartError, NotInClassError, ParseError,
                         RepresentationError)
from pogc.friendly import extend_circular_arc_representation
from pogc.interval import (Representation, _find_hole, check_peo,
                           complete_to_acyclic_lt,
                           extend_interval_representation, lbfs,
                           orientation_from_representation,
                           parse_representation, render_representation,
                           representation_from_orientation,
                           validate_representation)
from pogc.graph import bfs_path
from pogc.pog import Certificate, Pog, classify, render_pog, require_oriented
from pogc.rounds import find_round_ordering
from pogc.verify import verify_certificate
from util import (_find_claw, _find_net, _ref_length, all_graphs, all_pogs,
                  brute_force_completion, lbfs_reference, names, orientations,
                  random_graph, random_ltt, random_pog,
                  representation_from_orientation_reference)


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
            # a failed elimination comes with a hole through its triple
            assert verify_certificate(G, _find_hole(G, wit))
    assert hits > 50


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


def _lbfs_outcome(lbfs_fn, G, arc_aware=None):
    try:
        return lbfs_fn(G, arc_aware).seq
    except NoZeroOutdegreeStartError as exc:
        return "raised", str(exc)


def _band_pog(n, w, circular=False, oriented=False):
    """Band-w on n vertices: v_i ~ v_j iff their distance, along the line
    or round the cycle, is at most w; with `oriented`, every pair is an
    arc from the vertex the other follows within distance w."""
    pairs = {(i, (i + d) % n if circular else i + d)
             for i in range(n) for d in range(1, w + 1)
             if (i + d < n or circular) and (i + d) % n != i}
    pairs = {(i, j) for i, j in pairs if (j, i) not in pairs or i < j}
    if oriented:
        return Pog(names(n), frozenset(), frozenset(pairs))
    return Pog(names(n), frozenset((min(p), max(p)) for p in pairs), frozenset())


def test_lbfs_matches_reference():
    """Partition-refinement LBFS gives the ordering of the label-tuple
    reference, or raises as it does: plain on every graph of at most 5
    vertices; arc-aware with the pog itself on every pog of at most 4;
    plain and arc-aware with the consentaneous closure on 3,000 seeded
    random pogs; plain and arc-aware with their straight or round
    orientation on straight and circular bands."""
    seen = {"plain": 0, "aware": 0, "raised": 0}

    def same(G, A=None):
        got = _lbfs_outcome(lbfs, G, A)
        assert got == _lbfs_outcome(lbfs_reference, G, A), (G, A)
        seen["raised" if got[:1] == ("raised",) else
             "plain" if A is None else "aware"] += 1

    for n in range(6):
        for G in all_graphs(n):
            same(G)
    for n in range(1, 5):
        for P in all_pogs(n):
            same(P.underlying_graph(), P)
    rng = random.Random(89)
    for _ in range(3000):
        P = random_pog(rng, rng.randint(1, 16),
                       p_adj=rng.choice((0.2, 0.5, 0.8, 1.0)),
                       p_arc=rng.choice((0.0, 0.1, 0.4, 0.9)))
        G = P.underlying_graph()
        same(G)
        closed = consentaneous_closure(P)
        if not isinstance(closed, Certificate):
            same(G, closed)
    for n in (1, 2, 5, 9, 16, 40):
        for w in (1, 2, 4):
            for circular in (False, True):
                G = _band_pog(n, w, circular)
                same(G)
                same(G, _band_pog(n, w, circular, oriented=True))
    assert seen["plain"] >= 4000 and seen["aware"] >= 5000
    assert seen["raised"] >= 400


def test_lbfs_and_acyclic_lt_are_near_linear(tmp_path, capsys):
    """`recognize --class chordal` and `complete --class acyclic-lt` on
    band-4 at n = 10^4, through the command line, each under 2 s."""
    n = 10 ** 4
    path = tmp_path / "band.pog"
    path.write_text(render_pog(_band_pog(n, 4)))
    for argv, want in ((["recognize", "--class", "chordal", str(path)], "yes"),
                       (["complete", "--class", "acyclic-lt", str(path)], "arc ")):
        t0 = time.perf_counter()
        status = run(argv)
        assert time.perf_counter() - t0 < 2.0, argv
        assert status == 0 and want in capsys.readouterr().out


def test_tent_beside_a_band_is_refuted_fast(tmp_path, capsys):
    """`complete --class acyclic-lt` and `recognize --class proper-interval`
    on band-4 at n = 4,000 plus a disjoint tent, through the command line,
    each under 3 s.  The elimination check passes on this chordal graph,
    so no hole search runs; each answers with the tent, which verify-cert
    accepts."""
    tent = [("t0", "t1"), ("t1", "t2"), ("t0", "t2"), ("q0", "t0"),
            ("q0", "t1"), ("q1", "t1"), ("q1", "t2"), ("q2", "t2"), ("q2", "t0")]
    path = tmp_path / "band_tent.pog"
    path.write_text(render_pog(_band_pog(4000, 4))
                    + "".join("edge %s %s\n" % e for e in tent))
    cert = tmp_path / "tent.json"
    for argv in (["complete", "--class", "acyclic-lt", str(path)],
                 ["recognize", "--class", "proper-interval", str(path)]):
        t0 = time.perf_counter()
        status = run(argv)
        assert time.perf_counter() - t0 < 3.0, argv
        out = capsys.readouterr().out
        assert status == 1 and json.loads(out)["payload"]["kind"] == "tent"
        cert.write_text(out)
        assert run(["verify-cert", str(path), str(cert)]) == 0
        assert capsys.readouterr().out.strip() == "valid"


def test_hole_beside_a_band_is_refuted_fast(tmp_path, capsys):
    """`recognize --class chordal`, `complete --class acyclic-lt` and
    `recognize --class proper-interval` on band-4 at n = 10^4 plus a
    disjoint 6-hole, through the command line, each under 2 s.  Each
    answers with the hole read off the failed elimination check, which
    verify-cert accepts."""
    hole = ["h%d" % k for k in range(6)]
    path = tmp_path / "band_hole.pog"
    path.write_text(render_pog(_band_pog(10 ** 4, 4))
                    + "".join("edge %s %s\n" % (hole[k - 1], hole[k])
                              for k in range(6)))
    cert = tmp_path / "hole.json"
    for argv in (["recognize", "--class", "chordal", str(path)],
                 ["complete", "--class", "acyclic-lt", str(path)],
                 ["recognize", "--class", "proper-interval", str(path)]):
        t0 = time.perf_counter()
        status = run(argv)
        assert time.perf_counter() - t0 < 2.0, argv
        out = capsys.readouterr().out
        payload = json.loads(out)["payload"]
        assert status == 1 and payload["kind"] == "hole"
        assert sorted(payload["vertices"]) == hole
        cert.write_text(out)
        assert run(["verify-cert", str(path), str(cert)]) == 0
        assert capsys.readouterr().out.strip() == "valid"


_TRIANGLE = [("t0", "t1"), ("t1", "t2"), ("t0", "t2")]
_CLAW = Pog.build(("c", "a", "b", "d"), edges=[("c", "a"), ("c", "b"), ("c", "d")])
_NET = Pog.build(("t0", "t1", "t2", "p0", "p1", "p2"),
                 edges=_TRIANGLE + [("t0", "p0"), ("t1", "p1"), ("t2", "p2")])
_TENT = Pog.build(("t0", "t1", "t2", "q0", "q1", "q2"),
                  edges=_TRIANGLE + [("q0", "t0"), ("q0", "t1"), ("q1", "t1"),
                                     ("q1", "t2"), ("q2", "t2"), ("q2", "t0")])


def test_claw_and_net_have_no_local_tournament_orientation():
    """No orientation of the claw or the net is a local tournament (all
    of them tried); some orientation of the tent is one.  Having one is
    inherited by induced subgraphs, so where the aux graph has been
    2-coloured, only a tent can be left to find."""
    assert not any(classify(D).local_tournament for D in orientations(_CLAW))
    assert not any(classify(D).local_tournament for D in orientations(_NET))
    assert any(classify(D).local_tournament for D in orientations(_TENT))


def _is_tent(G, vs):
    """vs = t0 t1 t2 q0 q1 q2 spans a tent: the t's a triangle, the q's
    independent, and q[s] adjacent to t[s] and t[s + 1] only."""
    t, q = vs[:3], vs[3:]
    return all(G.adjacent(t[s], t[r]) and not G.adjacent(q[s], q[r])
               for s, r in itertools.combinations(range(3), 2)) \
        and all(G.adjacent(q[s], t[r]) == (r in (s, (s + 1) % 3))
                for s in range(3) for r in range(3))


def test_find_tent_matches_brute_force():
    """_find_tent finds an induced tent exactly when a search of every
    triangle and every ordered triple of other vertices does, and what
    it returns is a tent.  The graphs are the tent with random edges
    between its outer vertices and up to two random extra vertices, so
    the search meets outer candidates that see each other."""
    rng = random.Random(47)
    tent = sorted(tuple(sorted(e)) for e in _TENT.edges)
    found = Counter()
    for _ in range(300):
        n = 6 + rng.randint(0, 2)
        edges = set(tent)
        edges.update(e for e in itertools.combinations(range(n), 2)
                     if (e[1] >= 6 and rng.random() < 0.5)
                     or (e[0] >= 3 and e[1] < 6 and rng.random() < 0.3))
        G = Pog(names(n), frozenset(edges), frozenset())
        got = pogc.interval._find_tent(G)
        want = any(_is_tent(G, tri + q)
                   for tri in itertools.combinations(range(n), 3)
                   for q in itertools.permutations(
                       [v for v in range(n) if v not in tri], 3))
        assert (got is not None) == want, sorted(edges)
        assert got is None or _is_tent(G, tuple(got))
        found[want] += 1
    assert min(found.values()) >= 50, found


def test_small_graphs_with_coloured_aux_have_no_claw_or_net():
    """No graph on at most 6 vertices whose aux graph two_colour colours
    has an induced claw or net (reference searches from tests/util).
    The nets met are the 6!/6 labellings of the net itself."""
    claws = nets = 0
    for n in range(4, 7):
        for G in all_graphs(n):
            claw, net = _find_claw(G) is not None, _find_net(G) is not None
            if claw or net:
                claws, nets = claws + claw, nets + net
                assert isinstance(two_colour(build_aux(G)), Certificate), G.edges
    assert claws > 10000 and nets == 120


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
    with pytest.raises(ParseError, match="^line 2: duplicate span for a$"):
        parse_representation("iv a 0 1\niv a 4 5\niv b 1 4\n")
    with pytest.raises(RepresentationError, match="^duplicate span for a$"):
        Representation("interval", ("a", "a", "b"),
                       ((0, 1), (4, 5), (1, 4)))


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


def _hole_through(G, x, y, z):
    """The shortest hole x, y, ..., z: x, then a shortest y-z path that
    avoids N[x] - {y, z}, or None."""
    banned = (G.adj[x] | {x}) - {y, z}
    path = bfs_path(lambda a: [b for b in sorted(G.adj[a])
                               if b not in banned], y, z)
    return None if path is None else [x] + path


def _find_hole_reference(G):
    """One path search per non-adjacent neighbour pair of every vertex."""
    for x in range(G.n):
        na = sorted(G.adj[x])
        for s in range(len(na)):
            for t in range(s + 1, len(na)):
                y, z = na[s], na[t]
                if not G.adjacent(y, z):
                    hole = _hole_through(G, x, y, z)
                    if hole is not None:
                        return hole
    return None


def test_find_hole_matches_pairwise_search():
    """The elimination check fails on an order of lbfs, plain or
    arc-aware, exactly when the pairwise search finds a hole.  The hole
    read off the failing triple (v, u, w) then runs u, v, w round the
    cycle, is as short as any such hole, and verifies."""
    rng = random.Random(67)
    holes = 0
    for _ in range(1500):
        P = random_pog(rng, rng.randint(1, 12),
                       p_adj=rng.choice((0.15, 0.3, 0.5)), p_arc=0.2)
        G = P.underlying_graph()
        orders = [lbfs(G)]
        if not all(P.out_nbrs):
            orders.append(lbfs(G, arc_aware=P))
        chordal = _find_hole_reference(G) is None
        for O in orders:
            ok, triple = check_peo(G, O)
            assert ok == chordal, G.edges
            if ok:
                continue
            cert = _find_hole(G, triple)
            hole = cert.payload["vertices"]
            v, u, w = triple
            assert hole[:2] == [v, u] and hole[-1] == w
            shortest = _hole_through(G, *(G.index[x] for x in triple))
            assert len(hole) == len(shortest)
            assert verify_certificate(G, cert)
            holes += 1
    assert 500 < holes < 2000


def test_parse_representation_is_linear():
    text = "".join("iv v%d %d %d\n" % (k, 2 * k, 2 * k + 1)
                   for k in range(40000))
    t0 = time.perf_counter()
    R = parse_representation(text)
    assert time.perf_counter() - t0 < 2.0
    assert len(R.names) == 40000


# -- reference: the representation layer with a kind branch in every
# span test, a validation pass followed by an orientation pass, and a
# layout that recurses for disconnected circular graphs ----------------


def _ref_check(kind, names, spans, modulus):
    if kind not in ("interval", "circular"):
        raise RepresentationError("kind must be interval or circular")
    if len(names) != len(spans):
        raise RepresentationError("one span per vertex required")
    if kind == "interval":
        for l, r in spans:
            if l > r:
                raise RepresentationError("interval with negative length")
    else:
        if names and modulus <= 0:
            raise RepresentationError("circular representation needs a modulus")
        for l, r in spans:
            if not (0 <= l < modulus and 0 <= r < modulus):
                raise RepresentationError("arc endpoint outside the circle")


def _ref_covers(R, k, point):
    l, r = R.spans[k]
    if R.kind == "interval":
        return l <= point <= r
    return (point - l) % R.modulus <= (r - l) % R.modulus


def _ref_intersects(R, k, m):
    if R.kind == "interval":
        (a, b), (c, d) = R.spans[k], R.spans[m]
        return max(a, c) <= min(b, d)
    return _ref_covers(R, k, R.spans[m][0]) or _ref_covers(R, m, R.spans[k][0])


def _ref_contains_strictly(R, k, m):
    if R.kind == "interval":
        (a, b), (c, d) = R.spans[k], R.spans[m]
        return a < c and d < b
    a = (R.spans[m][0] - R.spans[k][0]) % R.modulus
    b = (R.spans[m][1] - R.spans[k][0]) % R.modulus
    return 0 < a <= b < _ref_length(R, k)


def _ref_validate(G, R):
    if set(R.names) != set(G.names):
        raise RepresentationError("representation names do not match the graph")
    starts = [R.spans[k][0] for k in range(len(R.names))]
    if len(set(starts)) != len(starts):
        raise RepresentationError("start points must be pairwise distinct")
    for k in range(len(R.names)):
        for m in range(k + 1, len(R.names)):
            u, v = G.index[R.names[k]], G.index[R.names[m]]
            if _ref_intersects(R, k, m) != G.adjacent(u, v):
                raise RepresentationError(
                    "intersection mismatch on %s,%s" % (R.names[k], R.names[m]))
            if _ref_contains_strictly(R, k, m) or _ref_contains_strictly(R, m, k):
                raise RepresentationError(
                    "strict containment on %s,%s" % (R.names[k], R.names[m]))
            if R.kind == "circular" and _ref_intersects(R, k, m) \
                    and _ref_covers(R, k, R.spans[m][0]) \
                    and _ref_covers(R, m, R.spans[k][0]):
                raise RepresentationError(
                    "%s,%s cover the whole circle" % (R.names[k], R.names[m]))


def _ref_orientation(G, R):
    _ref_validate(G, R)
    arcs = set()
    for k in range(len(R.names)):
        for m in range(len(R.names)):
            if k == m:
                continue
            u, v = G.index[R.names[k]], G.index[R.names[m]]
            if G.adjacent(u, v) and _ref_covers(R, k, R.spans[m][0]):
                arcs.add((u, v))
    return Pog(G.names, frozenset(), frozenset(arcs))


def _ref_linear_order(D):
    O = find_round_ordering(D)
    if O is None:
        raise NotInClassError("digraph is not round")
    seq = []
    for part in D.ug_parts(O.seq):
        k = len(part)
        for shift in range(k):
            rot = part[shift:] + part[:shift]
            pos = {v: t for t, v in enumerate(rot)}
            if all(pos[u] < pos[v] for u in part for v in D.out_nbrs[u]):
                seq.extend(rot)
                break
        else:
            raise NotInClassError("component admits no forward rotation")
    return seq


def _ref_layout(D, kind):
    require_oriented(D)
    rep = classify(D)
    if kind == "interval":
        if not rep.acyclic_local_tournament:
            raise NotInClassError("not an acyclic local tournament")
        seq = _ref_linear_order(D)
        pos = {v: t for t, v in enumerate(seq)}
        spans = {}
        for v in range(D.n):
            last = max([pos[v]] + [pos[w] for w in D.out_nbrs[v]])
            spans[v] = (2 * pos[v], 2 * last + 1)
        R = Representation("interval", tuple(D.names[v] for v in seq),
                           tuple(spans[v] for v in seq))
    elif kind == "circular":
        if not rep.locally_transitive:
            raise NotInClassError("not a locally transitive local tournament")
        if len(D.ug_components) > 1:
            R = _ref_layout(D, "interval")
            R = Representation("circular", R.names, R.spans, 2 * D.n)
        else:
            O = find_round_ordering(D)
            if O is None:
                raise NotInClassError("digraph is not round")
            spans = [(2 * O.pos[v],
                      2 * ((O.pos[v] + len(D.out_nbrs[v])) % D.n) + 1)
                     for v in O.seq]
            R = Representation("circular", tuple(D.names[v] for v in O.seq),
                               tuple(spans), 2 * D.n)
    else:
        raise ValueError("kind must be interval or circular")
    back = _ref_orientation(D, R)
    assert back.arcs == D.arcs
    return R


def _outcome(f, *args):
    """What a call returns or raises, in comparable form."""
    try:
        res = f(*args)
    except Exception as exc:  # compared, not hidden: both sides must agree
        return type(exc).__name__, str(exc)
    if res is None:
        return None
    if isinstance(res, Certificate):
        return res.tag, res.payload
    if isinstance(res, Pog):
        return res.names, res.arcs
    if isinstance(res, set):
        return sorted(res)
    return res.kind, res.names, res.spans, res.modulus


def _random_spans(rng):
    kind = rng.choice(("interval", "circular", "interval", "circular", "line"))
    n = rng.randint(0, 6)
    names = tuple("v%d" % k for k in rng.sample(range(9), n))
    modulus = rng.choice((0, -3)) if rng.random() < 0.05 else rng.randint(1, 12)
    spans = []
    for _ in range(n):
        if kind == "circular":
            hi = modulus if rng.random() < 0.97 else modulus + 1
            spans.append((rng.randrange(min(0, hi), max(1, hi)),
                          rng.randrange(min(0, hi), max(1, hi))))
        else:
            l = rng.randint(-8, 8)
            r = l + rng.randint(-1 if rng.random() < 0.05 else 0, 8)
            spans.append((l, r))
    if n and rng.random() < 0.03:
        spans.pop()
    return kind, names, tuple(spans), modulus


def test_span_tests_and_orientation_match_reference():
    rng = random.Random(71)
    valid = oriented = 0
    for _ in range(6000):
        kind, nm, spans, modulus = _random_spans(rng)
        got = _outcome(Representation, kind, nm, spans, modulus)
        want = _outcome(_ref_check, kind, nm, spans, modulus)
        assert got == want if want is not None else len(got) == 4
        try:
            R = Representation(kind, nm, spans, modulus)
        except RepresentationError:
            continue
        valid += 1
        # the intersection graph of R, sometimes perturbed, on the names
        # of R in a shuffled order, sometimes with one name swapped out
        order = list(nm)
        rng.shuffle(order)
        edges = [(nm[k], nm[m]) for k in range(len(nm))
                 for m in range(k + 1, len(nm))
                 if _ref_intersects(R, k, m) != (rng.random() < 0.05)]
        if order and rng.random() < 0.05:
            edges = [e for e in edges if order[0] not in e]
            order[0] = "zz"
        G = Pog.build(tuple(order), edges=edges)
        got = _outcome(validate_representation, G, R)
        want = _outcome(_ref_validate, G, R)
        assert got == want if want is not None else isinstance(got, list)
        got = _outcome(orientation_from_representation, G, R)
        assert got == _outcome(_ref_orientation, G, R)
        if isinstance(got[1], frozenset):
            oriented += 1
            assert sorted(got[1]) == _outcome(validate_representation, G, R)
    assert valid > 4000 and oriented > 1500


def _band_spans(n, w, modulus=0, shift=0, ring=False):
    """Spans of a width-w band: position t starts at 2t and runs to just
    past position t + w, capped at the last position unless ring, and
    turned by shift round a circle of length modulus when that is set."""
    spans = [(2 * t, 2 * (t + w if ring else min(t + w, n - 1)) + 1)
             for t in range(n)]
    if modulus:
        spans = [((l + shift) % modulus, (r + shift) % modulus)
                 for l, r in spans]
    return spans


def _spoilt_band(rng):
    """A 20-60 span band representation, listed in position order or
    shuffled, with at most one defect, and the graph it is checked
    against: the intersection graph of the band or of the spoilt spans,
    sometimes with one pair toggled."""
    kind = rng.choice(("interval", "circular"))
    n = rng.randint(20, 60)
    modulus = 2 * n if kind == "circular" else 0
    ring = modulus and rng.random() < 0.5
    # a ring as wide as half the circle has arcs that cover it in pairs
    w = (n + 1) // 2 if ring and rng.random() < 0.2 else rng.randint(1, 5)
    spans = _band_spans(n, w, modulus, rng.randrange(2 * n), ring)
    order = list(range(n))
    if rng.random() < 0.7:
        rng.shuffle(order)
    nm = tuple("v%d" % t for t in order)
    spans = [spans[t] for t in order]
    clean = Representation(kind, nm, tuple(spans), modulus)
    k, j = rng.sample(range(n), 2)
    (l, r), s = spans[k], spans[j][0]
    change = rng.choice(("shift", "start", "circle", None))
    if change == "shift":
        l, r = l + rng.choice((-3, -1, 0, 1, 3)), r + rng.randint(-3, 3)
        spans[k] = (l, max(l, r)) if not modulus else (l % modulus, r % modulus)
    elif change == "start":
        spans[k] = (s, max(s, r))
    elif change == "circle" and modulus:
        spans[k], spans[j] = (l, (s + 1) % modulus), (s, (l + 1) % modulus)
    R = Representation(kind, nm, tuple(spans), modulus)
    base = clean if rng.random() < 0.5 else R
    edges = {(nm[a], nm[b]) for a in range(n) for b in range(a + 1, n)
             if _ref_intersects(base, a, b)}
    if rng.random() < 0.3:
        edges ^= {(nm[k], nm[j]) if k < j else (nm[j], nm[k])}
    shuffled = list(nm)
    rng.shuffle(shuffled)
    return Pog.build(tuple(shuffled), edges=edges), R


def test_row_pass_matches_pairwise_reference(monkeypatch):
    """The row pass of validate_representation gives the pairwise
    reference's error or arcs, checks each adjacent pair once on a valid
    representation and at most one extra row on an invalid one."""
    checked = []
    check_pair = pogc.interval._check_pair

    def counted(*args):
        checked.append(args)
        return check_pair(*args)

    monkeypatch.setattr(pogc.interval, "_check_pair", counted)
    rng = random.Random(79)
    messages = ("mismatch", "containment", "whole circle", "distinct")
    seen = dict.fromkeys(("valid", "cov", "stab", "late") + messages, 0)
    for _ in range(600):
        G, R = _spoilt_band(rng)
        checked.clear()
        got = _outcome(validate_representation, G, R)
        want = _outcome(_ref_orientation, G, R)
        if isinstance(want[1], frozenset):
            assert got == sorted(want[1])
            assert len(checked) == len(G.edges)
            seen["valid"] += 1
            continue
        assert got == want
        assert len(checked) <= len(G.edges) + len(R.names)
        for what in messages:
            seen[what] += what in want[1]
        pair = re.search(r"(v\d+),(v\d+)", want[1])
        if pair is None:
            continue
        # the first failing row, and the later spans not adjacent to it
        # that meet it: what each count of the row pass sees
        k, n = R.index[pair.group(1)], len(R.names)
        seen["late"] += k > n // 2
        far = [m for m in range(k + 1, n)
               if not G.adjacent(G.index[R.names[k]], G.index[R.names[m]])]
        seen["cov"] += any(_ref_covers(R, k, R.spans[m][0]) for m in far)
        seen["stab"] += any(_ref_covers(R, m, R.spans[k][0]) for m in far)
    assert seen["valid"] >= 100 and seen["late"] >= 20
    assert seen["cov"] >= 15 and seen["stab"] >= 30
    assert min(seen[what] for what in messages) >= 10


def test_validate_representation_is_near_linear():
    """Band-4 at n = 10^4 on a line and turned half round a circle, and
    two windows of 10^4 intervals against a path: one of mutually
    overlapping intervals, one that fails only near its end."""
    n = 10 ** 4
    G = Pog(names(n), frozenset((i, j) for i in range(n)
                                for j in range(i + 1, min(n, i + 5))),
            frozenset())
    for R in (Representation("interval", G.names, tuple(_band_spans(n, 4))),
              Representation("circular", G.names,
                             tuple(_band_spans(n, 4, 2 * n, n)), 2 * n)):
        t0 = time.perf_counter()
        arcs = validate_representation(G, R)
        assert time.perf_counter() - t0 < 2.0
        assert len(arcs) == len(G.edges)
    path = Pog(G.names, frozenset((i, i + 1) for i in range(n - 1)),
               frozenset())
    window = Representation("interval", G.names,
                            tuple((t, t + n) for t in range(n)))
    t0 = time.perf_counter()
    with pytest.raises(RepresentationError,
                       match="^intersection mismatch on v0,v2$"):
        extend_interval_representation(path, window)
    assert time.perf_counter() - t0 < 2.0
    spans = _band_spans(n, 1)
    spans[n - 3] = (spans[n - 3][0], 2 * (n - 1))
    window = Representation("interval", G.names, tuple(spans))
    t0 = time.perf_counter()
    with pytest.raises(RepresentationError,
                       match="^intersection mismatch on v9997,v9999$"):
        validate_representation(path, window)
    assert time.perf_counter() - t0 < 2.0


_EXTEND = {"interval": extend_interval_representation,
           "circular": extend_circular_arc_representation}


def _ref_extension(G, partial, kind):
    """The extension of partial (recognition when None) computed with
    the reference orientation and layout."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pogc.interval, "orientation_from_representation",
                   _ref_orientation)
        mp.setattr(pogc.friendly, "representation_from_orientation",
                   _ref_layout)
        if kind == "circular":
            return _outcome(extend_circular_arc_representation, G, partial)

        def interval():
            P = G.underlying_graph() if partial is None \
                else pogc.interval._orient_window(G, partial)
            D = complete_to_acyclic_lt(P)
            return D if isinstance(D, Certificate) else _ref_layout(D, kind)
        return _outcome(interval)


def _check_layouts_and_extensions(G, rng):
    for kind, extend in _EXTEND.items():
        res = _outcome(extend, G)
        assert res == _ref_extension(G, None, kind)
        if len(res) != 4 or not res[1]:
            continue
        # windows cut from the recognized spans, and from spans that
        # represent the graph with the other orientation
        R = Representation(*res)
        for _ in range(2):
            keep = sorted(rng.sample(range(len(R.names)),
                                     rng.randint(1, len(R.names))))
            spans = [R.spans[k] for k in keep]
            if rng.random() < 0.5 and kind == "interval":
                top = 2 * len(R.names)
                spans = [(top - r, top - l) for l, r in spans]
            partial = Representation(kind, tuple(R.names[k] for k in keep),
                                     tuple(spans), R.modulus)
            assert _outcome(extend, G, partial) == \
                _ref_extension(G, partial, kind)


def test_layout_and_extensions_match_reference():
    rng = random.Random(73)
    graphs = [G for n in range(6) for G in all_graphs(n)]
    graphs += [random_graph(rng, rng.randint(6, 9), p=rng.choice((0.3, 0.6)))
               for _ in range(300)]
    for G in graphs:
        _check_layouts_and_extensions(G, rng)
    # every orientation of every graph on at most 4 vertices, and seeded
    # orientations of larger ones, laid out as both kinds
    layouts = 0
    for G in graphs:
        found = list(orientations(G)) if G.n <= 4 \
            else [G.orient([e if rng.random() < 0.5 else e[::-1]
                            for e in sorted(G.edges)]) for _ in range(2)]
        for D in found:
            for kind in ("interval", "circular"):
                got = _outcome(representation_from_orientation, D, kind)
                assert got == _outcome(_ref_layout, D, kind)
                layouts += len(got) == 4
    assert layouts > 1000


def _near_round(rng, n):
    """A seeded oriented graph on n vertices, mostly near the round
    ones: a random locally transitive tournament cut to the arcs at most
    c steps along its round ordering (round again: the ends of the
    out-runs still never move back), on a random subset of the vertices,
    with one arc turned a third of the time; else a random orientation."""
    if rng.random() < 0.25:
        G = random_graph(rng, n, p=rng.choice((0.2, 0.4, 0.7)))
        return G.orient([e if rng.random() < 0.5 else e[::-1]
                         for e in sorted(G.edges)])
    T = random_ltt(rng, n)
    O = find_round_ordering(T)
    c = rng.randint(1, n - 1)
    arcs = [(u, v) for u, v in T.arcs if (O.pos[v] - O.pos[u]) % n <= c]
    if arcs and rng.random() < 1 / 3:
        k = rng.randrange(len(arcs))
        arcs[k] = arcs[k][::-1]
    D = Pog(T.names, frozenset(), frozenset(arcs))
    return D.induced(sorted(rng.sample(range(n), rng.randint(n - 2, n))))


def test_class_checks_match_the_classify_rule():
    """representation_from_orientation decides its class by the round
    ordering alone; the reference asks classify first.  For both kinds,
    the same exception and message or the same representation, on every
    oriented graph on at most 5 vertices and on 10,000 seeded ones on 6
    to 9 vertices."""
    rng = random.Random(89)
    graphs = [D for n in range(6) for G in all_graphs(n)
              for D in orientations(G)]
    graphs += [_near_round(rng, rng.randint(6, 9)) for _ in range(10000)]
    seen = Counter()
    for D in graphs:
        for kind in ("interval", "circular"):
            got = _outcome(representation_from_orientation, D, kind)
            assert got == _outcome(representation_from_orientation_reference,
                                   D, kind), (kind, D.names, sorted(D.arcs))
            seen[kind, got[1] if len(got) == 2 else "laid out"] += 1
    assert len(seen) == 5 and min(seen.values()) >= 300, seen
