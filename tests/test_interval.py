"""LBFS, elimination orderings, acyclic completions, representations."""

import random
import time

import pytest

import pogc.friendly
import pogc.interval
from pogc.errors import NotInClassError, ParseError, RepresentationError
from pogc.friendly import extend_circular_arc_representation
from pogc.interval import (Representation, check_peo, complete_to_acyclic_lt,
                           extend_interval_representation,
                           find_proper_interval_obstruction, lbfs,
                           orientation_from_representation,
                           parse_representation, render_representation,
                           representation_from_orientation,
                           validate_representation)
from pogc.pog import (Certificate, Pog, bfs_path, classify, require_oriented,
                      verify_certificate)
from pogc.rounds import find_round_ordering
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


def _ref_length(R, k):
    l, r = R.spans[k]
    return (r - l) % R.modulus if R.kind == "circular" else r - l


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
        if len(D.ug_components()) > 1:
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
        for k in range(len(nm)):
            assert R.length(k) == _ref_length(R, k)
            for x in range(-10, 14):
                assert R.covers(k, x) == _ref_covers(R, k, x)
            for m in range(len(nm)):
                assert R.intersects(k, m) == _ref_intersects(R, k, m)
                assert R.contains_strictly(k, m) == \
                    _ref_contains_strictly(R, k, m)
        # the intersection graph of R, sometimes perturbed, on the names
        # of R in a shuffled order, sometimes with one name swapped out
        order = list(nm)
        rng.shuffle(order)
        edges = [(nm[k], nm[m]) for k in range(len(nm))
                 for m in range(k + 1, len(nm))
                 if R.intersects(k, m) != (rng.random() < 0.05)]
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
