"""Auxiliary graph, 2-colouring, closures, completion via colour classes."""

import gc
import random
import weakref
from collections import deque

import pytest

from pogc import auxgraph, friendly, interval
from pogc.auxgraph import (aux_adjacent, build_aux, complete_via_aux,
                           consentaneous_closure, two_colour)
from pogc.errors import NotFriendlyError
from pogc.interval import Representation
from pogc.graph import _components
from pogc.pog import Certificate, Pog, classify
from pogc.verify import verify_certificate
from util import (all_graphs, all_pogs, brute_force_completion, names,
                  random_pog)


def _triangle():
    return Pog.build(("a", "b", "c"),
                     edges=[("a", "b"), ("b", "c"), ("a", "c")])


def _claw():
    return Pog.build(("c", "x", "y", "z"),
                     edges=[("c", "x"), ("c", "y"), ("c", "z")])


def _p3(**kw):
    return Pog.build(("a", "b", "c"), **kw)


def test_aux_of_triangle_is_three_thin_components():
    X = build_aux(_triangle())
    assert X.ncomp == 3
    assert all(X.is_thin(c) for c in range(3))


def test_aux_of_claw_has_triangle():
    P = _claw()
    X = build_aux(P)
    c, x, y, z = range(4)
    assert aux_adjacent(P, (c, x), (c, y))
    assert aux_adjacent(P, (c, x), (c, z))
    assert aux_adjacent(P, (c, y), (c, z))
    cert = two_colour(X)
    assert isinstance(cert, Certificate)
    assert cert.tag == "OddClosedWalkAux"
    assert verify_certificate(P, cert)


def test_aux_of_p3_single_path_component():
    P = _p3(edges=[("a", "b"), ("b", "c")])
    X = build_aux(P)
    # (a,b)-(b,a)-(b,c)-(c,b) all hang together
    comp = {X.comp[X.vid[p]] for p in [(0, 1), (1, 0), (1, 2), (2, 1)]}
    assert len(comp) == 1
    assert isinstance(two_colour(X), type(two_colour(X)))


def test_aux_of_c4_bipartite():
    P = Pog.build(("a", "b", "c", "d"),
                  edges=[("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    assert not isinstance(two_colour(build_aux(P)), Certificate)


def test_opposite_pairs_always_adjacent():
    rng = random.Random(5)
    for _ in range(30):
        P = random_pog(rng, rng.randint(2, 6))
        for i, j in P.und_pairs:
            assert aux_adjacent(P, (i, j), (j, i))
            assert aux_adjacent(P, (i, j), (j, i), mode="quasi_transitive")


def test_closure_propagates_along_path():
    P = _p3(edges=[("b", "c")], arcs=[("a", "b")])
    C = consentaneous_closure(P)
    assert C.arcs == frozenset({(0, 1), (1, 2)})


def test_closure_conflict_certificate():
    P = _p3(arcs=[("a", "b"), ("c", "b")])
    cert = consentaneous_closure(P)
    assert isinstance(cert, Certificate)
    assert cert.tag == "OrientationConflict"
    assert verify_certificate(P, cert)


def test_closure_on_triangle_is_identity():
    P = Pog.build(("a", "b", "c"),
                  edges=[("b", "c"), ("a", "c")], arcs=[("a", "b")])
    C = consentaneous_closure(P)
    assert C.arcs == P.arcs and C.edges == P.edges


def test_closure_idempotent_and_monotone():
    rng = random.Random(11)
    for _ in range(200):
        P = random_pog(rng, rng.randint(1, 7))
        C = consentaneous_closure(P)
        if isinstance(C, Certificate):
            assert verify_certificate(P, C)
            continue
        assert P.arcs <= C.arcs
        C2 = consentaneous_closure(C)
        assert not isinstance(C2, Certificate)
        assert C2.arcs == C.arcs


def test_complete_p3_variants():
    D = complete_via_aux(_p3(edges=[("a", "b"), ("b", "c")]))
    assert D.arcs == frozenset({(0, 1), (1, 2)})
    D = complete_via_aux(_p3(edges=[("a", "b")], arcs=[("c", "b")]))
    assert D.arcs == frozenset({(2, 1), (1, 0)})


def test_complete_claw_fails():
    cert = complete_via_aux(_claw())
    assert isinstance(cert, Certificate)
    assert verify_certificate(_claw(), cert)


def _bf_feasible(P, mode):
    key = "local_tournament" if mode == "local_tournament" else "quasi_transitive"
    return brute_force_completion(P, lambda rep: getattr(rep, key)) is not None


def test_exhaustive_graphs_n4_vs_brute_force():
    for mode in ("local_tournament", "quasi_transitive"):
        for G in all_graphs(4):
            res = complete_via_aux(G, mode)
            got = not isinstance(res, Certificate)
            assert got == _bf_feasible(G, mode)
            if got:
                rep = classify(res)
                assert rep.local_tournament if mode == "local_tournament" \
                    else rep.quasi_transitive


def test_random_pogs_vs_brute_force():
    rng = random.Random(23)
    for _ in range(500):
        P = random_pog(rng, rng.randint(1, 5))
        for mode in ("local_tournament", "quasi_transitive"):
            res = complete_via_aux(P, mode)
            got = not isinstance(res, Certificate)
            assert got == _bf_feasible(P, mode), (P, mode)
            if got:
                assert P.arcs <= res.arcs
            else:
                assert verify_certificate(P, res)


def test_completion_respects_odd_distance_rule():
    # arcs at odd aux distance never co-occur in a completion
    rng = random.Random(31)
    for _ in range(100):
        P = random_pog(rng, rng.randint(2, 6))
        res = complete_via_aux(P)
        if isinstance(res, Certificate):
            continue
        X = build_aux(P)
        col = two_colour(X)
        seen = {}
        for a in res.arcs:
            c = X.comp[X.vid[a]]
            colour = col.colours[X.vid[a]]
            assert seen.setdefault(c, colour) == colour


def _band(n, w, circular):
    """Band graph v_i ~ v_j iff the (cyclic) distance of i, j is at most w."""
    dist = (lambda i, j: min(j - i, n - (j - i))) if circular else (lambda i, j: j - i)
    return Pog(names(n), frozenset((i, j) for i in range(n) for j in range(i + 1, n)
                                   if dist(i, j) <= w), frozenset())


def _band_span(i, n, w, circular):
    """Span of v_i in the unit representation of _band(n, w, circular)."""
    if circular:
        return 2 * i, (2 * (i + w) + 1) % (2 * n)
    return 2 * i, 2 * (i + w) + 1


def _partial(n, w, circular, window):
    return Representation("circular" if circular else "interval",
                          tuple("v%d" % i for i in window),
                          tuple(_band_span(i, n, w, circular) for i in window),
                          2 * n if circular else 0)


def _band_pog(rng, n, w, circular, p_arc):
    """_band(n, w, circular) with each forward edge revealed as an arc
    with probability p_arc."""
    G = _band(n, w, circular)
    forward = sorted(G.edges) if not circular else \
        [(i, j) if (j - i) % n <= w else (j, i) for i, j in sorted(G.edges)]
    return G.orient(a for a in forward if rng.random() < p_arc)


def test_one_aux_build_per_underlying_graph(monkeypatch):
    """No operation builds the aux graph of one underlying graph twice.
    The aux graph is kept on the pog, so each call gets a fresh copy of
    its pogs; a second call on the same pog of an operation that reads
    no other underlying graph builds nothing."""
    keys = []
    real = auxgraph._build_aux

    def counting(P, mode):
        keys.append((P.names, P.und_pairs, mode))
        return real(P, mode)

    monkeypatch.setattr(auxgraph, "_build_aux", counting)

    def ltlt(P):
        try:
            return friendly.complete_friendly(P)
        except NotFriendlyError as exc:
            return exc.certificate

    def extend(G, partial):
        if partial.kind == "interval":
            return interval.extend_interval_representation(G, partial)
        return friendly.extend_circular_arc_representation(G, partial)

    rng = random.Random(59)
    pogs, extensions = [], []
    for _ in range(12):
        n, w, circular = rng.randint(7, 14), rng.randint(1, 3), rng.random() < 0.5
        pogs.append(_band_pog(rng, n, w, circular, 0.3))
        G = pogs[-1].underlying_graph()
        start = rng.randrange(n - 3)
        extensions.append((G, _partial(n, w, circular, range(start, start + 3))))
    pogs += [random_pog(rng, rng.randint(2, 8)) for _ in range(60)]

    runs = [("complete_to_acyclic_lt", interval.complete_to_acyclic_lt),
            ("complete_friendly", ltlt)]
    runs += [("complete_via_aux " + mode, lambda P, mode=mode: complete_via_aux(P, mode))
             for mode in auxgraph.MODES]
    calls = [(name, f, (P,)) for P in pogs for name, f in runs]
    calls += [("extend_circular_arc_representation",
               friendly.extend_circular_arc_representation, (P.underlying_graph(),))
              for P in pogs if len(P.ug_components) == 1]
    calls += [("extend " + partial.kind, extend, (G, partial))
              for G, partial in extensions]
    built = 0
    for name, f, args in calls:
        args = [Pog(a.names, a.edges, a.arcs) if isinstance(a, Pog) else a
                for a in args]
        keys.clear()
        f(*args)
        built += len(keys)
        assert len(keys) == len(set(keys)), (name, args)
        if name.startswith(("complete_via_aux", "complete_to_acyclic_lt")):
            keys.clear()
            f(*args)
            assert keys == [], (name, args)
    assert built >= len(calls)


def test_aux_view_shared_only_with_the_same_underlying_graph():
    """Pogs derived with the same underlying graph share the aux graph
    object; an induced sub-pog gets the aux graph of its own."""
    rng = random.Random(73)
    for _ in range(200):
        P = random_pog(rng, rng.randint(2, 8))
        keep = rng.sample(range(P.n), rng.randint(1, P.n - 1))
        for mode in auxgraph.MODES:
            X = build_aux(P, mode)
            assert build_aux(P, mode) is X
            assert build_aux(P.underlying_graph(), mode) is X
            assert build_aux(P.orient(sorted(P.edges)[:1]), mode) is X
            Q = P.induced(keep)
            assert build_aux(Q, mode) == build_aux(Pog(Q.names, Q.edges, Q.arcs), mode)


def test_pog_freed_by_reference_counting_after_build_aux():
    """The aux graph holds the vertex names, not the pog, so a pog with
    its aux graphs and a derived pog sharing them is freed as soon as
    the last reference goes, without the cyclic collector."""
    P = _band_pog(random.Random(79), 30, 3, False, 0.3)
    gc.disable()
    try:
        for mode in auxgraph.MODES:
            build_aux(P, mode)
        D = complete_via_aux(P)
        assert build_aux(D) is build_aux(P)
        ref = weakref.ref(P)
        del P
        assert ref() is None
    finally:
        gc.enable()


def test_unknown_mode_rejected_without_pairs():
    """The mode is checked even when no pair of pairs is ever compared."""
    for P in (Pog.build(()), Pog.build(["a"]), Pog.build(["a", "b"])):
        with pytest.raises(ValueError, match="unknown aux mode"):
            build_aux(P, "bogus")
        with pytest.raises(ValueError, match="unknown aux mode"):
            complete_via_aux(P, "bogus")


def test_build_aux_makes_no_pair_tests(monkeypatch):
    """build_aux enumerates neighbourhoods; it never tests pairs of
    ordered pairs with aux_adjacent."""
    calls = []
    real = auxgraph.aux_adjacent

    def counting(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(auxgraph, "aux_adjacent", counting)
    P = _band_pog(random.Random(3), 30, 4, False, 0.2)
    for mode in auxgraph.MODES:
        assert any(len(nbrs) > 1 for nbrs in build_aux(P, mode).adj)
    assert calls == []


def _two_pass_reference(P, mode):
    """The aux graph on the sorted ordered pairs, labelled in two passes:
    components by reachability, then one BFS per component from its
    smallest pair that colours it and keeps the odd closed walk through
    its first conflict edge."""
    verts = sorted(p for i, j in P.und_pairs for p in ((i, j), (j, i)))
    adj = [tuple(y for y in range(len(verts)) if y != x
                 and aux_adjacent(P, verts[x], verts[y], mode))
           for x in range(len(verts))]
    members = [tuple(c) for c in _components(range(len(verts)), adj.__getitem__)]
    comp = [-1] * len(verts)
    for c, ms in enumerate(members):
        for v in ms:
            comp[v] = c
    colours, parent, odd = [-1] * len(verts), [-1] * len(verts), []
    for ms in members:
        colours[ms[0]], walk = 0, None
        q = deque([ms[0]])
        while q:
            v = q.popleft()
            for w in adj[v]:
                if colours[w] < 0:
                    colours[w], parent[w] = 1 - colours[v], v
                    q.append(w)
                elif colours[w] == colours[v] and walk is None:
                    up_v, up_w = [v], [w]
                    while parent[up_v[-1]] >= 0:
                        up_v.append(parent[up_v[-1]])
                    at = {x: t for t, x in enumerate(up_v)}
                    while up_w[-1] not in at:
                        up_w.append(parent[up_w[-1]])
                    walk = up_v[at[up_w[-1]]::-1] + up_w
        odd.append(walk)
    return (tuple(verts), tuple(adj), tuple(comp), tuple(members), tuple(colours),
            tuple(odd))


def test_one_pass_labels_match_two_pass_reference():
    """build_aux's pair ids are the sorted order of the ordered pairs, and
    its single BFS per component gives the labels, colours and odd walks
    of the separate component pass plus colouring pass."""
    rng = random.Random(67)
    corpus = [P for n in range(1, 5) for P in all_pogs(n)]
    corpus += [random_pog(rng, rng.randint(1, 9), p_adj=rng.choice((0.4, 0.7, 0.9)))
               for _ in range(400)]
    # neighbourhoods with many non-adjacent pairs
    corpus += [_band_pog(rng, rng.randint(3, 40), rng.randint(2, 4),
                         rng.random() < 0.5, rng.uniform(0, 0.3))
               for _ in range(30)]
    odd = 0
    for P in corpus:
        for mode in auxgraph.MODES:
            X = build_aux(P, mode)
            verts, adj, comp, members, colours, walks = _two_pass_reference(P, mode)
            assert (X.verts, X.adj, X.comp, X.comp_members, X.ncomp, X.colours, X.odd) \
                == (verts, adj, comp, members, len(members), colours, walks), (P, mode)
            col = two_colour(X)
            if isinstance(col, Certificate):
                odd += 1
            else:
                assert col.colours == colours
    assert odd > 0
