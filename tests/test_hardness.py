"""Gadgets, the 3-SAT reduction, ordering synthesis, the exact solver."""

import itertools
import random

import pytest

import pogc.hardness
from pogc.errors import (InvariantError, NotInClassError, NotSatisfyingError,
                         ParseError, SizeGuardError, UnsupportedInstanceError)
from pogc.hardness import (CnfFormula, _assignments_near, assignment_to_ordering,
                           build_reduction, exact_complete, gadget,
                           orient_by_assignment, parse_dimacs, render_dimacs)
from pogc.pog import Ordering, Pog, classify
from pogc.rounds import check_ordering, ltt_to_ordering, ordering_to_ltt
from util import (all_graphs, exact_oracle, names, orientations, random_pog,
                  search_nice_ordering)


# -- formulas ----------------------------------------------------------------


def test_formula_validation():
    with pytest.raises(ParseError):
        CnfFormula(3, ((1, 2),))
    with pytest.raises(ParseError):
        CnfFormula(3, ((1, -1, 2),))
    with pytest.raises(ParseError):
        CnfFormula(2, ((1, 2, 3),))
    F = CnfFormula(3, ((1, -2, 3),))
    assert F.satisfied_by({1: True, 2: True, 3: False})
    assert not F.satisfied_by({1: False, 2: True, 3: False})


def test_dimacs_round_trip():
    text = "c comment\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n"
    F = parse_dimacs(text)
    assert F.n_vars == 3 and len(F.clauses) == 2
    assert parse_dimacs(render_dimacs(F)).clauses == F.clauses
    with pytest.raises(ParseError):
        parse_dimacs("1 2 3 0\n")
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 3 1\n1 2 3\n")
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 3 2\n1 2 3 0\n")


def test_dimacs_bad_literal_message_is_short():
    """A bad literal quotes at most 60 characters of its line."""
    with pytest.raises(ParseError, match="^line 2: bad literal in '1 xxx") as exc:
        parse_dimacs("p cnf 3 1\n1 " + "x" * 10 ** 6 + " 0\n")
    assert len(str(exc.value)) < 200


# -- gadgets ------------------------------------------------------------------


def test_gadget_shapes():
    X = gadget("X")
    assert set(X.names) == {"a", "b", "alpha", "beta"}
    assert len(X.edges) == 2 and len(X.arcs) == 4
    W = gadget("Wheel")
    assert W.n == 7
    hub = W.index["c"]
    assert len(W.out_nbrs[hub]) == 6
    assert len(W.edges) == 3


def test_gadget_x_has_exactly_two_ltt_completions():
    for kind, pairs in (("X", [("a", "b"), ("alpha", "beta")]),
                        ("Xbar", [("u", "v"), ("alpha", "beta")])):
        P = gadget(kind)
        sols = exact_complete(P, "ltt", enumerate_all=True)
        assert len(sols) == 2
        idx = P.index
        (e1a, e1b), (e2a, e2b) = [(idx[p], idx[q]) for p, q in pairs]
        got = set()
        for D in sols:
            got.add(((e1a, e1b) in D.arcs, (e2a, e2b) in D.arcs))
        if kind == "X":
            # ab forward with alpha-beta forward, or both reversed
            assert got == {(True, True), (False, False)}
        else:
            # uv forward pairs with beta->alpha
            assert got == {(True, False), (False, True)}


def test_gadget_counts_invariant_under_relabeling():
    P = gadget("X")
    renamed = Pog(tuple("w%d" % k for k in range(P.n)), P.edges, P.arcs)
    assert len(exact_complete(renamed, "ltt", enumerate_all=True)) == 2


def test_wheel_orientations():
    W = gadget("Wheel")
    idx = W.index
    rim = [("c11", "c12"), ("c21", "c22"), ("c31", "c32")]
    feasible = 0
    for bits in itertools.product([0, 1], repeat=3):
        arcs = [(idx[p], idx[q]) if not b else (idx[q], idx[p])
                for (p, q), b in zip(rim, bits)]
        D = W.orient(arcs)
        O = exact_complete(D, "excellent_ordering")
        if bits == (0, 0, 0):
            # all three rim edges forward: the rim is a directed 6-cycle
            assert O is None
        else:
            assert O is not None
            assert check_ordering(D, O, "excellent")[0]
            feasible += 1
    assert feasible == 7


# -- the reduction -------------------------------------------------------------


def _fig_formula():
    return CnfFormula(3, ((1, 2, -3), (-1, -2, 3), (1, -2, -3)))


def test_reduction_size_and_names():
    R = build_reduction(_fig_formula())
    n, m = 3, 3
    assert R.pog.n == 2 * n + 7 * m
    assert "alpha.x1" in R.pog.names and "beta.x3" in R.pog.names
    assert "hub.c3" in R.pog.names
    # x2 occurs positively once and negatively twice
    assert R.pos_names[1] == (("a.x2.1", "b.x2.1"),)
    assert len(R.neg_names[1]) == 2


def test_reduction_single_clause():
    R = build_reduction(CnfFormula(3, ((1, 2, 3),)))
    assert R.pog.n == 2 * 3 + 7
    # each clause hub dominates its six rim vertices
    hub = R.pog.index["hub.c1"]
    assert len(R.pog.out_nbrs[hub]) == 6


def test_reduction_neighbourhoods_acyclic():
    from pogc.pog import find_directed_cycle
    R = build_reduction(_fig_formula())
    H = R.oriented
    for v in range(H.n):
        assert find_directed_cycle(H, within=H.out_nbrs[v]) is None
        assert find_directed_cycle(H, within=H.in_nbrs[v]) is None


def test_reduction_rejects_unused_variable():
    with pytest.raises(ParseError):
        build_reduction(CnfFormula(4, ((1, 2, 3),)))


def test_orient_by_assignment_shapes():
    F = CnfFormula(3, ((1, 2, 3),))
    R = build_reduction(F)
    t = {1: True, 2: False, 3: False}
    D = orient_by_assignment(R, t)
    assert D.is_oriented()
    idx = R.pog.index
    assert (idx["beta.x1"], idx["alpha.x1"]) in D.arcs     # x1 true
    assert (idx["alpha.x2"], idx["beta.x2"]) in D.arcs     # x2 false
    assert (idx["b.x1.1"], idx["a.x1.1"]) in D.arcs
    assert (idx["a.x2.1"], idx["b.x2.1"]) in D.arcs


# -- assignment to ordering -----------------------------------------------------


def test_ordering_for_satisfying_assignment():
    F = _fig_formula()
    R = build_reduction(F)
    t = {1: True, 2: True, 3: True}
    assert F.satisfied_by(t)
    O = assignment_to_ordering(R, t)
    # excellence of the pog depends on its arcs only
    assert check_ordering(R.pog, O, "excellent")[0]
    assert check_ordering(R.oriented, O, "excellent")[0]


def test_unsatisfying_assignment_rejected():
    R = build_reduction(_fig_formula())
    with pytest.raises(NotSatisfyingError):
        assignment_to_ordering(R, {1: False, 2: True, 3: True})
    with pytest.raises(NotSatisfyingError):
        assignment_to_ordering(R, {1: True})


def test_ordering_repair_across_assignments():
    # (x1 v x2 v x3) & (x2 v x1 v x3): the assignment F,F,T satisfies the
    # formula but its own orientation admits no excellent ordering (the
    # false-false copies chain through both clause rims); a flip to a
    # workable satisfying assignment must kick in
    F = CnfFormula(3, ((1, 2, 3), (2, 1, 3)))
    R = build_reduction(F)
    O = assignment_to_ordering(R, {1: False, 2: False, 3: True})
    assert check_ordering(R.pog, O, "excellent")[0]


def test_formula_with_no_workable_assignment():
    # every satisfying assignment forces x1 false with its two positive
    # copies chained through crossing clauses; exhaustive search over
    # cyclic orderings of the oriented part confirms none is excellent
    F = CnfFormula(3, ((-3, 2, -1), (-1, 2, -3), (1, -2, 3),
                       (1, -3, 2), (1, 2, -3), (-2, 1, 3)))
    R = build_reduction(F)
    sats = [bits for bits in itertools.product([False, True], repeat=3)
            if F.satisfied_by({i + 1: bits[i] for i in range(3)})]
    assert sats
    for bits in sats:
        with_t = {i + 1: bits[i] for i in range(3)}
        with pytest.raises(UnsupportedInstanceError):
            assignment_to_ordering(R, with_t)


def test_random_satisfiable_formulas():
    rng = random.Random(61)
    done = succeeded = 0
    while done < 100:
        n = rng.randint(3, 5)
        m = rng.randint(1, 8)
        cls = tuple(tuple(v * rng.choice([1, -1])
                    for v in rng.sample(range(1, n + 1), 3))
                    for _ in range(m))
        F = CnfFormula(n, cls)
        sats = [bits for bits in itertools.product([False, True], repeat=n)
                if F.satisfied_by({i + 1: bits[i] for i in range(n)})]
        if not sats:
            continue
        try:
            R = build_reduction(F)
        except ParseError:
            continue
        done += 1
        bits = rng.choice(sats)
        t = {i + 1: bits[i] for i in range(n)}
        try:
            O = assignment_to_ordering(R, t)
        except UnsupportedInstanceError:
            continue
        succeeded += 1
        assert check_ordering(R.pog, O, "excellent")[0]
    assert succeeded > done * 0.8


# -- exact solver -----------------------------------------------------------------


def test_exact_complete_guards():
    k8 = Pog(names(8),
             frozenset((i, j) for i in range(8) for j in range(i + 1, 8)),
             frozenset())
    with pytest.raises(SizeGuardError, match="MAX_SEARCH_EDGES: instance "
                       "has 28 unoriented edges, limit is 22"):
        exact_complete(k8, "ltt")
    huge = Pog(names(13), frozenset(), frozenset())
    with pytest.raises(SizeGuardError, match="MAX_EXCELLENT_VERTICES: "
                       "instance has 13 vertices, limit is 12"):
        exact_complete(huge, "excellent_ordering")
    # the polynomial classes are not searched
    with pytest.raises(ValueError):
        exact_complete(Pog(names(3), frozenset({(0, 1), (1, 2)}),
                           frozenset()), "local_tournament")


def test_exact_complete_vs_aux_oracle():
    from pogc.auxgraph import complete_via_aux
    rng = random.Random(67)
    for _ in range(200):
        P = random_pog(rng, rng.randint(1, 5))
        exact = exact_oracle(P, "local_tournament")
        aux = complete_via_aux(P)
        from pogc.pog import Certificate
        assert (exact is not None) == (not isinstance(aux, Certificate))
        if exact is not None:
            assert classify(exact).local_tournament


def test_exact_excellent_vs_brute_force():
    rng = random.Random(71)
    for _ in range(150):
        n = rng.randint(1, 5)
        P = random_pog(rng, n, p_adj=0.7, p_arc=1.0)
        got = exact_complete(P, "excellent_ordering")
        want = _brute_excellent(P)
        assert (got is not None) == want, P.arcs
        if got is not None:
            assert check_ordering(P, got, "excellent")[0]


def test_ltt_search_leaf_without_round_ordering_is_an_internal_error(monkeypatch):
    """The triangle prune is exact, so every leaf has a round ordering;
    a leaf without one is a bug, raised, never a silent rejection."""
    P = gadget("X")
    assert len(exact_complete(P, "ltt", enumerate_all=True)) == 2
    monkeypatch.setattr(pogc.hardness, "_ltt_ordering", lambda T: None)
    with pytest.raises(InvariantError, match="^an ltt search leaf is not round$"):
        exact_complete(P, "ltt")


def test_exact_excellent_enumerates_distinct_excellent_orderings():
    """enumerate_all returns distinct excellent orderings, none exactly
    when the single search finds none, and else the one it finds among
    them: on every oriented graph with at most 4 vertices and one of
    each isomorphism class on 5 (582; all 59,049 labelled ones take
    about 25 s)."""
    corpus = [D for n in range(5) for G in all_graphs(n)
              for D in orientations(G)]
    seen = set()
    for D in (D for G in all_graphs(5) for D in orientations(G)):
        if D.arcs not in seen:
            corpus.append(D)
            seen.update(frozenset((p[i], p[j]) for i, j in D.arcs)
                        for p in itertools.permutations(range(5)))
    assert len(corpus) == 761 + 582
    verdicts = {True: 0, False: 0}
    for D in corpus:
        got = exact_complete(D, "excellent_ordering", enumerate_all=True)
        for O in got:
            assert check_ordering(D, O, "excellent")[0], (D.arcs, O)
        assert len({O.seq for O in got}) == len(got), D.arcs
        first = exact_complete(D, "excellent_ordering")
        assert (first is None) == (not got), D.arcs
        assert first is None or first in got
        verdicts[bool(got)] += 1
    assert min(verdicts.values()) >= 50, verdicts


def _brute_excellent(P):
    if P.n == 0:
        return True
    for perm in itertools.permutations(range(1, P.n)):
        O = Ordering("cyclic", (0,) + perm)
        if check_ordering(P, O, "excellent")[0]:
            return True
    return False


def test_excellent_iff_closure_has_ltt_completion():
    from pogc.pog import complete_closure
    rng = random.Random(73)
    for _ in range(150):
        n = rng.randint(1, 5)
        P = random_pog(rng, n, p_adj=0.5, p_arc=1.0)
        closed = complete_closure(P)
        ltt = exact_complete(closed, "ltt")
        assert (ltt is not None) == _brute_excellent(P), P.arcs


# -- ordering / tournament bridges ----------------------------------------------


def test_ordering_to_ltt_c3():
    c3 = Pog(names(3), frozenset(), frozenset({(0, 1), (1, 2), (2, 0)}))
    T = ordering_to_ltt(c3, Ordering("cyclic", (0, 1, 2)))
    assert T.arcs == c3.arcs


def test_ordering_to_ltt_contains_input():
    D = Pog(names(3), frozenset(), frozenset({(0, 2)}))
    T = ordering_to_ltt(D, Ordering("cyclic", (0, 1, 2)))
    rep = classify(T)
    assert rep.tournament and rep.locally_transitive
    assert (0, 2) in T.arcs


def test_ordering_round_trip_random():
    rng = random.Random(79)
    done = 0
    while done < 200:
        n = rng.randint(1, 7)
        P = random_pog(rng, n, p_adj=0.5, p_arc=0.7)
        seq = list(range(n))
        rng.shuffle(seq)
        O = Ordering("cyclic", tuple(seq))
        if not check_ordering(P, O, "excellent")[0]:
            continue
        T = ordering_to_ltt(P, O)
        O2 = ltt_to_ordering(T)
        assert check_ordering(T, O2, "round")[0]
        assert check_ordering(P, O2, "excellent")[0]
        done += 1


def test_ltt_to_ordering_rejects_edges_and_non_tournaments():
    edge = Pog(names(2), frozenset({(0, 1)}), frozenset())
    path = Pog(names(3), frozenset(), frozenset({(0, 1), (1, 2)}))
    for P in (edge, path):
        with pytest.raises(NotInClassError,
                           match="^not a locally transitive tournament$"):
            ltt_to_ordering(P)


def test_search_nice_ordering():
    c4 = Pog(names(4), frozenset(),
             frozenset((k, (k + 1) % 4) for k in range(4)))
    assert search_nice_ordering(c4) is not None


def test_excellent_implies_nice_orderable():
    rng = random.Random(83)
    done = 0
    while done < 40:
        n = rng.randint(1, 6)
        P = random_pog(rng, n, p_adj=0.5, p_arc=1.0)
        if exact_complete(P, "excellent_ordering") is None:
            continue
        assert search_nice_ordering(P) is not None
        done += 1


def test_assignments_near_beyond_16_variables():
    """Past 16 variables only single and then double flips are tried:
    the assignment itself, then each variable flipped, then each pair,
    in lexicographic order of the flipped variables."""
    t = {v: v % 3 == 0 for v in range(1, 18)}
    flips = [()] + list(itertools.combinations(range(1, 18), 1)) \
        + list(itertools.combinations(range(1, 18), 2))
    assert list(_assignments_near(t, 17)) == [
        {v: t[v] != (v in f) for v in t} for f in flips]
