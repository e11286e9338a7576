"""Acceptance suite: one test per acceptance criterion.

Each test prints a single PASS/FAIL line; run with -v to see the roll
call.  Criterion 10's constructive direction is reported honestly: for
some satisfiable formulas no satisfying assignment induces an
orientation with an excellent cyclic ordering (see notes in the
project journal), so the zero-failure bar is not reachable and the
test is expected red.  Its companion cross-check is green.
"""

import itertools
import random

from pogc.auxgraph import complete_via_aux, consentaneous_closure
from pogc.completions import (complete_to_in_tournament, complete_to_strong)
from pogc.errors import UnsupportedInstanceError
from pogc.friendly import complete_friendly, is_friendly
from pogc.hardness import (CnfFormula, assignment_to_ordering,
                           build_reduction, exact_complete, gadget)
from pogc.interval import (Representation, complete_to_acyclic_lt,
                           extend_interval_representation,
                           orientation_from_representation,
                           representation_from_orientation)
from pogc.pog import (Certificate, Ordering, Pog, classify, complete_closure,
                      find_directed_cycle)
from pogc.rounds import (check_ordering, complete_under_excellent,
                         find_round_ordering, round_to_ltt,
                         saturate_to_round_lt)
from pogc.verify import verify_certificate
from util import (all_graphs, all_pogs, brute_force_completion, exact_oracle,
                  names, random_graph, random_pog)


def _report(num, detail):
    print("criterion %02d: PASS  (%s)" % (num, detail))


def _oriented_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for choice in itertools.product(range(3), repeat=len(pairs)):
        arcs = set()
        for c, (i, j) in zip(choice, pairs):
            if c == 1:
                arcs.add((i, j))
            elif c == 2:
                arcs.add((j, i))
        yield Pog(names(n), frozenset(), frozenset(arcs))


def test_criterion_01_gadget_counts():
    checked = 0
    for kind, (e1, e2) in (("X", (("a", "b"), ("alpha", "beta"))),
                           ("Xbar", (("u", "v"), ("alpha", "beta")))):
        P = gadget(kind)
        sols = exact_complete(P, "ltt", enumerate_all=True)
        assert len(sols) == 2, kind
        idx = P.index
        got = {(( idx[e1[0]], idx[e1[1]]) in D.arcs,
                (idx[e2[0]], idx[e2[1]]) in D.arcs) for D in sols}
        want = {(True, True), (False, False)} if kind == "X" \
            else {(True, False), (False, True)}
        assert got == want, kind
        checked += len(sols)
    _report(1, "X and Xbar: exactly 2 completions each, stated arc pairs")


def test_criterion_02_wheel():
    W = gadget("Wheel")
    idx = W.index
    rim = [("c11", "c12"), ("c21", "c22"), ("c31", "c32")]
    feasible, infeasible = 0, []
    for bits in itertools.product([0, 1], repeat=3):
        arcs = [(idx[p], idx[q]) if not b else (idx[q], idx[p])
                for (p, q), b in zip(rim, bits)]
        D = W.orient(arcs)
        if exact_complete(D, "excellent_ordering") is None:
            infeasible.append(bits)
        else:
            feasible += 1
    assert feasible == 7
    assert infeasible == [(0, 0, 0)]
    _report(2, "1 of 8 rim orientations infeasible, the all-forward one")


def test_criterion_03_local_tournament_vs_brute_force():
    count = 0
    for n in range(1, 5):
        for P in all_pogs(n):
            res = complete_via_aux(P)
            want = brute_force_completion(P, lambda r: r.local_tournament)
            if isinstance(res, Certificate):
                assert want is None, (P.edges, P.arcs)
                assert verify_certificate(P, res)
            else:
                assert want is not None
                assert classify(res).local_tournament
                assert P.arcs <= res.arcs
            count += 1
    rng = random.Random(101)
    sampled = 0
    for _ in range(100000):
        P = random_pog(rng, 5)
        res = complete_via_aux(P)
        want = exact_oracle(P, "local_tournament")
        if isinstance(res, Certificate):
            assert want is None, (P.edges, P.arcs)
            assert verify_certificate(P, res)
        else:
            assert want is not None
            assert classify(res).local_tournament
        sampled += 1
    _report(3, "exhaustive n<=4 (%d pogs) + %d sampled n=5, 0 mismatches"
            % (count, sampled))


def test_criterion_04_acyclic_lt_proper_interval():
    count = trips = 0
    for n in range(1, 7):
        for G in all_graphs(n):
            res = complete_to_acyclic_lt(G)
            want = exact_oracle(G, "acyclic_local_tournament")
            if isinstance(res, Certificate):
                assert want is None, G.edges
                assert verify_certificate(G, res)
            else:
                assert want is not None
                rep = classify(res)
                assert rep.acyclic_local_tournament
                R = representation_from_orientation(res, "interval")
                back = orientation_from_representation(res, R)
                assert back.arcs == res.arcs
                trips += 1
            count += 1
    _report(4, "exhaustive graphs n<=6 (%d), %d round trips, 0 mismatches"
            % (count, trips))


def test_criterion_05_consentaneous_pogs():
    rng = random.Random(103)
    done = 0
    while done < 10000:
        n = rng.randint(2, 7)
        G = random_graph(rng, n, p=rng.uniform(0.3, 0.9))
        D = complete_to_acyclic_lt(G)
        if isinstance(D, Certificate):
            continue
        # partially orient the proper interval graph, sometimes against
        # the grain, and close
        arcs = []
        for u, v in D.arcs:
            if rng.random() < 0.5:
                continue
            arcs.append((u, v) if rng.random() < 0.7 else (v, u))
        P0 = Pog(G.names, G.edges - {tuple(sorted(a)) for a in arcs},
                 frozenset(arcs))
        P = consentaneous_closure(P0)
        if isinstance(P, Certificate):
            continue
        res = complete_to_acyclic_lt(P)
        acyclic = find_directed_cycle(P) is None
        assert (not isinstance(res, Certificate)) == acyclic, \
            (P.edges, P.arcs)
        done += 1
    _report(5, "10000 consentaneous pogs n<=7: success iff no directed "
               "cycle")


def test_criterion_06_round_orderings():
    count = 0
    for n in range(1, 6):
        for D in _oriented_graphs(n):
            rep = classify(D)
            got = find_round_ordering(D) is not None
            assert got == (rep.local_tournament and rep.locally_transitive)
            count += 1
    _report(6, "all %d oriented graphs n<=5: round ordering iff locally "
               "transitive local tournament" % count)


def test_criterion_07_round_excellent_chain():
    rng = random.Random(107)
    rounds = 0
    while rounds < 500:
        n = rng.randint(1, 9)
        D = random_pog(rng, n, p_adj=0.5, p_arc=1.0)
        if find_round_ordering(D) is None:
            continue
        T = round_to_ltt(D)
        rep = classify(T)
        assert rep.tournament and rep.locally_transitive
        assert D.arcs <= T.arcs
        rounds += 1
    planted = 0
    while planted < 500:
        n = rng.randint(2, 8)
        P = random_pog(rng, n)
        seq = list(range(n))
        rng.shuffle(seq)
        O = Ordering("cyclic", tuple(seq))
        if not check_ordering(P, O, "excellent")[0]:
            continue
        D = complete_under_excellent(P, O)
        assert P.arcs <= D.arcs and D.is_oriented()
        assert check_ordering(D, O, "excellent")[0]
        R = saturate_to_round_lt(D, O)
        assert check_ordering(R, O, "round")[0]
        planted += 1
    _report(7, "500 round inputs to round_to_ltt + 500 planted-excellent "
               "chains, 0 failures")


def _ltlt(rep):
    return rep.local_tournament and rep.locally_transitive


def test_criterion_08_friendly():
    count = 0
    for n in range(1, 6):
        for G in all_graphs(n):
            res = complete_friendly(G)
            want = brute_force_completion(G, _ltlt)
            if isinstance(res, Certificate):
                assert want is None, G.edges
                assert verify_certificate(G, res)
            else:
                assert want is not None
                assert _ltlt(classify(res))
            count += 1
    rng = random.Random(109)
    done = 0
    while done < 10000:
        P = random_pog(rng, rng.randint(1, 7), p_adj=0.6, p_arc=0.35)
        if not is_friendly(P)[0]:
            continue
        res = complete_friendly(P)
        want = exact_oracle(P, "ltlt")
        if isinstance(res, Certificate):
            assert want is None, (P.edges, P.arcs)
            assert verify_certificate(P, res)
        else:
            assert want is not None
            assert _ltlt(classify(res))
            assert P.arcs <= res.arcs
        done += 1
    _report(8, "exhaustive graphs n<=5 (%d) + 10000 random friendly pogs "
               "n<=7, 0 mismatches" % count)


def test_criterion_09_strong_in_quasi():
    completers = [
        (complete_to_strong, lambda r: r.strong, None),
        (complete_to_in_tournament, lambda r: r.in_tournament,
         "in_tournament"),
        (lambda P: complete_via_aux(P, "quasi_transitive"),
         lambda r: r.quasi_transitive, "quasi_transitive"),
    ]
    count = 0
    for n in range(1, 5):
        for P in all_pogs(n):
            for completer, pred, _ in completers:
                res = completer(P)
                want = brute_force_completion(P, pred)
                if isinstance(res, Certificate):
                    assert want is None, (P.edges, P.arcs)
                    assert verify_certificate(P, res)
                else:
                    assert want is not None
                    assert pred(classify(res))
            count += 1
    # n=5 is sampled: the full 4^10 pog space times three completers is
    # out of desk budget
    rng = random.Random(113)
    for _ in range(2000):
        P = random_pog(rng, 5, p_adj=0.7, p_arc=0.4)
        for completer, pred, target in completers:
            res = completer(P)
            if target is None:
                want = brute_force_completion(P, pred)
            else:
                want = exact_oracle(P, target)
            if isinstance(res, Certificate):
                assert want is None, (P.edges, P.arcs)
                assert verify_certificate(P, res)
            else:
                assert want is not None
                assert pred(classify(res))
    _report(9, "exhaustive pogs n<=4 (%d) x 3 classes + 2000 sampled n=5, "
               "every no certified" % count)


def test_criterion_10_constructive_direction():
    """200 random satisfiable formulas, zero construction failures.

    Expected red: some satisfiable formulas admit no excellent ordering
    under any satisfying assignment (the forced-false occurrence copies
    of two clauses chain into a directed cycle that every layout must
    break).  Those instances raise UnsupportedInstanceError, which this
    criterion counts as failures.  The journal documents a concrete
    10-clause example whose 80-vertex instance was exhaustively shown
    non-extendable.
    """
    rng = random.Random(127)
    done = wrong = unsupported = 0
    while done < 200:
        n = rng.randint(3, 6)
        m = rng.randint(1, 10)
        cls = tuple(tuple(v * rng.choice([1, -1])
                    for v in rng.sample(range(1, n + 1), 3))
                    for _ in range(m))
        if {abs(l) for cl in cls for l in cl} != set(range(1, n + 1)):
            continue
        F = CnfFormula(n, cls)
        sats = [bits for bits in itertools.product([False, True], repeat=n)
                if F.satisfied_by({i + 1: bits[i] for i in range(n)})]
        if not sats:
            continue
        done += 1
        R = build_reduction(F)
        bits = rng.choice(sats)
        t = {i + 1: bits[i] for i in range(n)}
        try:
            O = assignment_to_ordering(R, t)
        except UnsupportedInstanceError:
            unsupported += 1
            continue
        if not check_ordering(R.pog, O, "excellent")[0]:
            wrong += 1
    line = ("constructive direction: %d formulas, %d bad orderings, "
            "%d with no workable satisfying assignment"
            % (done, wrong, unsupported))
    if wrong or unsupported:
        print("criterion 10: FAIL  (%s)" % line)
    assert wrong == 0
    assert unsupported == 0, line
    _report(10, line)


def test_criterion_10_excellent_ltt_crosscheck():
    count = 0
    for n in range(1, 5):
        for D in _oriented_graphs(n):
            got = exact_complete(D, "excellent_ordering") is not None
            want = exact_complete(complete_closure(D), "ltt") is not None
            assert got == want, D.arcs
            count += 1
    # n=5,6 sampled: 3^15 oriented graphs exceed desk budget
    rng = random.Random(131)
    for _ in range(1000):
        D = random_pog(rng, rng.randint(5, 6), p_adj=0.6, p_arc=1.0)
        got = exact_complete(D, "excellent_ordering") is not None
        want = exact_complete(complete_closure(D), "ltt") is not None
        assert got == want, D.arcs
        count += 1
    _report(10, "excellent ordering iff closure completes to LTT: "
                "%d oriented graphs, 0 mismatches" % count)


def test_criterion_11_representation_extension():
    rng = random.Random(137)
    built = 0
    while built < 100:
        G = random_graph(rng, rng.randint(2, 8), p=0.45)
        D = complete_to_acyclic_lt(G)
        if isinstance(D, Certificate):
            continue
        R = representation_from_orientation(D, "interval")
        keep = set(rng.sample(range(G.n), rng.randint(1, G.n)))
        sub = [nm for nm in R.names if G.index[nm] in keep]
        partial = Representation(
            "interval", tuple(sub),
            tuple(R.spans[R.index[nm]] for nm in sub))
        out = extend_interval_representation(G, partial)
        assert not isinstance(out, Certificate)
        full = orientation_from_representation(G.underlying_graph(), out)
        want = {(u, v) for u, v in D.arcs if u in keep and v in keep}
        got = {(u, v) for u, v in full.arcs if u in keep and v in keep}
        assert want == got
        built += 1
    claw = Pog.build(("c", "x", "y", "z"),
                     edges=[("c", "x"), ("c", "y"), ("c", "z")])
    net = Pog.build(("a", "b", "c", "x", "y", "z"),
                    edges=[("a", "b"), ("b", "c"), ("a", "c"),
                           ("a", "x"), ("b", "y"), ("c", "z")])
    for bad in (claw, net):
        partial = Representation("interval", (bad.names[0],), ((0, 2),))
        cert = extend_interval_representation(bad, partial)
        assert isinstance(cert, Certificate)
        assert verify_certificate(bad, cert)
    _report(11, "100 random extensions preserve the induced orientation; "
                "claw and net rejected with certificates")
