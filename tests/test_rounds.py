"""Ordering checkers, round orderings, saturation, Moon decomposition."""

import itertools
import random
import time

import pytest

import pogc.rounds
from pogc.errors import InvariantError, NotInClassError, NotRoundError
from pogc.pog import Ordering, Pog, classify
from pogc.rounds import (_ltt_ordering, _round_tournament, check_ordering,
                         complete_under_excellent, find_round_ordering,
                         merge_ltt, moon_decompose, round_to_ltt,
                         saturate_to_round_lt)
from util import (all_pogs, all_tournaments, maximal_arcs_reference,
                  merge_ltt_reference, moon_decompose_reference, names,
                  random_ltt, random_pog,
                  round_tournament_2sat_reference,
                  round_tournament_rule_reference,
                  saturate_to_round_lt_reference)


def _cycle(n):
    return Pog(names(n), frozenset(),
               frozenset((k, (k + 1) % n) for k in range(n)))


def _identity(n):
    return Ordering("cyclic", tuple(range(n)))


def test_round_check_directed_c3():
    assert check_ordering(_cycle(3), _identity(3), "round")[0]


def test_round_check_witness():
    D = Pog(names(3), frozenset(), frozenset({(0, 2), (0, 1)}))
    ok, wit = check_ordering(D, _identity(3), "round")
    assert not ok and wit is not None


def test_excellent_check_brute_force_equivalence():
    # checker vs a literal scan for the forbidden four-point pattern
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(2, 6)
        P = random_pog(rng, n, p_adj=0.7, p_arc=1.0)
        seq = list(range(n))
        rng.shuffle(seq)
        O = Ordering("cyclic", tuple(seq))
        got = check_ordering(P, O, "excellent")[0]
        assert got == _excellent_literal(P, O), (P.arcs, seq)


def _excellent_literal(P, O):
    """Forbidden: arcs (i,j),(s,t) with cyclic occurrence i..t..s..j,
    where t may coincide with i and s with j."""
    n = P.n
    for i, j in P.arcs:
        for s, t in P.arcs:
            if (i, j) == (s, t):
                continue
            r = lambda x: (O.pos[x] - O.pos[i]) % n
            if r(t) < r(s) <= r(j):
                return False
    return True


def _excellent_reference(P, O):
    """The pairwise scan: the first arc a in (pos tail, pos head) order
    with an arc b running backwards inside its span, and the first such
    b in the same order."""
    n = P.n
    arcs = sorted(P.arcs, key=lambda a: (O.pos[a[0]], O.pos[a[1]]))
    for a in arcs:
        for b in arcs:
            if a == b:
                continue
            (i, j), (s, t) = a, b
            r = lambda x: (O.pos[x] - O.pos[i]) % n
            if r(t) < r(s) <= r(j):
                return False, ((P.names[i], P.names[j]),
                               (P.names[s], P.names[t]))
    return True, None


def test_excellent_matches_reference_all_small():
    # every oriented graph on <= 4 vertices under every vertex sequence,
    # so every cyclic ordering in every rotation
    for n in range(5):
        orders = [Ordering("cyclic", seq)
                  for seq in itertools.permutations(range(n))]
        for P in all_pogs(n):
            if P.edges:
                continue
            for O in orders:
                assert check_ordering(P, O, "excellent") == \
                    _excellent_reference(P, O), (sorted(P.arcs), O.seq)


def test_excellent_matches_reference_random():
    # random pogs with edges and arcs under random orderings, most of
    # them not excellent
    rng = random.Random(53)
    verdicts = {True: 0, False: 0}
    for _ in range(5000):
        n = rng.randint(1, 10)
        P = random_pog(rng, n, p_adj=rng.choice((0.2, 0.4, 0.7, 1.0)),
                       p_arc=rng.choice((0.3, 0.6, 1.0)))
        seq = list(range(n))
        rng.shuffle(seq)
        O = Ordering("cyclic", tuple(seq))
        got = check_ordering(P, O, "excellent")
        assert got == _excellent_reference(P, O), (sorted(P.arcs), O.seq)
        verdicts[got[0]] += 1
    assert min(verdicts.values()) >= 1000, verdicts


def test_excellent_spanning_pattern_cases():
    # crossing arcs that both run forward never violate excellence
    D = Pog(names(4), frozenset(), frozenset({(0, 2), (1, 3)}))
    assert check_ordering(D, _identity(4), "excellent")[0]
    # an arc running backwards inside the span of another does
    D2 = Pog(names(4), frozenset(), frozenset({(0, 3), (2, 1)}))
    ok, wit = check_ordering(D2, _identity(4), "excellent")
    assert not ok
    assert set(wit) == {("v0", "v3"), ("v2", "v1")}


def test_excellent_equality_cases():
    # shared endpoints participate in the pattern: i==t and s==j
    D = Pog(names(3), frozenset(), frozenset({(0, 2), (1, 0)}))
    assert not check_ordering(D, _identity(3), "excellent")[0]
    D2 = Pog(names(3), frozenset(), frozenset({(0, 2), (2, 1)}))
    assert not check_ordering(D2, _identity(3), "excellent")[0]


def test_every_excellent_ordering_is_nice():
    rng = random.Random(19)
    for _ in range(500):
        n = rng.randint(2, 7)
        P = random_pog(rng, n, p_adj=0.6, p_arc=1.0)
        seq = list(range(n))
        rng.shuffle(seq)
        O = Ordering("cyclic", tuple(seq))
        if check_ordering(P, O, "excellent")[0]:
            assert check_ordering(P, O, "nice")[0]


def _nice_reference(P, O):
    """The per-arc scan: for each arc (v_i, v_k) in position order, the
    in-neighbours v_j of v_i sorted by position, the first one lying
    after v_i on the way round from v_k."""
    n, pos = P.n, O.pos
    for i, k in sorted(P.arcs, key=lambda a: (pos[a[0]], pos[a[1]])):
        r = lambda x: (pos[x] - pos[k]) % n
        for j in sorted(P.in_nbrs[i], key=pos.__getitem__):
            if j != k and r(i) < r(j):
                return False, (P.names[k], P.names[i], P.names[j])
    return True, None


def test_nice_matches_per_arc_reference():
    # random pogs, sparse to complete, under random cyclic and linear
    # orderings: the same verdict and the same witness
    rng = random.Random(59)
    verdicts = {True: 0, False: 0}
    for _ in range(5000):
        n = rng.randint(1, 12)
        P = random_pog(rng, n, p_adj=rng.choice((0.15, 0.3, 0.6, 1.0)),
                       p_arc=rng.choice((0.5, 1.0)))
        seq = list(range(n))
        rng.shuffle(seq)
        O = Ordering(rng.choice(("cyclic", "linear")), tuple(seq))
        got = check_ordering(P, O, "nice")
        assert got == _nice_reference(P, O), (sorted(P.arcs), O.seq)
        verdicts[got[0]] += 1
    assert min(verdicts.values()) >= 1000, verdicts


def test_find_round_ordering_cycle_and_transitive():
    assert find_round_ordering(_cycle(4)) is not None
    T = Pog(names(3), frozenset(), frozenset({(0, 1), (0, 2), (1, 2)}))
    O = find_round_ordering(T)
    assert O is not None
    assert check_ordering(T, O, "round")[0]


def test_find_round_ordering_rejects_non_ltt():
    # tournament with a directed triangle inside an out-neighbourhood
    T = Pog(names(4), frozenset(),
            frozenset({(3, 0), (3, 1), (3, 2), (0, 1), (1, 2), (2, 0)}))
    assert find_round_ordering(T) is None


def test_roundlt_equivalence_all_oriented_graphs_n4():
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for mask in range(3 ** len(pairs)):
        arcs, m = set(), mask
        for i, j in pairs:
            m, r = divmod(m, 3)
            if r == 1:
                arcs.add((i, j))
            elif r == 2:
                arcs.add((j, i))
        _assert_round_iff_ltlt(Pog(names(4), frozenset(), frozenset(arcs)))
    # random oriented graphs on 6-9 vertices, sparse to dense
    rng = random.Random(47)
    for _ in range(2000):
        n = rng.randint(6, 9)
        p_adj = rng.choice((0.2, 0.35, 0.5, 0.8))
        _assert_round_iff_ltlt(random_pog(rng, n, p_adj=p_adj, p_arc=1.0))
    # circular bands v_i -> v_{i+1..i+w}, round by construction, with
    # shuffled labels; flipping one arc usually breaks roundness
    for n in range(10, 15):
        for w in range(1, (n - 1) // 2 + 1):
            label = list(range(n))
            rng.shuffle(label)
            arcs = {(label[i], label[(i + s) % n])
                    for i in range(n) for s in range(1, w + 1)}
            D = Pog(names(n), frozenset(), frozenset(arcs))
            assert find_round_ordering(D) is not None
            _assert_round_iff_ltlt(D)
            u, v = sorted(arcs)[rng.randrange(len(arcs))]
            _assert_round_iff_ltlt(
                Pog(names(n), frozenset(), frozenset(arcs - {(u, v)} | {(v, u)})))


def _assert_round_iff_ltlt(D):
    rep = classify(D)
    O = find_round_ordering(D)
    assert (O is not None) == (rep.local_tournament and rep.locally_transitive), \
        sorted(D.arcs)
    if O is not None:
        assert check_ordering(D, O, "round")[0]


def _saturate_reference(D, O):
    """The fixpoint loop: add the missing arcs inside the span of each
    maximal arc, recompute the maximal arcs, and repeat until nothing
    changes."""
    n = D.n
    cur = D
    changed = True
    while changed:
        changed = False
        for i, j in maximal_arcs_reference(cur, O):
            base = O.pos[i]
            r = lambda x: (O.pos[x] - base) % n
            span = sorted((x for x in range(n) if r(x) <= r(j)), key=r)
            add = [(p, q) for s, p in enumerate(span) for q in span[s + 1:]
                   if not cur.adjacent(p, q)]
            if add:
                cur = Pog(cur.names, cur.edges, cur.arcs | frozenset(add))
                changed = True
    return cur


def _assert_round_tournament(P, O):
    """_round_tournament answers exactly on excellent orderings, with a
    locally transitive tournament that contains P and is round on O;
    returns the excellence verdict."""
    ok = check_ordering(P, O, "excellent")[0]
    T = _round_tournament(P, O)
    assert (T is not None) == ok, (sorted(P.arcs), O.seq)
    if T is not None:
        assert classify(T).locally_transitive_tournament
        assert P.arcs <= T.arcs and T.names == P.names
        assert check_ordering(T, O, "round")[0], (sorted(P.arcs), O.seq)
    return ok


def test_round_tournament_iff_excellent_all_small():
    # every oriented graph on <= 4 vertices under every cyclic ordering
    # (the vertex sequences that start at vertex 0); the one-pass
    # saturation must equal the fixpoint loop on the excellent ones
    verdicts = {True: 0, False: 0}
    for n in range(5):
        orders = [Ordering("cyclic", seq)
                  for seq in itertools.permutations(range(n))
                  if not seq or seq[0] == 0]
        for P in all_pogs(n):
            if P.edges:
                continue
            for O in orders:
                ok = _assert_round_tournament(P, O)
                verdicts[ok] += 1
                if ok:
                    assert saturate_to_round_lt(P, O).arcs == \
                        _saturate_reference(P, O).arcs, (sorted(P.arcs), O.seq)
    assert min(verdicts.values()) >= 1000, verdicts


def test_round_tournament_iff_excellent_random():
    # random pogs with edges and arcs on <= 8 vertices under random
    # orderings; the arcs alone go to the saturation comparison
    rng = random.Random(59)
    verdicts = {True: 0, False: 0}
    for _ in range(2000):
        n = rng.randint(1, 8)
        P = random_pog(rng, n, p_adj=rng.choice((0.3, 0.6, 1.0)),
                       p_arc=rng.choice((0.3, 0.6, 1.0)))
        seq = list(range(n))
        rng.shuffle(seq)
        O = Ordering("cyclic", tuple(seq))
        ok = _assert_round_tournament(P, O)
        verdicts[ok] += 1
        if ok:
            D = Pog(P.names, frozenset(), P.arcs)
            assert saturate_to_round_lt(D, O).arcs == \
                _saturate_reference(D, O).arcs, (sorted(P.arcs), O.seq)
    assert min(verdicts.values()) >= 500, verdicts


def test_round_tournament_follows_the_rule():
    # the corpora of the two tests above: the tournament is the one the
    # rule gives pair by pair, and it is missing exactly when the 2-SAT
    # over position pairs is unsatisfiable
    cases = [(P, Ordering("cyclic", seq)) for n in range(5)
             for P in all_pogs(n) if not P.edges
             for seq in itertools.permutations(range(n)) if not seq or seq[0] == 0]
    rng = random.Random(59)
    for _ in range(2000):
        n = rng.randint(1, 8)
        P = random_pog(rng, n, p_adj=rng.choice((0.3, 0.6, 1.0)),
                       p_arc=rng.choice((0.3, 0.6, 1.0)))
        seq = list(range(n))
        rng.shuffle(seq)
        cases.append((P, Ordering("cyclic", tuple(seq))))
    for P, O in cases:
        T = _round_tournament(P, O)
        want = round_tournament_rule_reference(P, O)
        assert (T is None) == (want is None), (sorted(P.arcs), O.seq)
        assert T is None or T.arcs == want.arcs, (sorted(P.arcs), O.seq)
        assert (T is None) == (round_tournament_2sat_reference(P, O) is None)


def test_complete_under_excellent_dominated_edge():
    P = Pog(names(3), frozenset({(0, 1)}), frozenset({(0, 2)}))
    D = complete_under_excellent(P, _identity(3))
    assert (0, 1) in D.arcs


def test_complete_under_excellent_random():
    rng = random.Random(37)
    done = 0
    while done < 500:
        n = rng.randint(2, 7)
        P = random_pog(rng, n)
        seq = list(range(n))
        rng.shuffle(seq)
        O = Ordering("cyclic", tuple(seq))
        if not check_ordering(P, O, "excellent")[0]:
            continue
        D = complete_under_excellent(P, O)
        assert D.is_oriented() and P.arcs <= D.arcs
        assert check_ordering(D, O, "excellent")[0]
        done += 1


def test_saturate_small():
    D = Pog(names(3), frozenset(), frozenset({(0, 2)}))
    R = saturate_to_round_lt(D, _identity(3))
    assert {(0, 1), (1, 2), (0, 2)} <= set(R.arcs)
    assert check_ordering(R, _identity(3), "round")[0]


def test_saturate_rejects_non_excellent():
    D = Pog(names(4), frozenset(), frozenset({(0, 3), (2, 1)}))
    with pytest.raises(NotInClassError):
        saturate_to_round_lt(D, _identity(4))


def test_saturate_matches_the_span_scan_reference():
    """Each maximal arc's span read off O as a run of positions gives
    what the scan of all n vertices, sorted by offset, gives: seeded
    arc subsets of random locally transitive tournaments, whose round
    ordering, turned at random, stays excellent for them."""
    rng = random.Random(61)
    added = 0
    for _ in range(1500):
        n = rng.randint(1, 14)
        T = random_ltt(rng, n)
        seq = find_round_ordering(T).seq
        turn = rng.randrange(n)
        O = Ordering("cyclic", seq[turn:] + seq[:turn])
        p = rng.choice((0.2, 0.5, 0.8))
        D = Pog(T.names, frozenset(),
                frozenset(a for a in T.arcs if rng.random() < p))
        R = saturate_to_round_lt(D, O)
        assert R.arcs == saturate_to_round_lt_reference(D, O).arcs, \
            (sorted(D.arcs), O.seq)
        added += len(R.arcs) - len(D.arcs)
    assert added > 10000, added


def test_round_to_ltt_checks_the_tournament_once(monkeypatch):
    """Three 4-cycles: one roundness check per component, in its round
    ordering search, and one of the 12-vertex tournament as a whole; the
    merges run none."""
    D = Pog(names(12), frozenset(),
            frozenset((4 * c + k, 4 * c + (k + 1) % 4)
                      for c in range(3) for k in range(4)))
    calls, check = [], pogc.rounds._check_round

    def counted(P, seq):
        calls.append((P.n, len(seq)))
        return check(P, seq)
    monkeypatch.setattr(pogc.rounds, "_check_round", counted)
    T = round_to_ltt(D)
    assert len(T.arcs) == 66 and D.arcs <= T.arcs
    assert calls == [(4, 4)] * 3 + [(12, 12)]


def test_round_to_ltt_many_components_is_fast():
    """100 disjoint directed triangles: the merges carry run lengths and
    only the answer is written out, so the 300-vertex tournament takes
    well under a second."""
    n = 300
    D = Pog(names(n), frozenset(),
            frozenset((3 * c + k, 3 * c + (k + 1) % 3)
                      for c in range(n // 3) for k in range(3)))
    t0 = time.perf_counter()
    T = round_to_ltt(D)
    elapsed = time.perf_counter() - t0
    assert len(T.arcs) == n * (n - 1) // 2 and D.arcs <= T.arcs
    assert elapsed < 0.5, elapsed


def test_round_to_ltt_c3_identity():
    assert round_to_ltt(_cycle(3)).arcs == _cycle(3).arcs


def test_round_to_ltt_c4():
    T = round_to_ltt(_cycle(4))
    assert T.arcs == _cycle(4).arcs | {(0, 2), (1, 3)}


def test_round_to_ltt_random_round_inputs():
    rng = random.Random(41)
    done = 0
    while done < 500:
        n = rng.randint(1, 9)
        P = random_pog(rng, n, p_adj=0.5, p_arc=1.0)
        if find_round_ordering(P) is None:
            continue
        T = round_to_ltt(P)
        rep = classify(T)
        assert rep.tournament and rep.locally_transitive
        assert P.arcs <= T.arcs
        done += 1


def test_round_to_ltt_rejects_non_round():
    D = Pog(names(3), frozenset(), frozenset({(0, 1), (0, 2)}))
    if find_round_ordering(D) is None:
        with pytest.raises(NotRoundError):
            round_to_ltt(D)


def test_moon_transitive_collapses():
    T = Pog(names(4), frozenset(),
            frozenset((i, j) for i in range(4) for j in range(i + 1, 4)))
    dec = moon_decompose(T)
    assert len(dec.parts) == 1 and len(dec.parts[0]) == 4


def test_moon_c3_three_singletons():
    dec = moon_decompose(_cycle(3))
    assert len(dec.parts) == 3
    assert all(len(p) == 1 for p in dec.parts)


def test_moon_reconstruction_random():
    rng = random.Random(43)
    done = 0
    while done < 200:
        n = rng.randint(1, 7)
        P = random_pog(rng, n, p_adj=0.5, p_arc=1.0)
        if find_round_ordering(P) is None:
            continue
        T = round_to_ltt(P)
        dec = moon_decompose(T)  # raises on reconstruction mismatch
        q = len(dec.parts)
        if q > 1:
            assert all(len(dec.frame.out_nbrs[x]) == (q - 1) // 2
                       for x in range(q))
        done += 1


def test_merge_two_singletons():
    a = Pog.build(("a",))
    b = Pog.build(("b",))
    T = merge_ltt(a, b)
    assert len(T.arcs) == 1


def test_merge_c3_with_vertex_and_c3():
    c3 = _cycle(3)
    single = Pog.build(("w",))
    T = merge_ltt(c3, single)
    rep = classify(T)
    assert rep.tournament and rep.locally_transitive

    other = Pog.build(("x", "y", "z"),
                      arcs=[("x", "y"), ("y", "z"), ("z", "x")])
    T2 = merge_ltt(c3, other)
    assert T2.n == 6
    rep2 = classify(T2)
    assert rep2.tournament and rep2.locally_transitive
    # both inputs survive as induced subdigraphs
    sub = T2.induced([T2.index[v] for v in c3.names])
    assert {(sub.names[i], sub.names[j]) for i, j in sub.arcs} == \
        {(c3.names[i], c3.names[j]) for i, j in c3.arcs}


# -- the round ordering decides, decomposes and merges ------------------


def _assert_ltt_ordering(T):
    """_ltt_ordering answers exactly on the locally transitive
    tournaments, with a round ordering of T; returns the verdict."""
    O = _ltt_ordering(T)
    ok = classify(T).locally_transitive_tournament
    assert (O is not None) == ok, (sorted(T.edges), sorted(T.arcs))
    if ok:
        assert check_ordering(T, O, "round")[0]
    return ok


def test_ltt_ordering_matches_classify_all_small():
    # every tournament on <= 5 vertices, and every pog on <= 4 (edges
    # and non-adjacent pairs included)
    verdicts = {True: 0, False: 0}
    for n in range(6):
        for T in all_tournaments(n):
            verdicts[_assert_ltt_ordering(T)] += 1
    for n in range(5):
        for P in all_pogs(n):
            _assert_ltt_ordering(P)
    assert min(verdicts.values()) >= 400, verdicts


def test_ltt_ordering_matches_classify_random():
    # random tournaments, random locally transitive ones, and those with
    # one arc reversed, on 6-8 vertices
    rng = random.Random(89)
    verdicts = {True: 0, False: 0}
    for k in range(1500):
        n = rng.randint(6, 8)
        if k % 3 == 0:
            T = random_pog(rng, n, p_adj=1.0, p_arc=1.0)
        else:
            T = random_ltt(rng, n)
            if k % 3 == 2:
                u, v = rng.choice(sorted(T.arcs))
                T = Pog(T.names, frozenset(), T.arcs - {(u, v)} | {(v, u)})
        verdicts[_assert_ltt_ordering(T)] += 1
    assert min(verdicts.values()) >= 300, verdicts


def _renamed(T, prefix):
    return Pog(tuple(prefix + v for v in T.names), T.edges, T.arcs)


def test_moon_and_merge_match_reference_all_small():
    # every locally transitive tournament on <= 5 vertices: its
    # decomposition, and its merges with a vertex and a directed
    # triangle (both ways round) and with a renamed copy of itself
    partners = [Pog.build(("p",)), _renamed(_cycle(3), "p")]
    count = 0
    for n in range(6):
        for T in all_tournaments(n):
            if not classify(T).locally_transitive_tournament:
                continue
            count += 1
            assert moon_decompose(T) == moon_decompose_reference(T), sorted(T.arcs)
            if not n:
                continue
            for S in partners:
                assert merge_ltt(T, S).arcs == merge_ltt_reference(T, S).arcs
                assert merge_ltt(S, T).arcs == merge_ltt_reference(S, T).arcs
            S = _renamed(T, "c")
            assert merge_ltt(T, S).arcs == merge_ltt_reference(T, S).arcs
    assert count == 444


def test_moon_and_merge_match_reference_random():
    rng = random.Random(97)
    for _ in range(2000):
        T1 = random_ltt(rng, rng.randint(6, 9), "a")
        T2 = random_ltt(rng, rng.randint(6, 9), "b")
        assert moon_decompose(T1) == moon_decompose_reference(T1), sorted(T1.arcs)
        assert merge_ltt(T1, T2).arcs == merge_ltt_reference(T1, T2).arcs, \
            (sorted(T1.arcs), sorted(T2.arcs))


def test_ltt_checks_reject_with_class_errors():
    edge = Pog(names(2), frozenset({(0, 1)}), frozenset())
    path = Pog(names(3), frozenset(), frozenset({(0, 1), (1, 2)}))
    for P in (edge, path):
        with pytest.raises(NotInClassError,
                           match="^input is not a locally transitive tournament$"):
            moon_decompose(P)
        with pytest.raises(NotInClassError,
                           match="^first tournament is not a locally"):
            merge_ltt(P, Pog.build(("x",)))
        with pytest.raises(NotInClassError,
                           match="^second tournament is not a locally"):
            merge_ltt(Pog.build(("x",)), P)
    # two tournaments that share a vertex name are rejected before
    # either is checked
    with pytest.raises(InvariantError, match="^vertex names are not disjoint$"):
        merge_ltt(_cycle(3), Pog.build(("x", "v2")))


def test_round_to_ltt_empty():
    empty = Pog((), frozenset(), frozenset())
    assert round_to_ltt(empty) == empty


def test_merge_with_empty_returns_other():
    empty = Pog((), frozenset(), frozenset())
    c3 = _cycle(3)
    assert merge_ltt(empty, c3) == c3
    assert merge_ltt(c3, empty) == c3
    assert merge_ltt(empty, empty) == empty


def _regular(n):
    return Pog(names(n), frozenset(),
               frozenset((i, (i + s) % n) for i in range(n)
                         for s in range(1, n // 2 + 1)))


def _triangle_blow_up(n):
    # three transitive parts of n // 3 vertices, each beating the next
    k = n // 3
    return Pog(names(n), frozenset(),
               frozenset((i, j) for i in range(n) for j in range(n)
                         if (i // k == j // k and i < j)
                         or (j // k - i // k) % 3 == 1))


@pytest.mark.parametrize("build, n, parts", [(_regular, 301, 301),
                                             (_triangle_blow_up, 300, 3)])
def test_moon_and_merge_large_are_fast(build, n, parts):
    T = build(n)
    t0 = time.perf_counter()
    dec = moon_decompose(T)
    t1 = time.perf_counter()
    M = merge_ltt(T, _renamed(_cycle(3), "p"))
    t2 = time.perf_counter()
    assert len(dec.parts) == parts and M.n == n + 3
    assert t1 - t0 < 2.0, t1 - t0
    assert t2 - t1 < 2.0, t2 - t1
