"""Data model, text formats, classification, certificates."""

import ast
import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pogc import cli, hardness
from pogc import pog as pog_module
from pogc.auxgraph import AuxGraph, aux_adjacent, build_aux
from pogc.classes import ROWS
from pogc.completions import is_k_arc_strong
from pogc.errors import InvariantError, ParseError, PogError, RepresentationError
from pogc.graph import _matching, topological_order
from pogc.hardness import (CnfFormula, ReductionInstance, build_reduction,
                           orient_by_assignment)
from pogc.interval import Representation, representation_from_orientation
from pogc.pog import (NAME_RE, Certificate, Ordering, Pog, _is_complete,
                      _neighbourhood_cycle, _neighbourhoods, classify,
                      complete_closure, find_directed_cycle, parse_ordering,
                      parse_pog, render_pog, require_oriented)
from pogc.rounds import MoonDecomposition, check_ordering, moon_decompose
from pogc.verify import verify_certificate
from util import (all_graphs, all_pogs, directed_cycle_reference, names,
                  neighbourhood_cycle_reference, parse_pog_reference,
                  planted_formula, random_pog)


def test_parse_single_edge():
    P = parse_pog("v a\nv b\nedge a b\n")
    assert P.names == ("a", "b")
    assert P.edges == frozenset({(0, 1)})
    assert P.arcs == frozenset()


def test_parse_edge_and_arc_on_same_pair_rejected():
    with pytest.raises(ParseError):
        parse_pog("v a\nv b\narc a b\nedge a b\n")


def test_parse_two_cycle_rejected():
    with pytest.raises(ParseError):
        parse_pog("arc a b\narc b a\n")


def test_parse_loop_rejected():
    with pytest.raises(ParseError):
        parse_pog("edge a a\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_pog("v a\nbogus a b\n")
    assert exc.value.line == 2


def test_parse_comments_and_implicit_vertices():
    P = parse_pog("# heading\narc x y  # tail comment\n\nedge y z\n")
    assert P.names == ("x", "y", "z")
    assert len(P.arcs) == 1 and len(P.edges) == 1


def test_render_round_trip_small():
    P = Pog.build(("a", "b"), edges=[("a", "b")])
    assert render_pog(P) == "v a\nv b\nedge a b\n"
    assert render_pog(Pog((), frozenset(), frozenset())) == ""


def test_render_round_trip_random():
    rng = random.Random(101)
    for _ in range(1000):
        P = random_pog(rng, rng.randint(0, 8))
        Q = parse_pog(render_pog(P))
        assert Q.names == P.names
        assert Q.edges == P.edges
        assert Q.arcs == P.arcs


def _family_pairs(rng):
    """Edges and arcs, by index, of one perfbench-style pog: a band
    (straight arcs revealed at random), a ring with chords, the strong
    all-arc digraph or a random pog."""
    family = rng.randrange(4)
    n = rng.randint(3, 40)
    if family == 0:
        w, share = rng.randint(1, 4), rng.choice((0.0, 0.2, 1.0))
        pairs = [(i, (i + d) % n) for i in range(n) for d in range(1, w + 1)
                 if i + d < n or (n > 2 * w and rng.random() < 0.5)]
        pairs = list(dict.fromkeys(pairs))
        arcs = [p for p in pairs if rng.random() < share]
        return n, [p for p in pairs if p not in arcs], arcs
    if family == 1:
        ring = [(i, (i + 1) % n) for i in range(n)]
        chords = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(n // 3)}
        return n, [c for c in chords if c not in ring and c[::-1] not in ring], ring
    if family == 2:
        arcs = [(i, i + 1) for i in range(n - 1)] + [(i, i + 2) for i in range(n - 2)]
        return n, [], arcs + [(n - 1, 1), (n - 2, 0)]
    P = random_pog(rng, 2 + n % 10)
    return P.n, sorted(P.edges), sorted(P.arcs)


def _pog_lines(rng, declared=0.8):
    """Native text lines of a family pog, declarations and lines
    shuffled, the declarations first; each vertex is declared with
    probability `declared`, and otherwise introduced by edge/arc lines."""
    n, edges, arcs = _family_pairs(rng)
    label = ["%s%d" % (rng.choice("vrx"), k) for k in rng.sample(range(n), n)]
    decl = ["v %s" % label[k] for k in range(n) if rng.random() < declared]
    rng.shuffle(decl)
    lines = []
    for i, j in edges:
        i, j = (j, i) if rng.random() < 0.5 else (i, j)
        lines.append("edge %s %s" % (label[i], label[j]))
    lines += ["arc %s %s" % (label[i], label[j]) for i, j in arcs]
    rng.shuffle(lines)
    return label, decl + lines


def _mutate(rng, label, lines):
    """One corruption of a pog's lines, or none."""
    k = rng.randrange(len(lines) + 1)
    kind = rng.randrange(12)
    a, b = rng.choice(label), rng.choice(label)
    arc_lines = [ln.split() for ln in lines if ln.startswith("arc ")]
    arc_lines = [p for p in arc_lines if len(p) == 3]
    parts = lines[k % len(lines)].split() if lines else []
    if kind == 0 and parts:           # bad name
        parts[rng.randrange(len(parts))] = rng.choice(("a$b", "\u00e9", "x:y", "!"))
        lines[k % len(lines)] = " ".join(parts)
    elif kind == 1 and parts:         # wrong token count
        parts = parts[:-1] if rng.random() < 0.5 else parts + [b]
        lines[k % len(lines)] = " ".join(parts)
    elif kind == 2:                   # v declared twice
        lines.insert(k, "v %s" % a)
    elif kind == 3:                   # loop
        lines.insert(k, "%s %s %s" % (rng.choice(("edge", "arc")), a, a))
    elif kind == 4 and arc_lines:     # 2-cycle
        _, u, v = rng.choice(arc_lines)
        lines.insert(k, "arc %s %s" % (v, u))
    elif kind == 5 and arc_lines:     # edge and arc on one pair
        _, u, v = rng.choice(arc_lines)
        lines.insert(k, "edge %s %s" % ((u, v) if rng.random() < 0.5 else (v, u)))
    elif kind == 6:                   # unknown directive
        lines.insert(k, "%s %s %s" % (rng.choice(("Edge", "e", "vertex", "#x")), a, b))
    elif kind == 7 and lines:         # comment: whole line, tail, or mid-line
        ln = lines[k % len(lines)]
        cut = rng.randrange(len(ln) + 1)
        lines[k % len(lines)] = ln[:cut] + "#" + rng.choice(("", " note", "#", " arc a b"))
    elif kind == 8:                   # blank and whitespace-only lines
        lines.insert(k, rng.choice(("", "   ", "\t", "# only a comment")))
    return lines


def _join(rng, lines):
    """Lines joined by a mix of separators, tokens by spaces or tabs."""
    seps = ("\n", "\r\n", "\x0c", "\r", "\x0b", "\u2028")
    out = []
    for ln in lines:
        if rng.random() < 0.2:
            ln = ln.replace(" ", rng.choice(("\t", "  ", " \t ")))
        out.append(ln + (rng.choice(seps) if rng.random() < 0.2 else "\n"))
    return "".join(out)


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line)


def test_parse_matches_reference_parser():
    """The one-pass parser gives the reference parser's Pog, or its
    ParseError message and line, on valid family pogs and on texts
    corrupted by one to three mutations."""
    rng = random.Random(2020)
    errors = set()
    valid = 0
    for case in range(3000):
        label, lines = _pog_lines(rng)
        for _ in range(0 if case % 4 == 0 else rng.randint(1, 3)):
            lines = _mutate(rng, label, lines)
        text = _join(rng, lines)
        got, want = _outcome(parse_pog, text), _outcome(parse_pog_reference, text)
        assert got == want, text
        if isinstance(want, Pog):
            assert got.names == want.names
            valid += 1
        else:
            errors.add(want[1].split(": ", 1)[-1].split(" ")[0])
    assert valid > 750
    assert {"bad", "expected", "vertex", "loop", "2-cycle", "edge",
            "unknown"} <= errors


def _assert_same_pog(got, want):
    """The same Pog, names in the same order, and frozensets that
    iterate alike."""
    assert got == want and got.names == want.names
    assert list(got.edges) == list(want.edges)
    assert list(got.arcs) == list(want.arcs)


def test_parse_layout_texts_match_reference_parser(monkeypatch):
    """Texts in render_pog's layout (every vertex declared first, every
    line ended by a newline), corrupted by up to two mutations: the
    column-wise path reads most of them, and parse_pog gives the
    reference parser's Pog, names and set iteration order included, or
    its ParseError message and line."""
    accepted = []
    bulk = pog_module._parse_rendered

    def counting(text):
        P = bulk(text)
        accepted.append(P is not None)
        return P

    monkeypatch.setattr(pog_module, "_parse_rendered", counting)
    rng = random.Random(3030)
    errors = set()
    valid = 0
    for _ in range(3000):
        label, lines = _pog_lines(rng, declared=1.0)
        for _ in range(rng.randint(0, 2)):
            lines = _mutate(rng, label, lines)
        text = "".join(ln + "\n" for ln in lines)
        got, want = _outcome(parse_pog, text), _outcome(parse_pog_reference, text)
        if isinstance(want, Pog):
            _assert_same_pog(got, want)
            valid += 1
        else:
            assert got == want, text
            errors.add(want[1].split(": ", 1)[-1].split(" ")[0])
    assert len(accepted) == 3000 and sum(accepted) >= 1200
    assert valid > 1500
    assert {"bad", "expected", "vertex", "loop", "2-cycle", "edge",
            "unknown"} <= errors


def _render_reference(P):
    """render_pog's native text with pairs sorted as tuples."""
    out = ["v %s" % v for v in P.names]
    out += ["edge %s %s" % (P.names[i], P.names[j]) for i, j in sorted(P.edges)]
    out += ["arc %s %s" % (P.names[i], P.names[j]) for i, j in sorted(P.arcs)]
    return "".join(ln + "\n" for ln in out)


def _ladder_pogs(n):
    """The ladder's families at n: band-4, band-4 oriented straight,
    the strong all-arc digraph and the circulant C_n(1, 2)."""
    vs = tuple("v%d" % i for i in range(n))
    band = frozenset((i, j) for i in range(n) for j in range(i + 1, min(n, i + 5)))
    all_arc = {(i, i + 1) for i in range(n - 1)} | {(i, i + 2) for i in range(n - 2)}
    yield Pog(vs, band, frozenset())
    yield Pog(vs, frozenset(), band)
    yield Pog(vs, frozenset(), frozenset(all_arc | {(n - 1, 1), (n - 2, 0)}))
    yield Pog(vs, frozenset(), frozenset((i, (i + s) % n) for i in range(n)
                                         for s in (1, 2)))


def test_rendered_pogs_read_column_wise(monkeypatch):
    """render_pog's text of the ladder's families, of perfbench-shaped
    pogs and of every completer's yes is read without the line-by-line
    parser, gives the same Pog and re-renders byte for byte; the pairs
    come out in tuple order."""
    def no_lines(text):
        raise AssertionError("read line by line")

    monkeypatch.setattr(pog_module, "_parse_lines", no_lines)
    rng = random.Random(4040)
    pogs = [P for n in (5, 12, 100) for P in _ladder_pogs(n)]
    for _ in range(300):
        n, edges, arcs = _family_pairs(rng)
        try:  # a small all-arc digraph has 2-cycles
            pogs.append(Pog(names(n), frozenset((min(e), max(e)) for e in edges),
                            frozenset(arcs)))
        except InvariantError:
            pass
    pogs.append(build_reduction(planted_formula(rng, 4, 6)[0]).pog)
    yes = 0
    for P in [random_pog(rng, rng.randint(1, 7)) for _ in range(60)] + pogs[:20]:
        for row in ROWS.values():
            try:
                D = row.run(P) if row.command == "complete" else None
            except PogError:
                continue
            if isinstance(D, Pog):
                pogs.append(D)
                yes += 1
    assert yes > 150
    for P in pogs:
        text = render_pog(P)
        assert text == _render_reference(P)
        Q = parse_pog(text)
        assert Q == P and Q.names == P.names
        assert render_pog(Q) == text


def test_parse_hostile_texts_stay_linear():
    """A name of a million characters, valid or not, declared twice or
    looped, and a layout text of 100,000 lines that breaks on its last
    line, with newline or CR LF line ends, give the reference parser's
    result or error, each in under 2 s: the layout regexes stay linear
    on failing input.  An error quotes at most 60 characters of the
    name, so its message stays short."""
    big = "a" * 10 ** 6
    lines = ["v v%d" % i for i in range(50000)]
    lines += ["arc v%d v%d" % (i, i + 1) for i in range(49999)]
    lines.append("arc v0 v1 v2")
    texts = ["v %s\nv b\narc %s b\n" % (big, big), "v b\nv %s!\n" % big,
             "v b\narc b %s\n" % big, "v %s\nv %s\n" % (big, big),
             "edge %s %s\n" % (big, big), "".join(ln + "\n" for ln in lines),
             "".join(ln + "\r\n" for ln in lines)]
    for text in texts:
        t0 = time.perf_counter()
        got = _outcome(parse_pog, text)
        assert time.perf_counter() - t0 < 2.0
        want = _outcome(parse_pog_reference, text)
        if isinstance(want, Pog):
            _assert_same_pog(got, want)
        else:
            assert got == want and len(got[1]) < 200
    assert _outcome(parse_pog, texts[-2])[1:] == ("line 100000: expected 'arc U V'", 100000)


def test_pog_invariants():
    with pytest.raises(InvariantError):
        Pog(("a", "a"), frozenset(), frozenset())
    with pytest.raises(InvariantError):
        Pog(("a", "b"), frozenset({(0, 1)}), frozenset({(1, 0)}))
    with pytest.raises(InvariantError):
        Pog(("a", "b"), frozenset(), frozenset({(0, 1), (1, 0)}))


def test_name_checks_run_once_per_path(monkeypatch, tmp_path, capsys):
    """Parsing checks each name once; pogs derived from a checked pog
    check no name again; Pog(...) and Pog.build keep every check."""
    matches = []

    class CountingNameRe:
        def match(self, name):
            matches.append(name)
            return NAME_RE.match(name)

    monkeypatch.setattr(pog_module, "NAME_RE", CountingNameRe())
    n = 40
    P = parse_pog("v v0\n" + "".join("edge v%d v%d\n" % (i, i + 1)
                                     for i in range(n - 1)))
    assert P.n == n and len(matches) == n
    matches.clear()
    D = P.orient([(i, i + 1) for i in range(n - 1)])
    sub = D.induced(range(0, n, 2))
    G = D.underlying_graph()
    assert matches == []
    assert (D.arcs, sub.n, G.edges) == (
        frozenset((i, i + 1) for i in range(n - 1)), n // 2, P.edges)
    R = build_reduction(CnfFormula(3, ((1, -2, 3),)))
    assert len(matches) == R.pog.n == R.oriented.n
    # an exact search checks the names of the pog it reads, not its leaves'
    path = tmp_path / "k6.pog"
    path.write_text("".join("edge v%d v%d\n" % (i, j)
                            for i in range(6) for j in range(i + 1, 6)))
    matches.clear()
    assert cli.run(["complete", "--class", "ltt-exact", str(path)]) == 0
    assert len(matches) == 6 and parse_pog(capsys.readouterr().out).arcs
    for args, message in (
            ((("a", "a"), (), ()), "duplicate vertex names"),
            ((("a", "b c"), (), ()), "bad vertex name 'b c'"),
            ((("a", "b"), (), {(0, 1), (1, 0)}), "2-cycle on "),
            ((("a", "b"), {(0, 1)}, {(1, 0)}), "edge and arc on the same pair b,a")):
        names_, edges, arcs = args
        with pytest.raises(InvariantError, match=message):
            Pog(names_, frozenset(edges), frozenset(arcs))
        with pytest.raises(InvariantError, match=message):
            Pog.build(names_, [(names_[i], names_[j]) for i, j in edges],
                      [(names_[i], names_[j]) for i, j in arcs])


VIEWS = ("index", "und_pairs", "adj", "cells", "ug_components", "out_nbrs",
         "in_nbrs")


def _ug_views(P):
    return set(P.__dict__) & pog_module._UG_VIEWS


def _assert_views_shared(parent, D, got, had):
    """D had exactly the underlying-graph views (`got`) that its parent
    had computed (`had`) when D was made, as the parent's own objects;
    its arc views are its own; and all of D's views equal those of the
    same pog built afresh."""
    assert got == had
    ref = Pog(D.names, D.edges, D.arcs)
    for key in had:
        assert getattr(D, key) is getattr(parent, key), key
    for key in VIEWS:
        assert getattr(D, key) == getattr(ref, key), key
    for key in ("out_nbrs", "in_nbrs"):
        assert getattr(D, key) is not getattr(parent, key), key


def test_derived_pogs_share_underlying_graph_views(monkeypatch):
    """orient, underlying_graph and exact-search leaves take the views of
    their parent's underlying graph that the parent has computed, and
    never its arc views."""
    leaves, parent = [], None
    real = hardness._ltt_ordering

    def recording(T):
        leaves.append((T, _ug_views(T), _ug_views(parent)))
        return real(T)

    monkeypatch.setattr(hardness, "_ltt_ordering", recording)
    rng = random.Random(83)
    corpus = [P for n in range(1, 5) for P in all_pogs(n)]
    corpus += [random_pog(rng, rng.randint(2, 9), p_adj=rng.choice((0.5, 0.9, 1.0)))
               for _ in range(300)]
    searched = 0
    for P in corpus:
        for warm in (False, True):
            parent = Pog(P.names, P.edges, P.arcs)
            if warm:
                for key in VIEWS:
                    getattr(parent, key)
            chosen = [(i, j) if rng.random() < 0.5 else (j, i)
                      for i, j in sorted(parent.edges) if rng.random() < 0.6]
            D = parent.orient(chosen)
            _assert_views_shared(parent, D, _ug_views(D), _ug_views(parent))
            G = parent.underlying_graph()
            _assert_views_shared(parent, G, _ug_views(G), _ug_views(parent))
            assert "und_pairs" in G.__dict__
            if len(parent.edges) > 8:
                continue
            leaves.clear()
            sols = hardness.exact_complete(parent, "ltt", enumerate_all=True)
            sols = [(T, _ug_views(T), _ug_views(parent)) for T in sols]
            for T, got, had in leaves + sols:
                assert T.names == parent.names and T.und_pairs == parent.und_pairs
                _assert_views_shared(parent, T, got, had)
            searched += bool(leaves)
    assert searched >= 200


def test_class_checks_run_once_per_pog(monkeypatch):
    """Two reports on one pog, each read in full and property by
    property, run every check once; a report on an equal pog built
    afresh runs them again."""
    calls = []
    for name in pog_module.PropertyReport.PROPERTIES:
        check = getattr(pog_module.PropertyReport, name)

        def counting(rep, real=check.check, name=name):
            calls.append(name)
            return real(rep)

        monkeypatch.setattr(check, "check", counting)
    rng = random.Random(97)
    pogs = [P for n in range(4) for P in all_pogs(n)]
    pogs += [random_pog(rng, rng.randint(4, 9), p_adj=rng.choice((0.5, 1.0)))
             for _ in range(300)]
    for P in pogs:
        calls.clear()
        first = classify(P).witnesses
        for name in ("transitive_tournament", "locally_transitive_tournament",
                     "acyclic_local_tournament") + classify(P).PROPERTIES:
            getattr(classify(P), name)
        assert classify(P).witnesses == first
        assert sorted(calls) == sorted(pog_module.PropertyReport.PROPERTIES)
        calls.clear()
        assert classify(Pog(P.names, P.edges, P.arcs)).witnesses == first
        assert len(calls) == len(pog_module.PropertyReport.PROPERTIES)


def test_derived_pogs_never_inherit_witnesses(monkeypatch):
    """orient, underlying_graph, induced and the exact-search leaves and
    completions start without class witnesses, even from a parent whose
    report has run every check, and their reports equal those of the
    same pogs built afresh."""
    leaves = []
    real = hardness._ltt_ordering

    def recording(T):
        leaves.append((T, "_witnesses" in T.__dict__))
        return real(T)

    monkeypatch.setattr(hardness, "_ltt_ordering", recording)

    def fresh(D, inherited):
        assert not inherited
        want = classify(Pog(D.names, D.edges, D.arcs)).witnesses
        assert classify(D).witnesses == want

    rng = random.Random(101)
    corpus = [P for n in range(1, 5) for P in all_pogs(n)]
    corpus += [random_pog(rng, rng.randint(2, 9), p_adj=rng.choice((0.5, 0.9, 1.0)))
               for _ in range(300)]
    searched = 0
    for P in corpus:
        parent = Pog(P.names, P.edges, P.arcs)
        classify(parent).witnesses
        for key in VIEWS:
            getattr(parent, key)
        chosen = [(i, j) if rng.random() < 0.5 else (j, i)
                  for i, j in sorted(parent.edges) if rng.random() < 0.6]
        keep = [v for v in range(parent.n) if rng.random() < 0.7]
        for D in (parent.orient(chosen), parent.underlying_graph(),
                  parent.induced(keep)):
            fresh(D, "_witnesses" in D.__dict__)
        sub = parent.induced(keep)
        for key in ("cells", "ug_components"):
            assert getattr(sub, key) == getattr(Pog(sub.names, sub.edges, sub.arcs), key)
        if len(parent.edges) > 8:
            continue
        leaves.clear()
        sols = hardness.exact_complete(parent, "ltt", enumerate_all=True)
        for T, inherited in leaves + [(T, "_witnesses" in T.__dict__) for T in sols]:
            fresh(T, inherited)
        searched += bool(leaves)
    assert searched >= 200


def test_orient_rejects_conflicts():
    P = Pog.build(("a", "b"), edges=[("a", "b")])
    with pytest.raises(InvariantError):
        P.orient([(0, 1), (1, 0)])
    D = P.orient([(1, 0)])
    assert D.arcs == frozenset({(1, 0)})


def test_classify_directed_triangle():
    D = Pog.build(("a", "b", "c"),
                  arcs=[("a", "b"), ("b", "c"), ("c", "a")])
    rep = classify(D)
    assert rep.local_tournament and rep.locally_transitive
    assert not rep.acyclic and rep.strong


def test_classify_in_tournament_witness():
    D = Pog.build(("x", "y", "c"), arcs=[("x", "c"), ("y", "c")])
    rep = classify(D)
    assert not rep.in_tournament
    assert rep.witnesses["in_tournament"] == ("x", "y", "c")


def test_classify_every_tournament_is_local_tournament():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 6)
        arcs = frozenset((i, j) if rng.random() < 0.5 else (j, i)
                         for i in range(n) for j in range(i + 1, n))
        rep = classify(Pog(names(n), frozenset(), arcs))
        assert rep.tournament
        assert rep.local_tournament


def test_classify_ltt_implies_lt_exhaustive():
    # every oriented graph on <= 4 vertices
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for mask in range(3 ** len(pairs)):
        arcs, m = set(), mask
        for i, j in pairs:
            m, r = divmod(m, 3)
            if r == 1:
                arcs.add((i, j))
            elif r == 2:
                arcs.add((j, i))
        rep = classify(Pog(names(4), frozenset(), frozenset(arcs)))
        if rep.locally_transitive:
            assert rep.local_tournament


def test_find_directed_cycle():
    D = Pog.build(("a", "b", "c"),
                  arcs=[("a", "b"), ("b", "c"), ("c", "a")])
    cyc = find_directed_cycle(D)
    assert cyc is not None and len(cyc) == 3
    D2 = Pog.build(("a", "b", "c"), arcs=[("a", "b"), ("b", "c")])
    assert find_directed_cycle(D2) is None


def test_directed_cycle_matches_dfs_reference():
    """find_directed_cycle(P, within) is None exactly when the DFS
    reference finds no cycle, and otherwise a simple directed cycle
    inside within, the very cycle the DFS finds: on every pog of at
    most 4 vertices and on seeded random pogs, for the whole vertex
    set, every out- and in-neighbourhood and every cell."""
    rng = random.Random(83)
    pogs = [P for n in range(5) for P in all_pogs(n)]
    pogs += [random_pog(rng, rng.randint(5, 12),
                        p_adj=rng.choice((0.5, 0.8, 1.0)),
                        p_arc=rng.choice((0.7, 0.9, 1.0))) for _ in range(1500)]
    cyclic = 0
    for P in pogs:
        sets = [None] + [hood for _, _, hood in _neighbourhoods(P)] + list(P.cells[0])
        for within in sets:
            verts = range(P.n) if within is None else sorted(within)
            cyc = find_directed_cycle(P, within)
            want = directed_cycle_reference(P.out_nbrs, verts)
            if want is None:
                assert cyc is None, (P, within)
                continue
            cyclic += 1
            assert cyc and len(set(cyc)) == len(cyc), (P, within)
            assert set(cyc) <= set(verts), (P, within)
            assert all((u, v) in P.arcs
                       for u, v in zip(cyc, cyc[1:] + cyc[:1])), (P, within)
            assert cyc == want, (P, within)
    assert cyclic > 1000


def test_topological_order_smallest_ready_first():
    succ = {0: [3], 1: [3], 2: [0], 3: [], 4: [1], 5: [2]}
    assert topological_order(range(6), succ.__getitem__) == [4, 1, 5, 2, 0, 3]
    # successors outside the vertex set are ignored
    assert topological_order([3, 0, 1], succ.__getitem__) == [0, 1, 3]
    assert topological_order([], succ.__getitem__) == []
    succ[3] = [5]  # 5 -> 2 -> 0 -> 3 -> 5
    assert topological_order(range(6), succ.__getitem__) is None
    # ... but only on verts: without 5 and 2 the cycle is gone
    assert topological_order([0, 1, 3, 4], succ.__getitem__) == [0, 4, 1, 3]


def test_complete_closure():
    D = Pog.build(("a", "b", "c", "d"),
                  arcs=[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    C = complete_closure(D)
    assert C.arcs == D.arcs
    assert len(C.edges) == 2  # the two diagonals


def test_ordering_validation():
    with pytest.raises(InvariantError):
        Ordering("cyclic", (0, 0, 1))
    with pytest.raises(InvariantError):
        Ordering("diagonal", (0, 1))
    P = Pog.build(("a", "b"), edges=[("a", "b")])
    O = parse_ordering("order cyclic b a\n", P)
    assert O.seq == (1, 0)
    with pytest.raises(ParseError):
        parse_ordering("order cyclic a\n", P)
    # one ordering line only, with blank and comment lines around it
    O = parse_ordering("# first\n\norder linear a b  # note\n\n# last\n", P)
    assert (O.kind, O.seq) == ("linear", (0, 1))
    with pytest.raises(ParseError) as exc:
        parse_ordering("order cyclic a b\norder linear b a\nthis is junk\n", P)
    assert exc.value.line == 2


def test_matching_greedy_then_augmenting_path():
    # 1 finds right 0 taken by 0, which has nowhere else to go: the
    # failed search reached both, and they share one neighbour
    nbrs = {0: [0], 1: [0]}.__getitem__
    assert _matching([0, 1], nbrs) == ({0: 0}, [0, 1])
    # 5 takes right 0 greedily; 3 then augments along 3-0-5-1
    nbrs = {5: [0, 1], 3: [0], 8: [2]}.__getitem__
    assert _matching([5, 3, 8], nbrs) == ({0: 3, 1: 5, 2: 8}, None)
    assert _matching([], nbrs) == ({}, None)
    # 9 has no neighbour at all: the search reaches it alone
    nbrs = {4: [1], 9: []}.__getitem__
    assert _matching([4, 9], nbrs) == ({1: 4}, [9])


def _saturable(lefts, nbrs):
    """Whether some matching covers every vertex of lefts (brute force)."""
    rights = sorted({w for u in lefts for w in nbrs[u]})
    return any(all(w in nbrs[u] for u, w in zip(lefts, pick))
               for pick in itertools.permutations(rights, len(lefts)))


def test_matching_matches_brute_force():
    """On 3,000 seeded bipartite graphs: the matching uses edges, and it
    covers every left vertex exactly when brute force finds a matching
    that does; on a failure the reported Hall set is a sorted set of
    left vertices, one of them unmatched, whose neighbours number one
    fewer than it (Koenig), so brute force cannot saturate it."""
    rng = random.Random(29)
    verdicts = set()
    for _ in range(3000):
        left = rng.sample(range(8), rng.randint(0, 5))
        nbrs = {u: rng.sample(range(6), rng.randint(0, 3)) for u in left}
        match, hall = _matching(left, nbrs.__getitem__)
        assert all(w in nbrs[u] for w, u in match.items())
        assert len(set(match.values())) == len(match)
        assert (hall is None) == _saturable(left, nbrs)
        if hall is None:
            assert sorted(match.values()) == sorted(left)
        else:
            assert hall == sorted(set(hall)) and set(hall) <= set(left)
            assert not set(hall) <= set(match.values())
            reach = {w for u in hall for w in nbrs[u]}
            assert len(reach) < len(hall)
            assert len(reach) == len(hall) - 1
            assert not _saturable(hall, nbrs)
        verdicts.add(hall is None)
    assert verdicts == {True, False}


def test_is_complete_matches_degree_definition():
    """Counting edges and arcs agrees with "every vertex has degree
    n - 1" on every pog on <= 4 vertices and on 3,000 seeded random
    pogs on <= 12 vertices, a third of them with every pair adjacent."""
    rng = random.Random(37)
    pogs = [P for n in range(5) for P in all_pogs(n)]
    pogs += [random_pog(rng, rng.randint(0, 12), p_adj=rng.choice((0.5, 0.9, 1.0)))
             for _ in range(3000)]
    verdicts = {True: 0, False: 0}
    for P in pogs:
        want = all(len(a) == P.n - 1 for a in P.adj)
        assert _is_complete(P) == want, P
        verdicts[want] += 1
    assert min(verdicts.values()) >= 1000, verdicts


def test_verify_certificate_bridge():
    P = Pog.build(("a", "b"), edges=[("a", "b")])
    assert verify_certificate(P, Certificate("Bridge", {"edge": ["a", "b"]}))
    tri = Pog.build(("a", "b", "c"),
                    edges=[("a", "b"), ("b", "c"), ("a", "c")])
    assert not verify_certificate(
        tri, Certificate("Bridge", {"edge": ["a", "b"]}))


def test_verify_certificate_directed_cut():
    P = Pog.build(("a", "b", "c", "d"),
                  edges=[("b", "c"), ("c", "d")],
                  arcs=[("a", "b"), ("a", "d")])
    assert verify_certificate(P, Certificate("DirectedCut", {"side": ["a"]}))
    assert not verify_certificate(
        P, Certificate("DirectedCut", {"side": ["b"]}))


def test_verify_cell_cycle_outside_the_universal_cell():
    """A cell cycle verifies in a non-universal cell only: here the
    cyclic triangle a, b, c is a cell beside d, which also sees e."""
    cyc = [("a", "b"), ("b", "c"), ("c", "a")]
    cert = Certificate("DirectedCycle", {"cycle": ["a", "b", "c"],
                                         "location": {"kind": "cell"}})
    P = Pog.build(("a", "b", "c", "d", "e"), arcs=cyc,
                  edges=[("a", "d"), ("b", "d"), ("c", "d"), ("d", "e")])
    assert verify_certificate(P, cert)
    assert not verify_certificate(P.induced(range(4)), cert)
    assert not verify_certificate(Pog.build(("a", "b", "c"), arcs=cyc), cert)


def test_verify_certificate_rejects_garbage():
    P = Pog.build(("a", "b"), edges=[("a", "b")])
    assert not verify_certificate(P, Certificate("Bridge", {"edge": ["a"]}))
    assert not verify_certificate(P, Certificate("Nonsense", {}))
    assert not verify_certificate(
        P, Certificate("DirectedCycle", {"cycle": ["a", "zzz"]}))


def _hole_reference(G, ids):
    """The pairwise hole test: consecutive vertices adjacent, all other
    pairs not."""
    k = len(ids)
    return k >= 4 and len(set(ids)) == k and all(
        G.adjacent(ids[s], ids[t]) == (t - s == 1 or (s, t) == (0, k - 1))
        for s in range(k) for t in range(s + 1, k))


def test_verify_hole_certificate_matches_pairwise_check():
    # every graph on 5 vertices, every vertex sequence of length 3 to 5
    # that starts at its smallest vertex
    valid = 0
    for G in all_graphs(5):
        for k in (3, 4, 5):
            for ids in itertools.permutations(range(5), k):
                if ids[0] != min(ids):
                    continue
                cert = Certificate("NotChordal", {
                    "kind": "hole", "vertices": [G.names[v] for v in ids]})
                got = verify_certificate(G, cert)
                assert got == _hole_reference(G, ids), (G.edges, ids)
                valid += got
    assert valid > 0


def test_certificate_json_round_trip():
    c = Certificate("Bridge", {"edge": ["a", "b"]})
    c2 = Certificate.from_json(c.to_json())
    assert c2.tag == c.tag and c2.payload == c.payload
    with pytest.raises(ParseError):
        Certificate.from_json("{not json")
    with pytest.raises(ParseError):
        Certificate.from_json('{"payload": {}}')
    for payload in ('[1, 2]', '"ab"', 'null', '3'):
        with pytest.raises(ParseError):
            Certificate.from_json('{"tag": "Bridge", "payload": %s}' % payload)


# the fields of every record type of the package, in order
RECORD_FIELDS = {
    Pog: ("names", "edges", "arcs"),
    Ordering: ("kind", "seq"),
    Certificate: ("tag", "payload"),
    AuxGraph: ("names", "mode", "verts", "adj", "comp", "comp_members",
               "colours", "odd"),
    Representation: ("kind", "names", "spans", "modulus"),
    CnfFormula: ("n_vars", "clauses"),
    ReductionInstance: ("formula", "pog", "oriented", "name_map", "var_names",
                        "pos_names", "neg_names", "hub_names", "clause_slots"),
    MoonDecomposition: ("frame", "parts"),
}
# the record types with a dict field, which are not hashable
UNHASHABLE = {Certificate, ReductionInstance}


def _record_samples():
    """(type, field values) for one valid record of each type."""
    P = Pog.build("abcd", edges=[("a", "b"), ("b", "c"), ("c", "d")],
                  arcs=[("c", "a")])
    T = Pog.build("abc", arcs=[("a", "b"), ("b", "c"), ("c", "a")])
    built = {AuxGraph: build_aux(P),
             ReductionInstance: build_reduction(CnfFormula(3, ((1, -2, 3),))),
             MoonDecomposition: moon_decompose(T)}
    values = {Pog: (P.names, P.edges, P.arcs),
              Ordering: ("cyclic", (2, 0, 1)),
              Certificate: ("Bridge", {"edge": ["a", "b"]}),
              Representation: ("circular", ("a", "b"), ((0, 2), (3, 1)), 4),
              CnfFormula: (3, ((1, -2, 3),))}
    values.update((cls, tuple(getattr(r, f) for f in RECORD_FIELDS[cls]))
                  for cls, r in built.items())
    return [(cls, values[cls]) for cls in RECORD_FIELDS]


def test_records_construct_by_position_or_name():
    for cls, vals in _record_samples():
        fields = RECORD_FIELDS[cls]
        r = cls(*vals)
        assert all(getattr(r, f) is v for f, v in zip(fields, vals)), cls
        assert cls(**dict(zip(fields, vals))) == r
        assert cls(*vals[:1], **dict(zip(fields[1:], vals[1:]))) == r
        # one field too many, the first one missing, one given twice, one
        # unknown
        for bad_args, bad_kwargs in ((vals + (None,), {}),
                                     ((), dict(zip(fields[1:], vals[1:]))),
                                     (vals, {fields[0]: vals[0]}),
                                     (vals, {"bogus": 1})):
            with pytest.raises(TypeError):
                cls(*bad_args, **bad_kwargs)


def test_record_defaults():
    R = Representation("interval", ("a", "b"), ((0, 2), (1, 3)))
    assert R.modulus == 0
    assert R == Representation("interval", ("a", "b"), ((0, 2), (1, 3)), 0)
    c1, c2 = Certificate("X"), Certificate("X")
    assert c1.payload == {} and c1.payload is not c2.payload
    c1.payload["k"] = 1
    assert c2.payload == {} and Certificate("X").payload == {}
    assert Certificate(tag="X").payload == {}


def test_records_compare_by_fields_within_one_type():
    for cls, vals in _record_samples():
        a, b = cls(*vals), cls(*vals)
        assert a == b and not a != b, cls
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b) == hash(vals), cls
        # a type of another name with the same fields never compares equal
        twin = type("Twin", (pog_module._Record,),
                    {"__annotations__": dict.fromkeys(RECORD_FIELDS[cls], "object")})
        assert twin(*vals) != a and a != twin(*vals) and not twin(*vals) == a, cls
        assert a != vals and a != list(vals), cls
    P = Pog.build("abc", edges=[("a", "b")], arcs=[("b", "c")])
    Q = Pog(P.names, P.edges, P.arcs)
    P.adj, P.out_nbrs  # fill two cached views, which are not fields
    assert P == Q and hash(P) == hash(Q)
    assert P != Pog(P.names, P.edges, frozenset({(2, 1)}))
    assert Ordering("linear", (0, 1)) != Ordering("cyclic", (0, 1))


def test_record_repr_names_every_field():
    for cls, vals in _record_samples():
        want = "%s(%s)" % (cls.__name__, ", ".join(
            "%s=%r" % fv for fv in zip(RECORD_FIELDS[cls], vals)))
        assert repr(cls(*vals)) == want
    assert repr(Ordering("linear", (1, 0))) == "Ordering(kind='linear', seq=(1, 0))"
    assert repr(Certificate("X")) == "Certificate(tag='X', payload={})"


def test_records_are_immutable():
    for cls, vals in _record_samples():
        r = cls(*vals)
        for f, v in zip(RECORD_FIELDS[cls], vals):
            with pytest.raises(AttributeError):
                setattr(r, f, None)
            with pytest.raises(AttributeError):
                delattr(r, f)
            assert getattr(r, f) is v, (cls, f)
        with pytest.raises(AttributeError):
            r.extra = 1
        assert "extra" not in r.__dict__


def test_record_cached_views_fill():
    samples = dict(_record_samples())
    views = {Pog: ("index", "und_pairs", "adj", "out_nbrs", "in_nbrs",
                   "ug_components", "cells"),
             Ordering: ("pos",), Representation: ("index",), AuxGraph: ("vid",)}
    for cls, names in views.items():
        r = cls(*samples[cls])
        for name in names:
            first = getattr(r, name)
            assert r.__dict__[name] is first is getattr(r, name), (cls, name)
    assert Ordering("cyclic", (2, 0, 1)).pos == {2: 0, 0: 1, 1: 2}
    assert Representation("interval", ("a", "b"), ((0, 1), (2, 3))).index == {
        "a": 0, "b": 1}


def test_record_validation_errors():
    with pytest.raises(InvariantError):
        Pog(names=("a", "a"), edges=frozenset(), arcs=frozenset())
    with pytest.raises(InvariantError):
        Pog(("a", "b"), frozenset({(0, 2)}), frozenset())
    with pytest.raises(InvariantError):
        Ordering(kind="bogus", seq=(0,))
    with pytest.raises(RepresentationError):
        Representation("circular", ("a",), ((0, 1),))  # the default modulus 0
    with pytest.raises(RepresentationError):
        Representation(kind="interval", names=("a", "b"), spans=((0, 1),))
    with pytest.raises(RepresentationError):
        Representation("interval", ("a",), ((2, 1),))
    with pytest.raises(ParseError):
        CnfFormula(2, ((1, 2, 3),))
    with pytest.raises(ParseError):
        CnfFormula(n_vars=3, clauses=((1, 1, 2),))
    # the trusted constructor checks nothing and fills only the fields
    P = Pog._trusted(("a", "a"), frozenset(), frozenset({(0, 0)}))
    assert P.__dict__ == {"names": ("a", "a"), "edges": frozenset(),
                          "arcs": frozenset({(0, 0)})}


def test_library_input_errors():
    """Each library entry point refuses input outside its domain with
    the error it documents, before any work."""
    P = Pog.build(("a", "b", "c"), edges=[("a", "b")], arcs=[("b", "c")])
    cases = [
        (InvariantError, "bad arc", lambda: Pog(("a", "b"), frozenset(),
                                                frozenset({(0, 0)}))),
        (InvariantError, "unknown vertex 'z'",
         lambda: Pog.build(("a",), edges=[("a", "z")])),
        (InvariantError, "cannot orient non-edge a,c", lambda: P.orient([(0, 2)])),
        (InvariantError, "unoriented edge a,b", lambda: require_oriented(P)),
        (ValueError, "unknown ordering kind", lambda: check_ordering(
            P, Ordering("linear", (0, 1, 2)), "bogus")),
        (InvariantError, "does not cover", lambda: check_ordering(
            P, Ordering("linear", (0, 1)), "nice")),
        (ValueError, "unknown aux mode",
         lambda: aux_adjacent(P, (0, 1), (1, 2), "bogus")),
        (ParseError, "non-zero", lambda: CnfFormula(3, ((1, 0, 2),))),
        (ValueError, "k must be positive", lambda: is_k_arc_strong(
            Pog(("a",), frozenset(), frozenset()), 0)),
        (ValueError, "unknown gadget kind", lambda: hardness.gadget("bogus")),
        (ValueError, "kind must be interval or circular",
         lambda: representation_from_orientation(P.orient([(0, 1)]), "bogus")),
    ]
    for error, message, call in cases:
        with pytest.raises(error, match=message):
            call()


def test_import_generates_no_code():
    """A fresh `import pogc` loads neither dataclasses nor inspect, and
    runs no generated code: no exec, eval or compile of anything but a
    module file while the package imports.  The standard modules the
    package imports are imported first, so only the package is watched."""
    package = Path(pog_module.__file__).parent
    std = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                std.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                std.add(node.module)
    std -= {"__future__", "dataclasses"}
    script = """
import os, sys
for m in %r:
    __import__(m)
before = {"dataclasses", "inspect"} & set(sys.modules)
generated = []
def hook(event, args):
    if event in ("exec", "compile"):
        name = args[0].co_filename if event == "exec" else args[1]
        if not (isinstance(name, str) and (os.path.isfile(name)
                                           or name.startswith("<frozen "))):
            generated.append((event, name))
sys.addaudithook(hook)
import pogc
print(sorted(before), sorted({"dataclasses", "inspect"} & set(sys.modules)),
      generated)
""" % sorted(std)
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[] [] []\n"


def _strong_reference(P):
    """All-roots scan: the first root s missing some vertex, and the
    smallest vertex t it misses."""
    for s in range(P.n):
        seen, stack = {s}, [s]
        while stack:
            for w in P.out_nbrs[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) < P.n:
            t = min(set(range(P.n)) - seen)
            return (P.names[s], P.names[t])
    return None


def test_classify_strong_witness_matches_all_roots_scan():
    rng = random.Random(53)
    strong = 0
    for _ in range(3000):
        n = rng.randint(1, 9)
        P = random_pog(rng, n, p_adj=rng.choice((0.3, 0.6, 0.9)),
                       p_arc=rng.choice((0.7, 1.0)))
        rep = classify(P)
        want = _strong_reference(P)
        assert rep.witnesses.get("strong") == want, sorted(P.arcs)
        assert rep.strong == (want is None)
        strong += rep.strong
    assert strong > 100


def _pair_reference(P, members):
    for x in sorted(members):
        for y in sorted(members):
            if x < y and not P.adjacent(x, y):
                return x, y
    return None


def _eager_classify(P):
    """The one-pass classify that computed every property and witness on
    each call, kept as the reference for the lazy report."""
    wit = {}
    oriented = P.is_oriented()
    if not oriented:
        i, j = min(P.edges)
        wit["oriented"] = (P.names[i], P.names[j])

    tournament = oriented
    if oriented:
        pair = _pair_reference(P, range(P.n))
        if pair is not None:
            tournament = False
            wit["tournament"] = (P.names[pair[0]], P.names[pair[1]])
    else:
        wit["tournament"] = wit["oriented"]

    local_tournament = True
    for v in range(P.n):
        for side, members in (("out", P.out_nbrs[v]), ("in", P.in_nbrs[v])):
            pair = _pair_reference(P, members)
            if pair is not None:
                local_tournament = False
                wit["local_tournament"] = (
                    P.names[pair[0]], P.names[pair[1]], P.names[v], side)
                break
        if not local_tournament:
            break

    locally_transitive = local_tournament
    if not local_tournament:
        wit["locally_transitive"] = wit["local_tournament"]
    else:
        for v in range(P.n):
            for side, members in (("out", P.out_nbrs[v]), ("in", P.in_nbrs[v])):
                cyc = find_directed_cycle(P, within=members)
                if cyc is not None:
                    locally_transitive = False
                    wit["locally_transitive"] = (
                        tuple(P.names[x] for x in cyc), P.names[v], side)
                    break
            if not locally_transitive:
                break

    in_tournament = True
    for v in range(P.n):
        pair = _pair_reference(P, P.in_nbrs[v])
        if pair is not None:
            in_tournament = False
            wit["in_tournament"] = (P.names[pair[0]], P.names[pair[1]], P.names[v])
            break

    quasi_transitive = True
    for x, y in sorted(P.arcs):
        for z in sorted(P.out_nbrs[y]):
            if z != x and not P.adjacent(x, z):
                quasi_transitive = False
                wit["quasi_transitive"] = (P.names[x], P.names[y], P.names[z])
                break
        if not quasi_transitive:
            break

    cyc = find_directed_cycle(P)
    acyclic = cyc is None
    if not acyclic:
        wit["acyclic"] = tuple(P.names[x] for x in cyc)

    sw = _strong_reference(P)
    if sw is not None:
        wit["strong"] = sw

    return {"oriented": oriented, "tournament": tournament,
            "local_tournament": local_tournament,
            "locally_transitive": locally_transitive,
            "in_tournament": in_tournament,
            "quasi_transitive": quasi_transitive, "acyclic": acyclic,
            "strong": sw is None,
            "transitive_tournament": tournament and acyclic,
            "locally_transitive_tournament": tournament and locally_transitive,
            "acyclic_local_tournament": local_tournament and acyclic,
            "witnesses": wit}


def test_lazy_report_matches_eager_reference():
    rng = random.Random(61)
    pogs = [P for n in range(5) for P in all_pogs(n)]
    assert len(pogs) == 4166
    for _ in range(5000):
        pogs.append(random_pog(rng, rng.randint(5, 9),
                               p_adj=rng.choice((0.5, 0.8, 1.0)),
                               p_arc=rng.choice((0.7, 0.9, 1.0))))
    for P in pogs:
        want = _eager_classify(P)
        rep = classify(P)
        keys = list(want)
        rng.shuffle(keys)
        for key in keys:
            assert getattr(rep, key) == want[key], (key, P)
        assert list(rep.witnesses) == list(want["witnesses"])


def test_neighbourhood_checks_match_reference():
    """(cycle, v, side) equal to the cycle search on every hood, and the
    local tournament and in-tournament witnesses equal to the eager
    reference's: on every pog of at most 4 vertices, on random partial
    pogs of at most 10, and on planted 3-SAT reductions, oriented and by
    a random assignment."""
    rng = random.Random(71)
    small = [P for n in range(5) for P in all_pogs(n)]
    rand = [random_pog(rng, rng.randint(4, 10),
                       p_adj=rng.choice((0.6, 0.8, 1.0)),
                       p_arc=rng.choice((0.7, 0.9, 1.0))) for _ in range(1500)]
    reductions = []
    for _ in range(50):
        n = rng.randint(3, 8)
        R = build_reduction(planted_formula(rng, n, rng.randint(n, 2 * n))[0])
        guess = {i: rng.random() < 0.5 for i in range(1, n + 1)}
        reductions += [R.pog, R.oriented, orient_by_assignment(R, guess)]
    failing = {}
    for label, pogs in (("small", small), ("random", rand),
                        ("reduction", reductions)):
        failing[label] = 0
        for P in pogs:
            want = neighbourhood_cycle_reference(P)
            assert _neighbourhood_cycle(P) == want, P
            failing[label] += want is not None
            rep, eager = classify(P), _eager_classify(P)["witnesses"]
            for key in ("local_tournament", "in_tournament"):
                assert rep._witness(key) == eager.get(key), (key, P)
    assert failing["small"] >= 10 and failing["reduction"] >= 10
    assert failing["random"] >= len(rand) // 3


def test_report_reads_only_what_it_asks_for(monkeypatch):
    """Each check runs the cycle searches it needs and no more: the
    whole-graph search for acyclic, the hood peels for local
    transitivity, and a cycle walk only in the core of the first hood
    that fails, which is peeled once."""
    calls, peels, walks = [], [], []
    real = pog_module.find_directed_cycle
    real_core, real_walk = pog_module._cyclic_core, pog_module._core_cycle

    def counting(P, within=None):
        calls.append(within)
        return real(P, within)

    def peeling(P, S):
        peels.append(S)
        return real_core(P, S)

    def walking(P, core):
        walks.append(core)
        return real_walk(P, core)

    monkeypatch.setattr(pog_module, "find_directed_cycle", counting)
    monkeypatch.setattr(pog_module, "_cyclic_core", peeling)
    monkeypatch.setattr(pog_module, "_core_cycle", walking)
    # transitive tournament on 4 vertices: every check but strong passes
    T = Pog.build(names(4), arcs=[("v%d" % i, "v%d" % j)
                                  for i in range(4) for j in range(i + 1, 4)])
    rep = classify(T)
    assert rep.local_tournament and rep.tournament and rep.strong is False
    assert calls == [] and peels == []
    assert rep.acyclic and rep.acyclic  # the second read is cached
    assert calls == [None] and peels == [frozenset(range(4))]
    assert rep.locally_transitive_tournament  # no hood needs a cycle walk
    assert calls == [None] and walks == []
    assert peels[1:] == [frozenset({1, 2, 3}), frozenset({0, 1, 2})]
    assert rep.witnesses == {"strong": ("v1", "v0")}
    assert calls == [None] and len(peels) == 3
    # a tournament whose out-neighbourhood of v0 is a directed triangle:
    # the failing read peels that one hood once and walks its core
    C = Pog.build(names(4), arcs=[("v0", "v1"), ("v0", "v2"), ("v0", "v3"),
                                  ("v1", "v2"), ("v2", "v3"), ("v3", "v1")])
    calls.clear()
    peels.clear()
    assert not classify(C).locally_transitive_tournament
    assert calls == []
    assert peels == walks == [frozenset({1, 2, 3})]


def _imported_names(tree):
    """Every module, `module.name` and `name.attr` the syntax tree imports
    or reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from ("%s.%s" % (node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            yield "%s.%s" % (node.value.id, node.attr)


def test_only_pog_holds_search_queues():
    """BFS and heap-ordered searches live in graph's primitives: no other
    module of the package imports collections.deque or heapq."""
    queues = {"collections.deque", "heapq"}
    package = Path(pog_module.__file__).parent
    for path in sorted(package.glob("*.py")):
        used = queues & set(_imported_names(ast.parse(path.read_text())))
        assert used == (queues if path.name == "graph.py" else set()), path.name


LOWLINK_NAMES = {"low", "lowlink", "lowpt", "lowpoint", "lowpoints"}
# (module, name) pairs that hold a low... name but are no lowlink DFS
LOWLINK_ALLOWED = {("rounds.py", "low")}  # a rotation index


def _stored_names(tree):
    """Every name the syntax tree assigns, directly or through a subscript."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            node = node.value
        elif not isinstance(getattr(node, "ctx", None), ast.Store):
            continue
        if isinstance(node, ast.Name):
            yield node.id


def test_only_pog_holds_lowlink_dfs():
    """SCC and bridge searches share graph's one lowlink DFS: no other
    module of the package assigns a lowlink array."""
    package = Path(pog_module.__file__).parent
    for path in sorted(package.glob("*.py")):
        low = LOWLINK_NAMES & set(_stored_names(ast.parse(path.read_text())))
        if path.name == "graph.py":
            assert low, "graph.py lost its lowlink DFS"
        else:
            assert {(path.name, n) for n in low} <= LOWLINK_ALLOWED, path.name


def _raised_names(tree):
    """The name of every exception class the syntax tree raises."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id
            elif isinstance(exc, ast.Attribute):
                yield exc.attr


def test_only_hardness_raises_unsupported():
    """Exit 3 means a size guard or the one case hardness cannot yet
    settle: no other module of the package raises
    UnsupportedInstanceError, so no representation or completion code
    can give up on a valid instance unnoticed."""
    package = Path(pog_module.__file__).parent
    for path in sorted(package.glob("*.py")):
        raised = "UnsupportedInstanceError" in set(
            _raised_names(ast.parse(path.read_text())))
        assert raised == (path.name == "hardness.py"), path.name


def test_package_imports_form_a_dag():
    """No function body of the package imports; the top-level imports
    between its modules form an acyclic graph; and graph.py imports
    nothing from the package but errors."""
    package = Path(pog_module.__file__).parent
    deps = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [node.lineno for node in ast.walk(fn)
                         if isinstance(node, (ast.Import, ast.ImportFrom))]
                assert not inner, (path.name, fn.name, inner)
        deps[path.stem] = {node.module.split(".")[0] for node in ast.walk(tree)
                           if isinstance(node, ast.ImportFrom) and node.level}
    assert deps["graph"] <= {"errors"}, deps["graph"]
    done = set()
    while len(done) < len(deps):  # peel the modules whose imports are peeled
        ready = {m for m, d in deps.items() if m not in done and d <= done}
        assert ready, "import cycle among %s" % sorted(set(deps) - done)
        done |= ready


def _worklist_loops(tree):
    """The name x of every `while x:` loop in the syntax tree whose body
    pops x: the shape of a DFS or BFS worklist."""
    for node in ast.walk(tree):
        if isinstance(node, ast.While) and isinstance(node.test, ast.Name):
            x = node.test.id
            if any(isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute)
                   and c.func.attr in ("pop", "popleft")
                   and isinstance(c.func.value, ast.Name)
                   and c.func.value.id == x for c in ast.walk(node)):
                yield x


def test_only_pog_runs_search_loops():
    """DFS, BFS and augmenting-path searches run in graph's primitives:
    no other module of the package has a `while x:` loop that pops x."""
    package = Path(pog_module.__file__).parent
    for path in sorted(package.glob("*.py")):
        loops = set(_worklist_loops(ast.parse(path.read_text())))
        if path.name == "graph.py":
            assert loops, "graph.py lost its search loops"
        else:
            assert loops == set(), path.name
