"""Mutation check: every listed mutant must make its named test fail.

Standard library only; the tests run under pytest.  From the repository root:

    python3 bench/mutants.py              # run every mutant
    python3 bench/mutants.py --list       # list the mutants
    python3 bench/mutants.py NAME ...     # run the named mutants

A mutant is a text edit of one file under `src/`: the old text, which
must occur in the file exactly once, and the text that replaces it.
For each mutant, `src/`, `tests/` and `pyproject.toml` are copied to a
temporary directory, the edit is made there and the mutant's test is
run there with pytest, so the checkout itself is never edited.  Each
named test is first run once on the unmutated copy and must pass.  A
mutant is killed when its test fails, survives when it passes, and is
an error when the old text is not found once or pytest does not run
the test (exit status other than 0 or 1), and a timeout when the test
has not finished after TIMEOUT_S seconds; pytest is then stopped.  The
exit status is 0 when every mutant run was killed, 1 otherwise.  This is a check of the
tests, not one of them: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# seconds one test run may take, mutated or not; no named test takes
# 10 s on a 2-vCPU host, so a run this long is a mutant's hang
TIMEOUT_S = 300

AUX = "tests/test_auxgraph.py::test_one_pass_labels_match_two_pass_reference"
HOODS = "tests/test_pog.py::test_neighbourhood_checks_match_reference"
LBFS = "tests/test_interval.py::test_lbfs_matches_reference"
WITNESSES = "tests/test_pog.py::test_derived_pogs_never_inherit_witnesses"
ROWS = "tests/test_interval.py::test_row_pass_matches_pairwise_reference"
PARSE = "tests/test_pog.py::test_parse_matches_reference_parser"
LAYOUT = "tests/test_pog.py::test_parse_layout_texts_match_reference_parser"
RENDERED = "tests/test_pog.py::test_rendered_pogs_read_column_wise"
NICE = "tests/test_rounds.py::test_nice_matches_per_arc_reference"
RULE = "tests/test_rounds.py::test_round_tournament_follows_the_rule"
IFF_EXCELLENT = "tests/test_rounds.py::test_round_tournament_iff_excellent_random"
SPANS = "tests/test_rounds.py::test_excellent_matches_reference_random"
CYCLE_FACTOR = ("tests/test_completions.py::"
                "test_cycle_factor_completion_matches_enumeration_reference")
HALL = "tests/test_cli.py::test_verify_cert_hostile_hall_sets"
STRONG = "tests/test_completions.py::test_strong_matches_orient_and_scc_loop"
HOLE = "tests/test_interval.py::test_find_hole_matches_pairwise_search"
IN_TOURNAMENT = ("tests/test_completions.py::"
                 "test_in_tournament_matches_clause_reference")
CYCLE = "tests/test_pog.py::test_directed_cycle_matches_dfs_reference"
BAD_TRIPLE = "tests/test_friendly.py::test_bad_triple_check_matches_aux_labels"
MATCHING = ("tests/test_completions.py::"
            "test_matching_matches_bfs_path_reference")
RECORD_EQ = "tests/test_pog.py::test_records_compare_by_fields_within_one_type"
RECORD_DEFAULTS = "tests/test_pog.py::test_record_defaults"
RECORD_IMMUTABLE = "tests/test_pog.py::test_records_are_immutable"
OBSTRUCTIONS = "tests/test_cli.py::test_verify_cert_hostile_obstructions"
WALKS = "tests/test_cli.py::test_verify_cert_hostile_aux_walks"
SHAPES = "tests/test_cli.py::test_verify_cert_hostile_shapes"
ROW_NO = "tests/test_classes.py::test_a_certificate_outside_its_row_exits_4"
ROW_YES = "tests/test_classes.py::test_a_yes_outside_its_class_exits_4"
ARC_PAIRS = ("tests/test_friendly.py::"
             "test_bad_triples_from_arc_pairs_match_the_triangle_scan")
CHECKED_ONCE = "tests/test_rounds.py::test_round_to_ltt_checks_the_tournament_once"
CLASS_CHECKS = "tests/test_interval.py::test_class_checks_match_the_classify_rule"
SATURATE = "tests/test_rounds.py::test_saturate_matches_the_span_scan_reference"
MOON = "tests/test_rounds.py::test_moon_and_merge_match_reference_random"

# the class a split creates placed before its old class, as LBFS needs,
# and after it
SPLIT_BEFORE = """\
                d = split[c] = len(members)
                p = prev[c]
                members.append([])
                prev.append(p)
                nxt.append(c)
                prev[c] = d
                if p >= 0:
                    nxt[p] = d
                if c == head:
                    head = d
"""
SPLIT_AFTER = """\
                d = split[c] = len(members)
                p = nxt[c]
                members.append([])
                prev.append(c)
                nxt.append(p)
                nxt[c] = d
                if p >= 0:
                    prev[p] = d
"""
# each bisection of interval._cover_counts flipped between left and right
COVER_FLIPS = [
    ("c = bisect_right(starts, r) - bisect_left(starts, l)",
     "c = bisect_left(starts, r) - bisect_left(starts, l)"),
    ("c = bisect_right(starts, r) - bisect_left(starts, l)",
     "c = bisect_right(starts, r) - bisect_right(starts, l)"),
    ("c = n - bisect_left(starts, l) + bisect_right(starts, r)",
     "c = n - bisect_right(starts, l) + bisect_right(starts, r)"),
    ("c = n - bisect_left(starts, l) + bisect_right(starts, r)",
     "c = n - bisect_left(starts, l) + bisect_left(starts, r)"),
    ("stab.append(bisect_right(flat_l, l)", "stab.append(bisect_left(flat_l, l)"),
    ("- bisect_left(flat_r, l)", "- bisect_right(flat_r, l)"),
    ("+ bisect_right(wrap_l, l)", "+ bisect_left(wrap_l, l)"),
    ("nw - bisect_left(wrap_r, l)", "nw - bisect_right(wrap_r, l)"),
]

MUTANTS = [  # (name, file under src/, old text, new text, test id)
    ("aux-rev-counter-not-advanced", "pogc/auxgraph.py",
     "            at[v] += 1\n", "            at[v] += 0\n", AUX),
    ("aux-link-modes-swapped", "pogc/auxgraph.py",
     "rev[y]) if lt else", "rev[y]) if not lt else", AUX),
    ("aux-adjacency-sort-dropped", "pogc/auxgraph.py",
     "    for nbrs in adj:\n        nbrs.sort()\n",
     "    for nbrs in adj:\n        pass\n", AUX),
    ("trusted-shares-out-nbrs", "pogc/pog.py",
     '"_aux"})', '"_aux", "out_nbrs"})',
     "tests/test_pog.py::test_derived_pogs_share_underlying_graph_views"),
    # each leaf keeps its input's open edges, as a pog built like the
    # input would
    ("excellent-leaves-like-input", "pogc/hardness.py",
     "P.names, frozenset(),\n                             P.arcs | frozenset(chosen)",
     "P.names, P.edges,\n                             P.arcs | frozenset(chosen)",
     "tests/test_hardness.py::test_exact_excellent_vs_brute_force"),
    ("tournament-degree-off-by-one", "pogc/pog.py",
     "len(P.arcs) == P.n * (P.n - 1) // 2",
     "len(P.arcs) >= P.n * (P.n - 1) // 2 - 1",
     "tests/test_pog.py::test_lazy_report_matches_eager_reference"),
    ("hoods-skipped-below-4", "pogc/pog.py",
     "if len(hood) > 2 and (core := _cyclic_core(P, hood)):",
     "if len(hood) > 3 and (core := _cyclic_core(P, hood)):", HOODS),
    ("hood-in-side-dropped", "pogc/pog.py",
     "if len(hood) > 2 and (core := _cyclic_core(P, hood)):",
     'if side == "out" and len(hood) > 2 and (core := _cyclic_core(P, hood)):',
     HOODS),
    ("clique-test-loosened", "pogc/pog.py",
     "    k = len(S) - 1\n    return all(len(P.adj[x] & S) == k for x in S)",
     "    k = len(S) - 2\n    return all(len(P.adj[x] & S) >= k for x in S)",
     HOODS),
    # the count starts one short, so a vertex goes one successor early;
    # the test "d <= 1" instead re-appends a vertex whose count runs
    # below zero, and the peel then never ends on a hood where a cycle
    # hangs above a sink
    ("peeled-one-successor-early", "pogc/pog.py",
     "                d = len(out[u] & S)\n",
     "                d = len(out[u] & S) - 1\n", HOODS),
    ("core-returned-before-peeling-ends", "pogc/pog.py",
     "    for v in peeled:  # grows while it is read\n",
     "    for v in list(peeled):\n", CYCLE),
    ("cycle-walk-leaves-core", "pogc/pog.py",
     "        v = min(out[v] & core)\n", "        v = min(out[v])\n", CYCLE),
    ("forbidden-cycle-cells-skipped", "pogc/friendly.py",
     "if k == universal or len(cell) < 2:\n            continue\n        order",
     "if True:\n            continue\n        order",
     "tests/test_friendly.py::test_forbidden_cycle_matches_reference"),
    # the first side of a complement component read as the red class,
    # not as the class of its first vertex
    ("complement-sides-by-red", "pogc/friendly.py",
     "if c == col[0]),\n                      tuple(x for x, c in zip(C, col) if c != col[0])",
     "if c == 0),\n                      tuple(x for x, c in zip(C, col) if c != 0)",
     "tests/test_friendly.py::test_bipartition_and_bad_triples_match_their_old_loops"),
    ("circular-cell-cycle-not-returned", "pogc/friendly.py",
     "        if isinstance(P1, Certificate):\n            return P1\n        P2 = ",
     "        P2 = ", "tests/test_cli.py::test_extend_rep_circular_cell_cycle"),
    ("aux-view-shared-with-induced", "pogc/pog.py",
     "        return Pog._trusted(tuple(self.names[v] for v in keep), e, a)\n",
     "        Q = Pog._trusted(tuple(self.names[v] for v in keep), e, a)\n"
     "        if \"_aux\" in self.__dict__:\n"
     "            Q.__dict__[\"_aux\"] = self.__dict__[\"_aux\"]\n"
     "        return Q\n",
     "tests/test_auxgraph.py::"
     "test_aux_view_shared_only_with_the_same_underlying_graph"),
    ("aux-view-holds-pog", "pogc/auxgraph.py",
     'views = P.__dict__.setdefault("_aux", {})',
     'views = P.__dict__.setdefault("_aux", {"pog": P})',
     "tests/test_auxgraph.py::"
     "test_pog_freed_by_reference_counting_after_build_aux"),
    ("lbfs-split-after-old-class", "pogc/graph.py", SPLIT_BEFORE, SPLIT_AFTER, LBFS),
    ("lbfs-quiet-preference-dropped", "pogc/graph.py",
     "            if q:\n                v = heapq.heappop(q)",
     "            if False:\n                v = heapq.heappop(q)", LBFS),
    ("lbfs-largest-index-first", "pogc/graph.py",
     "            ms.sort()\n", "            ms.sort(reverse=True)\n", LBFS),
    ("trusted-shares-witnesses", "pogc/pog.py",
     "if k in _UG_VIEWS)", 'if k in _UG_VIEWS or k == "_witnesses")', WITNESSES),
    ("induced-shares-cells", "pogc/pog.py",
     "        return Pog._trusted(tuple(self.names[v] for v in keep), e, a)\n",
     "        Q = Pog._trusted(tuple(self.names[v] for v in keep), e, a)\n"
     "        Q.__dict__.update((k, v) for k, v in self.__dict__.items() if k == 'cells')\n"
     "        return Q\n", WITNESSES),
] + [
    ("cover-bisect-flip-%d" % (k + 1), "pogc/interval.py", old, new, ROWS)
    for k, (old, new) in enumerate(COVER_FLIPS)
] + [
    ("row-cov-correction-dropped", "pogc/interval.py",
     "            cov[m] -= mk\n", "", ROWS),
    ("row-stab-correction-dropped", "pogc/interval.py",
     "            stab[m] -= km\n", "", ROWS),
    ("row-both-corrections-dropped", "pogc/interval.py",
     "            cov[m] -= mk\n            stab[m] -= km\n", "", ROWS),
    ("parse-edge-not-normalised", "pogc/pog.py",
     "edges.append((u, v) if u < v else (v, u))", "edges.append((u, v))", PARSE),
    ("parse-second-name-unchecked", "pogc/pog.py",
     "                if not match(b):\n"
     "                    raise ParseError(\"bad vertex name %.60r\" % b, ln)\n", "", PARSE),
    ("parse-comment-cut-keeps-hash", "pogc/pog.py",
     'line = line[:line.index("#")]', 'line = line[:line.index("#") + 1]', PARSE),
    ("bulk-pairs-end-unanchored", "pogc/pog.py", r'%s\n)*\Z"', r'%s\n)*"', LAYOUT),
    ("bulk-loop-test-dropped", "pogc/pog.py",
     "    if any(map(eq, us, vs)):\n        return None\n", "", LAYOUT),
    ("bulk-two-cycle-test-dropped", "pogc/pog.py",
     "not arcs.isdisjoint(zip(av, au)) or ", "", LAYOUT),
    ("bulk-clash-test-one-way", "pogc/pog.py",
     "edges.isdisjoint(arcs) and edges.isdisjoint(zip(av, au))",
     "edges.isdisjoint(arcs)", LAYOUT),
    ("bulk-repeated-declaration-kept", "pogc/pog.py",
     "    if len(idx) != len(names):\n        return None\n", "", LAYOUT),
    ("bulk-edge-not-normalised", "pogc/pog.py",
     "frozenset([(u, v) if u < v else (v, u)", "frozenset([(u, v)", LAYOUT),
    ("render-key-transposed", "pogc/pog.py",
     "i * n + j for i, j in pairs", "j * n + i for i, j in pairs", RENDERED),
    ("nice-wrap-branch-dropped", "pogc/rounds.py",
     "        if b < a and at and at[0] < b:  # the interval wraps past the end\n"
     "            x = 0\n", "", NICE),
    ("nice-wrap-condition-dropped", "pogc/rounds.py",
     "if x < len(at) and (at[x] < b or b < a):", "if x < len(at) and at[x] < b:", NICE),
    ("nice-bisection-dropped", "pogc/rounds.py",
     "x = bisect_right(at, a)", "x = 0", NICE),
    ("round-tournament-local-import", "pogc/rounds.py",
     "    far = _furthest_heads(P, O, P.arcs)\n",
     "    from .errors import InvariantError\n    far = _furthest_heads(P, O, P.arcs)\n",
     "tests/test_pog.py::test_package_imports_form_a_dag"),
    ("round-tournament-tie-both-ways", "pogc/rounds.py",
     "if i < n // 2 else", "if i <= n // 2 else", RULE),
    # `forced > x - i` is an equivalent mutant: where arc (s, t) runs
    # backwards in arc a's span, f(i) > d0(i) at i = t, or at i = s when
    # s is a's head, so some position conflicts strictly
    ("round-tournament-no-conflict", "pogc/rounds.py",
     "        if forced >= x - i:\n            return None\n", "", IFF_EXCELLENT),
    ("excellent-running-max-dropped", "pogc/rounds.py",
     "    return list(accumulate(far, max))\n", "    return far\n", SPANS),
    ("relaxation-edges-one-way", "pogc/completions.py",
     "        succ[i].add(j)\n        succ[j].add(i)\n",
     "        succ[i].add(j)\n", CYCLE_FACTOR),
    # the matching refutes only at the root and at the leaves: the
    # search tries every orientation, 2^20 on the disjoint edges
    ("cycle-factor-prune-dropped", "pogc/completions.py",
     "        if hall is not None or not k:\n",
     "        if not k or hall is not None and k == len(edges):\n",
     "tests/test_cli.py::test_cycle_factor_disjoint_edges_are_exhausted_fast"),
    # each edge tried backwards first: a completion still, but not the
    # first in mask order
    ("cycle-factor-reverse-first", "pogc/completions.py",
     "(edges[k - 1], edges[k - 1][::-1])", "(edges[k - 1][::-1], edges[k - 1])",
     CYCLE_FACTOR),
    ("in-tournament-arc-successor-dropped", "pogc/completions.py",
     "        out = [k ^ 1] if (q, p) in arcs else []\n",
     "        out = []\n", IN_TOURNAMENT),
    ("in-tournament-successor-back-to-p", "pogc/completions.py",
     "sorted(adj[q] - adj[p]) if y != p]", "sorted(adj[q] - adj[p])]",
     IN_TOURNAMENT),
    ("implication-step-near-p-accepted", "pogc/verify.py",
     " and P.adjacent(q, y) and not P.adjacent(p, y)", " and P.adjacent(q, y)",
     IN_TOURNAMENT),
    ("bad-triple-one-search-run-out", "pogc/verify.py",
     "        while len(searches) > 1:\n", "        while len(searches) > 2:\n",
     BAD_TRIPLE),
    ("bad-triple-candidates-unfiltered", "pogc/verify.py",
     "if q not in seen and aux_adjacent(P, (u, v), q):", "if q not in seen:",
     BAD_TRIPLE),
    ("hall-verifier-allows-equal", "pogc/verify.py",
     "return len(succ) < len(S)", "return len(succ) <= len(S)", HALL),
    ("hall-verifier-one-edge-end", "pogc/verify.py",
     "        if v in S:\n            succ.add(u)\n", "", HALL),
    ("hall-set-from-right-vertices", "pogc/graph.py",
     "    return reached\n", "    return list(par)\n",
     "tests/test_pog.py::test_matching_matches_brute_force"),
    # the flip matches the free right vertex and stops: the left vertex
    # before it keeps its old right vertex too, and u stays free
    ("augment-via-step-dropped", "pogc/graph.py",
     "match[w], w = x, via[x]", "match[w], w = x, None", MATCHING),
    # a matched right vertex found ends the search as a free one would
    ("augment-at-matched-right-vertex", "pogc/graph.py",
     "            par[w] = x\n            if w not in match:\n",
     "            par[w] = x\n            if True:\n", MATCHING),
    # each left vertex scans its right vertices last first: every path
    # still augments, but not the one the reference search finds
    ("augment-scans-backwards", "pogc/graph.py",
     "        for w in nbrs(x):\n            if w in par:",
     "        for w in reversed(list(nbrs(x))):\n            if w in par:",
     MATCHING),
    ("strong-back-edges-downwards", "pogc/completions.py",
     "        down = parent[v] == u and (u, v) not in turned\n",
     "        down = (u, v) not in turned\n", STRONG),
    ("strong-cut-edges-not-turned", "pogc/completions.py",
     "        down = parent[v] == u and (u, v) not in turned\n",
     "        down = parent[v] == u\n", STRONG),
    ("strong-bridge-interval-end-inclusive", "pogc/completions.py",
     "hi[v] < num[v] + size[v]", "hi[v] <= num[v] + size[v]", STRONG),
    ("strong-bridge-lo-test-dropped", "pogc/completions.py",
     "if lo[v] >= num[v] and hi[v]", "if hi[v]", STRONG),
    ("strong-bridge-tails-not-summed", "pogc/completions.py",
     "            lo[p], hi[p] = min(lo[p], lo[v]), max(hi[p], hi[v])\n", "",
     STRONG),
    ("strong-cut-side-last-closed", "pogc/completions.py",
     "first = next(c for c in comp if c not in entered)", "first = max(comp)",
     STRONG),
    # a vertex in cut under an edge closes its component, so later arcs
    # into its subtree no longer count as ways back
    ("lowlink-cut-under-edge-closes", "pogc/graph.py",
     "                if back < 0:\n", "                if True:\n", STRONG),
    # a search of G - N[x] from a neighbour of x, for every vertex x,
    # before the tent search: quadratic on the band beside the tent
    ("chordal-site-searches-holes", "pogc/interval.py",
     "        tent = _find_tent(P)\n",
     "        for x in range(P.n):\n"
     "            closed = P.adj[x] | {x}\n"
     "            bfs_path(lambda a: [b for b in P.adj[a] if b not in closed],\n"
     "                     min(P.adj[x], default=x), -1)\n"
     "        tent = _find_tent(P)\n",
     "tests/test_interval.py::test_tent_beside_a_band_is_refuted_fast"),
    ("hole-search-bans-only-v", "pogc/interval.py",
     "    banned = (G.adj[v] | {v}) - {u, w}\n", "    banned = {v}\n", HOLE),
    # the record helper: equality across record types with the same
    # fields, one default payload shared by every certificate, and
    # fields that can be assigned or deleted
    ("record-eq-ignores-class", "pogc/pog.py",
     "        if other.__class__ is not self.__class__:\n",
     "        if not isinstance(other, _Record):\n", RECORD_EQ),
    ("record-default-made-once", "pogc/pog.py",
     "        self.make = make\n",
     "        made = make()\n        self.make = lambda: made\n", RECORD_DEFAULTS),
    ("record-field-assignable", "pogc/pog.py",
     '        raise AttributeError("cannot assign to field %r" % name)\n',
     "        object.__setattr__(self, name, value)\n", RECORD_IMMUTABLE),
    ("record-field-deletable", "pogc/pog.py",
     '        raise AttributeError("cannot delete field %r" % name)\n',
     "        object.__delattr__(self, name)\n", RECORD_IMMUTABLE),
    # the verifier's checks that no other check of the same tag repeats
    ("non-adjacent-pair-may-be-adjacent", "pogc/verify.py",
     "            and not P.adjacent(ids[0], ids[1])\n", "\n", OBSTRUCTIONS),
    ("bridge-may-be-a-non-edge", "pogc/verify.py",
     "len(ids) != 2 or not P.adjacent(ids[0], ids[1]):",
     "len(ids) != 2:", OBSTRUCTIONS),
    ("directed-cut-side-may-be-empty", "pogc/verify.py",
     "if ids is None or not ids or len(set(ids))", "if ids is None or len(set(ids))",
     OBSTRUCTIONS),
    ("non-adjacent-pair-tested-on-one-vertex", "pogc/verify.py",
     "and not P.adjacent(ids[0], ids[1])", "and not P.adjacent(ids[0], ids[0])",
     OBSTRUCTIONS),
    ("directed-cut-side-may-be-everything", "pogc/verify.py",
     "        if len(side) >= P.n:\n", "        if len(side) > P.n:\n", OBSTRUCTIONS),
    ("walk-pairs-may-be-apart", "pogc/verify.py",
     "            if not P.adjacent(u, v):\n                return False\n",
     "            pass\n", WALKS),
    ("walk-steps-may-skip", "pogc/verify.py",
     "            if not aux_adjacent(P, a, b, mode):\n", "            if False:\n", WALKS),
    ("odd-walk-may-be-open", "pogc/verify.py",
     "return walk[0] == walk[-1] and len(walk) % 2 == 0", "return len(walk) % 2 == 0",
     WALKS),
    ("odd-walk-may-be-even", "pogc/verify.py",
     "walk[0] == walk[-1] and len(walk) % 2 == 0 and", "walk[0] == walk[-1] and", WALKS),
    ("conflict-may-start-off-the-arcs", "pogc/verify.py",
     "        if walk[0] not in P.arcs:\n", "        if False:\n", WALKS),
    ("conflict-may-end-off-the-arcs", "pogc/verify.py",
     "return walk[-1] in P.arcs and steps % 2 == 1", "return steps % 2 == 1", WALKS),
    ("odd-pair-parity-dropped", "pogc/verify.py",
     "return walk[-1] in P.arcs and steps % 2 == 1", "return walk[-1] in P.arcs", WALKS),
    ("mate-parity-dropped", "pogc/verify.py",
     "in P.edges and steps % 2 == 0\n", "in P.edges\n", WALKS),
    ("conflict-kind-unknown-accepted", "pogc/verify.py",
     "in P.edges and steps % 2 == 0\n        return False\n",
     "in P.edges and steps % 2 == 0\n        return True\n", WALKS),
    # guards that alone reject a certificate of the right shape
    ("closure-cycle-on-failed-closure", "pogc/verify.py",
     "            if isinstance(host, Certificate):\n                return False\n",
     "            if isinstance(host, Certificate):\n                return True\n", SHAPES),
    ("cell-neighbourhoods-may-differ", "pogc/verify.py",
     "            if any(nb != ref for nb in closed.values()):\n                return False\n",
     "            if any(nb != ref for nb in closed.values()):\n                return True\n",
     SHAPES),
    ("cycle-location-unknown-accepted", "pogc/verify.py",
     "universal cell\n        return False\n", "universal cell\n        return True\n",
     SHAPES),
    ("bad-triple-on-a-non-edge", "pogc/verify.py",
     "for p in pairs):\n            return False\n", "for p in pairs):\n            return True\n",
     SHAPES),
    ("bad-triple-arc-count-unchecked", "pogc/verify.py",
     "        if oriented != 2:\n            return False\n",
     "        if oriented != 2:\n            return True\n", SHAPES),
    ("hole-below-four-accepted", "pogc/verify.py",
     "        if k < 4:\n            return False\n", "        if k < 4:\n            return True\n",
     SHAPES),
    ("tent-of-other-than-six", "pogc/verify.py",
     "        if len(ids) != 6:\n            return False\n",
     "        if len(ids) != 6:\n            return True\n", SHAPES),
    ("tent-triangle-unchecked", "pogc/verify.py",
     "adj(q[s], q[r]):\n                    return False\n",
     "adj(q[s], q[r]):\n                    return True\n", SHAPES),
    ("tent-attachments-unchecked", "pogc/verify.py",
     "% 3)):\n                    return False\n", "% 3)):\n                    return True\n",
     SHAPES),
    # the class table's check of every answer
    ("row-accepts-unlisted-triple", "pogc/classes.py",
     "            if triple(res) not in self.refutes | self.fragment:\n",
     "            if False:\n", ROW_NO),
    ("row-yes-check-skipped", "pogc/classes.py",
     "        elif hasattr(PropertyReport, self.yes):\n", "        elif False:\n", ROW_YES),
    ("row-orientedness-unchecked", "pogc/classes.py",
     "            if res.edges or not getattr", "            if not getattr", ROW_YES),
    ("row-arcs-kept-unchecked", "pogc/classes.py",
     "self.yes) \\\n                    or not P.arcs <= res.arcs:",
     "self.yes):", ROW_YES),
    # bad triples from pairs of arcs: both sides of a vertex, in
    # lexicographic order
    ("bad-triples-out-arcs-only", "pogc/friendly.py",
     "sorted(P.out_nbrs[v] | P.in_nbrs[v])", "sorted(P.out_nbrs[v])", ARC_PAIRS),
    ("bad-triples-in-vertex-order", "pogc/friendly.py",
     "    two_arcs = sorted(tuple(sorted((v, a, b)))",
     "    two_arcs = list(tuple(sorted((v, a, b)))", ARC_PAIRS),
    # the round constructions: the merged tournament's one self-check,
    # the source that makes a round component acyclic, and the runs of
    # twins, cells and saturation
    ("ltt-of-parts-unchecked", "pogc/rounds.py",
     '    _require_round(T, Ordering("cyclic", tuple(seq)), D.arcs, "completion")\n',
     "", CHECKED_ONCE),
    ("linear-order-without-a-source", "pogc/interval.py",
     "        if s is None:\n            raise NotInClassError(\"not an acyclic "
     "local tournament\")\n", "        if s is None:\n            s = 0\n",
     CLASS_CHECKS),
    ("moon-twin-off-by-one", "pogc/rounds.py",
     "runs[k - 1] != runs[k] + 1", "runs[k - 1] != runs[k]", MOON),
    ("cells-ahead-not-shifted", "pogc/rounds.py",
     "        ahead += len(cells[(c + h + 1) % q]) - len(cells[(c + 1) % q])\n", "",
     MOON),
    ("saturate-writes-k", "pogc/rounds.py",
     "[f for f, k in _excellent_spans(D, O)]", "[k for f, k in _excellent_spans(D, O)]",
     SATURATE),
]


def run_test(test, edit=None):
    """Run one test on a temporary copy of the checkout, with `edit`
    (path under src/, old text, new text) made there first.  Returns
    pytest's exit status and the last line of its output, "timeout" and
    a message when pytest runs longer than TIMEOUT_S, or None and a
    message when the old text does not occur exactly once."""
    with tempfile.TemporaryDirectory(prefix="pogc-mutant-") as tmp:
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tmp, part),
                            ignore=ignore)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        if edit is not None:
            path, old, new = edit
            target = os.path.join(tmp, "src", path)
            with open(target) as fh:
                text = fh.read()
            if text.count(old) != 1:
                return None, "old text found %d times in %s" % (text.count(old), path)
            with open(target, "w") as fh:
                fh.write(text.replace(old, new))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPATH", None)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 test], cwd=tmp, env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout", "no result within %d s" % TIMEOUT_S
    lines = (proc.stdout + proc.stderr).strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    ap.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = ap.parse_args(argv)
    known = {m[0]: m for m in MUTANTS}
    if args.list:
        for name, path, _, _, test in MUTANTS:
            print("%-32s %-18s %s" % (name, path, test))
        return 0
    unknown = [n for n in args.names if n not in known]
    if unknown:
        ap.error("unknown mutant(s): %s" % ", ".join(unknown))
    chosen = [known[n] for n in args.names] if args.names else MUTANTS
    bad = []
    for test in sorted({m[4] for m in chosen}):  # each test passes unmutated
        status, last = run_test(test)
        if status != 0:
            print("error: %s fails on the unmutated code: %s" % (test, last))
            return 1
    for name, path, old, new, test in chosen:
        t0 = perf_counter()
        status, last = run_test(test, (path, old, new))
        verdict = {0: "survived", 1: "killed", "timeout": "timeout"}.get(
            status, "error")
        print("%-32s %-8s %5.1f s  %s" % (name, verdict, perf_counter() - t0,
                                          last if verdict in ("error", "timeout")
                                          else test))
        if verdict != "killed":
            bad.append(name)
    print("%d of %d mutants killed%s" % (len(chosen) - len(bad), len(chosen),
                                        "; not killed: " + ", ".join(bad) if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
