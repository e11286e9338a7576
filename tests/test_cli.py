"""End-to-end command line tests: exit codes, certificates, JSON output."""

import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter

import pytest

from pogc import classes, cli
from pogc.classes import ROWS
from pogc.cli import run
from pogc.errors import InvariantError
from pogc.interval import (orientation_from_representation,
                           parse_representation, validate_representation)
from pogc.pog import Certificate, parse_pog, render_pog
from pogc.verify import verify_certificate
from util import random_pog, with_row

C4 = """\
v a
v b
v c
v d
edge a b
edge b c
edge c d
edge a d
"""

CLAW = """\
edge c x
edge c y
edge c z
"""

DIRECTED_C3 = """\
arc a b
arc b c
arc c a
"""

CNF = "p cnf 3 2\n1 2 -3 0\n-1 -2 3 0\n"


@pytest.fixture
def w(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


# -- complete ---------------------------------------------------------------


def test_complete_lt_success(w, capsys):
    assert run(["complete", "--class", "lt", w("g", C4)]) == 0
    out = capsys.readouterr().out
    D = parse_pog(out)
    assert D.is_oriented() and D.n == 4


def test_complete_lt_claw_refuted(w, capsys):
    f = w("g", CLAW)
    assert run(["complete", "--class", "lt", f]) == 1
    cert = Certificate.from_json(capsys.readouterr().out)
    assert verify_certificate(parse_pog(CLAW), cert)


def test_complete_json_schema(w, capsys):
    assert run(["complete", "--class", "acyclic-lt", "--json",
                w("g", "edge a b\nedge b c\n")]) == 0
    obj = _json_out(capsys)
    assert obj["status"] == "completed"
    assert sorted(obj) == ["arcs", "class", "status"]
    assert all(len(a) == 2 for a in obj["arcs"])


def test_complete_every_class_refusal_verifies(w, capsys):
    # each completer's "no" must carry a checkable certificate
    cases = {
        "lt": CLAW,
        "acyclic-lt": C4,
        "ltlt-friendly": CLAW,
        "transitive": DIRECTED_C3,
        "in-tournament": "arc x c\narc y c\nedge c z\n",
        "quasi-transitive": "arc a b\narc b c\n",
        "strong": "edge a b\n",
        "cycle-factor": "edge a b\nv c\n",
    }
    for cls, text in cases.items():
        f = w("g_" + cls, text)
        assert run(["complete", "--class", cls, f]) == 1, cls
        cert = Certificate.from_json(capsys.readouterr().out)
        assert verify_certificate(parse_pog(text), cert), cls


def test_complete_ltt_exact(w, capsys):
    full = ("edge a b\nedge a c\nedge b c\n")
    assert run(["complete", "--class", "ltt-exact", w("g", full)]) == 0
    D = parse_pog(capsys.readouterr().out)
    assert len(D.arcs) == 3


def test_complete_parse_error(w, capsys):
    assert run(["complete", "--class", "lt", w("g", "edge a\n")]) == 2
    assert "error:" in capsys.readouterr().err


def test_complete_missing_file(capsys):
    assert run(["complete", "--class", "lt", "/nonexistent"]) == 2


def test_complete_size_guard(w, capsys):
    n = 12
    lines = ["edge v%d v%d" % (i, j)
             for i in range(n) for j in range(i + 1, n)]
    f = w("g", "\n".join(lines) + "\n")
    assert run(["complete", "--class", "ltt-exact", f]) == 3
    assert capsys.readouterr().err == ("unsupported: MAX_SEARCH_EDGES: instance "
                                       "has 66 unoriented edges, limit is 22\n")
    assert run(["complete", "--class", "cycle-factor", f]) == 3
    assert capsys.readouterr().err == (
        "unsupported: MAX_CYCLE_FACTOR_EDGES: instance has 66 unoriented "
        "edges, limit is 20\n")


def test_complete_cycle_factor_long_augmenting_path(w, capsys):
    # arcs i -> i+1, i -> i+2 and v2999 -> v1, declared in path order:
    # the matching search augments along a path of ~3,000 in-copies
    n = 3000
    arcs = ([(i, i + 1) for i in range(n - 1)]
            + [(i, i + 2) for i in range(n - 2)] + [(n - 1, 1)])
    decl = "".join("v v%d\n" % i for i in range(n))
    no_factor = decl + "".join("arc v%d v%d\n" % a for a in arcs)
    factor = no_factor + "arc v%d v0\n" % (n - 2)
    assert run(["complete", "--class", "cycle-factor", w("f", factor)]) == 0
    D = parse_pog(capsys.readouterr().out)
    assert D.n == n and D.arcs == parse_pog(factor).arcs
    assert run(["complete", "--class", "cycle-factor", w("g", no_factor)]) == 1
    cert = Certificate.from_json(capsys.readouterr().out)
    assert verify_certificate(parse_pog(no_factor), cert)


def test_cycle_factor_star_is_refuted_fast(w, capsys):
    # the k-leaf star: every leaf's only possible successor is the hub,
    # so the relaxation has no perfect matching.  Trying all 2^k
    # orientations took 7.4 s per call at k = 20, and k = 24 hit the
    # edge guard; the Hall set refutes both without a search
    for k in (20, 24):
        g = w("g", "".join("edge h l%d\n" % t for t in range(k)))
        t0 = time.perf_counter()
        assert run(["complete", "--class", "cycle-factor", g]) == 1
        cert = capsys.readouterr().out
        assert Certificate.from_json(cert).payload["kind"] == "hall"
        assert run(["verify-cert", g, w("cert", cert)]) == 0
        assert time.perf_counter() - t0 < 2, k
        assert capsys.readouterr().out.strip() == "valid"


def test_cycle_factor_disjoint_edges_are_exhausted_fast(w, capsys):
    # 20 disjoint edges: the relaxation matches each edge's ends to each
    # other, but every orientation leaves a vertex with no successor.
    # Trying all 2^20 orientations took about 18 s for complete and
    # again for verify-cert; the matching at each branch prunes both
    # orientations of the first edge the search orients
    g = w("g", "".join("edge a%d b%d\n" % (t, t) for t in range(20)))
    t0 = time.perf_counter()
    assert run(["complete", "--class", "cycle-factor", g]) == 1
    cert = capsys.readouterr().out
    assert time.perf_counter() - t0 < 2
    got = Certificate.from_json(cert)
    assert (got.tag, got.payload) == (
        "NoCompletion", {"kind": "exhausted", "target": "cycle_factor"})
    t0 = time.perf_counter()
    assert run(["verify-cert", g, w("cert", cert)]) == 0
    assert time.perf_counter() - t0 < 2
    assert capsys.readouterr().out.strip() == "valid"


def test_verify_cert_hostile_hall_sets(w, capsys):
    # a and b have no possible successor, c only d, so [a] and [a, b]
    # are Hall sets; each hostile payload is invalid, never an error
    lone = "v a\nv b\narc c d\n"
    for target, hall, code in (
            ("cycle_factor", ["a"], 0),
            ("cycle_factor", ["b", "a"], 0),
            ("cycle_factor", [], 1),
            ("cycle_factor", ["c", "c"], 1),
            ("cycle_factor", ["a", "zz"], 1),
            ("cycle_factor", "ab", 1),
            ("cycle_factor", {"a": 0, "b": 0}, 1),
            ("cycle_factor", None, 1),
            ("cycle_factor", [["a"]], 1),
            ("ltt", ["a"], 1),
            (["cycle_factor"], ["a"], 1)):
        c = w("cert", json.dumps({"tag": "NoCompletion", "payload": {
            "kind": "hall", "target": target, "set": hall}}))
        t0 = time.perf_counter()
        assert run(["verify-cert", w("g", lone), c]) == code, (target, hall)
        assert time.perf_counter() - t0 < 1
        assert capsys.readouterr().out.strip() == ("valid", "invalid")[code]
    # a set with exactly as many possible successors as members, and a
    # set that has too few only if each edge counted one way
    for text, hall in ((DIRECTED_C3, ["a", "b", "c"]),
                       ("edge a b\n", ["a", "b"]),
                       ("edge a b\n", ["b", "a"])):
        c = w("cert", json.dumps({"tag": "NoCompletion", "payload": {
            "kind": "hall", "target": "cycle_factor", "set": hall}}))
        t0 = time.perf_counter()
        assert run(["verify-cert", w("g", text), c]) == 1, (text, hall)
        assert time.perf_counter() - t0 < 1
        assert capsys.readouterr().out.strip() == "invalid"


def test_verify_cert_names_fields_must_be_lists(w, capsys):
    # every certificate below is valid; spelling a names field as one
    # string of one-letter names makes it invalid, never an error
    ordering = {"kind": "cyclic", "seq": ["a", "c", "b"]}
    for text, tag, payload, field, hostile in (
            ("v a\nv b\nv c\n", "NonAdjacentPair", {"pair": ["a", "b"]},
             "pair", "ab"),
            (DIRECTED_C3, "DirectedCycle", {"cycle": ["a", "b", "c"]},
             "cycle", "abc"),
            ("edge a b\n", "Bridge", {"edge": ["a", "b"]}, "edge", "ab"),
            ("arc a b\n", "DirectedCut", {"side": ["a"]}, "side", "a"),
            ("arc b a\narc b c\narc b d\n", "OddClosedWalkAux",
             {"walk": [["a", "b"], ["c", "b"], ["d", "b"], ["a", "b"]]},
             "walk", ["ab", "cb", "db", "ab"]),
            ("arc a c\narc b c\n", "OrientationConflict",
             {"kind": "odd_pair", "walk": [["a", "c"], ["b", "c"]]},
             "walk", ["ac", "bc"]),
            ("edge a b\narc c a\narc c b\n", "BadTriple",
             {"triple": ["a", "b", "c"]}, "triple", "abc"),
            (C4, "NotChordal", {"kind": "hole",
                                "vertices": ["a", "b", "c", "d"]},
             "vertices", "abcd"),
            (DIRECTED_C3, "OrderingViolation",
             {"kind": "round", "ordering": ordering,
              "witness": ["a", "out", "b"]},
             "ordering", dict(ordering, seq="acb")),
            ("arc a c\narc b c\n", "NoCompletion",
             {"kind": "two_sat_core", "cycle": [
                 ["a", "c"], ["c", "b"], ["b", "c"], ["c", "a"], ["a", "c"]]},
             "cycle", ["ac", "cb", "bc", "ca", "ac"])):
        g = w("g", text)
        for pay, code in ((payload, 0), (dict(payload, **{field: hostile}), 1)):
            c = w("cert", json.dumps({"tag": tag, "payload": pay}))
            t0 = time.perf_counter()
            assert run(["verify-cert", g, c]) == code, (tag, pay)
            assert time.perf_counter() - t0 < 1
            assert capsys.readouterr().out.strip() == ("valid", "invalid")[code]


def test_internal_error_exit_code(w, capsys, monkeypatch):
    def broken(P):
        raise InvariantError("completion is not strong")
    monkeypatch.setitem(classes.ROWS, ("complete", "strong"),
                        with_row("complete", "strong", run=broken))
    assert run(["complete", "--class", "strong", w("g", C4)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: InvariantError: completion is not strong\n"


def test_commands_are_looked_up_at_call_time(w, capsys, monkeypatch):
    """The parser is built once per process, but each run calls the
    `_cmd_` function that the module holds at that time, so a wrapper
    put there after the first run (as a tracer does) sees the next."""
    g = w("g", C4)
    c = w("cert", json.dumps({"tag": "NonAdjacentPair",
                              "payload": {"pair": ["a", "c"]}}))
    assert run(["verify-cert", g, c]) == 0
    seen = []
    monkeypatch.setattr(cli, "_cmd_verify_cert",
                        lambda args: seen.append(args.cert) or 0)
    assert run(["verify-cert", g, c]) == 0
    assert seen == [c]
    assert capsys.readouterr().out == "valid\n"


# -- recognize ----------------------------------------------------------------


def test_recognize_proper_interval(w, capsys):
    path = "edge a b\nedge b c\n"
    assert run(["recognize", "--class", "proper-interval", w("g", path)]) == 0
    assert capsys.readouterr().out.startswith("iv ")


def test_recognize_proper_interval_claw(w, capsys):
    f = w("g", CLAW)
    assert run(["recognize", "--class", "proper-interval", f]) == 1
    cert = Certificate.from_json(capsys.readouterr().out)
    assert verify_certificate(parse_pog(CLAW), cert)


def test_recognize_circular_c4(w, capsys):
    assert run(["recognize", "--class", "proper-circular-arc",
                "--json", w("g", C4)]) == 0
    obj = _json_out(capsys)
    assert obj["status"] == "yes"
    assert obj["representation"]["kind"] == "circular"
    assert len(obj["representation"]["spans"]) == 4


def test_recognize_empty_graph(w, capsys):
    f = w("g", "")
    for cls in ("proper-interval", "proper-circular-arc"):
        assert run(["recognize", "--class", cls, "--json", f]) == 0
        obj = _json_out(capsys)
        assert obj["status"] == "yes"
        assert obj["representation"]["spans"] == {}


def test_recognize_chordal(w, capsys):
    assert run(["recognize", "--class", "chordal",
                w("g", "edge a b\nedge b c\nedge a c\n")]) == 0
    capsys.readouterr()
    f = w("h", C4)
    assert run(["recognize", "--class", "chordal", f]) == 1
    cert = Certificate.from_json(capsys.readouterr().out)
    assert cert.payload["kind"] == "hole"
    assert verify_certificate(parse_pog(C4), cert)


# -- check-ordering --------------------------------------------------------------


def test_check_ordering_round(w, capsys):
    g = w("g", DIRECTED_C3)
    good = w("o1", "order cyclic a b c\n")
    assert run(["check-ordering", "--kind", "round", g, good]) == 0
    assert capsys.readouterr().out.strip() == "yes"
    bad = w("o2", "order cyclic a c b\n")
    assert run(["check-ordering", "--kind", "round", g, bad]) == 1
    cert = Certificate.from_json(capsys.readouterr().out)
    assert cert.tag == "OrderingViolation"
    assert verify_certificate(parse_pog(DIRECTED_C3), cert)
    # roundness is undefined with an unoriented edge: an input error
    mixed = w("g2", "edge a b\narc b c\narc c a\n")
    assert run(["check-ordering", "--kind", "round", mixed, good]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_check_ordering_excellent_json(w, capsys):
    g = w("g", "arc a d\narc c b\n")
    o = w("o", "order cyclic a b c d\n")
    assert run(["check-ordering", "--kind", "excellent", "--json",
                g, o]) == 1
    obj = _json_out(capsys)
    assert obj["status"] == "no"
    assert obj["certificate"]["tag"] == "OrderingViolation"


def test_check_ordering_bad_ordering_file(w, capsys):
    g = w("g", DIRECTED_C3)
    o = w("o", "order cyclic a b\n")
    assert run(["check-ordering", "--kind", "round", g, o]) == 2
    # a second ordering is an input error, not judged by the first
    o2 = w("o2", "order cyclic a b c\norder cyclic a c b\nthis is junk\n")
    capsys.readouterr()
    assert run(["check-ordering", "--kind", "round", g, o2]) == 2
    assert capsys.readouterr().err == "error: line 2: expected one ordering line only\n"


def test_check_ordering_excellent_all_arc_is_fast(w, capsys):
    # the strong all-arc digraph on 3,000 vertices (6,000 arcs) with its
    # identity ordering, which is excellent; a check over all pairs of
    # arcs took about 50 s for the first command on a 2-vCPU host
    n = 3000
    arcs = [(k, k + 1) for k in range(n - 1)] + \
        [(k, k + 2) for k in range(n - 2)] + [(n - 1, 1), (n - 2, 0)]
    g = w("g", "".join("arc v%d v%d\n" % a for a in arcs))
    seq = ["v%d" % k for k in range(n)]
    o = w("o", "order cyclic %s\n" % " ".join(seq))
    t0 = time.perf_counter()
    assert run(["check-ordering", "--kind", "excellent", g, o]) == 0
    assert time.perf_counter() - t0 < 2
    assert capsys.readouterr().out.strip() == "yes"
    c = w("cert", json.dumps({"tag": "OrderingViolation", "payload": {
        "kind": "excellent", "ordering": {"kind": "cyclic", "seq": seq},
        "witness": [["v0", "v2"], ["v1", "v0"]]}}))
    t0 = time.perf_counter()
    assert run(["verify-cert", g, c]) == 1
    assert time.perf_counter() - t0 < 2
    assert capsys.readouterr().out.strip() == "invalid"


def test_verify_cert_long_hole_is_fast(w, capsys):
    # the chordless cycle on 10,000 vertices and its hole certificate; a
    # test of every pair of hole vertices took about 4.6 s at 4,000
    n = 10000
    g = w("g", "".join("edge v%d v%d\n" % (k, (k + 1) % n) for k in range(n)))
    hole = ["v%d" % k for k in range(n)]
    c = w("cert", json.dumps({"tag": "NotChordal", "payload": {
        "kind": "hole", "vertices": hole}}))
    t0 = time.perf_counter()
    assert run(["verify-cert", g, c]) == 0
    assert time.perf_counter() - t0 < 2
    assert capsys.readouterr().out.strip() == "valid"
    c = w("cert2", json.dumps({"tag": "NotChordal", "payload": {
        "kind": "hole", "vertices": hole[:-1]}}))
    assert run(["verify-cert", g, c]) == 1
    assert capsys.readouterr().out.strip() == "invalid"


def test_nice_hub_is_fast(w, capsys):
    # a hub with 10,000 in-arcs and 10,000 out-arcs; sorting the hub's
    # in-neighbours once per out-arc took 0.37 s at 1,000 and would take
    # about 37 s here.  The ordering ins, hub, outs is nice; the
    # certificate's swaps the hub and its last in-neighbour, so the arc
    # from the hub to the first out-neighbour is violated by it.
    k = 10000
    ins = ["i%d" % t for t in range(k)]
    outs = ["o%d" % t for t in range(k)]
    g = w("g", "".join("arc %s h\n" % v for v in ins)
          + "".join("arc h %s\n" % v for v in outs))
    seq = ins + ["h"] + outs
    o = w("o", "order cyclic %s\n" % " ".join(seq))
    t0 = time.perf_counter()
    assert run(["check-ordering", "--kind", "nice", g, o]) == 0
    assert time.perf_counter() - t0 < 2
    assert capsys.readouterr().out.strip() == "yes"
    bad = ins[:-1] + ["h", ins[-1]] + outs
    c = w("cert", json.dumps({"tag": "OrderingViolation", "payload": {
        "kind": "nice", "ordering": {"kind": "cyclic", "seq": bad},
        "witness": ["o0", "h", ins[-1]]}}))
    t0 = time.perf_counter()
    assert run(["verify-cert", g, c]) == 0
    assert time.perf_counter() - t0 < 2
    assert capsys.readouterr().out.strip() == "valid"
    o = w("o2", "order cyclic %s\n" % " ".join(bad))
    assert run(["check-ordering", "--kind", "nice", "--json", g, o]) == 1
    assert _json_out(capsys)["certificate"]["payload"]["witness"] == \
        ["o0", "h", ins[-1]]


def test_two_sat_core_check_is_local(w, capsys):
    # band-64 on 2,000 vertices beside a disjoint a -> c <- b: the walk
    # refutes an in-tournament completion by the arcs at c alone.
    # A check that rebuilds every clause of the band takes about 4 s.
    n = 2000
    g = w("g", "".join("edge v%d v%d\n" % (i, j) for i in range(n)
                       for j in range(i + 1, min(n, i + 65)))
          + "arc a c\narc b c\n")
    walk = [["a", "c"], ["c", "b"], ["b", "c"], ["c", "a"], ["a", "c"]]
    for cycle, verdict in ((walk, "valid"),
                           (walk[:1] + [["b", "c"]] + walk[2:], "invalid")):
        c = w("cert", json.dumps({"tag": "NoCompletion", "payload": {
            "kind": "two_sat_core", "cycle": cycle}}))
        t0 = time.perf_counter()
        assert run(["verify-cert", g, c]) == (verdict == "invalid")
        assert time.perf_counter() - t0 < 1
        assert capsys.readouterr().out.strip() == verdict


def test_bad_triple_check_is_local(w, capsys):
    # band-64 on 2,000 vertices, v1000 -> v1001 -> v1002 oriented, beside
    # two disjoint triangles with two arcs each: a b c has its pairs in
    # three thin aux components, while the pendant w puts x y and x z in
    # one, and the band triangle's pairs share the band's component.  A
    # check that builds the whole aux graph of the band takes about 2 s,
    # and one that searches the band's component to its end far longer.
    n = 2000
    g = w("g", "".join("%s v%d v%d\n" % ("arc" if (i, j) in ((1000, 1001), (1001, 1002))
                                          else "edge", i, j)
                       for i in range(n) for j in range(i + 1, min(n, i + 65)))
          + "edge a b\narc c a\narc c b\n"
          + "edge x y\narc z x\narc z y\nedge x w\n")
    for triple, verdict in ((["a", "b", "c"], "valid"),
                            (["x", "y", "z"], "invalid"),
                            (["v1000", "v1001", "v1002"], "invalid")):
        c = w("cert", json.dumps({"tag": "BadTriple", "payload": {
            "triple": triple}}))
        t0 = time.perf_counter()
        assert run(["verify-cert", g, c]) == (verdict == "invalid")
        assert time.perf_counter() - t0 < 1
        assert capsys.readouterr().out.strip() == verdict


# -- extend-rep --------------------------------------------------------------------


def test_extend_rep_interval(w, capsys):
    g = w("g", "edge a b\nedge b c\n")
    partial = w("p", "iv a 0 3\niv b 2 5\n")
    assert run(["extend-rep", "--kind", "interval", g, partial]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3 and all(l.startswith("iv ") for l in lines)


def test_extend_rep_interval_refuted(w, capsys):
    g = w("g", CLAW)
    partial = w("p", "iv x 0 1\n")
    assert run(["extend-rep", "--kind", "interval", g, partial]) == 1
    cert = Certificate.from_json(capsys.readouterr().out)
    assert verify_certificate(parse_pog(CLAW), cert)


def test_extend_rep_circular(w, capsys):
    g = w("g", C4)
    partial = w("p", "ca a 0 3 8\nca b 2 5 8\n")
    code = run(["extend-rep", "--kind", "circular", g, partial])
    out = capsys.readouterr()
    if code == 0:
        assert out.out.startswith("ca ")
    else:
        assert code == 1
        cert = Certificate.from_json(out.out)
        assert verify_certificate(parse_pog(C4), cert)


def test_extend_rep_circular_window_misses_hub(w, capsys):
    """The wheel W4: the hub h is a complement component of its own and
    the window leaves it out.  The window still extends."""
    wheel = C4 + "".join("edge h %s\n" % v for v in "abcd")
    window = "ca a 0 5 10\nca b 2 7 10\nca c 6 9 10\nca d 8 1 10\n"
    assert run(["extend-rep", "--kind", "circular", w("g", wheel),
                w("p", window)]) == 0
    G = parse_pog(wheel)
    R = parse_representation(capsys.readouterr().out)
    validate_representation(G, R)
    rim = [G.index[v] for v in "abcd"]
    want = orientation_from_representation(G.induced(rim),
                                           parse_representation(window))
    got = orientation_from_representation(G, R).induced(rim)
    assert got.names == want.names and got.arcs == want.arcs


def test_extend_rep_circular_cell_cycle(w, capsys):
    """K4 on a, b, c, d with a pendant edge d e: a, b, c are a cell that
    is not universal, and a window that orients it as a directed
    triangle is refuted by the cell-cycle search of complete_cells."""
    graph = ("edge a b\nedge a c\nedge a d\nedge b c\nedge b d\nedge c d\n"
             "edge d e\n")
    window = "ca a 0 2 6\nca b 2 4 6\nca c 4 0 6\n"
    assert run(["extend-rep", "--kind", "circular", w("g", graph),
                w("p", window)]) == 1
    out = capsys.readouterr().out
    assert json.loads(out) == {"tag": "DirectedCycle", "payload": {
        "cycle": ["a", "b", "c"], "location": {"kind": "cell"}}}
    Q = _window_pog(parse_pog(graph), parse_representation(window))
    assert run(["verify-cert", w("q", render_pog(Q)), w("cert", out)]) == 0
    assert capsys.readouterr().out == "valid\n"


def test_extend_rep_unknown_vertex(w, capsys):
    g = w("g", C4)
    for kind, line in (("interval", "iv zz 0 1\n"), ("circular", "ca zz 0 1 8\n")):
        assert run(["extend-rep", "--kind", kind, g, w("p", line)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: unknown vertex zz\n"


# -- reduce-3sat -------------------------------------------------------------------


def test_reduce_3sat_structure(w, capsys):
    assert run(["reduce-3sat", "--json", w("f", CNF)]) == 0
    obj = _json_out(capsys)
    assert obj["status"] == "completed"
    # 2 variables' worth of alpha/beta pairs plus 7 per clause
    n_names = {nm for pair in obj["arcs"] + obj["edges"] for nm in pair}
    assert len(n_names) == 2 * 3 + 7 * 2


def test_complete_and_reduce_3sat_stdout_bytes(w, capsys):
    """The exact stdout of `complete` and `reduce-3sat`, plain and with
    --json (which alone needs the arc and edge lists)."""
    g = w("g", "edge a b\nedge b c\narc c d\n")
    assert run(["complete", "--class", "acyclic-lt", g]) == 0
    assert capsys.readouterr().out == (
        "v a\nv b\nv c\nv d\narc a b\narc b c\narc c d\n")
    assert run(["complete", "--class", "acyclic-lt", "--json", g]) == 0
    assert capsys.readouterr().out == (
        '{"arcs": [["a", "b"], ["b", "c"], ["c", "d"]], '
        '"class": "acyclic-lt", "status": "completed"}\n')
    f = w("f", "p cnf 3 1\n1 -2 3 0\n")
    for flags, size, digest in (
            ([], 645,
             "3d65694cad7cef63113be90760bc1ef364bfc5aede1c9f7e3d0750912771858b"),
            (["--json"], 690,
             "a4bba9000268efcb6a43c0c2880edebb812674113896f03d0353da35aa79f4cf")):
        assert run(["reduce-3sat"] + flags + [f]) == 0
        out = capsys.readouterr().out.encode()
        assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)


def test_reduce_3sat_witness_forms(w, capsys):
    f = w("f", CNF)
    assert run(["reduce-3sat", "--witness", "TFT", f]) == 0
    line = capsys.readouterr().out
    assert line.startswith("order cyclic ")
    assert len(line.split()) == 2 + 20
    assert run(["reduce-3sat", "--witness", "1 -2 3", f]) == 0
    assert capsys.readouterr().out == line
    for bad in ("xyz", "1 -2 x", "1.5"):
        assert run(["reduce-3sat", "--witness", bad, f]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:")


def test_reduce_3sat_unsatisfying_witness(w, capsys):
    assert run(["reduce-3sat", "--witness", "FFT", w("f", CNF)]) == 2
    assert "error:" in capsys.readouterr().err


def test_reduce_3sat_bad_dimacs(w, capsys):
    assert run(["reduce-3sat", w("f", "p cnf 2 1\n1 2 0\n")]) == 2


def test_reduce_3sat_negative_counts(w, capsys):
    # a negative variable count once reached the reduction and exited 4
    for header in ("p cnf -1 0\n", "p cnf 3 -1\n", "p cnf -2 -1\n"):
        assert run(["reduce-3sat", w("f", header)]) == 2, header
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: line 1: bad problem line\n"


# -- verify-cert --------------------------------------------------------------------


def test_verify_cert_round_trip(w, capsys):
    f = w("g", CLAW)
    run(["complete", "--class", "lt", f])
    cert_text = capsys.readouterr().out
    c = w("cert", cert_text)
    assert run(["verify-cert", f, c]) == 0
    assert capsys.readouterr().out.strip() == "valid"
    # same certificate against a pog missing the claw is rejected
    other = w("g2", "v c\nv x\nv y\nv z\nedge c x\nedge c y\n")
    assert run(["verify-cert", other, c]) == 1
    assert capsys.readouterr().out.strip() == "invalid"


def test_verify_cert_garbage(w, capsys):
    f = w("g", CLAW)
    c = w("cert", "not json")
    assert run(["verify-cert", f, c]) == 2
    # an OrderingViolation naming a round ordering, checked against a pog
    # with an unoriented edge, or naming an unknown ordering kind
    g = w("g2", "edge a b\narc b c\narc c a\n")
    for kind, order_kind in (("round", "cyclic"), ("excellent", "spiral")):
        c = w("cert2", json.dumps({"tag": "OrderingViolation", "payload": {
            "kind": kind, "ordering": {"kind": order_kind, "seq": ["a", "b", "c"]},
            "witness": None}}))
        assert run(["verify-cert", g, c]) == 1
        assert capsys.readouterr().out.strip() == "invalid"
    # an exhausted search for any target but ltt and cycle_factor is
    # rejected without a search, even where the pog has no completion in
    # the class; the last pog has 22 edges, and a search would try all
    # 2^19 orientations of its matching before failing on its claw
    matching = "".join("edge a%d b%d\n" % (k, k) for k in range(19))
    for target, text in (
            ("excellent_ordering", "edge a b\nedge b c\narc c a\n"),
            ("local_tournament", CLAW),
            ("acyclic_local_tournament", DIRECTED_C3),
            ("in_tournament", "arc a c\narc b c\n"),
            ("quasi_transitive", "arc a b\narc b c\n"),
            ("ltlt", CLAW),
            (["ltt"], CLAW),
            ("local_tournament", matching + CLAW)):
        g = w("g3", text)
        c = w("cert3", json.dumps({"tag": "NoCompletion", "payload": {
            "kind": "exhausted", "target": target}}))
        t0 = time.perf_counter()
        assert run(["verify-cert", g, c]) == 1, target
        assert time.perf_counter() - t0 < 1, target
        assert capsys.readouterr().out.strip() == "invalid"


def test_non_utf8_file_is_an_input_error(tmp_path, w, capsys):
    # one subcommand per kind of file argument: pog, ordering,
    # representation, DIMACS and certificate
    bad = tmp_path / "bad"
    bad.write_bytes(b"v a\n\xff\n")
    bad = str(bad)
    g = w("g", DIRECTED_C3)
    for argv in (["complete", "--class", "lt", bad],
                 ["check-ordering", "--kind", "round", g, bad],
                 ["extend-rep", "--kind", "interval", g, bad],
                 ["reduce-3sat", bad],
                 ["verify-cert", g, bad]):
        assert run(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: %s is not UTF-8 text" % bad), err


def test_verify_cert_deeply_nested_json(w, capsys):
    g = w("g", DIRECTED_C3)
    for text in ("[" * 200000,
                 '{"tag": "DirectedCycle", "payload": {"cycle": %s}}'
                 % ("[" * 200000)):
        assert run(["verify-cert", g, w("cert", text)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "nested too deeply" in err, err


# -- python -m pogc -----------------------------------------------------------------


def test_python_m_pogc_keeps_exit_codes(w):
    # `python -m pogc` runs the same command line as the `pogc` script
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    g = w("g", DIRECTED_C3)
    for cert, code, out in (
            ('{"tag": "DirectedCycle", "payload": {"cycle": ["a", "b", "c"]}}',
             0, "valid"),
            ("not json", 2, "")):
        proc = subprocess.run(
            [sys.executable, "-m", "pogc", "verify-cert", g, w("cert", cert)],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.strip() == out


# -- fuzz ---------------------------------------------------------------------------

FUZZ_POGS = 400
# tokens a hostile text puts where a name, number or value was
JUNK = ("zz", "v0", "-1", "0", "7", "99999999999999999999", "1.5", "x" * 80,
        "é", "[", "#", "order", "iv", "cnf")
JUNK_VALUES = (None, True, -1, 0, 10 ** 30, 1.5, "zz", "v0", "", [], {},
               ["v0", "v0"], ["zz", "v1"], [["v0"]], {"kind": "cyclic"})


def _mangle_text(rng, text):
    """text with 0-2 line- or token-level edits."""
    lines = text.splitlines()
    for _ in range(rng.choice((0, 1, 1, 2))):
        op = rng.randrange(6)
        k = rng.randrange(len(lines)) if lines else 0
        if op == 0 and lines:
            del lines[k]
        elif op == 1 and lines:
            lines.insert(k, lines[k])
        elif op == 2 and lines:
            toks = lines[k].split() or [""]
            toks[rng.randrange(len(toks))] = rng.choice(JUNK)
            lines[k] = " ".join(toks)
        elif op == 3 and lines:
            toks = lines[k].split()
            rng.shuffle(toks)
            lines[k] = " ".join(toks)
        elif op == 4:
            lines.insert(k, " ".join(rng.choice(JUNK) for _ in range(rng.randrange(5))))
        else:
            joined = "\n".join(lines)
            lines = joined[:rng.randrange(len(joined) + 1)].splitlines()
    return "\n".join(lines) + "\n"


def _mangle_json(rng, obj):
    """obj with one value somewhere in it, the tag included, replaced by
    a junk value, or one key dropped."""
    if isinstance(obj, dict) and obj and rng.random() < 0.7:
        key = rng.choice(sorted(obj))
        if rng.random() < 0.2:
            del obj[key]
        else:
            obj[key] = _mangle_json(rng, obj[key])
        return obj
    if isinstance(obj, list) and obj and rng.random() < 0.7:
        k = rng.randrange(len(obj))
        obj[k] = _mangle_json(rng, obj[k])
        return obj
    return rng.choice(JUNK_VALUES)


def _window_pog(G, partial):
    """The graph of G with the window's induced orientation as its only
    arcs: what an extend-rep refutation is verified against."""
    ids = [G.index[v] for v in partial.names]
    D = orientation_from_representation(G.induced(ids), partial)
    U = G.underlying_graph()
    return U.orient([(U.index[D.names[i]], U.index[D.names[j]]) for i, j in D.arcs])


def test_fuzz_exit_contract(w, capsys):
    """A seeded fuzz slice of the exit-code contract: random pogs on 0-7
    vertices through every `complete` and `recognize` class, then hostile
    ordering, representation, DIMACS and certificate texts, mangled from
    valid ones, through check-ordering, extend-rep, reduce-3sat and
    verify-cert.  Every run exits 0-3 (never 4, an internal error), and
    the certificate of every exit 1 verifies: `verify-cert` prints
    `valid` for it against the pog it is about."""
    rng = random.Random(20261020)
    seen, certs = Counter(), []

    def call(argv):
        code = run(argv)
        out = capsys.readouterr().out
        assert code in (0, 1, 2, 3), (argv, code, out)
        seen[argv[0], code] += 1
        return code, out

    def check(about, out):
        assert call(["verify-cert", about, w("cert", out)]) == (0, "valid\n"), out
        certs.append(json.loads(out))

    for _ in range(FUZZ_POGS):
        n = rng.randrange(8)
        P = random_pog(rng, n, p_adj=rng.random(), p_arc=rng.random())
        f = w("g", render_pog(P))
        for cls in [name for cmd, name in ROWS if cmd == "complete"]:
            code, out = call(["complete", "--class", cls, f])
            if code == 1:
                check(f, out)
        reps = []
        for cls in ("chordal", "proper-interval", "proper-circular-arc"):
            code, out = call(["recognize", "--class", cls, f])
            if code == 1:
                check(f, out)
            elif code == 0 and cls != "chordal":
                reps.append(out)
        # an ordering of all vertices, mangled
        seq = list(P.names)
        rng.shuffle(seq)
        text = _mangle_text(rng, "order %s %s\n" % (
            rng.choice(("cyclic", "linear")), " ".join(seq)))
        for kind in ("round", "excellent", "nice"):
            code, out = call(["check-ordering", "--kind", kind, f, w("o", text)])
            if code == 1:
                check(f, out)
        # a window of a representation the graph has, or made-up spans,
        # mangled
        if reps and rng.random() < 0.7:
            lines = rng.choice(reps).splitlines()
            window = "".join(ln + "\n" for ln in rng.sample(
                lines, rng.randrange(len(lines) + 1)))
        else:
            window = "".join(
                "iv %s %d %d\n" % (v, rng.randrange(-2, 9), rng.randrange(-2, 9))
                if rng.random() < 0.5 else "ca %s %d %d %d\n" % (
                    v, rng.randrange(-2, 9), rng.randrange(-2, 9), rng.randrange(-1, 9))
                for v in rng.sample(P.names, rng.randrange(n + 1)))
        text = _mangle_text(rng, window)
        for kind in ("interval", "circular"):
            code, out = call(["extend-rep", "--kind", kind, f, w("p", text)])
            if code == 1:
                Q = _window_pog(P, parse_representation(text))
                check(w("q", render_pog(Q)), out)
        # a 3-CNF on 3-4 variables, with or without a witness, mangled
        v = rng.randrange(3, 5)
        clauses = [[x if rng.random() < 0.5 else -x
                    for x in rng.sample(range(1, v + 1), 3)]
                   for _ in range(rng.randrange(1, 4))]
        text = _mangle_text(rng, "p cnf %d %d\n" % (v, len(clauses)) + "".join(
            "%s 0\n" % " ".join(map(str, c)) for c in clauses))
        witness = "--witness=" + "".join(rng.choice("TF1x -,0") for _ in range(v))
        call(["reduce-3sat"] + [witness][:rng.randrange(2)] + [w("d", text)])
        # a certificate met so far, mangled or read under another's tag,
        # against this pog
        if certs:
            obj = json.loads(json.dumps(rng.choice(certs)))
            if rng.random() < 0.3:
                obj["tag"] = rng.choice(certs)["tag"]
            else:
                obj = _mangle_json(rng, obj)
            text = json.dumps(obj)
            call(["verify-cert", f, w("c", _mangle_text(rng, text)
                                      if rng.random() < 0.1 else text)])
    # each command met a yes and a no, and every command but complete an
    # input error
    for cmd in ("complete", "recognize", "check-ordering", "extend-rep", "verify-cert"):
        assert seen[cmd, 0] and seen[cmd, 1], (cmd, seen)
    for cmd in ("check-ordering", "extend-rep", "reduce-3sat", "verify-cert"):
        assert seen[cmd, 2], (cmd, seen)
    assert seen["reduce-3sat", 0], seen


# bytes a byte-level edit puts in: line ends, NUL, and UTF-8 that is not
# (a lone continuation byte, a cut sequence, an encoded surrogate)
ODD_BYTES = (b"\r", b"\r\n", b"\x00", b"\xff", b"\x80", b"\xc3", b"\xe2\x82",
             b"\xed\xa0\x80")
LONG_NAME = b"x" * 10 ** 5


def _mangle_bytes(rng, data):
    """data with 1-3 byte-level edits: a bit flipped, a byte inserted or
    deleted, an odd byte sequence inserted, or a 10^5-character name put
    in place of a name or inserted anywhere."""
    data = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(data) + 1)
        op = rng.randrange(6)
        if op == 0 and k < len(data):
            data[k] ^= 1 << rng.randrange(8)
        elif op == 1:
            data[k:k] = bytes([rng.randrange(256)])
        elif op == 2 and k < len(data):
            del data[k]
        elif op == 3:
            data[k:k] = rng.choice(ODD_BYTES)
        elif op == 4:
            data[k:k] = LONG_NAME
        else:
            data = data.replace(b" v%d" % rng.randrange(8), b" " + LONG_NAME, 1)
    return bytes(data)


def test_fuzz_pog_bytes(tmp_path, capsys):
    """Pog texts mangled at the byte level through complete and recognize
    (every class), check-ordering and verify-cert: every run exits 0-3,
    never 4, and stderr is one short line that quotes at most 60
    characters of a name."""
    rng = random.Random(11)
    seq = " ".join("v%d" % v for v in range(8))
    order = tmp_path / "o"
    cert = tmp_path / "c"
    cert.write_text('{"tag": "DirectedCycle", "payload": {"cycle": ["v0", "v1", "v2"]}}')
    f = tmp_path / "g"
    seen = Counter()
    t0 = time.perf_counter()
    for _ in range(120):
        P = random_pog(rng, rng.randrange(8), p_adj=rng.random(), p_arc=rng.random())
        f.write_bytes(_mangle_bytes(rng, render_pog(P).encode()))
        order.write_text("order cyclic %s\n" % " ".join(seq.split()[:P.n]))
        argvs = [[cmd, "--class", cls, str(f)] for cmd, cls in ROWS]
        argvs += [["check-ordering", "--kind", kind, str(f), str(order)]
                  for kind in ("round", "excellent", "nice")]
        argvs.append(["verify-cert", str(f), str(cert)])
        for argv in argvs:
            code = run(argv)
            out, err = capsys.readouterr()
            assert code in (0, 1, 2, 3), (argv, code, err)
            assert err == "" or (err.count("\n") == 1 and len(err) < 400), err
            assert "x" * 61 not in err, err[:200]
            seen[code] += 1
    assert seen[0] and seen[1] and seen[2] > 1000, seen
    assert time.perf_counter() - t0 < 3


def _verdicts(w, capsys, text, tag, payloads, budget=1.0):
    """`verify-cert` on each payload under tag against the pog text: the
    words it printed, each run within the time budget."""
    g, words = w("g", text), []
    for pay in payloads:
        c = w("cert", json.dumps({"tag": tag, "payload": pay}))
        t0 = time.perf_counter()
        run(["verify-cert", g, c])
        assert time.perf_counter() - t0 < budget, (tag, pay)
        words.append(capsys.readouterr().out.strip())
    return words


def test_verify_cert_hostile_obstructions(w, capsys):
    """Each certificate below is valid, and each variant after it shows
    no obstruction and is invalid: a non-adjacent pair that is adjacent,
    a bridge that is no edge, a directed cut with an empty or full side.
    A claw or a net is no kind of NotChordal certificate (no decider
    emits one), so even a true one is invalid."""
    for text, tag, valid, hostile in (
            ("edge a b\nv c\n", "NonAdjacentPair", {"pair": ["a", "c"]},
             [{"pair": ["a", "b"]}, {"pair": ["b", "a"]}, {"pair": ["a", "a"]}]),
            ("edge a b\nedge b c\nv d\n", "Bridge", {"edge": ["a", "b"]},
             [{"edge": ["a", "c"]}, {"edge": ["a", "d"]}, {"edge": ["a", "a"]}]),
            ("arc a b\narc a c\nedge b c\n", "DirectedCut", {"side": ["a"]},
             [{"side": []}, {"side": ["a", "b", "c"]}, {"side": ["c", "b", "a"]}])):
        assert _verdicts(w, capsys, text, tag, [valid] + hostile) \
            == ["valid"] + ["invalid"] * len(hostile), tag
    net = "edge a b\nedge b c\nedge a c\nedge a x\nedge b y\nedge c z\n"
    assert _verdicts(w, capsys, CLAW, "NotChordal", [
        {"kind": "claw", "vertices": ["c", "x", "y", "z"]}]) == ["invalid"]
    assert _verdicts(w, capsys, net, "NotChordal", [
        {"kind": "net", "vertices": ["a", "b", "c", "x", "y", "z"]}]) == ["invalid"]


CLAW = "edge c x\nedge c y\nedge c z\n"


def test_verify_cert_hostile_aux_walks(w, capsys):
    """Aux walks: a step on a non-adjacent pair or one that is not an aux
    edge, an open or even closed walk for OddClosedWalkAux, and for
    OrientationConflict a walk that ends on the wrong pair, has the wrong
    parity for its kind, or has a kind that does not exist."""
    odd = [["c", "x"], ["c", "y"], ["c", "z"], ["c", "x"]]
    # the pairs (x, y), (x, z), (x, u) of the leaves and a lone vertex u
    # would form an odd triangle if they were adjacent pairs
    assert _verdicts(w, capsys, CLAW + "v u\n", "OddClosedWalkAux", [
        {"walk": odd},
        {"walk": [["x", "y"], ["x", "z"], ["x", "u"], ["x", "y"]]},  # pairs apart
        {"walk": [["c", "x"], ["y", "c"], ["c", "z"], ["c", "x"]]},  # no aux edge
        {"walk": odd[:3] + [["c", "y"]]},                           # open
        {"walk": [["c", "x"], ["c", "y"], ["c", "x"]]},              # even
        {"walk": odd, "mode": "quasi_transitive"},                  # not its mode
    ]) == ["valid"] + ["invalid"] * 5
    pair = "arc b a\narc b c\n"  # b's two out-arcs must take two colours
    assert _verdicts(w, capsys, pair, "OrientationConflict", [
        {"kind": "odd_pair", "walk": [["b", "a"], ["b", "c"]]},
        {"kind": "odd_pair", "walk": [["a", "b"], ["b", "a"]]},         # starts off P's arcs
        {"kind": "odd_pair", "walk": [["b", "a"], ["a", "b"]]},         # ends off them
        {"kind": "odd_pair", "walk": [["b", "a"], ["a", "b"], ["b", "a"]]},  # even
        {"kind": "odd_pair", "walk": [["b", "a"], ["c", "a"]]},         # c, a apart
        {"kind": "unoriented_mate", "walk": [["b", "a"], ["b", "c"]]},  # no edge
        {"kind": "sideways", "walk": [["b", "a"], ["b", "c"]]},         # no such kind
    ]) == ["valid"] + ["invalid"] * 6
    mate = "arc b a\nedge b c\n"  # (c, b) takes the colour of the arc (b, a)
    assert _verdicts(w, capsys, mate, "OrientationConflict", [
        {"kind": "unoriented_mate", "walk": [["b", "a"], ["b", "c"], ["c", "b"]]},
        {"kind": "unoriented_mate", "walk": [["b", "a"], ["b", "c"]]},  # odd
        {"kind": "odd_pair", "walk": [["b", "a"], ["b", "c"], ["c", "b"]]},
    ]) == ["valid", "invalid", "invalid"]


def test_verify_cert_hostile_shapes(w, capsys):
    """Certificates of the right shape that one guard alone rejects: a
    closure cycle of a pog whose closure fails, a cell whose members'
    closed neighbourhoods differ, a location of no known kind, a bad
    triple on a non-edge or with one or three arcs, a hole of three
    vertices, a tent of seven, and tents whose triangle, independent
    side or attachments are wrong.  The first payload of each pog is
    valid."""
    cycle = "arc a b\narc b c\narc c a\n"
    assert _verdicts(w, capsys, cycle + "edge c d\n", "DirectedCycle", [
        {"cycle": ["a", "b", "c"]},
        {"cycle": ["a", "b", "c"], "location": {"kind": "cell"}},     # d sees c only
        {"cycle": ["a", "b", "c"], "location": {"kind": "sideways"}},
    ]) == ["valid", "invalid", "invalid"]
    # b's two out-arcs take two colours, so the closure fails
    assert _verdicts(w, capsys, "arc b a\narc b c\n", "DirectedCycle", [
        {"cycle": ["a", "b", "c"], "location": {"kind": "closure"}},
    ]) == ["invalid"]
    for text, verdict in (("arc a b\narc b c\nedge a c\n", "valid"),
                          ("arc a b\narc b c\n", "invalid"),            # a, c apart
                          ("arc a b\nedge b c\nedge a c\n", "invalid"),  # one arc
                          ("arc a b\narc b c\narc a c\n", "invalid")):   # three
        assert _verdicts(w, capsys, text, "BadTriple",
                         [{"triple": ["a", "b", "c"]}]) == [verdict], text
    c4 = "edge a b\nedge b c\nedge c d\nedge d a\n"
    assert _verdicts(w, capsys, c4 + "edge x y\nedge y z\nedge x z\n", "NotChordal", [
        {"kind": "hole", "vertices": ["a", "b", "c", "d"]},
        {"kind": "hole", "vertices": ["x", "y", "z"]},
    ]) == ["valid", "invalid"]
    tent = "edge a b\nedge b c\nedge a c\nedge x a\nedge x b\nedge y b\n" \
           "edge y c\nedge z c\nedge z a\n"
    order = ["a", "b", "c", "x", "y", "z"]
    assert _verdicts(w, capsys, tent, "NotChordal", [
        {"kind": "tent", "vertices": order},
        {"kind": "tent", "vertices": ["a", "b", "y", "c", "x", "z"]},  # a, y apart
        {"kind": "tent", "vertices": ["a", "b", "c", "y", "z", "x"]},  # rotated
    ]) == ["valid", "invalid", "invalid"]
    assert _verdicts(w, capsys, tent + "edge x y\n", "NotChordal", [
        {"kind": "tent", "vertices": order},                           # x, y adjacent
    ]) == ["invalid"]
    assert _verdicts(w, capsys, tent + "v u\n", "NotChordal", [
        {"kind": "tent", "vertices": order},
        {"kind": "tent", "vertices": order + ["u"]},                   # seven
    ]) == ["valid", "invalid"]


def test_verify_cert_long_aux_walks_are_fast(w, capsys):
    """Aux walks through a path on 10^4 vertices: the valid one and one
    spoilt near its end are each judged within 2 s."""
    n = 10 ** 4
    path = "".join("edge p%d p%d\n" % (k, k + 1) for k in range(n - 1))
    # from (c, x) along the path's pairs to its far end and back, then
    # round the claw's odd aux triangle
    chain = [["c", "x"], ["p0", "x"]] + [
        ["p%d" % (k + k % 2), "p%d" % (k + 1 - k % 2)] for k in range(n - 1)]
    walk = chain + chain[-2::-1] + [["c", "y"], ["c", "z"], ["c", "x"]]
    text = CLAW + "edge x p0\n" + path
    spoilt = walk[:-4] + walk[-5:-4] + walk[-4:]  # one step repeated: even
    assert _verdicts(w, capsys, text, "OddClosedWalkAux",
                     [{"walk": walk}, {"walk": spoilt}], 2.0) == ["valid", "invalid"]
    # along a path the pairs (q0, q1), (q2, q1), (q2, q3), ... alternate
    # colours, so the arcs q0 -> q1 and q(k + 1) -> qk, k odd, disagree
    k = n - 3
    walk = [["q%d" % (j + j % 2), "q%d" % (j + 1 - j % 2)] for j in range(k + 1)]
    text = "arc q0 q1\n" + "".join("edge q%d q%d\n" % (j, j + 1) for j in range(1, k)) \
        + "arc q%d q%d\n" % (k + 1, k)
    spoilt = walk[:-1] + [walk[-1][::-1]]  # ends on the reverse of the arc
    assert _verdicts(w, capsys, text, "OrientationConflict", [
        {"kind": "odd_pair", "walk": walk}, {"kind": "odd_pair", "walk": spoilt},
        {"kind": "unoriented_mate", "walk": walk}], 2.0) == ["valid"] + ["invalid"] * 2


# -- golden bytes ------------------------------------------------------------------


def test_cli_bytes_match_the_parity_digest():
    """The first 2,000 commands of bench/parity.py's seeded corpus (every
    class of the table plain and with --json, extend-rep, check-ordering,
    reduce-3sat), with the verify-cert of each refutation, hash to the
    SHA-256 in tests/parity.sha256: any change to their exit codes,
    stdout or stderr shows, and `bench/parity.py OLD NEW` names it."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "parity", os.path.join(root, "bench", "parity.py"))
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    with open(os.path.join(root, "tests", "parity.sha256")) as fh:
        want = fh.read().split()[0]
    t0 = time.perf_counter()
    assert parity.digest(2000) == want
    assert time.perf_counter() - t0 < 5
