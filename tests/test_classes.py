"""The class table: every CLI class is one row of `pogc.classes.ROWS`,
README's tables list the rows, and every answer the command line prints
has been checked against its row."""

import random
import re
from collections import Counter
from pathlib import Path

import pytest

from pogc import classes
from pogc.classes import ROWS, triple
from pogc.cli import run
from pogc.errors import PogError
from pogc.pog import Certificate, Pog, parse_pog, render_pog
from util import random_pog, with_row

ROOT = Path(__file__).resolve().parent.parent
TENT = """\
edge t1 t2
edge t2 t3
edge t1 t3
edge q1 t1
edge q1 t2
edge q2 t2
edge q2 t3
edge q3 t3
edge q3 t1
"""
# a directed triangle of twins that d sees and e does not: friendly, and
# the triangle lies in a cell that is not universal
CELL_CYCLE = """\
arc a b
arc b c
arc c a
edge a d
edge b d
edge c d
edge d e
"""
# a directed triangle that d beats: a cycle inside d's out-neighbourhood
OUT_CYCLE = "arc a b\narc b c\narc c a\narc d a\narc d b\narc d c\n"
RARE = [("complete", "acyclic-lt", TENT, ("NotChordal", "tent", None)),
        ("recognize", "proper-interval", TENT, ("NotChordal", "tent", None)),
        ("recognize", "proper-circular-arc", TENT + "v z\n", ("NotChordal", "tent", None)),
        ("complete", "ltlt-friendly", CELL_CYCLE, ("DirectedCycle", None, "cell")),
        ("complete", "ltlt-friendly", OUT_CYCLE, ("DirectedCycle", None, "out"))]


@pytest.fixture
def w(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def _readme_table(heading):
    """The rows of the first table after a README heading, as lists of
    cells with code quotes dropped and '–' read as None."""
    text = (ROOT / "README.md").read_text()
    lines = text[text.index(heading):].splitlines()
    start = next(k for k, ln in enumerate(lines) if ln.startswith("|"))
    rows = []
    for ln in lines[start + 2:]:
        if not ln.startswith("|"):
            break
        rows.append([None if c == "–" else c.strip("`")
                     for c in (c.strip() for c in ln.strip("|").split("|"))])
    return rows


def names(command):
    return [name for cmd, name in ROWS if cmd == command]


def _sort_key(t):
    return tuple("" if x is None else x for x in t)


def test_readme_tables_match_rows():
    want = [[r.command, r.name, r.yes, r.claim, r.guard] for r in ROWS.values()]
    assert _readme_table("### Target classes") == want
    want = [[r.command, r.name, *t, refutes]
            for r in ROWS.values()
            for refutes, ts in (("the class", r.refutes),
                                ("the friendly fragment, not the class", r.fragment))
            for t in sorted(ts, key=_sort_key)]
    assert _readme_table("### Certificates by class") == want


def test_rows_name_their_command_and_property():
    assert names("complete") == sorted(names("complete"))
    assert names("recognize") == ["proper-interval", "proper-circular-arc", "chordal"]
    for (command, name), row in ROWS.items():
        assert (row.command, row.name) == (command, name)
        by_construction = row.yes.startswith("by construction: ")
        assert by_construction != hasattr(classes.PropertyReport, row.yes), row
        assert not row.refutes & row.fragment
    assert [r.name for r in ROWS.values() if r.fragment or r.keeps_arcs] == ["ltlt-friendly"]


def test_every_listed_triple_is_reached_and_no_other():
    """Seeded random pogs on 0-7 vertices and a few built ones through
    every row: each answer passes its row's check, and every triple a row
    lists is met, so no row lists a certificate its run cannot give."""
    rng = random.Random(20261020)
    pogs = [random_pog(rng, rng.randrange(8), p_adj=rng.random(), p_arc=rng.random())
            for _ in range(600)]
    seen = Counter()
    for P in pogs:
        for key, row in ROWS.items():
            try:
                res = row.checked(P, row.run(P))
            except PogError as exc:
                assert "does not refute" not in str(exc), (key, render_pog(P))
                continue
            if isinstance(res, Certificate):
                seen[key + triple(res)] += 1
    for command, name, text, t in RARE:
        row, P = ROWS[command, name], parse_pog(text)
        assert triple(row.checked(P, row.run(P))) == t
        seen[command, name, *t] += 1
    listed = {key + t for key, row in ROWS.items() for t in row.refutes | row.fragment}
    assert set(seen) == listed, sorted(listed - set(seen), key=str)


def test_a_certificate_outside_its_row_exits_4(w, capsys):
    f = w("g", "arc a b\narc b c\narc c a\n")
    assert run(["complete", "--class", "transitive", f]) == 1
    capsys.readouterr()
    row = ROWS["complete", "transitive"]
    for patched in (
            with_row("complete", "transitive",
                     refutes=row.refutes - {("DirectedCycle", None, None)}),
            with_row("complete", "transitive",
                     run=lambda P: Certificate("BadTriple", {"triple": ["a", "b", "c"]}))):
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(ROWS, ("complete", "transitive"), patched)
            assert run(["complete", "--class", "transitive", f]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"internal error: InvariantError: complete certificate "
                            r"\('\w+', None, None\) does not refute transitive\n", err), err


def test_the_friendly_fragment_keeps_exit_1(w, capsys):
    f = w("g", "arc a b\narc b c\nedge a c\n")
    assert run(["complete", "--class", "ltlt-friendly", f]) == 1
    assert capsys.readouterr().out == \
        '{"payload": {"triple": ["a", "b", "c"]}, "tag": "BadTriple"}\n'
    assert run(["complete", "--class", "lt", f]) == 0
    assert "arc a c" in capsys.readouterr().out


def test_a_yes_outside_its_class_exits_4(w, capsys, monkeypatch):
    """A completion that is not oriented, lacks the row's property or,
    for ltlt-friendly, drops an input arc is an internal error."""
    f = w("g", "arc a b\nedge b c\nedge a c\n")

    def oriented(*arcs):
        return lambda P: Pog(P.names, frozenset(), frozenset(arcs))

    cases = [  # a, b, c are 0, 1, 2
        ("lt", lambda P: P, "lt answer is not a local_tournament completion"),
        ("strong", oriented((0, 1), (0, 2), (1, 2)),
         "strong answer is not a strong completion"),
        ("ltlt-friendly", oriented((1, 0), (1, 2), (0, 2)),  # transitive, but b -> a
         "ltlt-friendly answer is not a locally_transitive completion"),
        ("transitive", oriented((0, 1), (1, 2), (2, 0)),
         "transitive answer is not a transitive_tournament completion")]
    for cls, broken, message in cases:
        monkeypatch.setitem(ROWS, ("complete", cls), with_row("complete", cls, run=broken))
        assert run(["complete", "--class", cls, f]) == 4
        out, err = capsys.readouterr()
        assert (out, err) == ("", "internal error: InvariantError: %s\n" % message)


def test_each_yes_is_checked_once(w, capsys, monkeypatch):
    """The row check classifies a completion exactly once, and nothing
    else: no completer keeps a self-check of its own.  Only `interval`
    classifies elsewhere, in the tent branch of complete_to_acyclic_lt."""
    calls = []
    real = classes.classify
    monkeypatch.setattr(classes, "classify", lambda D: calls.append(D) or real(D))
    rng = random.Random(42)
    yes = Counter()
    for _ in range(80):
        f = w("g", render_pog(random_pog(rng, rng.randrange(7), p_adj=0.7, p_arc=0.3)))
        for (command, name), row in ROWS.items():
            calls.clear()
            code = run([command, "--class", name, f])
            capsys.readouterr()
            checks = hasattr(classes.PropertyReport, row.yes)
            assert len(calls) == (code == 0 and checks), (name, code, len(calls))
            yes[name] += code == 0
    assert all(yes[name] for name in names("complete")), yes
    src = ROOT / "src" / "pogc"
    callers = {p.stem for p in src.glob("*.py") if "classify(" in p.read_text()}
    assert callers == {"pog", "classes", "interval"}, callers


def test_each_class_is_named_in_one_module():
    """A class name is a string of classes.py alone, but where it is also
    the name of the property it checks (`strong`)."""
    src = ROOT / "src" / "pogc"
    texts = {p.name: p.read_text() for p in src.glob("*.py")}
    for name in names("complete") + names("recognize"):
        holders = [m for m, text in texts.items() if '"%s"' % name in text]
        if name in classes.PropertyReport.PROPERTIES:
            holders.remove("pog.py")
        assert holders == ["classes.py"], (name, holders)
