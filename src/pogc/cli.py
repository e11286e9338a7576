"""Command-line front end.

Exit codes: 0 success, 1 refuted (a certificate is emitted), 2 input
error, 3 size guard or unsupported instance, 4 internal error (a bug:
one ``internal error:`` line on stderr, nothing on stdout).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .classes import ROWS
from .errors import (NotInClassError, NotSatisfyingError, ParseError,
                     RepresentationError, SizeGuardError,
                     UnsupportedInstanceError)
from .hardness import assignment_to_ordering, build_reduction, parse_dimacs
from .interval import parse_representation, render_representation
from .pog import (Certificate, Pog, parse_pog, parse_ordering,
                  render_ordering, render_pog)
from .rounds import ORDER_KINDS, check_ordering
from .verify import verify_certificate


def _read(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError("%s is not UTF-8 text: %s" % (path, exc)) from None


def _emit(args, obj, human):
    if args.json:
        print(json.dumps(obj, sort_keys=True))
    else:
        print(human, end="" if human.endswith("\n") else "\n")


def _arc_names(D):
    return sorted([D.names[i], D.names[j]] for i, j in D.arcs)


def _emit_answer(args, obj, res):
    """Print an answer and return its exit code: a certificate, a
    completion, a representation, or None for a plain yes."""
    if isinstance(res, Certificate):
        _emit(args, dict(obj, status="no", certificate={
            "tag": res.tag, "payload": res.payload}), res.to_json())
        return 1
    obj["status"], human = "yes", "yes"
    if isinstance(res, Pog):
        obj["status"], human = "completed", render_pog(res)
        if args.json:
            obj["arcs"] = _arc_names(res)
    elif res is not None:
        obj["representation"] = {
            "kind": res.kind, "modulus": res.modulus,
            "spans": {nm: list(sp) for nm, sp in zip(res.names, res.spans)}}
        human = render_representation(res)
    _emit(args, obj, human)
    return 0


def _run_row(command, args):
    """Answer the command's class on the pog file, checked against its
    row of the class table."""
    row = ROWS[command, args.cls]
    P = parse_pog(_read(args.file))
    return _emit_answer(args, {"class": args.cls}, row.checked(P, row.run(P)))


# -- complete and recognize -----------------------------------------------


def _cmd_complete(args):
    return _run_row("complete", args)


def _cmd_recognize(args):
    return _run_row("recognize", args)


# -- check-ordering -------------------------------------------------------


def _cmd_check_ordering(args):
    P = parse_pog(_read(args.file))
    O = parse_ordering(_read(args.ordering), P)
    ok, wit = check_ordering(P, O, args.kind)
    obj = {"class": args.kind,
           "ordering": {"kind": O.kind,
                        "seq": [P.names[v] for v in O.seq]}}
    return _emit_answer(args, obj, None if ok else Certificate(
        "OrderingViolation",
        {"kind": args.kind, "ordering": obj["ordering"], "witness": wit}))


# -- extend-rep -----------------------------------------------------------


def _cmd_extend_rep(args):
    G = parse_pog(_read(args.graph))
    partial = parse_representation(_read(args.partial))
    row = next(r for r in ROWS.values() if r.rep == args.kind)
    return _emit_answer(args, {"class": args.kind}, row.run(G, partial))


# -- reduce-3sat ----------------------------------------------------------


def _parse_witness(text, n_vars):
    text = text.strip()
    if text and all(ch in "TFtf01" for ch in text):
        return {i + 1: ch in "Tt1" for i, ch in enumerate(text)}
    toks = text.replace(",", " ").split()
    t = {}
    for tok in toks:
        try:
            l = int(tok)
        except ValueError:
            raise ParseError("bad witness literal %r" % tok) from None
        if l == 0 or abs(l) > n_vars:
            raise ParseError("witness literal %d out of range" % l)
        t[abs(l)] = l > 0
    return t


def _cmd_reduce_3sat(args):
    F = parse_dimacs(_read(args.dimacs))
    R = build_reduction(F)
    obj = {"class": "reduce-3sat", "status": "completed"}
    if args.witness is not None:
        t = _parse_witness(args.witness, F.n_vars)
        O = assignment_to_ordering(R, t)
        obj["ordering"] = {"kind": O.kind,
                           "seq": [R.pog.names[v] for v in O.seq]}
        _emit(args, obj, render_ordering(O, R.pog))
        return 0
    if args.json:
        obj["arcs"] = _arc_names(R.pog)
        obj["edges"] = sorted([R.pog.names[i], R.pog.names[j]]
                              for i, j in R.pog.edges)
    _emit(args, obj, render_pog(R.pog))
    return 0


# -- verify-cert ----------------------------------------------------------


def _cmd_verify_cert(args):
    P = parse_pog(_read(args.file))
    cert = Certificate.from_json(_read(args.cert))
    ok = verify_certificate(P, cert)
    obj = {"class": "verify-cert", "status": "valid" if ok else "invalid"}
    _emit(args, obj, obj["status"])
    return 0 if ok else 1


# -- wiring ---------------------------------------------------------------


@functools.cache
def _build_parser():
    """The argument parser, built once per process."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="machine-readable output")
    top = argparse.ArgumentParser(
        prog="pogc",
        description="Orientation completion of partially oriented graphs.")
    sub = top.add_subparsers(dest="command", required=True)

    for command, what in (
            ("complete", "complete a pog inside a target class"),
            ("recognize", "recognize a graph class")):
        p = sub.add_parser(command, parents=[common], help=what)
        p.add_argument("--class", dest="cls", required=True,
                       choices=[n for c, n in ROWS if c == command])
        p.add_argument("file")

    p = sub.add_parser("check-ordering", parents=[common],
                       help="check a vertex ordering")
    p.add_argument("--kind", required=True, choices=ORDER_KINDS)
    p.add_argument("file")
    p.add_argument("ordering")

    p = sub.add_parser("extend-rep", parents=[common],
                       help="extend a partial representation")
    p.add_argument("--kind", required=True,
                   choices=[r.rep for r in ROWS.values() if r.rep])
    p.add_argument("graph")
    p.add_argument("partial")

    p = sub.add_parser("reduce-3sat", parents=[common],
                       help="build the 3-SAT reduction instance")
    p.add_argument("--witness", help="satisfying assignment, e.g. TFT or "
                                     "'1 -2 3'")
    p.add_argument("dimacs")

    p = sub.add_parser("verify-cert", parents=[common],
                       help="verify a certificate against a pog")
    p.add_argument("file")
    p.add_argument("cert")
    return top


def run(argv=None):
    """Run one command; its `_cmd_` function is looked up at call time,
    so the cached parser holds no function."""
    args = _build_parser().parse_args(argv)
    try:
        return globals()["_cmd_" + args.command.replace("-", "_")](args)
    except (ParseError, RepresentationError, NotSatisfyingError,
            NotInClassError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (SizeGuardError, UnsupportedInstanceError) as exc:
        print("unsupported: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 4


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
