"""Command-line front end.

Exit codes: 0 success, 1 refuted (a certificate is emitted), 2 input
error, 3 size guard or unsupported instance, 4 internal error (a bug:
one ``internal error:`` line on stderr, nothing on stdout).
"""

from __future__ import annotations

import argparse
import json
import sys

from .auxgraph import complete_via_aux
from .completions import (complete_to_cycle_factor_bruteforce,
                          complete_to_in_tournament, complete_to_strong,
                          complete_to_transitive_tournament)
from .errors import (NotFriendlyError, NotInClassError, NotRoundError,
                     NotSatisfyingError, ParseError, RepresentationError,
                     SizeGuardError, UnsupportedInstanceError)
from .friendly import extend_circular_arc_representation
from .hardness import (assignment_to_ordering, build_reduction,
                       exact_complete, no_completion_certificate,
                       parse_dimacs)
from .interval import (_find_hole, check_peo, complete_to_acyclic_lt,
                       extend_interval_representation, lbfs,
                       parse_representation, render_representation)
from .pog import (Certificate, parse_pog, parse_ordering, render_ordering,
                  render_pog, verify_certificate)
from .rounds import check_ordering


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _emit(args, obj, human):
    if args.json:
        print(json.dumps(obj, sort_keys=True))
    else:
        print(human, end="" if human.endswith("\n") else "\n")


def _emit_certificate(args, obj, cert):
    obj = dict(obj)
    obj["status"] = "no"
    obj["certificate"] = {"tag": cert.tag, "payload": cert.payload}
    if args.json:
        print(json.dumps(obj, sort_keys=True))
    else:
        print(cert.to_json())
    return 1


def _arc_names(D):
    return sorted([D.names[i], D.names[j]] for i, j in D.arcs)


_REPRESENTERS = {"interval": extend_interval_representation,
                 "circular": extend_circular_arc_representation}


def _emit_representation(args, obj, res):
    if isinstance(res, Certificate):
        return _emit_certificate(args, obj, res)
    obj["status"] = "yes"
    obj["representation"] = {
        "kind": res.kind, "modulus": res.modulus,
        "spans": {nm: list(sp) for nm, sp in zip(res.names, res.spans)}}
    _emit(args, obj, render_representation(res))
    return 0


# -- complete -------------------------------------------------------------


def _complete_ltlt(P):
    from .friendly import complete_friendly
    try:
        return complete_friendly(P)
    except NotFriendlyError as exc:
        return exc.certificate


def _complete_ltt_exact(P):
    D = exact_complete(P, "ltt")
    return D if D is not None else no_completion_certificate(P, "ltt")


_COMPLETERS = {
    "lt": lambda P: complete_via_aux(P, "local_tournament"),
    "acyclic-lt": complete_to_acyclic_lt,
    "ltlt-friendly": _complete_ltlt,
    "ltt-exact": _complete_ltt_exact,
    "transitive": complete_to_transitive_tournament,
    "in-tournament": complete_to_in_tournament,
    "quasi-transitive": lambda P: complete_via_aux(P, "quasi_transitive"),
    "strong": complete_to_strong,
    "cycle-factor": complete_to_cycle_factor_bruteforce,
}


def _cmd_complete(args):
    P = parse_pog(_read(args.file))
    res = _COMPLETERS[args.cls](P)
    obj = {"class": args.cls}
    if isinstance(res, Certificate):
        return _emit_certificate(args, obj, res)
    obj["status"] = "completed"
    obj["arcs"] = _arc_names(res)
    _emit(args, obj, render_pog(res))
    return 0


# -- recognize ------------------------------------------------------------


def _cmd_recognize(args):
    P = parse_pog(_read(args.file))
    obj = {"class": args.cls}
    if args.cls == "chordal":
        G = P.underlying_graph()
        O = lbfs(G)
        ok, _ = check_peo(G, O)
        if ok:
            obj["status"] = "yes"
            _emit(args, obj, "yes")
            return 0
        hole = _find_hole(G)
        cert = Certificate("NotChordal", {
            "kind": "hole", "vertices": [G.names[v] for v in hole]})
        return _emit_certificate(args, obj, cert)
    kind = "interval" if args.cls == "proper-interval" else "circular"
    return _emit_representation(args, obj, _REPRESENTERS[kind](P))


# -- check-ordering -------------------------------------------------------


def _cmd_check_ordering(args):
    P = parse_pog(_read(args.file))
    O = parse_ordering(_read(args.ordering), P)
    ok, wit = check_ordering(P, O, args.kind)
    obj = {"class": args.kind,
           "ordering": {"kind": O.kind,
                        "seq": [P.names[v] for v in O.seq]}}
    if ok:
        obj["status"] = "yes"
        _emit(args, obj, "yes")
        return 0
    cert = Certificate("OrderingViolation", {
        "kind": args.kind,
        "ordering": obj["ordering"],
        "witness": wit,
    })
    return _emit_certificate(args, obj, cert)


# -- extend-rep -----------------------------------------------------------


def _cmd_extend_rep(args):
    G = parse_pog(_read(args.graph))
    partial = parse_representation(_read(args.partial))
    return _emit_representation(args, {"class": args.kind},
                                _REPRESENTERS[args.kind](G, partial))


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


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="machine-readable output")
    top = argparse.ArgumentParser(
        prog="pogc",
        description="Orientation completion of partially oriented graphs.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complete", parents=[common],
                       help="complete a pog inside a target class")
    p.add_argument("--class", dest="cls", required=True,
                   choices=sorted(_COMPLETERS))
    p.add_argument("file")
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("recognize", parents=[common],
                       help="recognize a graph class")
    p.add_argument("--class", dest="cls", required=True,
                   choices=["proper-interval", "proper-circular-arc",
                            "chordal"])
    p.add_argument("file")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("check-ordering", parents=[common],
                       help="check a vertex ordering")
    p.add_argument("--kind", required=True,
                   choices=["round", "excellent", "nice"])
    p.add_argument("file")
    p.add_argument("ordering")
    p.set_defaults(func=_cmd_check_ordering)

    p = sub.add_parser("extend-rep", parents=[common],
                       help="extend a partial representation")
    p.add_argument("--kind", required=True, choices=["interval", "circular"])
    p.add_argument("graph")
    p.add_argument("partial")
    p.set_defaults(func=_cmd_extend_rep)

    p = sub.add_parser("reduce-3sat", parents=[common],
                       help="build the 3-SAT reduction instance")
    p.add_argument("--witness", help="satisfying assignment, e.g. TFT or "
                                     "'1 -2 3'")
    p.add_argument("dimacs")
    p.set_defaults(func=_cmd_reduce_3sat)

    p = sub.add_parser("verify-cert", parents=[common],
                       help="verify a certificate against a pog")
    p.add_argument("file")
    p.add_argument("cert")
    p.set_defaults(func=_cmd_verify_cert)
    return top


def run(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, RepresentationError, NotSatisfyingError,
            NotInClassError, NotRoundError, OSError) as exc:
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
