"""The classes of `pogc complete` and `pogc recognize`, one row each:
the function that answers it, how a "yes" is checked, the certificates
a "no" may carry, the paper's claim and the size guard.  The command
line takes its choices and dispatch from ROWS, and checks each answer
once against its row (`ClassRow.checked`).  A certificate is known by
its triple: tag, payload kind, and where it lies, which is the kind of
a `DirectedCycle` location or the mode of an aux walk."""

from __future__ import annotations

from .auxgraph import complete_via_aux
from .completions import (complete_to_cycle_factor_bruteforce,
                          complete_to_in_tournament, complete_to_strong,
                          complete_to_transitive_tournament)
from .errors import InvariantError, NotFriendlyError
from .friendly import complete_friendly, extend_circular_arc_representation
from .hardness import exact_complete
from .interval import (_find_hole, check_peo, complete_to_acyclic_lt,
                       extend_interval_representation, lbfs)
from .pog import Certificate, PropertyReport, _Record, classify

LT, QT, POLY, NPC = "local_tournament", "quasi_transitive", "polynomial", "NP-complete"


def triple(cert):
    """The (tag, kind, where) triple of a certificate."""
    pay = cert.payload
    loc = pay.get("location")
    return cert.tag, pay.get("kind"), loc["kind"] if loc else pay.get("mode")


class ClassRow(_Record):
    command: str         # "complete" or "recognize"
    name: str            # the --class value
    run: object          # pog -> answer or Certificate
    yes: str             # a PropertyReport property, or how the run checks it
    refutes: frozenset   # the triples of the certificates that refute the class
    claim: str           # the paper's complexity claim
    guard: str = None    # the size guard of the run's exhaustive search
    fragment: frozenset = frozenset()  # triples refuting the friendly fragment only
    rep: str = None      # the Representation kind that extend-rep extends

    def checked(self, P, res):
        """res, the run's answer on P, once checked: a certificate must
        have a triple of the row, and a completion, where `yes` names a
        property, must be oriented, have it and keep P's arcs.  Raises
        InvariantError otherwise."""
        if isinstance(res, Certificate):
            if triple(res) not in self.refutes | self.fragment:
                raise InvariantError("%s certificate %r does not refute %s"
                                     % (self.command, triple(res), self.name))
        elif hasattr(PropertyReport, self.yes):
            if res.edges or not getattr(classify(res), self.yes) \
                    or not P.arcs <= res.arcs:
                raise InvariantError("%s answer is not a %s completion"
                                     % (self.name, self.yes))
        return res


def _ltlt(P):
    try:
        return complete_friendly(P)
    except NotFriendlyError as exc:
        return exc.certificate


def _ltt(P):
    D = exact_complete(P, "ltt")
    return D if D is not None else Certificate(
        "NoCompletion", {"kind": "exhausted", "target": "ltt"})


def _chordal(P):
    """None when UG(P) is chordal, else the hole at the triple where the
    perfect elimination check of its LBFS order failed."""
    G = P.underlying_graph()
    ok, bad = check_peo(G, lbfs(G))
    return None if ok else _find_hole(G, bad)


ODD_WALK = ("OddClosedWalkAux", None, LT)
WALKS = {ODD_WALK, ("OrientationConflict", "odd_pair", LT)}
HOLE_OR_TENT = {("NotChordal", "hole", None), ("NotChordal", "tent", None)}
REP = "by construction: the representation back-check"

# Each run reads its function from this module's globals when called,
# so a wrapper bound over that name (a span tracer) is the one run.
ROWS = {(r.command, r.name): r for r in (
    ClassRow("complete", "acyclic-lt", lambda P: complete_to_acyclic_lt(P),
             "acyclic_local_tournament", frozenset(WALKS | HOLE_OR_TENT | {
                 ("DirectedCycle", None, None), ("DirectedCycle", None, "closure")}), POLY),
    ClassRow("complete", "cycle-factor", lambda P: complete_to_cycle_factor_bruteforce(P),
             "by construction: the matching over the completion's successors",
             frozenset({("NoCompletion", "hall", None), ("NoCompletion", "exhausted", None)}),
             "not stated in the abstract", "MAX_CYCLE_FACTOR_EDGES"),
    ClassRow("complete", "in-tournament", lambda P: complete_to_in_tournament(P),
             "in_tournament", frozenset({("NoCompletion", "two_sat_core", None)}), POLY),
    ClassRow("complete", "lt", lambda P: complete_via_aux(P, LT), "local_tournament",
             frozenset(WALKS), POLY),
    ClassRow("complete", "ltlt-friendly", _ltlt, "locally_transitive",
             frozenset(WALKS | {("DirectedCycle", None, k) for k in ("cell", "out", "in")}),
             NPC + "; polynomial on friendly pogs",
             fragment=frozenset({("OrientationConflict", "unoriented_mate", LT),
                                 ("BadTriple", None, None)})),
    ClassRow("complete", "ltt-exact", _ltt, "by construction: the round-ordering leaf check",
             frozenset({("NoCompletion", "exhausted", None)}), NPC, "MAX_SEARCH_EDGES"),
    ClassRow("complete", "quasi-transitive", lambda P: complete_via_aux(P, QT),
             "quasi_transitive", frozenset({("OddClosedWalkAux", None, QT),
                                            ("OrientationConflict", "odd_pair", QT)}), POLY),
    ClassRow("complete", "strong", lambda P: complete_to_strong(P), "strong",
             frozenset({("Bridge", None, None), ("DirectedCut", None, None)}), POLY),
    ClassRow("complete", "transitive", lambda P: complete_to_transitive_tournament(P),
             "transitive_tournament", frozenset({("NonAdjacentPair", None, None),
                                                 ("DirectedCycle", None, None)}), POLY),
    # recognition has no arcs to start from: a connected graph's cells are
    # oriented transitively and each pair in a cell is an aux component of
    # its own, so the closure adds no arc and holds no cycle
    ClassRow("recognize", "proper-interval", lambda G, partial=None:
             extend_interval_representation(G, partial), REP,
             frozenset({ODD_WALK} | HOLE_OR_TENT), POLY, rep="interval"),
    ClassRow("recognize", "proper-circular-arc", lambda G, partial=None:
             extend_circular_arc_representation(G, partial), REP,
             frozenset({ODD_WALK} | HOLE_OR_TENT), POLY, rep="circular"),
    ClassRow("recognize", "chordal", _chordal, "by construction: the PEO check",
             frozenset({("NotChordal", "hole", None)}), POLY + " (not a class of the paper)"),
)}
