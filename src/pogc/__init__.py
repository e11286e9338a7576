"""Orientation completion of partially oriented graphs.

Completion inside local tournament style classes, proper interval and
circular-arc representation construction and extension, and the 3-SAT
reduction machinery with an exact small-instance solver.
"""

from .auxgraph import (AuxGraph, aux_adjacent, build_aux, complete_via_aux,
                       consentaneous_closure, two_colour)
from .completions import (complete_to_cycle_factor_bruteforce,
                          complete_to_in_tournament, complete_to_strong,
                          complete_to_transitive_tournament,
                          find_cycle_factor, is_k_arc_strong, two_sat)
from .errors import (InvariantError, NoZeroOutdegreeStartError,
                     NotFriendlyError, NotInClassError, NotRoundError,
                     NotSatisfyingError, ParseError, PogError,
                     RepresentationError, SizeGuardError,
                     UnsupportedInstanceError)
from .friendly import (bad_triples, complement_components, complete_cells,
                       complete_friendly, extend_circular_arc_representation,
                       is_friendly)
from .hardness import (CnfFormula, ReductionInstance, assignment_to_ordering,
                       build_reduction, exact_complete, gadget,
                       orient_by_assignment, parse_dimacs, render_dimacs)
from .interval import (Representation, complete_to_acyclic_lt,
                       extend_interval_representation, lbfs,
                       parse_representation, render_representation,
                       representation_from_orientation,
                       validate_representation)
from .pog import (Certificate, Ordering, Pog, classify, complete_closure,
                  find_directed_cycle, parse_ordering, parse_pog,
                  render_ordering, render_pog)
from .rounds import (check_ordering, find_round_ordering, ltt_to_ordering,
                     merge_ltt, moon_decompose, ordering_to_ltt, round_to_ltt,
                     saturate_to_round_lt)
from .verify import verify_certificate

__version__ = "0.1.0"
