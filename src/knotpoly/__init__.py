"""Exact skein-polynomial engine for knot diagrams and Legendrian fronts."""

from .laurent import (LaurentPoly, DeltaFraction, TAU, exact_divide,
                      exact_divide_delta, substitute_jaeger)
from .diagram import (MorseDiagram, BraidWord, DiagramError, ParseError,
                      MAX_STRANDS, MAX_LETTERS, parse_braid, braid_closure,
                      connected_sum, reduce_diagram)
from .front import (FrontWord, LegendrianInvariants, parse_front,
                    classical_invariants, saucer_front, crossed_saucer_front)
from .skein import (SkeinCache, SkeinResult, SkeinStats, homfly_R,
                    kauffman_D, full_invariants, DELTA, DELTA_D)
from .jaeger import (SpliceState, Certificate, nonzero_states,
                     jaeger_both_sides, lj_both_sides, lemma_check,
                     proof_chain_check, DIAGRAM_ALPHABET, FRONT_ALPHABET,
                     DIAGRAM_WEIGHTS, FRONT_WEIGHTS)
from .inequalities import BoundReport, check_front_bounds, mfw_check
from .harness import SearchConfig, enumerate_braids, search, load_config

__version__ = "0.1.0"
