"""Run analysis for two-way word transducers: crossing sequences, effect
semigroups, factorization forests, loops and pumping, inversions, run
decompositions, and bounded definability deciders with replayable
certificates."""

from .bounds import BoundFactored, PeriodBound, bound_admits
from .transducer import (Transducer, Transition, ValidationReport, constants,
                         check_functional_bounded, parse_transducer,
                         serialize_transducer, validate, words_upto)
from .runs import (CapExceeded, Run, dump_run, enumerate_runs, runs_upto,
                   validate_run)
from .effects import (BOTTOM, Effect, Flow, effect_of_interval, effect_product,
                      flow_of_interval, flow_product, is_idempotent)
from .loops import (Loop, components_of, enumerate_loops, is_output_minimal,
                    predicted_pump_output, pump, trace_of)
from .forest import (FactorizationForest, RamseyWitness, build_forest,
                     ramsey_extract, verify_forest)
from .inversions import (Inversion, KInversion, PeriodIndex, check_p2,
                         enumerate_inversions, enumerate_k_inversions,
                         fine_wilf_check, has_dividing_period, inversion_word,
                         k_inversion_safe, smallest_period)
from .decomposition import (Decomposition, build_decomposition,
                            block_interval, coverage_classes, is_block,
                            is_diagonal, validate_decomposition)
from .oneway import (RefutationCertificate, Verdict, decide_oneway_bounded,
                     decide_sweeping_bounded, simulate_oneway,
                     verify_certificate)

__all__ = [name for name in dir() if not name.startswith("_")]
