"""Conservative constraint satisfaction: dichotomy classifier and solver.

Classifies a conservative constraint language as tractable or NP-complete
by per-pair polymorphism search, synthesizes uniform operation tables for
tractable languages, and solves instances through 3-minimality, component
exclusion with strand decomposition, retraction via multiplied instances,
and a semilattice-free base solver.
"""

from .classify import (AFFINE, MAJORITY, NONE, SEMILATTICE,
                       ClassifierVerdict, ConstraintLanguage,
                       EdgeLabeledGraph, PairLabel, check_uniformity_laws,
                       classify_language, classify_pair, derive_m,
                       semilattice_label, synthesize_uniform_ops)
from .errors import (CcspError, InternalInvariantError, InvalidArgumentError,
                     OracleBudgetError, SynthesisFailureError)
from .harness import (GeneratorConfig, Rng, brute_force_solve,
                      brute_force_solutions, canonical_a3, canonical_algebra,
                      gen_algebra, gen_instance, gen_planted_instance)
from .laws import LAWS, LawResult, check_law, run_law_suite
from .minimality import Propagator, establish_3_minimality, is_3_minimal
from .model import (UNSAT, Algebra, Constraint, Instance, Relation,
                    SolveResult, apply_componentwise, close_under_ops,
                    project, relation, sat, summ, validate_instance,
                    verify_assignment)
from .reductions import (RetractionOutcome, arc_free_elements,
                         arc_free_restriction, combine_solutions,
                         exclude_components, find_consistent_collection,
                         idempotent_power, maps_from_solution,
                         multiplied_instance, retract_instance,
                         retraction_step, split_by_strands)
from .solver import (PipelineResult, SolveTrace, classify_and_solve, lev,
                     run_pipeline, solve, solve_semilattice_free)
from .structure import (as_components, find_path, is_linked,
                        is_semilattice_free, strands_of_instance,
                        strands_of_relation, tuple_edge_kind)

__all__ = [name for name in dir() if not name.startswith("_")]
