"""Fusion systems of finite permutation groups.

Construct the fusion system of a finite group at a prime, decide the
standard object predicates (centric, fully normalized, radical, essential),
closure and embedding predicates (strongly/weakly closed, semi-invariance,
pronormality and its relatives), test supersolvability of the fusion system,
and machine-check a registry of theorems connecting these notions over a
corpus of small groups.
"""

from .catalog import (BUILTIN_FAMILIES, alternating, builtin_group, cyclic,
                      dicyclic, dihedral, direct_product, elementary_abelian,
                      frobenius21, heisenberg, psl2, symmetric)
from .classify import (EmbeddingSearch, GroupClassification, classify_group,
                       has_strongly_p_embedded)
from .corpus import (CORPUS, CorpusEntry, corpus_group, corpus_names,
                     load_corpus, load_group, save_group)
from .errors import (CapacityError, EngineError, PreconditionError,
                     UnsupportedCaseError, ValidationError)
from .fusion import (CLOSURE_PREDICATES, FUSION_PREDICATES, AutomizerPair,
                     FusionClass, FusionContext, PredicateReport,
                     QuotientSystem, automizer, chain_through,
                     closure_predicate, essential_star, essential_subgroups,
                     fusion_class, fusion_p_core, fusion_predicate,
                     is_fusion_normal, morphisms, normalizer_system,
                     quotient_system, supersolvable_chain,
                     sylow_controls_fusion)
from .groups import (Group, GroupMap, StructureFlags, Subgroup, centralizer,
                     conjugate_subgroup, core, generate_group, is_prime,
                     normalizer, p_part, prime_divisors, quotient_group,
                     structure_flags, subgroup_label, subgroup_product,
                     sylow_subgroup)
from .lattice import (ChiefFactor, HypercenterCheck, SubgroupLattice,
                      all_subgroups, chief_series_below, cyclic_quotient,
                      lies_in_U_hypercenter, maximal_subgroups,
                      normal_subgroups)
from .limits import DEFAULT_LIMITS, Limits
from .normality import (NORMALITY_KINDS, EquivalenceReport, equivalence_suite,
                        group_predicate, sylow_containing)
from .perms import (compose, conjugate, cycle_string, cycles, from_cycles,
                    identity, inverse, perm_order)
from .report import (analysis_payload, canonical_json, equivalence_payload,
                     make_report, read_report, render_text, suite_payload,
                     write_report)
from .verify import (CASE_SHAPES, REGISTRY, REGISTRY_ORDER, HypothesisTemplate,
                     SuiteReport, TheoremEntry, VerificationOutcome,
                     branch_fidelity_report, check_theorem, run_suite,
                     scan_hypothesis)

__version__ = "0.1.0"
