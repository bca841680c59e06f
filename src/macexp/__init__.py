"""Expurgated random-coding error exponents for two-sender memoryless channels.

The package computes, for a discrete memoryless channel with two senders
and one receiver:

* exact type-lattice values of the expurgated error exponent and of the
  relaxed baseline it dominates (``exponents``),
* method-of-types machinery: exact type enumeration, class sizes and
  conditional-type sampling (``typeclasses``),
* constant-composition codebook generation, packing checks and the
  expurgation routine that realizes the bounds (``codebooks``),
* a minimum-equivocation decoder with exact and Monte Carlo error
  estimation (``simulate``),
* JSON file formats and a command line front end (``fileio``, ``cli``).
"""

from .errors import ConstructionError, ScaleGuardError, ValidationError
from .probability import (
    Alphabet,
    Channel,
    Dist,
    JointDist,
    conditional_entropy,
    conditional_kl_divergence,
    conditional_mutual_information,
    entropy,
    joint_from_law_and_channel,
    kl_divergence,
    marginalize,
    product_channel_likelihood,
)
from .typeclasses import (
    SymbolSequence,
    TypeVector,
    compositions_count,
    empirical_type,
    enumerate_lattice,
    enumerate_types,
    in_type_class,
    sample_conditional_type_class,
    type_class_size,
)
from .exponents import (
    ExponentResult,
    InputLaw,
    PackingExponents,
    Pentagon,
    RatePair,
    RegionWitness,
    SolverSpec,
    baseline_branch_exponent,
    baseline_exponent,
    branch_exponent,
    branch_objective,
    capacity_pentagon,
    confusability_feasible,
    expurgated_exponent,
    packing_exponents,
    pair_equivocation,
    region_contains,
)
from .codebooks import (
    CodebookPair,
    ExpurgationResult,
    audit_confusability,
    expurgate,
    generate_codebooks,
    packing_reports,
    single_user_packing_check,
)
from .simulate import (
    DecodeOutcome,
    ErrorEstimate,
    alpha_decode,
    error_prob_exact,
    error_prob_mc,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "Channel", "CodebookPair", "ConstructionError", "DecodeOutcome",
    "Dist", "ErrorEstimate", "ExponentResult", "ExpurgationResult", "InputLaw",
    "JointDist", "PackingExponents", "Pentagon", "RatePair", "RegionWitness",
    "ScaleGuardError", "SolverSpec", "SymbolSequence", "TypeVector",
    "ValidationError", "alpha_decode", "audit_confusability",
    "baseline_branch_exponent", "baseline_exponent", "branch_exponent",
    "branch_objective", "capacity_pentagon", "compositions_count",
    "conditional_entropy", "conditional_kl_divergence",
    "conditional_mutual_information", "confusability_feasible", "empirical_type",
    "entropy", "enumerate_lattice", "enumerate_types", "error_prob_exact",
    "error_prob_mc", "expurgate", "expurgated_exponent", "generate_codebooks",
    "in_type_class", "joint_from_law_and_channel", "kl_divergence",
    "marginalize", "packing_exponents", "packing_reports", "pair_equivocation",
    "product_channel_likelihood", "region_contains",
    "sample_conditional_type_class", "single_user_packing_check",
    "type_class_size",
]
