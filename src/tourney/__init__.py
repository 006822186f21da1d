"""Exact construction, counting, classification and exhaustive
verification of small tournaments.

A tournament is a complete directed graph: every unordered vertex pair
carries exactly one arc.  The package stores them as bitmask adjacency
rows, counts cycles and strong subtournaments both by closed formulas
and by brute-force oracles, classifies regularity and local structure,
and verifies extremal bounds by exhaustive sweep at small orders.
"""

from .classify import (
    ClassificationReport,
    aat_positive,
    classification_report,
    is_doubly_regular,
    is_locally_regular,
    is_locally_transitive,
    is_near_regular,
    is_nearly_doubly_regular,
    is_regular,
    is_rldr,
    is_rlndr,
    is_transitive,
    landau_feasible,
    semi_degree,
)
from .core import (
    MAX_CANONICAL_ORDER,
    MAX_ORDER,
    CanonicalForm,
    StrongDecomposition,
    Tournament,
    automorphism_count,
    canonical_form,
    compose,
    converse,
    induced,
    is_isomorphic,
    is_strong,
    mask_of,
    strong_decomposition,
    validate,
    vertices_of,
)
from .counting import (
    ORACLE_MAX_ORDER,
    TRACE_MAX_M,
    ArcIntersection,
    CountEntry,
    CountReport,
    arc_intersections,
    c3_formula,
    c4_formula,
    c5_formula,
    count_report,
    oracle_cycles,
    oracle_strong_subs,
    oracle_w,
    s5_formula,
    s_formula,
    scores,
    trace_m,
    w_formula,
)
from .enumeration import (
    ENUM_MAX_ORDER,
    EnumCorpus,
    enumerate_regular,
    read_corpus,
    verify_corpus,
    write_corpus,
)
from .errors import (
    InternalParityError,
    InvalidInput,
    ParseError,
    TimeBudgetExceededError,
    TourneyError,
    VerificationFailedError,
)
from .extremal import (
    BoundReport,
    MinimizationReport,
    SweepExtremes,
    balanced_sequence,
    binomial_sum_min,
    c5_max_bound,
    c5_of_rlt,
    c5_regular_max,
    expected_cycles,
    delta_tt3_copies_in_rlt,
    regular_identity,
    regular_identity_trace,
    rlt5_copies_in_rlt,
    s5_of_dr,
    s5_of_ndr,
    s5_of_rlt,
    verify_binomial_sum_min,
    verify_c5_max,
    verify_regular9,
)
from .generators import (
    RotationalSymbol,
    gen_named,
    gen_qr,
    gen_qr_power,
    gen_random,
    gen_rlt,
    gen_rotational,
    gen_transitive,
)
from .io import format_tour, parse_tour, read_tour, write_tour

__version__ = "0.1.0"

__all__ = [
    "MAX_ORDER", "MAX_CANONICAL_ORDER", "ORACLE_MAX_ORDER", "TRACE_MAX_M",
    "ENUM_MAX_ORDER",
    "Tournament", "CanonicalForm", "StrongDecomposition",
    "validate", "mask_of", "vertices_of", "induced", "converse", "compose",
    "strong_decomposition", "is_strong", "canonical_form",
    "is_isomorphic", "automorphism_count",
    "parse_tour", "format_tour", "read_tour", "write_tour",
    "scores", "ArcIntersection", "arc_intersections",
    "c3_formula", "c4_formula", "c5_formula", "w_formula", "s_formula",
    "s5_formula", "trace_m", "oracle_cycles", "oracle_strong_subs",
    "oracle_w", "CountEntry", "CountReport", "count_report",
    "gen_transitive", "RotationalSymbol", "gen_rotational", "gen_rlt",
    "gen_qr", "gen_qr_power", "gen_named", "gen_random",
    "is_transitive", "is_regular", "is_near_regular", "semi_degree",
    "is_locally_transitive", "is_locally_regular", "is_doubly_regular",
    "is_nearly_doubly_regular", "is_rldr", "is_rlndr", "aat_positive",
    "landau_feasible", "ClassificationReport", "classification_report",
    "EnumCorpus",
    "enumerate_regular", "write_corpus", "read_corpus", "verify_corpus",
    "c5_max_bound", "c5_regular_max", "s5_of_rlt", "c5_of_rlt", "s5_of_dr",
    "s5_of_ndr", "rlt5_copies_in_rlt", "delta_tt3_copies_in_rlt",
    "expected_cycles", "regular_identity", "regular_identity_trace",
    "BoundReport", "MinimizationReport", "SweepExtremes",
    "balanced_sequence", "binomial_sum_min", "verify_binomial_sum_min",
    "verify_c5_max", "verify_regular9",
    "TourneyError", "InvalidInput", "ParseError", "InternalParityError",
    "VerificationFailedError", "TimeBudgetExceededError",
]
