"""Exact computer algebra for symplectic determinant laws.

Rationals, sparse multivariate polynomials and matrices over them;
Pfaffians and the symplectic transpose; determinant/Pfaffian coefficient
recursions; trace-word invariants of matrix tuples under Sp/GSp
conjugation; symplectic generalized matrix algebras; and
representation-backed pseudocharacters with their comparison to
determinant laws.
"""

from .detlaws import (
    GroupAlgebraElement,
    InvolutiveRepresentation,
    chi_alpha,
    closed_form_check_d4,
    eval_det_law,
    eval_pf_law,
    newton_lambdas_from_traces,
    pf_law_from_det,
    pfaffian_coeffs_from_lambdas,
    star,
)
from .errors import (
    ArityError,
    CapacityError,
    DimensionError,
    GeneratorError,
    MembershipError,
    NotASimilitudeError,
    SchemaError,
    SpectrumError,
    StructureError,
    SymplawError,
    UnsupportedKindError,
    VariableError,
)
from .gma import (
    GmaSpec,
    GmaType,
    QuotientRing,
    build_J_delta,
    check_sch_condition,
    delta_involution,
    gma_chi_p,
    gma_trace_det_pf,
    validate_standard_gma,
)
from .invariants import (
    InvariantFunction,
    TraceWord,
    check_invariance,
    enumerate_trace_words,
    eval_invariant,
    multilinear_invariant_dim,
    trace_word_span_dim,
)
from .matrices import RingMatrix, char_poly, lambdas_of_matrix, mat_det
from .multipoly import MultiPoly
from .pseudochar import (
    Pseudocharacter,
    comparison_to_det_law,
    similitude_character,
    theta_eval,
    verify_axioms,
)
from .suites import SuiteConfig, run_suite
from .symplectic import (
    SymplecticContext,
    pfaffian,
    pfaffian_char_poly,
    reduced_pfaffian,
    sample_symplectic,
    similitude,
    symplectic_transpose,
)

__all__ = [
    "ArityError",
    "CapacityError",
    "DimensionError",
    "GeneratorError",
    "GmaSpec",
    "GmaType",
    "GroupAlgebraElement",
    "InvariantFunction",
    "InvolutiveRepresentation",
    "MembershipError",
    "MultiPoly",
    "NotASimilitudeError",
    "Pseudocharacter",
    "QuotientRing",
    "RingMatrix",
    "SchemaError",
    "SpectrumError",
    "StructureError",
    "SuiteConfig",
    "SymplawError",
    "SymplecticContext",
    "TraceWord",
    "UnsupportedKindError",
    "VariableError",
    "build_J_delta",
    "char_poly",
    "check_invariance",
    "check_sch_condition",
    "chi_alpha",
    "closed_form_check_d4",
    "comparison_to_det_law",
    "delta_involution",
    "enumerate_trace_words",
    "eval_det_law",
    "eval_invariant",
    "eval_pf_law",
    "gma_chi_p",
    "gma_trace_det_pf",
    "lambdas_of_matrix",
    "mat_det",
    "multilinear_invariant_dim",
    "newton_lambdas_from_traces",
    "pf_law_from_det",
    "pfaffian",
    "pfaffian_char_poly",
    "pfaffian_coeffs_from_lambdas",
    "reduced_pfaffian",
    "run_suite",
    "sample_symplectic",
    "similitude",
    "similitude_character",
    "star",
    "symplectic_transpose",
    "theta_eval",
    "trace_word_span_dim",
    "validate_standard_gma",
    "verify_axioms",
]
