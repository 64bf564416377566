"""Solvers and verifiers for nonlinear hybrid fractional differential
equations with the Atangana-Baleanu-Caputo derivative."""

__version__ = "0.1.0"

from . import errors
from .expression import Expression, evaluate, parse, to_source, tokenize
from .extremal import (
    BracketResult,
    bracket_maximal,
    bracket_minimal,
    check_enclosure,
    solve_perturbed,
)
from .mittag_leffler import ml_one, ml_prabhakar, ml_two
from .operators import (
    BConvention,
    Discretization,
    Grid,
    KernelConvention,
    OperatorConfig,
    ab_integral,
    abc_derivative,
    discretization,
    ml_kernel_antiderivative,
    rl_integral,
)
from .solver import (
    ConditionReport,
    ProblemSpec,
    SolutionTrace,
    check_monotone_quotient,
    estimate_h_norm,
    estimate_lipschitz_f,
    existence_condition,
    load_problem,
    picard_solve,
    rhs_operator,
    solve_majorant,
)
from .verifier import (
    ComparisonReport,
    Strictness,
    estimate_discretization_constant,
    estimate_g_onesided_lipschitz,
    extremum_sign_check,
    fundamental_theorem_check,
    golden_identity_check,
    verify_comparison,
)

__all__ = [
    "errors",
    "Expression",
    "evaluate",
    "parse",
    "to_source",
    "tokenize",
    "BracketResult",
    "bracket_maximal",
    "bracket_minimal",
    "check_enclosure",
    "solve_perturbed",
    "ml_one",
    "ml_prabhakar",
    "ml_two",
    "BConvention",
    "Discretization",
    "Grid",
    "KernelConvention",
    "OperatorConfig",
    "ab_integral",
    "abc_derivative",
    "discretization",
    "ml_kernel_antiderivative",
    "rl_integral",
    "ConditionReport",
    "ProblemSpec",
    "SolutionTrace",
    "check_monotone_quotient",
    "estimate_h_norm",
    "estimate_lipschitz_f",
    "existence_condition",
    "load_problem",
    "picard_solve",
    "rhs_operator",
    "solve_majorant",
    "ComparisonReport",
    "Strictness",
    "estimate_discretization_constant",
    "estimate_g_onesided_lipschitz",
    "extremum_sign_check",
    "fundamental_theorem_check",
    "golden_identity_check",
    "verify_comparison",
]
