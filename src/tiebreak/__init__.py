"""Equilibria and tie-breaking-rule design for two-player contests with ties.

The package splits into:

- `core`: contest specifications, tie rules, payoffs, serialization.
- `families`: built-in contest success functions with tie outcomes.
- `audit`: grid certification of the regularity conditions solvers rely on.
- `equilibrium`: closed-form, root-finding, and Newton solvers.
- `batch`: the same solvers vectorized over many tie rules at once.
- `oracle`: brute-force discretized-game verification, independent of the
  analytic code paths.
- `designer`: total-effort sweeps, shape certificates, optimal and random
  tie rules.
- `cli`: the `tiebreak` command.
"""
from .audit import (
    AuditReport,
    ConditionRecord,
    audit_concave,
    audit_diff,
    audit_ratio,
    default_diff_grid,
    default_ratio_grid,
    estimate_vbar,
)
from .batch import solve_many
from .core import (
    ContestSpec,
    CostKind,
    EffortProfile,
    OutcomeDistribution,
    RandomTieRule,
    TieRule,
    Valuations,
    eventual_win_prob,
    outcome_distribution,
    payoff,
)
from .designer import (
    ConvexityPrecondition,
    CurveSample,
    EffortCurve,
    OptimalQ,
    Rationale,
    ShapeCertificate,
    ShapeCheck,
    convexity_precondition,
    expected_effort,
    optimal_q,
    sweep,
)
from .equilibrium import (
    Equilibrium,
    SolveMethod,
    solve,
    solve_beta,
    solve_concave,
    solve_diff,
    solve_ratio,
)
from .errors import (
    ContestError,
    ConvergenceError,
    DomainError,
    NoEquilibriumError,
    ValidationError,
)
from .families import (
    FAMILIES,
    BlavatskyyPower,
    JiaDiff,
    JiaRatio,
    VesperoniDiff,
    VesperoniRatio,
    describe_families,
    family_names,
    make_contest,
    make_family,
)
from .oracle import (
    GridSpec,
    VerificationReport,
    grid_best_response,
    grid_nash,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "BlavatskyyPower",
    "ConditionRecord",
    "ContestError",
    "ContestSpec",
    "ConvergenceError",
    "ConvexityPrecondition",
    "CostKind",
    "CurveSample",
    "DomainError",
    "EffortCurve",
    "EffortProfile",
    "Equilibrium",
    "FAMILIES",
    "GridSpec",
    "JiaDiff",
    "JiaRatio",
    "NoEquilibriumError",
    "OptimalQ",
    "OutcomeDistribution",
    "RandomTieRule",
    "Rationale",
    "ShapeCertificate",
    "ShapeCheck",
    "SolveMethod",
    "TieRule",
    "ValidationError",
    "Valuations",
    "VerificationReport",
    "VesperoniDiff",
    "VesperoniRatio",
    "audit_concave",
    "audit_diff",
    "audit_ratio",
    "convexity_precondition",
    "default_diff_grid",
    "default_ratio_grid",
    "describe_families",
    "estimate_vbar",
    "eventual_win_prob",
    "expected_effort",
    "family_names",
    "grid_best_response",
    "grid_nash",
    "make_contest",
    "make_family",
    "optimal_q",
    "outcome_distribution",
    "payoff",
    "solve",
    "solve_beta",
    "solve_concave",
    "solve_diff",
    "solve_many",
    "solve_ratio",
    "sweep",
    "verify",
]
