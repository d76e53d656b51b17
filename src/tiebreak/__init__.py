"""Equilibria and tie-breaking-rule design for two-player contests with ties.

The package splits into:

- `core`: contest specifications, tie rules, payoffs, serialization.
- `families`: built-in contest success functions with tie outcomes.
- `audit`: the regularity conditions solvers rely on, decided exactly from
  each family's parameters.
- `equilibrium`: `solve`, its closed-form, root-finding and Newton routes,
  each one body that runs one tie rule or many at once (`solve_many`), and
  the effort-gap root `solve_beta`.
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
    estimate_vbar,
)
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
    solve_many,
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
    "solve_many",
    "sweep",
    "verify",
]
