"""The package's public names: a change to them has to be made here too."""
from __future__ import annotations

import tiebreak

PUBLIC_NAMES = [
    "AuditReport", "BlavatskyyPower", "ConditionRecord", "ContestError", "ContestSpec",
    "ConvergenceError", "ConvexityPrecondition", "CostKind", "DomainError",
    "EffortCurve", "EffortProfile", "Equilibrium", "FAMILIES", "GridSpec", "JiaDiff",
    "JiaRatio", "NoEquilibriumError", "OptimalQ", "OutcomeDistribution", "RandomTieRule",
    "Rationale", "ShapeCertificate", "ShapeCheck", "SolveMethod", "TieRule",
    "ValidationError", "Valuations", "VerificationReport", "VesperoniDiff", "VesperoniRatio",
    "audit_concave", "audit_diff", "audit_ratio", "convexity_precondition",
    "describe_families", "estimate_vbar",
    "eventual_win_prob", "expected_effort", "family_names", "grid_best_response",
    "grid_nash", "make_contest", "make_family", "optimal_q", "outcome_distribution",
    "payoff", "solve", "solve_beta", "solve_many", "sweep", "verify",
]


def test_public_names_are_pinned():
    assert sorted(tiebreak.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in tiebreak.__all__:
        assert getattr(tiebreak, name) is not None, name
