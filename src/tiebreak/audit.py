"""Audits of the regularity conditions behind the solvers, decided exactly.

The closed forms and root-finding steps in `equilibrium` are valid only under
shape conditions on the reduced contest functions: the eventual win
probability z_q = p + q p0 rises in theta, its curvature stays in bounds, the
tie probability p0 is unimodal, and a ratio family meets its boundary limits.
Each condition quantifies over every theta and every tie rule q in [0, 1], and
for the built-in families each reduces to one fact about the parameters, so
an audit evaluates no function of theta:

- Difference form: z_q' > 0 for every k >= 1, and p0 peaks at theta = 0 for
  every k > 1 (at k = 1, p0 = 0 and the condition passes as degenerate).  The
  curvature bound |z_q''| <= 1/v1 holds iff v1 S <= 1, where S = sup |z_q''| is
  the family's `curvature_peak`; a failure is witnessed at the smallest theta
  reaching S.
- Ratio form: z_q rises, vanishes at theta -> 0+ and saturates at infinity,
  and p0 vanishes at 0+, for every r > 0; p0 peaks at theta = 1 for every
  k > 1 (degenerate at k = 1, as above).  Own-payoff concavity (z_q'' < 0) and rival-payoff concavity
  (2 z_q' + theta z_q'' > 0) hold iff the family's `lemma_precondition` does:
  both sign brackets are linear in the family's share u = theta^r / (theta^r + c)
  on (0, 1), so their values at u = 0 and 1 decide them, and a failure's
  violation is the family's `lemma_excess` (r - 1, or r k - 1).
- Concave impact: x^r rises and is concave for every admitted 0 < r <= 1.

`tests/test_audit.py` scans dense grids of the family kernels as the
reference these facts are checked against.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import JsonRecord, positive_value
from .errors import ValidationError


@dataclass(frozen=True)
class ConditionRecord(JsonRecord):
    """Outcome of one audited condition.

    `violation` is how far the fact misses (0.0 when the condition passed);
    `witness_theta` / `witness_q` (0.0 or 1.0) locate a failed curvature
    bound, at the smallest theta, then q, where |z_q''| reaches its supremum.
    `note` names the fact that decided the condition.
    """

    name: str
    passed: bool
    violation: float = 0.0
    witness_theta: float | None = None
    witness_q: float | None = None
    note: str = ""


@dataclass(frozen=True)
class AuditReport(JsonRecord):
    """Report on a family's regularity conditions.

    `M` is sup |z_q''| over every theta and tie rule for difference-form
    families, and None for the others, which have no prize bound.
    """

    family: str
    params: dict
    kind: str
    conditions: tuple[ConditionRecord, ...]
    M: float | None = None
    notes: tuple[str, ...] = ()

    json_keys = ("family", "params", "kind", "passed", "conditions", "M", "vbar", "notes")

    @property
    def vbar(self) -> float | None:
        """1 / M for difference-form families, else None: the largest prize
        that keeps the curvature condition satisfied."""
        return None if self.M is None else 1.0 / self.M

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    @property
    def failures(self) -> tuple[ConditionRecord, ...]:
        return tuple(c for c in self.conditions if not c.passed)

    def condition(self, name: str) -> ConditionRecord:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)


def _holds(name: str, note: str) -> ConditionRecord:
    return ConditionRecord(name=name, passed=True, note=note)


def _unimodal(csf, peak: str) -> ConditionRecord:
    """p0 peaks at theta = `peak` for every k > 1 and vanishes at k = 1."""
    if csf.k == 1.0:
        return _holds("tie_prob_unimodal", "degenerate: p0 = 0 at k = 1")
    return _holds("tie_prob_unimodal", f"p0 peaks at theta = {peak} for every k > 1")


def audit_ratio(csf) -> AuditReport:
    """Audit a ratio-form family's regularity conditions at every tie rule.

    Conditions: the eventual win probability is strictly increasing and
    strictly concave in theta, the rival-curvature combination
    2 z' + theta z'' stays positive (existence of the pure equilibrium), the
    win probability vanishes at theta -> 0+ and saturates at theta -> inf,
    the tie probability vanishes at theta -> 0+, and the tie probability is
    unimodal with its peak at theta = 1.
    """
    if getattr(csf, "kind", None) != "ratio":
        raise ValidationError("audit_ratio requires a ratio-form family")
    return _audit(csf, None)


def audit_diff(csf, v1) -> AuditReport:
    """Audit a difference-form family's regularity conditions at every tie rule.

    Conditions: the eventual win probability is strictly increasing in theta,
    its curvature stays within the prize bound (|z''| <= 1/v1, the existence
    condition for a prize of v1), and the tie probability is unimodal with
    its peak at theta = 0.
    """
    if getattr(csf, "kind", None) != "diff":
        raise ValidationError("audit_diff requires a difference-form family")
    return _audit(csf, positive_value(v1, "v1"))


def audit_concave(csf) -> AuditReport:
    """Audit a concave-impact family: impact strictly increasing and concave."""
    if getattr(csf, "kind", None) != "concave":
        raise ValidationError("audit_concave requires a concave-impact family")
    return _audit(csf, None)


def audit_family(csf, v1=None) -> AuditReport:
    """Audit any family with the audit of its kind; `v1` is the larger prize,
    which difference-form audits need."""
    kind = getattr(csf, "kind", None)
    if kind == "diff":
        if v1 is None:
            raise ValidationError("difference-form audits need the larger prize: give --v1")
        v1 = positive_value(v1, "v1")
    elif kind not in ("ratio", "concave"):  # `audit_concave` refuses any other kind
        raise ValidationError("audit_concave requires a concave-impact family")
    return _audit(csf, v1)


def _audit(csf, v1) -> AuditReport:
    """The audit of `csf`'s kind, once the caller has checked the kind and, for
    a difference form, the prize `v1`."""
    report = dict(family=csf.name, params=dict(csf.params), kind=csf.kind)
    if csf.kind == "concave":
        return AuditReport(**report, conditions=(
            _holds("impact_increasing", "x^r rises for every r > 0"),
            _holds("impact_concave", "x^r is concave for every r <= 1")))
    if csf.kind == "diff":
        (top, peaks), excess = csf.curvature_peak, csf.assumption_excess(v1)
        witness = (None, None) if excess <= 0.0 else min(
            [(t, 0.0) for t in peaks] + [(-t, 1.0) for t in peaks])
        curvature = ConditionRecord(
            "curvature_within_prize_bound", excess <= 0.0, max(excess, 0.0), *witness,
            note=f"sup |z_q''| = {top:.6g} against the bound {1.0 / v1:.6g} from prize "
                 f"v1 = {v1:.6g}")
        return AuditReport(**report, M=top, conditions=(
            _holds("win_prob_increasing", "z_q' > 0 for every k >= 1"), curvature,
            _unimodal(csf, "0")))
    excess, note = csf.assumption_excess(v1), f"holds iff {csf.lemma_precondition}"
    shape = tuple(ConditionRecord(name, excess <= 0.0, max(excess, 0.0), note=note)
                  for name in ("own_payoff_concavity", "rival_payoff_concavity"))
    return AuditReport(**report, notes=(csf.zero_effort_note,), conditions=(
        _holds("win_prob_increasing", "z_q' > 0 for every r > 0"), *shape,
        _holds("vanishes_at_zero", "z_q -> 0 as theta -> 0+ for every r > 0"),
        _holds("saturates_at_infinity", "z_q -> 1 as theta -> inf for every r > 0"),
        _holds("tie_prob_vanishes_at_zero", "p0 -> 0 as theta -> 0+ for every r > 0"),
        _unimodal(csf, "1")))


def estimate_vbar(csf) -> float:
    """Largest prize keeping the curvature condition satisfied: 1 / sup |z_q''|,
    the `vbar` of an `audit_diff` report."""
    if getattr(csf, "kind", None) != "diff":
        raise ValidationError("estimate_vbar requires a difference-form family")
    return 1.0 / csf.curvature_peak[0]
