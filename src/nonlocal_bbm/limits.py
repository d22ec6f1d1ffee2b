"""Sweep harness: operator values along a grid of alpha approaching 1,
compared against the closed-form limits, with convergence-rate fits and
the pointwise inequality audits."""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import bbm_constant, bbm_constant_p, check_dimension, sphere_area
from .fields import w11_norms
from .operators import (
    _frac_derivative_schedule,
    bbm_operator,
    bbm_operator_p,
    gagliardo_seminorm,
    riesz_of_gradient,
)

__all__ = [
    "AlphaSchedule",
    "SweepRow",
    "SweepReport",
    "AuditRow",
    "AuditReport",
    "pointwise_gradient_limit_sweep",
    "composed_limit_sweep",
    "composed_limit_sweep_p",
    "seminorm_limit_sweep",
    "inequality_audit",
    "rate_fit",
]

_TINY_TARGET = 1e-14
_DEFAULT_ALPHAS = (0.5, 0.7, 0.9, 0.95, 0.99, 0.995, 0.999)


@dataclass(frozen=True)
class AlphaSchedule:
    """Strictly increasing grid of alpha in (0, 1) whose last entry is
    >= 0.99, so every sweep probes the limit regime."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(a) for a in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) == 0:
            raise ValueError("schedule must be nonempty")
        for a in vals:
            if not 0.0 < a < 1.0:
                raise ValueError(f"schedule values must lie in (0, 1), got {a}")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("schedule must be strictly increasing")
        if vals[-1] < 0.99:
            raise ValueError(f"schedule must end at alpha >= 0.99, got {vals[-1]}")

    @classmethod
    def default(cls):
        return cls(_DEFAULT_ALPHAS)

    @classmethod
    def composed_default(cls):
        """Default grid restricted to (1/2, 1), the composed-operator regime."""
        return cls(tuple(a for a in _DEFAULT_ALPHAS if a > 0.5))

    def require_composed_regime(self):
        if self.values[0] <= 0.5:
            raise ValueError(
                "composed-operator sweeps need a schedule within (1/2, 1); "
                f"got alpha = {self.values[0]}"
            )


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    value: float
    error_estimate: float
    target: float
    abs_error: float
    rel_error: Optional[float]  # None when |target| <= 1e-14
    converged: bool = True
    note: str = ""


@dataclass(frozen=True)
class SweepReport:
    case_id: str
    rows: tuple
    target_description: str
    fit: Optional[tuple] = None  # (C, slope) of |error| ~ C (1-alpha)^slope


def _make_row(alpha, op_value, target, note=""):
    abs_err = abs(op_value.value - target)
    rel = abs_err / abs(target) if abs(target) > _TINY_TARGET else None
    merged = note
    if op_value.note:
        merged = f"{note}; {op_value.note}" if note else op_value.note
    return SweepRow(
        alpha=alpha,
        value=op_value.value,
        error_estimate=op_value.error_estimate,
        target=target,
        abs_error=abs_err,
        rel_error=rel,
        converged=op_value.converged,
        note=merged,
    )


def rate_fit(report, tail_rows=4):
    """Least-squares fit of log|error| against log(1-alpha) over the last
    ``tail_rows`` rows; models |error| ~ C (1-alpha)^slope.

    Rows with zero error carry no rate information and are dropped; if
    fewer than three positive-error rows remain the fit degenerates and
    (0, inf) is returned as the marker.
    """
    rows = report.rows[-tail_rows:] if tail_rows > 0 else report.rows
    pts = [(r.alpha, r.abs_error) for r in rows if r.abs_error > 0.0]
    if len(pts) < 3:
        return 0.0, math.inf
    lx = np.log([1.0 - a for a, _ in pts])
    ly = np.log([e for _, e in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(math.exp(intercept)), float(slope)


def _attach_fit(report):
    if len(report.rows) >= 3:
        return SweepReport(report.case_id, report.rows, report.target_description,
                           fit=rate_fit(report))
    return report


def _gap_flag(op_value, target):
    gap = abs(op_value.value - target)
    if gap > 0 and op_value.error_estimate > 0.25 * gap:
        return "estimate exceeds 25% of gap"
    return ""


def pointwise_gradient_limit_sweep(f, x, schedule, spec):
    """(1-alpha) D^alpha f(x) against the limit K_n |grad f(x)|."""
    n = f.dim
    x = np.asarray(x, dtype=float).reshape(n)
    Kn = bbm_constant(n, allow_dim_one=True)
    target = Kn * float(np.linalg.norm(f.grad(x[None, :])[0]))
    rows = []
    values = _frac_derivative_schedule(f, schedule.values, 1.0, x, spec)
    for a, dv in zip(schedule.values, values):
        scaled = type(dv)(
            value=(1.0 - a) * dv.value,
            error_estimate=(1.0 - a) * dv.error_estimate,
            converged=dv.converged,
            note=dv.note,
        )
        rows.append(_make_row(a, scaled, target))
    report = SweepReport(
        case_id=f"pointwise:{f.name}:n={n}",
        rows=tuple(rows),
        target_description="K_n |grad f(x)|",
    )
    return _attach_fit(report)


def composed_limit_sweep(f, x, schedule, spec):
    """(1-alpha) I_alpha(D^alpha f)(x) against K_n I_1(|grad f|)(x)."""
    return composed_limit_sweep_p(f, x, 1.0, schedule, spec)


def composed_limit_sweep_p(f, x, p, schedule, spec):
    """(1-alpha)^{1/p} I_alpha(D^alpha_p f)(x) against the p-variant limit
    K_{n,p} I_1(|grad f|)(x)."""
    n = check_dimension(f.dim, minimum=2)
    schedule.require_composed_regime()
    x = np.asarray(x, dtype=float).reshape(n)
    rg = riesz_of_gradient(f, x, spec)
    target = bbm_constant_p(n, p) * rg.value if p != 1.0 else bbm_constant(n) * rg.value
    rows = []
    for a in schedule.values:
        ov = bbm_operator_p(f, a, p, x, spec)
        rows.append(_make_row(a, ov, target, note=_gap_flag(ov, target)))
    report = SweepReport(
        case_id=f"composed:{f.name}:n={n}:p={p:g}:x={tuple(round(c, 6) for c in x)}",
        rows=tuple(rows),
        target_description="K_{n,p} I_1(|grad f|)(x)",
    )
    return _attach_fit(report)


def seminorm_limit_sweep(f, schedule, spec):
    """(1-alpha) [f]_{W^{alpha,1}} against K_n ||grad f||_{L^1}."""
    n = f.dim
    _, grad_l1 = w11_norms(f, spec)
    target = bbm_constant(n, allow_dim_one=True) * grad_l1
    rows = []
    for a in schedule.values:
        sv = gagliardo_seminorm(f, a, spec)
        scaled = type(sv)(
            value=(1.0 - a) * sv.value,
            error_estimate=(1.0 - a) * sv.error_estimate,
            converged=sv.converged,
            note=sv.note,
        )
        rows.append(_make_row(a, scaled, target))
    report = SweepReport(
        case_id=f"seminorm:{f.name}:n={n}",
        rows=tuple(rows),
        target_description="K_n ||grad f||_L1",
    )
    return _attach_fit(report)


# ---------------------------------------------------------------------------
# inequality audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditRow:
    kind: str  # pointwise_bound | integrated_bound | subrep_ratio | potential_ratio
    alpha: float
    point: Optional[tuple]
    value: float
    error_estimate: float
    target: float
    passed: Optional[bool]  # None for ratio / indeterminate rows
    converged: bool = True
    note: str = ""


@dataclass(frozen=True)
class AuditReport:
    case_id: str
    rows: tuple
    ratio_suprema: dict
    failures: int

    @property
    def all_passed(self):
        return self.failures == 0


def inequality_audit(f, schedule, points, spec, include_potential_rows=True):
    """Per-(alpha, point) inequality rows for one field.

    Explicit-constant rows carry Boolean pass flags:
      - pointwise bound (1-a) D^a f(x) <= sigma (||grad f||_inf + 2||f||_inf),
        valid for a >= 1/2;
      - integrated bound a(1-a)[f]_{W^{a,1}} <= sigma (a||grad f||_1
        + 2(1-a)||f||_1) <= 2 sigma ||f||_{W^{1,1}}, checked per alpha.

    Implicit-constant rows report ratios only (suprema, never asserted):
      - subrep ratio |f(x)| / [(1-a) I_a(D^a f)(x)];
      - potential ratio [(1-a) I_a(D^a f)(x)] / I_1(|grad f|)(x), which
        tends to K_n.
    Ratio rows need alpha in (1/2, 1) and n >= 2; rows with denominator
    below 1e-14 are marked indeterminate and excluded from suprema.
    """
    n = f.dim
    sigma = sphere_area(n)
    pts = [np.asarray(x, dtype=float).reshape(n) for x in points]
    eps_slack = 3.0

    rows = []
    failures = 0
    suprema = {}

    pointwise_rhs = sigma * (f.grad_sup_norm + 2.0 * f.sup_norm)
    bound_alphas = tuple(a for a in schedule.values if a >= 0.5)
    per_point = [_frac_derivative_schedule(f, bound_alphas, 1.0, x, spec) for x in pts]
    for k, a in enumerate(bound_alphas):
        for x, values in zip(pts, per_point):
            dv = values[k]
            lhs = (1.0 - a) * dv.value
            err = (1.0 - a) * dv.error_estimate
            ok = lhs <= pointwise_rhs + eps_slack * err
            failures += 0 if ok else 1
            rows.append(AuditRow(
                kind="pointwise_bound",
                alpha=a, point=tuple(x),
                value=lhs, error_estimate=err, target=pointwise_rhs,
                passed=ok, converged=dv.converged,
            ))

    f_l1, grad_l1 = w11_norms(f, spec)
    outer_rhs = 2.0 * sigma * (f_l1 + grad_l1)
    for a in schedule.values:
        sv = gagliardo_seminorm(f, a, spec)
        lhs = a * (1.0 - a) * sv.value
        err = a * (1.0 - a) * sv.error_estimate
        mid = sigma * (a * grad_l1 + 2.0 * (1.0 - a) * f_l1)
        ok = lhs <= mid + eps_slack * err and mid <= outer_rhs + 1e-12 * outer_rhs
        failures += 0 if ok else 1
        rows.append(AuditRow(
            kind="integrated_bound",
            alpha=a, point=None,
            value=lhs, error_estimate=err, target=mid,
            passed=ok, converged=sv.converged,
            note=f"outer bound {outer_rhs:.6g}",
        ))

    if include_potential_rows and n >= 2:
        subrep_vals, ratio_vals = [], []
        for a in schedule.values:
            if a <= 0.5:
                continue
            for x in pts:
                comp = bbm_operator(f, a, x, spec)
                fx = abs(float(f.eval(x[None, :])[0]))
                if abs(comp.value) <= _TINY_TARGET:
                    rows.append(AuditRow(
                        kind="subrep_ratio", alpha=a, point=tuple(x),
                        value=math.nan, error_estimate=0.0, target=math.nan,
                        passed=None, note="indeterminate: denominator below 1e-14",
                    ))
                else:
                    ratio = fx / comp.value
                    subrep_vals.append(ratio)
                    rows.append(AuditRow(
                        kind="subrep_ratio", alpha=a, point=tuple(x),
                        value=ratio, error_estimate=0.0, target=math.nan,
                        passed=None, converged=comp.converged,
                    ))
                rg = riesz_of_gradient(f, x, spec)
                if abs(rg.value) <= _TINY_TARGET:
                    rows.append(AuditRow(
                        kind="potential_ratio", alpha=a, point=tuple(x),
                        value=math.nan, error_estimate=0.0, target=math.nan,
                        passed=None, note="indeterminate: denominator below 1e-14",
                    ))
                else:
                    ratio = comp.value / rg.value
                    ratio_vals.append(ratio)
                    rows.append(AuditRow(
                        kind="potential_ratio", alpha=a, point=tuple(x),
                        value=ratio, error_estimate=0.0,
                        target=bbm_constant(n),
                        passed=None, converged=comp.converged and rg.converged,
                    ))
        if subrep_vals:
            suprema["subrep_ratio"] = max(subrep_vals)
        if ratio_vals:
            suprema["potential_ratio"] = max(ratio_vals)

    return AuditReport(
        case_id=f"audit:{f.name}:n={n}",
        rows=tuple(rows),
        ratio_suprema=suprema,
        failures=failures,
    )
