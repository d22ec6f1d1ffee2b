import math

import numpy as np
import pytest

from nonlocal_bbm.constants import bbm_constant, sphere_area
from nonlocal_bbm.fields import bump, modulated_bump, zero_field
from nonlocal_bbm.limits import (
    AlphaSchedule,
    SweepReport,
    SweepRow,
    composed_limit_sweep,
    composed_limit_sweep_p,
    inequality_audit,
    pointwise_gradient_limit_sweep,
    rate_fit,
    seminorm_limit_sweep,
)
from nonlocal_bbm.quadrature import QuadratureSpec, default_spec, fast_spec

COARSE = QuadratureSpec(
    inner_shells=16, outer_shells=10, gauss_order=10, sphere_order=48,
    target_rel_error=1e-2,
)


def _synthetic(alphas, errs):
    rows = tuple(
        SweepRow(a, 1.0 + e, 0.0, 1.0, e, e) for a, e in zip(alphas, errs)
    )
    return SweepReport("synthetic", rows, "unit")


class TestAlphaSchedule:
    def test_default(self):
        s = AlphaSchedule.default()
        assert s.values == (0.5, 0.7, 0.9, 0.95, 0.99, 0.995, 0.999)

    def test_composed_default_restricted(self):
        s = AlphaSchedule.composed_default()
        assert all(a > 0.5 for a in s.values)
        s.require_composed_regime()

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            AlphaSchedule((0.5, 1.0))
        with pytest.raises(ValueError):
            AlphaSchedule((0.0, 0.99))
        with pytest.raises(ValueError):
            AlphaSchedule(())

    def test_rejects_unordered(self):
        with pytest.raises(ValueError):
            AlphaSchedule((0.9, 0.7, 0.99))

    def test_rejects_early_end(self):
        with pytest.raises(ValueError):
            AlphaSchedule((0.5, 0.9))

    def test_regime_guard(self):
        with pytest.raises(ValueError):
            AlphaSchedule.default().require_composed_regime()


class TestRateFit:
    def test_exact_linear(self):
        alphas = (0.9, 0.95, 0.99, 0.995)
        rep = _synthetic(alphas, [2.0 * (1.0 - a) for a in alphas])
        C, slope = rate_fit(rep)
        assert C == pytest.approx(2.0, abs=1e-10)
        assert slope == pytest.approx(1.0, abs=1e-10)

    def test_square_root(self):
        alphas = (0.9, 0.95, 0.99, 0.995)
        rep = _synthetic(alphas, [(1.0 - a) ** 0.5 for a in alphas])
        _, slope = rate_fit(rep)
        assert slope == pytest.approx(0.5, abs=1e-10)

    def test_zero_errors_marker(self):
        rep = _synthetic((0.9, 0.95, 0.99, 0.995), [0.0, 0.0, 0.0, 0.0])
        C, slope = rate_fit(rep)
        assert math.isinf(slope)

    def test_uses_tail_rows_only(self):
        alphas = (0.5, 0.9, 0.95, 0.99, 0.995)
        errs = [5.0] + [2.0 * (1.0 - a) for a in alphas[1:]]
        rep = _synthetic(alphas, errs)
        _, slope = rate_fit(rep, tail_rows=4)
        assert slope == pytest.approx(1.0, abs=1e-10)


def test_pointwise_sweep_zero_gradient_point():
    # bump center: gradient vanishes, target 0; every row stays below the
    # uniform pointwise bound
    f = bump(2)
    sched = AlphaSchedule((0.9, 0.99))
    rep = pointwise_gradient_limit_sweep(f, np.zeros(2), sched, COARSE)
    bound = sphere_area(2) * (f.grad_sup_norm + 2.0 * f.sup_norm)
    for row in rep.rows:
        assert row.target == 0.0
        assert row.rel_error is None
        assert 0.0 <= row.value <= bound
    assert rep.rows[0].alpha < rep.rows[1].alpha


def test_pointwise_sweep_converges_to_gradient_limit():
    f = modulated_bump(2, [2.0, 0.0])
    sched = AlphaSchedule((0.9, 0.99, 0.999))
    rep = pointwise_gradient_limit_sweep(f, np.zeros(2), sched, default_spec(2))
    rels = [r.rel_error for r in rep.rows]
    assert rels[-1] < 0.02
    assert rels[0] > rels[-1]
    assert rep.fit is not None


def test_zero_field_sweeps_are_identically_zero():
    z = zero_field(2)
    sched = AlphaSchedule((0.7, 0.99))
    rep = pointwise_gradient_limit_sweep(z, np.zeros(2), sched, COARSE)
    assert all(r.value == 0.0 and r.target == 0.0 for r in rep.rows)
    repc = composed_limit_sweep(z, np.array([0.2, 0.1]), sched, COARSE)
    assert all(r.value == 0.0 and r.target == 0.0 for r in repc.rows)
    reps = seminorm_limit_sweep(z, sched, COARSE)
    assert all(r.value == 0.0 and r.target == 0.0 for r in reps.rows)


def test_composed_sweep_requires_regime_and_dim():
    f = bump(2)
    with pytest.raises(ValueError):
        composed_limit_sweep(f, np.zeros(2), AlphaSchedule.default(), COARSE)
    with pytest.raises(ValueError):
        composed_limit_sweep(bump(1), np.zeros(1), AlphaSchedule((0.7, 0.99)), COARSE)


def test_composed_sweep_p1_coincides():
    f = bump(2)
    sched = AlphaSchedule((0.7, 0.99))
    x = np.array([0.2, 0.1])
    a = composed_limit_sweep(f, x, sched, COARSE)
    b = composed_limit_sweep_p(f, x, 1.0, sched, COARSE)
    assert a.case_id == "composed:bump2d:n=2:p=1:x=(0.2, 0.1)"
    for ra, rb in zip(a.rows, b.rows):
        assert ra.value == pytest.approx(rb.value, abs=1e-10)
        assert ra.target == pytest.approx(rb.target, abs=1e-10)


def test_audit_explicit_constant_rows_pass():
    f = bump(2)
    sched = AlphaSchedule((0.7, 0.99))
    rep = inequality_audit(
        f, sched, [np.array([0.2, 0.1])], COARSE, include_potential_rows=False
    )
    kinds = {r.kind for r in rep.rows}
    assert kinds == {"pointwise_bound", "integrated_bound"}
    assert rep.failures == 0
    assert rep.all_passed
    for r in rep.rows:
        if r.kind == "pointwise_bound":
            assert r.value <= r.target + 3.0 * r.error_estimate


def test_audit_ratio_rows_reported_not_asserted():
    f = bump(2)
    sched = AlphaSchedule((0.7, 0.99))
    rep = inequality_audit(f, sched, [np.array([0.2, 0.1])], COARSE)
    ratio_rows = [r for r in rep.rows if r.kind in ("subrep_ratio", "potential_ratio")]
    assert ratio_rows
    assert all(r.passed is None for r in ratio_rows)
    assert rep.ratio_suprema["subrep_ratio"] > 0.0
    assert math.isfinite(rep.ratio_suprema["potential_ratio"])
    # the potential ratio tends to K_n; even a coarse run lands near it
    finals = [
        r.value for r in ratio_rows
        if r.kind == "potential_ratio" and r.alpha == sched.values[-1]
    ]
    assert finals and abs(finals[0] - bbm_constant(2)) / bbm_constant(2) < 0.25


def test_audit_zero_field_rows_indeterminate():
    z = zero_field(2)
    sched = AlphaSchedule((0.7, 0.99))
    rep = inequality_audit(z, sched, [np.array([0.2, 0.1])], COARSE)
    assert rep.failures == 0
    ratio_rows = [r for r in rep.rows if r.kind in ("subrep_ratio", "potential_ratio")]
    assert ratio_rows
    assert all("indeterminate" in r.note for r in ratio_rows)
    assert rep.ratio_suprema == {}
