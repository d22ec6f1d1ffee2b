import math

import numpy as np
import pytest

from nonlocal_bbm.constants import bbm_constant, riesz_constant, sphere_area
from nonlocal_bbm.fields import (
    bump,
    dilate,
    modulated_bump,
    poly_bump,
    translate,
    zero_field,
)
from nonlocal_bbm.operators import (
    DecayingFunction,
    OperatorValue,
    bbm_poincare_sides,
    frac_derivative,
    frac_derivative_p,
    frac_derivative_truncated,
    gagliardo_seminorm,
    leibniz_gap,
    linear_kernel_identity,
    riesz_of_field_values,
    riesz_potential,
)
from nonlocal_bbm.quadrature import (
    QuadratureSpec,
    brute_force_grid_oracle,
    default_spec,
    fast_spec,
    radial_reduction_oracle,
)

MID_SPEC = QuadratureSpec(
    inner_shells=24, outer_shells=16, gauss_order=12, sphere_order=64,
    target_rel_error=1e-4,
)


def test_operator_value_combined_tolerance():
    a = OperatorValue(1.0, 1e-3)
    b = OperatorValue(2.0, 2e-3)
    assert a.combined_tolerance(b) == pytest.approx(9e-3)
    assert a.combined_tolerance(b, floor=0.1) == 0.1


def test_zero_field_gives_zero_everywhere():
    z = zero_field(2)
    spec = fast_spec(2)
    for x in ([0.0, 0.0], [0.7, -0.2]):
        assert frac_derivative(z, 0.5, np.array(x), spec).value == 0.0
    assert gagliardo_seminorm(z, 0.5, spec).value == 0.0


def test_alpha_and_p_validation():
    f = bump(2)
    spec = fast_spec(2)
    with pytest.raises(ValueError):
        frac_derivative(f, 1.0, np.zeros(2), spec)
    with pytest.raises(ValueError):
        frac_derivative(f, 0.0, np.zeros(2), spec)
    with pytest.raises(ValueError):
        frac_derivative_p(f, 0.5, 0.5, np.zeros(2), spec)
    with pytest.raises(ValueError):
        frac_derivative_truncated(f, 0.5, np.zeros(2), -1.0, spec)


def test_non_finite_point_rejected():
    with pytest.raises(ValueError, match="finite"):
        frac_derivative_p(bump(2), 0.5, 1.0, np.array([math.nan, 0.0]), fast_spec(2))


def test_p_equal_one_coincides_with_base_operator():
    f = poly_bump(2, k=3)
    spec = MID_SPEC
    x = np.array([0.3, 0.1])
    a = frac_derivative(f, 0.6, x, spec)
    b = frac_derivative_p(f, 0.6, 1.0, x, spec)
    assert a.value == pytest.approx(b.value, abs=1e-10)


def test_engine_matches_radial_oracle():
    f = poly_bump(2, k=3)
    spec = default_spec(2)
    got = frac_derivative(f, 0.5, np.zeros(2), spec)
    want, gap = radial_reduction_oracle(f, 0.5)
    assert abs(got.value - want) <= max(3.0 * (got.error_estimate + gap), 1e-9)


def test_engine_matches_grid_oracle():
    f = poly_bump(2, k=3)
    spec = default_spec(2)
    x = np.array([0.3, 0.2])
    got = frac_derivative(f, 0.5, x, spec)
    want = brute_force_grid_oracle(f, 0.5, x, 2048)
    assert abs(got.value - want) / abs(want) < 1e-4


def test_translation_covariance():
    f = poly_bump(2, k=3)
    spec = MID_SPEC
    v = np.array([0.4, -0.2])
    g = translate(f, v)
    x = np.array([0.25, 0.1])
    a = frac_derivative(f, 0.7, x, spec)
    b = frac_derivative(g, 0.7, x + v, spec)
    assert b.value == pytest.approx(a.value, rel=1e-5)


def test_dilation_covariance():
    # g = f(lam .) gives D^a g(x) = lam^a D^a f(lam x)
    f = poly_bump(2, k=3)
    spec = MID_SPEC
    lam = 2.0
    g = dilate(f, lam)
    x = np.array([0.2, 0.05])
    a = frac_derivative(g, 0.6, x, spec)
    b = frac_derivative(f, 0.6, lam * x, spec)
    assert a.value == pytest.approx(lam**0.6 * b.value, rel=1e-5)


def test_truncation_monotone_and_below_full():
    f = poly_bump(2, k=3)
    spec = MID_SPEC
    x = np.array([0.1, 0.0])
    vals = [
        frac_derivative_truncated(f, 0.5, x, radius, spec).value
        for radius in (0.5, 1.0, 2.0)
    ]
    assert vals[0] < vals[1] < vals[2]
    full = frac_derivative(f, 0.5, x, spec)
    assert vals[-1] <= full.value + 1e-10


def test_truncated_approaches_full():
    f = poly_bump(2, k=3)
    spec = MID_SPEC
    x = np.array([0.1, 0.0])
    full = frac_derivative(f, 0.5, x, spec)
    trunc = frac_derivative_truncated(f, 0.5, x, 64.0, spec)
    # remaining tail is |f(x)| sigma R^{-a}/a
    fx = abs(float(f.eval(x[None, :])[0]))
    tail = fx * sphere_area(2) * 64.0**-0.5 / 0.5
    assert full.value - trunc.value == pytest.approx(tail, rel=1e-2)


def test_far_field_domination():
    # for |x| >= 2 R0 + 1 the operator is at most 2^{n+a} ||f||_1 |x|^{-(n+a)}
    from nonlocal_bbm.fields import w11_norms

    f = poly_bump(2, k=3)
    spec = MID_SPEC
    l1, _ = w11_norms(f, spec)
    alpha = 0.7
    for rad in (3.0, 5.0):
        x = np.array([rad, 0.0])
        got = frac_derivative(f, alpha, x, spec)
        bound = 2.0 ** (2 + alpha) * l1 * rad ** (-(2 + alpha))
        assert got.value <= bound * (1.0 + 1e-8)
        assert got.value > 0.0


def test_riesz_validation():
    g = DecayingFunction(dim=2, eval=lambda Y: np.ones(np.atleast_2d(Y).shape[0]),
                         decay_exponent=0.2, decay_constant=1.0)
    with pytest.raises(ValueError):
        riesz_potential(g, 0.5, np.zeros(2), fast_spec(2))
    f = bump(2)
    supported = DecayingFunction(
        dim=2, eval=lambda Y: f.eval(np.atleast_2d(Y)),
        decay_exponent=math.inf, decay_constant=0.0,
        support_radius=f.support_radius,
    )
    with pytest.raises(ValueError):
        riesz_potential(supported, 2.5, np.zeros(2), fast_spec(2))


def test_riesz_of_constant_on_support_grid():
    # I_alpha of a bump at a far point behaves like gamma ||f||_1 |x|^{a-n}
    f = bump(2)
    spec = MID_SPEC
    from nonlocal_bbm.fields import w11_norms

    l1, _ = w11_norms(f, spec)
    alpha = 0.5
    x = np.array([40.0, 0.0])
    got = riesz_of_field_values(f, alpha, x[None, :], spec)[0]
    approx = riesz_constant(2, alpha) * l1 * 40.0 ** (alpha - 2.0)
    assert got == pytest.approx(approx, rel=5e-3)


def test_riesz_semigroup():
    # I_0.3 applied to I_0.7 f agrees with I_1 f
    f = bump(2)
    spec = MID_SPEC
    R0 = f.support_radius
    beta = 0.7

    inner_cache = {}

    def inner(Y):
        Y = np.atleast_2d(Y)
        key = Y.tobytes()
        if key not in inner_cache:
            inner_cache[key] = riesz_of_field_values(f, beta, Y, spec)
        return inner_cache[key]

    from nonlocal_bbm.fields import w11_norms

    l1, _ = w11_norms(f, spec)
    g = DecayingFunction(
        dim=2,
        eval=inner,
        decay_exponent=2.0 - beta,
        decay_constant=riesz_constant(2, beta) * l1 * 2.0 ** (2.0 - beta),
        envelope_radius=2.0 * R0,
    )
    x = np.array([0.2, 0.1])
    got = riesz_potential(g, 0.3, x, spec)
    want = riesz_of_field_values(f, 1.0, x[None, :], spec)[0]
    assert got.value == pytest.approx(want, rel=1e-3)


def test_seminorm_dilation_scaling():
    # [f(lam .)]_{W^{a,1}} = lam^{a-n} [f]_{W^{a,1}}
    f = bump(2)
    spec = MID_SPEC
    alpha = 0.6
    base = gagliardo_seminorm(f, alpha, spec)
    scaled = gagliardo_seminorm(dilate(f, 2.0), alpha, spec)
    assert scaled.value == pytest.approx(
        2.0 ** (alpha - 2.0) * base.value, rel=1e-4
    )


def test_seminorm_nonradial_field_runs():
    f = modulated_bump(2, [2.0, 0.0])
    spec = fast_spec(2)
    v = gagliardo_seminorm(f, 0.7, spec)
    assert v.value > 0.0
    assert np.isfinite(v.error_estimate)


def test_seminorm_against_double_integral_n1():
    # symmetric truncated double integral brackets the engine value:
    # the midpoint grid under-counts (convex kernel, missing diagonal and
    # outer tails), and the deficit is bounded by two analytic terms
    from nonlocal_bbm.fields import w11_norms

    f = bump(1)
    alpha = 0.4
    spec = MID_SPEC
    got = gagliardo_seminorm(f, alpha, spec)

    m = 1200
    R = 6.0
    h = 2.0 * R / m
    xs = -R + h * (np.arange(m) + 0.5)
    fv = f.eval(xs[:, None])
    diff = np.abs(fv[:, None] - fv[None, :])
    dist = np.abs(xs[:, None] - xs[None, :])
    np.fill_diagonal(dist, np.inf)
    double = float(np.sum(diff * dist ** (-1.0 - alpha))) * h * h
    assert np.allclose(diff, diff.T)

    l1, grad_l1 = w11_norms(f, spec)
    # diagonal strip: |f(x)-f(y)| <= |f'| |x-y| within |x-y| < h
    diag = 2.0 * grad_l1 * h ** (1.0 - alpha) / (1.0 - alpha)
    # beyond the box: D f(x) ~ ||f||_1 |x|^{-1-alpha} for |x| > R
    outer = 2.0 * 2.0 ** (1.0 + alpha) * l1 * (R - 1.0) ** (-alpha) / alpha
    assert double <= got.value + 3.0 * got.error_estimate
    assert got.value - double <= diag + outer + 3.0 * got.error_estimate


def test_poincare_sides_positive_and_reported():
    f = bump(2)
    spec = fast_spec(2)
    lhs, rhs = bbm_poincare_sides(f, [0.0, 0.0], 1.0, 0.7, spec, grid_per_axis=8)
    assert lhs > 0.0 and rhs > 0.0
    assert 0.01 < lhs / rhs < 100.0


def test_poincare_zero_field():
    z = zero_field(2)
    spec = fast_spec(2)
    lhs, rhs = bbm_poincare_sides(z, [0.0, 0.0], 1.0, 0.7, spec, grid_per_axis=6)
    assert lhs == 0.0 and rhs == 0.0


def test_leibniz_gap_disjoint_supports():
    f = bump(2)
    g = translate(bump(2), [5.0, 0.0])
    spec = fast_spec(2)
    out = leibniz_gap(f, g, 0.5, 1.0, spec)
    # fg = 0, so the gap is a sum of two norms: strictly positive
    assert out.value > 0.0


def test_leibniz_gap_self_pair():
    f = bump(2)
    spec = fast_spec(2)
    out = leibniz_gap(f, f, 0.5, 1.0, spec)
    assert out.value >= -3.0 * out.error_estimate


def test_leibniz_dimension_mismatch():
    with pytest.raises(ValueError):
        leibniz_gap(bump(2), bump(3), 0.5, 1.0, fast_spec(2))


def test_linear_kernel_identity_quick():
    spec = default_spec(2)
    e = np.array([1.0, 0.0])
    for alpha in (0.5, 0.9):
        got = linear_kernel_identity(2, e, alpha, spec)
        assert got == pytest.approx(bbm_constant(2), abs=1e-8)
