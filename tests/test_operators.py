import dataclasses
import math

import numpy as np
import pytest

from nonlocal_bbm.constants import bbm_constant, riesz_constant
from nonlocal_bbm.fields import (
    bump,
    dilate,
    modulated_bump,
    poly_bump,
    product,
    translate,
    zero_field,
)
from nonlocal_bbm.operators import (
    DecayingFunction,
    bbm_operator_p,
    frac_derivative,
    frac_derivative_field,
    frac_derivative_p,
    gagliardo_seminorm,
    leibniz_gap,
    linear_kernel_identity,
    riesz_of_field_values,
    riesz_of_gradient,
    riesz_potential,
    _DalphaField,
    _SupportGridKernel,
    _dalpha_norms,
    _estimate,
    _outer_integral,
    _root,
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


@pytest.mark.parametrize("p", [0.5, math.nan, math.inf])
@pytest.mark.parametrize("entry", [
    lambda f, p: frac_derivative_p(f, 0.9, p, np.zeros(2), fast_spec(2)),
    lambda f, p: bbm_operator_p(f, 0.9, p, np.zeros(2), fast_spec(2)),
    lambda f, p: leibniz_gap(f, f, 0.9, p, fast_spec(2)),
    lambda f, p: frac_derivative_field(f, 0.9, fast_spec(2), p=p),
], ids=["frac_derivative_p", "bbm_operator_p", "leibniz_gap", "frac_derivative_field"])
def test_p_outside_one_to_infinity_rejected(entry, p):
    with pytest.raises(ValueError, match="p must be a finite number >= 1"):
        entry(bump(2), p)


def test_non_finite_value_or_estimate_never_converges():
    # at p = 25 the innermost radial weight overflows and the value is inf;
    # inf <= target * inf would otherwise hold
    with np.errstate(over="ignore", invalid="ignore"):
        ov = frac_derivative_p(bump(2), 0.99, 25, (0.2, 0.1), default_spec(2))
    assert not math.isfinite(ov.value) and not ov.converged
    spec = fast_spec(2)
    for v1, v0, hard in ((math.inf, math.inf, 0.0), (1.0, 1.0, math.inf), (math.nan, 1.0, 0.0)):
        assert not _estimate(v1, v0, hard, spec).converged
    assert _estimate(1.0, 1.0, 0.0, spec).converged


def test_root_bound_at_zero_bounds_any_root():
    # a bound e on an integral in [0, e] bounds its p-th root by e^{1/p}
    assert _root(0.0, 1e-8, 2.0) == (0.0, 1e-8 ** 0.5)
    assert _root(0.0, 1e-8, 1.0) == (0.0, 1e-8)
    assert _root(4.0, 1e-8, 2.0) == (2.0, 1e-8 * 2.0 ** -1.0 / 2.0)


def test_riesz_of_gradient_far_value_is_a_python_float():
    ov = riesz_of_gradient(bump(2), np.array([3.0, 0.0]), fast_spec(2))
    assert type(ov.value) is float and type(ov.error_estimate) is float
    assert ov.value == pytest.approx(0.0750098, rel=1e-6)


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


FIELD_CASES = [
    (f, p) for f in (bump(2), modulated_bump(2, [2, 0])) for p in (1.0, 2.0)
]


@pytest.mark.parametrize("f, p", FIELD_CASES, ids=lambda v: getattr(v, "name", None))
def test_frac_derivative_field_near_points_run_the_engine(f, p):
    # within R0 + 0.5 a point evaluated alone gets the full-resolution value
    spec = fast_spec(2)
    g = frac_derivative_field(f, 0.9, spec, p=p)
    for y in ([0.0, 0.0], [0.2, 0.1], [0.9, -0.6], [-1.3, 0.4]):
        y = np.array(y)
        assert g.eval(y)[0] == frac_derivative_p(f, 0.9, p, y, spec).value


@pytest.mark.parametrize("f, p", FIELD_CASES, ids=lambda v: getattr(v, "name", None))
def test_frac_derivative_field_far_kernel_matches_engine(f, p):
    # just beyond the near radius the support-grid kernel takes over
    spec = fast_spec(2)
    g = frac_derivative_field(f, 0.9, spec, p=p)
    for theta in (0.0, 0.3, 2.0):
        y = 1.51 * np.array([math.cos(theta), math.sin(theta)])
        want = frac_derivative_p(f, 0.9, p, y, spec).value
        assert g.eval(y)[0] == pytest.approx(want, rel=1e-2)


@pytest.mark.parametrize("f, p", FIELD_CASES, ids=lambda v: getattr(v, "name", None))
def test_frac_derivative_field_decay_envelope(f, p):
    g = frac_derivative_field(f, 0.9, fast_spec(2), p=p)
    rng = np.random.default_rng(3)
    rad = g.envelope_radius * np.array([1.0, 1.0, 1.5, 2.0, 4.0, 10.0])
    theta = rng.uniform(0.0, 2.0 * math.pi, rad.size)
    Y = rad[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    assert np.all(g.eval(Y) <= g.decay_constant * rad ** -g.decay_exponent)


def test_composed_converged_through_floor():
    # the composed operator accepts estimates up to 1e-3 of the value even
    # when the spec asks for less
    spec = QuadratureSpec(12, 8, 8, 16, target_rel_error=1e-6)
    out = bbm_operator_p(bump(2), 0.9, 1.0, np.array([0.3, 0.0]), spec)
    assert 1e-6 * out.value < out.error_estimate <= 1e-3 * out.value
    assert out.converged and out.note == ""


def test_composed_not_converged_carries_note():
    out = bbm_operator_p(bump(2), 0.7, 2.0, np.array([0.3, 0.0]), fast_spec(2))
    assert out.error_estimate > 1e-3 * out.value
    assert not out.converged
    assert out.note == "outer differencing above target"


def test_leibniz_gap_always_converged():
    # the gap's estimate is not held to the spec's relative target: here it
    # exceeds the value and the gap is still reported converged
    out = leibniz_gap(bump(2), bump(2), 0.5, 1.0, fast_spec(2))
    assert out.error_estimate > out.value > 0.0
    assert out.converged


KERNEL_CASES = [
    (f, p)
    for f in (bump(2), modulated_bump(2, [2.0, 0.0]), bump(3))
    for p in (1.0, 2.0)
]


@pytest.mark.parametrize("f, p", KERNEL_CASES, ids=lambda v: getattr(v, "name", None))
def test_support_grid_kernel_matches_direct_power_sum(f, p):
    # one shared log per chunk against one np.power per exponent
    n = f.dim
    alphas = (0.6, 0.9, 0.99)
    expos = [-(n + a * p) for a in alphas]
    order = 40 if n <= 2 else 24
    density = lambda Z: np.abs(f.eval(Z)) ** p  # noqa: E731
    K = _SupportGridKernel(f, order, density, expos)
    rng = np.random.default_rng(17)
    Y = rng.standard_normal((60, n))
    Y *= rng.uniform(f.support_radius + 0.5, 4.0, size=60)[:, None] / np.linalg.norm(
        Y, axis=1, keepdims=True
    )
    got = K(Y)
    d2 = ((Y[:, None, :] - K.Z[None, :, :]) ** 2).sum(axis=-1)
    for k, e in enumerate(expos):
        want = (np.power(d2, e / 2.0) * K.c).sum(axis=1)
        np.testing.assert_allclose(got[:, k], want, rtol=1e-14, atol=0.0)
        # a column does not depend on the other exponents of its kernel
        alone = _SupportGridKernel(f, order, density, [e])(Y)
        assert np.array_equal(alone[:, 0], got[:, k])


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


@pytest.mark.parametrize("h", [bump(2), poly_bump(2, k=3), modulated_bump(2, [2.0, 0.0])])
def test_seminorm_and_plain_operator_norm_share_one_outer_integral(h):
    # at p = 1 the unweighted L^1 norm of D^alpha h is the seminorm itself
    spec = fast_spec(2)
    D = _DalphaField(h, (0.7,), spec)
    (value,), (hard,) = _outer_integral(D, 2.0**spec.outer_shells * D.envelope_radius, spec)
    assert _dalpha_norms(h, (0.7,), spec) == ([value], [hard])


def test_operator_norm_bound_is_in_root_units():
    # the hard bound e on the integral of |D_2(fg)|^2 becomes e v^{1-p} / p
    # on its root v
    fg = product(bump(2), poly_bump(2, k=3))
    spec = fast_spec(2)
    D = _DalphaField(fg, (0.5,), spec, 2.0)
    (_,), (raw,) = _outer_integral(D, 2.0**spec.outer_shells * D.envelope_radius, spec)
    (value,), (hard,) = _dalpha_norms(fg, (0.5,), spec, 2.0)
    assert value == pytest.approx(1.30672, rel=1e-5)
    assert raw == pytest.approx(7.56e-4, rel=1e-3)
    assert hard == raw * value ** (1.0 - 2.0) / 2.0
    assert hard == pytest.approx(2.89e-4, rel=1e-3)


@pytest.mark.parametrize("pair", [(bump(2), bump(2)), (bump(2), poly_bump(2, k=3))])
@pytest.mark.parametrize("alpha", [0.5, 0.9])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_leibniz_radial_shortcut_matches_sphere_path(pair, alpha, p):
    # the same fields flagged non-radial take the full sphere rule
    f, g = pair
    spec = fast_spec(2)
    ray = leibniz_gap(f, g, alpha, p, spec)
    sphere = leibniz_gap(
        dataclasses.replace(f, radial=False), dataclasses.replace(g, radial=False),
        alpha, p, spec,
    )
    assert abs(ray.value - sphere.value) <= ray.error_estimate + sphere.error_estimate


def test_linear_kernel_identity_quick():
    spec = default_spec(2)
    e = np.array([1.0, 0.0])
    for alpha in (0.5, 0.9):
        got = linear_kernel_identity(2, e, alpha, spec)
        assert got == pytest.approx(bbm_constant(2), abs=1e-8)
