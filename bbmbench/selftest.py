"""Fast tests of the benchmark's references and output checks.

They import no workload and run no part of the benchmark; each check is
fed hand-built outputs, once right and once wrong. The file name does not
match pytest's ``test_*.py`` pattern, so the repository's own test run does
not collect it; run it with ``python3 bbmbench/selftest.py``.
"""

import math
import os
import sys

import mpmath
import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import refs  # noqa: E402


@pytest.mark.parametrize("n,k,alpha", [(2, 3, 0.5), (2, 3, 0.999), (3, 4, 0.9), (3, 4, 0.3)])
def test_closed_form_matches_radial_quadrature(n, k, alpha):
    mpmath.mp.dps = 30
    inner = mpmath.quad(lambda r: (1 - (1 - r**2) ** k) * r ** (-1 - alpha), [0, 1])
    want = refs.sphere_area(n) * float(inner + 1 / mpmath.mpf(alpha))
    assert refs.poly_bump_dalpha_origin(n, k, alpha) == pytest.approx(want, rel=1e-13)


def test_riesz_of_gradient_at_origin_is_inverse_e():
    assert refs.riesz1_grad_bump_2d(0.0) == pytest.approx(1.0 / math.e, rel=1e-12)


@pytest.mark.parametrize("r", [0.3, 3.0])
def test_riesz_of_gradient_matches_polar_integral(r):
    # I_1 g(x) = (1/2 pi) int_0^{2 pi} int_0^inf g(x + rho w) d rho d theta in
    # the plane: the polar Jacobian cancels the kernel 1/|x - y|
    from scipy.integrate import quad

    x = np.array([r, 0.0])

    def ray(theta):
        w = np.array([math.cos(theta), math.sin(theta)])
        b = float(x @ w)
        disc = b * b - (r * r - 1.0)
        if disc <= 0.0:
            return 0.0
        lo, hi = max(0.0, -b - math.sqrt(disc)), -b + math.sqrt(disc)
        if hi <= lo:
            return 0.0
        g = lambda rho: float(np.linalg.norm(refs.grad_bump(x + rho * w)))  # noqa: E731
        return quad(g, lo, hi, epsabs=0.0, epsrel=1e-11, limit=200)[0]

    half = quad(ray, 0.0, math.pi, epsabs=0.0, epsrel=1e-9, limit=200)[0]
    assert refs.riesz1_grad_bump_2d(r) == pytest.approx(2.0 * half / (2.0 * math.pi), rel=1e-7)


def test_sphere_moments():
    mpmath.mp.dps = 30
    p2 = mpmath.quad(lambda t: mpmath.cos(t) ** 2, [0, 2 * mpmath.pi])
    assert refs.K_NP[(2, 2.0)] == pytest.approx(float(mpmath.sqrt(p2 / 2)), rel=1e-15)
    assert refs.K_NP[(2, 2.0)] == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-15)
    p1 = mpmath.quad(lambda t: abs(mpmath.cos(t)), [0, mpmath.pi / 2, 3 * mpmath.pi / 2, 2 * mpmath.pi])
    assert refs.K_NP[(2, 1.0)] == pytest.approx(float(p1), rel=1e-15)
    s2 = 2 * mpmath.pi * mpmath.quad(
        lambda t: abs(mpmath.cos(t)) * mpmath.sin(t), [0, mpmath.pi / 2, mpmath.pi]
    )
    assert refs.K_NP[(3, 1.0)] == pytest.approx(float(s2), rel=1e-15)


@pytest.mark.parametrize("x", [[0.3, -0.2], [0.1, 0.6], [0.05, 0.4, -0.3]])
def test_gradients_match_central_differences(x):
    x = np.array(x)
    h = 1e-6
    fields = [
        (lambda y: (1.0 - y @ y) ** 4, lambda y: refs.grad_poly_bump(y, 4)),
        (refs.bump_value, refs.grad_bump),
    ]
    if x.size == 2:
        k = np.array([2.0, 0.0])
        fields.append((
            lambda y: math.sin(k @ y) * refs.bump_value(y),
            lambda y: refs.grad_modulated_bump(y, k),
        ))
    for f, grad in fields:
        fd = [(f(x + h * e) - f(x - h * e)) / (2 * h) for e in np.eye(x.size)]
        np.testing.assert_allclose(grad(x), fd, rtol=1e-7, atol=1e-9)


# ---------------------------------------------------------------------------
# the output checks reject wrong values
# ---------------------------------------------------------------------------

ALPHAS = (0.5, 0.9, 0.999)


def _pointwise_case(origin_scale=1.0, limit_scale=1.0, target_scale=1.0):
    points = [[0.0, 0.0], [0.3, 0.2]]
    lines = ["case_id,alpha,point,value,error_estimate,target,abs_error,rel_error,pass"]
    for x in points:
        target = 4.0 * float(np.linalg.norm(refs.grad_poly_bump(np.array(x), 3)))
        for a in ALPHAS:
            if x == [0.0, 0.0]:
                value = (1 - a) * refs.poly_bump_dalpha_origin(2, 3, a) * origin_scale
            else:
                value = target * (limit_scale if a == 0.999 else 1.1)
            lines.append(f"c,{a!r},p,{value!r},0,{target * target_scale!r},,,1")
    return {"field": "poly_bump", "dim": 2, "k": 3, "points": points,
            "exit_code": 1, "csv": "\n".join(lines) + "\n"}


def test_pointwise_check_accepts_right_values():
    v = checks.check_pointwise([_pointwise_case()], ALPHAS)
    assert v.errors == [] and v.failed == 0
    assert 0.0 <= v.max_rel_err < 1e-15


@pytest.mark.parametrize("kwargs", [
    {"origin_scale": 1 + 1e-5},
    {"limit_scale": 1.02},
    {"target_scale": 1 + 1e-6},
])
def test_pointwise_check_rejects_wrong_values(kwargs):
    assert checks.check_pointwise([_pointwise_case(**kwargs)], ALPHAS).errors


def test_pointwise_check_counts_a_missing_report_as_failed():
    case = dict(_pointwise_case(), exit_code=2, csv=None)
    v = checks.check_pointwise([case], ALPHAS)
    assert v.failed == 2 * len(ALPHAS) and v.errors == []


def _composed(gaps=(0.05, 0.005), partner=1.0, target=1.0, p=1.0):
    limit = refs.K_NP[(2, p)] * refs.riesz1_grad_bump_2d(0.3)
    def rows(scale):
        return [(a, limit * (1 + g) * scale, 0.0, limit * target)
                for a, g in zip((0.9, 0.99), gaps)]
    evals = {
        "a": {"x": [0.3, 0.0], "p": p, "rows": rows(1.0)},
        "b": {"x": [0.3 * math.cos(0.3), 0.3 * math.sin(0.3)], "p": p, "rows": rows(partner)},
    }
    return checks.check_composed(evals, [("a", "b", True)], limit_c=2.0, rotation_tol=5e-3)


def test_composed_check_accepts_right_values():
    v = _composed(partner=1 + 1e-4)
    assert v.errors == []
    assert v.max_rel_err == pytest.approx(1e-4, rel=1e-6)
    assert _composed(gaps=(0.3, 0.15), p=2.0).errors == []


@pytest.mark.parametrize("kwargs", [
    {"partner": 1.01},
    {"gaps": (0.005, 0.01)},
    {"gaps": (0.05, 0.03)},
    {"target": 1.01},
    {"gaps": (0.3, 0.25), "p": 2.0},
])
def test_composed_check_rejects_wrong_values(kwargs):
    assert _composed(**kwargs).errors


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", __file__]))
