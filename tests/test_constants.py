import math

import mpmath
import numpy as np
import pytest

from nonlocal_bbm.constants import (
    bbm_constant,
    bbm_constant_p,
    check_dimension,
    gamma_fn,
    riesz_constant,
    sphere_area,
)
from nonlocal_bbm.quadrature import build_sphere_rule, rotate_rule, sphere_integrate


def test_gamma_against_high_precision():
    mpmath.mp.dps = 30
    for x in [0.01, 0.1, 0.5, 1.0, 1.5, 2.0, 3.7, 10.0, 25.5, 49.9]:
        ref = float(mpmath.gamma(x))
        assert gamma_fn(x) == pytest.approx(ref, rel=1e-12)


def test_gamma_domain():
    with pytest.raises(ValueError):
        gamma_fn(0.0)
    with pytest.raises(ValueError):
        gamma_fn(-1.3)
    with pytest.raises(ValueError):
        gamma_fn(51.0)


def test_check_dimension():
    assert check_dimension(2) == 2
    with pytest.raises(ValueError):
        check_dimension(0)
    with pytest.raises(ValueError):
        check_dimension(2.0)
    with pytest.raises(ValueError):
        check_dimension(True)


def test_sphere_area_values():
    assert sphere_area(1) == 2.0
    assert sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)


def test_bbm_constant_closed_forms():
    assert bbm_constant(2) == pytest.approx(4.0, abs=1e-12)
    assert bbm_constant(3) == pytest.approx(2.0 * math.pi, abs=1e-10)
    with pytest.raises(ValueError):
        bbm_constant(1)
    assert bbm_constant(1, allow_dim_one=True) == 2.0


def test_bbm_constant_p_reduces_to_p1():
    for n in (2, 3):
        assert bbm_constant_p(n, 1.0) == pytest.approx(bbm_constant(n), rel=1e-14)


def test_bbm_constant_p_known_values():
    # closed forms of ((1/p) int |w.e|^p dsigma)^{1/p} at p = 2
    assert bbm_constant_p(2, 2.0) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-13)
    assert bbm_constant_p(3, 2.0) == pytest.approx(math.sqrt(2.0 * math.pi / 3.0), rel=1e-13)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [99.0, 120.0, 1000.0])
def test_bbm_constant_p_beyond_the_gamma_range(n, p):
    # (n + p)/2 > 50 is outside gamma_fn's range; K_{n,p} still holds
    mpmath.mp.dps = 30
    q = mpmath.mpf(p)
    moment = (2 * mpmath.pi ** (mpmath.mpf(n - 1) / 2) * mpmath.gamma((q + 1) / 2)
              / mpmath.gamma((n + q) / 2))
    assert bbm_constant_p(n, p) == pytest.approx(float((moment / q) ** (1 / q)), rel=1e-14)


def test_bbm_constant_p_keeps_the_gamma_form_in_range():
    # the log-gamma form is used only where gamma_fn is out of range
    for n, p in ((2, 98.0), (3, 97.0), (2, 2.5)):
        moment = (2.0 * math.pi ** ((n - 1) / 2.0) * gamma_fn((p + 1) / 2.0)
                  / gamma_fn((n + p) / 2.0))
        assert bbm_constant_p(n, p) == (moment / p) ** (1.0 / p)


def test_riesz_constant_known_values():
    assert riesz_constant(2, 1.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-13)
    assert riesz_constant(3, 1.0) == pytest.approx(1.0 / (2.0 * math.pi**2), rel=1e-13)
    with pytest.raises(ValueError):
        riesz_constant(2, 2.0)
    with pytest.raises(ValueError):
        riesz_constant(2, 0.0)


def test_riesz_constant_continuity_in_alpha():
    # no jumps on a fine grid: successive values move by O(grid step)
    for n in (2, 3):
        grid = np.linspace(0.05, 0.999, 400)
        vals = np.array([riesz_constant(n, a) for a in grid])
        steps = np.abs(np.diff(vals))
        assert np.max(steps) < 0.05


def test_bbm_constant_matches_sphere_quadrature():
    for n, order, tol in ((2, 64, 1e-12), (3, 64, 1e-10)):
        rule = build_sphere_rule(n, order)
        e = np.zeros(n)
        e[0] = 1.0
        quad = sphere_integrate(rule, lambda w: np.abs(w @ e))
        assert quad == pytest.approx(bbm_constant(n), abs=tol)


def test_bbm_constant_quadrature_rotated_direction():
    # kink direction not aligned with any panel boundary: use a rotated rule
    for n in (2, 3):
        e = np.ones(n) / math.sqrt(n)
        rule = rotate_rule(build_sphere_rule(n, 64), e)
        quad = sphere_integrate(rule, lambda w: np.abs(w @ e))
        assert quad == pytest.approx(bbm_constant(n), abs=1e-10)


def test_bbm_constant_p_matches_sphere_quadrature():
    for n in (2, 3):
        for p in (1.5, 2.0, 3.0):
            rule = build_sphere_rule(n, 96)
            e = np.zeros(n)
            e[0] = 1.0
            moment = sphere_integrate(rule, lambda w: np.abs(w @ e) ** p)
            # non-integer p leaves a |t|^p kink that panels only resolve
            # algebraically; integer p is panel-smooth
            tol = 1e-9 if p == int(p) else 1e-6
            assert (moment / p) ** (1.0 / p) == pytest.approx(
                bbm_constant_p(n, p), rel=tol
            )
