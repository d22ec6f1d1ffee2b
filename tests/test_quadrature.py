import math

import numpy as np
import pytest

from nonlocal_bbm.constants import sphere_area
from nonlocal_bbm.fields import poly_bump
from nonlocal_bbm.quadrature import (
    QuadratureSpec,
    brute_force_grid_oracle,
    build_sphere_rule,
    composed_spec,
    default_spec,
    fast_spec,
    high_spec,
    pairwise_sum,
    radial_ladder,
    radial_reduction_oracle,
    rotate_rule,
    sphere_integrate,
)


def test_pairwise_sum_matches_exact():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(1000)
    assert pairwise_sum(a) == pytest.approx(math.fsum(a), abs=1e-12)
    assert pairwise_sum(np.array([])) == 0.0
    assert pairwise_sum(np.array([3.5])) == 3.5


def test_sphere_rule_weight_sum():
    for n in (1, 2, 3):
        for order in (16, 64, 128):
            rule = build_sphere_rule(n, order)
            assert np.sum(rule.weights) == pytest.approx(sphere_area(n), abs=1e-12)
            norms = np.linalg.norm(rule.nodes, axis=1)
            assert np.max(np.abs(norms - 1.0)) < 1e-14


def test_sphere_rule_centroid_vanishes():
    for n in (2, 3):
        rule = build_sphere_rule(n, 64)
        centroid = rule.weights @ rule.nodes
        assert np.max(np.abs(centroid)) < 1e-12


def test_sphere_rule_kink_integrand():
    for n in (2, 3):
        rule = build_sphere_rule(n, 64)
        e = np.zeros(n)
        e[0] = 1.0
        target = {2: 4.0, 3: 2.0 * math.pi}[n]
        assert sphere_integrate(rule, lambda w: np.abs(w @ e)) == pytest.approx(
            target, abs=1e-10
        )


def test_rotate_rule_preserves_weights_and_norms():
    for n in (2, 3):
        rule = build_sphere_rule(n, 32)
        e = np.ones(n) / math.sqrt(n)
        rot = rotate_rule(rule, e)
        assert np.array_equal(rot.weights, rule.weights)
        assert np.max(np.abs(np.linalg.norm(rot.nodes, axis=1) - 1.0)) < 1e-12
        # smooth integrands are rotation invariant
        poly = lambda w: (w[:, 0] ** 2 if w.ndim == 2 else w[0] ** 2)
        assert sphere_integrate(rot, poly) == pytest.approx(
            sphere_integrate(rule, poly), abs=1e-10
        )


def test_sphere_integrate_rejects_nonfinite():
    rule = build_sphere_rule(2, 16)
    with pytest.raises(ValueError):
        sphere_integrate(rule, lambda w: np.full(w.shape[0], np.nan))


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(inner_shells=2, outer_shells=30, gauss_order=16, sphere_order=64)
    with pytest.raises(ValueError):
        QuadratureSpec(inner_shells=40, outer_shells=2, gauss_order=16, sphere_order=64)
    with pytest.raises(ValueError):
        QuadratureSpec(inner_shells=40, outer_shells=30, gauss_order=16,
                       sphere_order=4)
    for bad in (
        {"gauss_order": 16.5},
        {"sphere_order": 64.5},
        {"inner_shells": 12.5},
        {"inner_shells": True},
        {"target_rel_error": "x"},
        {"target_rel_error": None},
    ):
        with pytest.raises(TypeError):
            QuadratureSpec(**bad)
    for bad in (-1, 0, math.inf, math.nan):
        with pytest.raises(ValueError):
            QuadratureSpec(target_rel_error=bad)
    assert QuadratureSpec(sphere_order=np.int64(64), target_rel_error=1).sphere_order == 64


def test_spec_halved():
    spec = default_spec(2)
    half = spec.halved()
    assert half.gauss_order < spec.gauss_order
    assert half.sphere_order < spec.sphere_order


@pytest.mark.parametrize("preset", [fast_spec, default_spec, high_spec, composed_spec])
@pytest.mark.parametrize("n", [2, 3])
def test_every_preset_halves_to_a_smaller_sphere_rule(preset, n):
    # a spec whose halved rule is the same rule (2-D orders 16 and 8) gives
    # an estimate blind to the angular error
    spec = preset(n)
    assert (
        build_sphere_rule(n, spec.halved().sphere_order).size
        < build_sphere_rule(n, spec.sphere_order).size
    )


def test_radial_ladder_integrates_power_kernel():
    # int_0^1 r^{-alpha} dr = 1/(1-alpha); ladder covers (delta, 1),
    # the rest is delta^{1-alpha}/(1-alpha), tiny for deep ladders
    spec = default_spec(2)
    for alpha in (0.1, 0.5, 0.9, 0.99):
        r, w = radial_ladder(1.0, 1.0, spec)
        got = pairwise_sum(w * r ** (-alpha))
        delta = 2.0**-spec.inner_shells
        exact = (1.0 - delta ** (1.0 - alpha)) / (1.0 - alpha)
        assert got == pytest.approx(exact, rel=1e-8)


def test_radial_ladder_clipping():
    spec = fast_spec(2)
    r, w = radial_ladder(1.0, 2.5, spec)
    assert r.max() < 2.5
    assert pairwise_sum(w) == pytest.approx(2.5 - 2.0**-spec.inner_shells, rel=1e-12)
    r2, w2 = radial_ladder(1.0, 0.7, spec)
    assert r2.max() < 0.7
    assert pairwise_sum(w2) == pytest.approx(0.7 - 2.0**-spec.inner_shells, rel=1e-12)


def test_radial_oracle_is_stable_under_refinement():
    f = poly_bump(2, k=3)
    v1, e1 = radial_reduction_oracle(f, 0.5)
    v2, _ = radial_reduction_oracle(f, 0.5, inner_shells=70, gauss_order=32)
    assert abs(v1 - v2) < 1e-10
    assert e1 < 1e-20


def test_radial_oracle_matches_golden():
    import csv
    import pathlib

    golden = pathlib.Path(__file__).resolve().parents[1] / "goldens" / "radial_oracle.csv"
    rows = list(csv.DictReader(open(golden, encoding="utf-8")))
    assert rows
    for row in rows:
        n = int(row["case_id"].rsplit("n=", 1)[1])
        k = 3 if "poly_bump3" in row["case_id"] else 4
        v, _ = radial_reduction_oracle(poly_bump(n, k=k), float(row["alpha"]))
        assert v == pytest.approx(float(row["value"]), rel=1e-12)


def test_brute_force_oracle_guards():
    f = poly_bump(2, k=3)
    with pytest.raises(ValueError):
        brute_force_grid_oracle(f, 0.5, np.array([0.0, 0.0]), 8192)
    with pytest.raises(ValueError):
        brute_force_grid_oracle(poly_bump(3, k=4), 0.5, np.zeros(3), 64)
