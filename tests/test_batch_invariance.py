"""A point's D^alpha or I_alpha value does not depend on what is batched with
it: not on the other rows of X, not on the other alphas of the call, and not
on the CLI's thread count.  A sweep's row does not depend on the other alphas
of its schedule.  The shell engine's values do not depend on the panels it
skips.  All comparisons are bit for bit."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nonlocal_bbm.cli import main
from nonlocal_bbm.constants import sphere_area
from nonlocal_bbm.fields import bump, modulated_bump, poly_bump
from nonlocal_bbm.limits import AlphaSchedule, composed_limit_sweep_p, seminorm_limit_sweep
from nonlocal_bbm.operators import (
    _ENGINE_CHUNK,
    DecayingFunction,
    _DalphaField,
    _dalpha_integral_batch,
    _translates,
    bbm_operator_p,
    gagliardo_seminorm,
    riesz_of_field_values,
    riesz_potential,
)
from nonlocal_bbm.quadrature import QuadratureSpec, build_sphere_rule, fast_spec, radial_ladder

SPEC = QuadratureSpec(inner_shells=10, outer_shells=8, gauss_order=8, sphere_order=16)
R_MAX = 3.5
FIELDS = {
    "bump": bump(2),
    "poly_bump": poly_bump(2, k=3),
    "modulated_bump": modulated_bump(2, [2.0, 0.0]),
}
ALPHAS = (0.3, 0.5, 0.7, 0.9, 0.99)
FIELDS_3D = {"bump": bump(3), "poly_bump": poly_bump(3, k=4)}
# 8 radii x 4,608 sphere nodes: one row's panel exceeds _ENGINE_CHUNK, so
# each engine block holds one row
WIDE_SPEC = dataclasses.replace(SPEC, sphere_order=48)

coords = st.floats(min_value=-1.2, max_value=1.2, allow_nan=False)


@settings(max_examples=12, deadline=None)
@given(
    name=st.sampled_from(sorted(FIELDS)),
    size=st.integers(min_value=1, max_value=3000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    picks=st.lists(st.integers(min_value=0, max_value=2999), min_size=1, max_size=5),
    p=st.sampled_from([1.0, 2.0]),
)
def test_row_value_does_not_depend_on_batch(name, size, seed, picks, p):
    _check_rows_alone(FIELDS[name], SPEC, size, seed, picks, p)


@pytest.mark.parametrize("spec", [SPEC, WIDE_SPEC], ids=["sphere16", "sphere48"])
@settings(max_examples=5, deadline=None)
@given(
    name=st.sampled_from(sorted(FIELDS_3D)),
    size=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    picks=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=3),
    p=st.sampled_from([1.0, 2.0]),
)
def test_row_value_does_not_depend_on_batch_3d(name, spec, size, seed, picks, p):
    _check_rows_alone(FIELDS_3D[name], spec, size, seed, picks, p)


def test_wide_spec_panel_exceeds_one_engine_block():
    assert WIDE_SPEC.gauss_order * build_sphere_rule(3, WIDE_SPEC.sphere_order).size > _ENGINE_CHUNK


def _check_rows_alone(f, spec, size, seed, picks, p):
    X = np.random.default_rng(seed).uniform(-1.2, 1.2, size=(size, f.dim))
    vals, errs = _dalpha_integral_batch(f, ALPHAS, X, spec, p=p, r_max=R_MAX)
    assert vals.shape == errs.shape == (size, len(ALPHAS))
    for i in sorted({k % size for k in picks}):
        alone, alone_err = _dalpha_integral_batch(f, ALPHAS, X[i : i + 1], spec, p=p, r_max=R_MAX)
        assert np.array_equal(alone[0], vals[i])
        assert np.array_equal(alone_err[0], errs[i])


@settings(max_examples=12, deadline=None)
@given(
    name=st.sampled_from(sorted(FIELDS)),
    x=st.tuples(coords, coords),
    alphas=st.lists(
        st.floats(min_value=0.05, max_value=0.999), min_size=1, max_size=7, unique=True
    ),
    p=st.sampled_from([1.0, 2.0]),
)
def test_alpha_column_matches_scalar_call(name, x, alphas, p):
    _check_alpha_columns(FIELDS[name], SPEC, np.array([x, (0.1, -0.2)]), alphas, p)


@pytest.mark.parametrize("spec", [SPEC, WIDE_SPEC], ids=["sphere16", "sphere48"])
@settings(max_examples=5, deadline=None)
@given(
    name=st.sampled_from(sorted(FIELDS_3D)),
    x=st.tuples(coords, coords, coords),
    alphas=st.lists(
        st.floats(min_value=0.05, max_value=0.999), min_size=1, max_size=4, unique=True
    ),
    p=st.sampled_from([1.0, 2.0]),
)
def test_alpha_column_matches_scalar_call_3d(name, spec, x, alphas, p):
    _check_alpha_columns(FIELDS_3D[name], spec, np.array([x, (0.1, -0.2, 0.3)]), alphas, p)


def _check_alpha_columns(f, spec, X, alphas, p):
    vals, errs = _dalpha_integral_batch(f, tuple(alphas), X, spec, p=p)
    for k, a in enumerate(alphas):
        one, one_err = _dalpha_integral_batch(f, (a,), X, spec, p=p)
        assert np.array_equal(one[:, 0], vals[:, k])
        assert np.array_equal(one_err[:, 0], errs[:, k])


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("alpha", [0.7, 1.0])
def test_riesz_row_does_not_depend_on_batch(name, alpha):
    f = FIELDS[name]
    X = np.random.default_rng(3).uniform(-2.0, 2.0, size=(24, 2))
    near = np.linalg.norm(X, axis=1) < f.support_radius + 0.4
    assert near.any() and not near.all()
    vals = riesz_of_field_values(f, alpha, X, SPEC)
    # a near row is the Riesz ladder's value for f as a supported function
    g = DecayingFunction(
        dim=2, eval=f.eval, decay_exponent=math.inf, decay_constant=0.0,
        support_radius=f.support_radius,
    )
    for i in range(X.shape[0]):
        assert riesz_of_field_values(f, alpha, X[i : i + 1], SPEC)[0] == vals[i]
    for i in np.flatnonzero(near):
        assert riesz_potential(g, alpha, X[i], SPEC).value == vals[i]


@pytest.mark.parametrize("f", [bump(2), bump(3)], ids=["grid40", "grid24"])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_dalpha_field_far_row_does_not_depend_on_batch(f, p):
    D = _DalphaField(f, (0.7, 0.99), SPEC, p)
    rng = np.random.default_rng(7)
    Y = rng.standard_normal((40, f.dim))
    Y *= rng.uniform(D.near_radius, 3.0, size=40)[:, None] / np.linalg.norm(Y, axis=1)[:, None]
    vals, _ = D(Y)
    for i in range(Y.shape[0]):
        assert np.array_equal(D(Y[i : i + 1])[0][0], vals[i])


def _engine_without_skip(f, alphas, X, spec, p, r_max=None):
    """The shell engine with every panel evaluated for every row, in the
    engine's blocks and summation order."""
    n, G, R0 = f.dim, spec.gauss_order, f.support_radius
    rule = build_sphere_rule(n, spec.sphere_order)
    if r_max is None:
        r_max = max(1.0, float(np.max(np.linalg.norm(X, axis=1))) + R0 + 1.0)
    ap = [a * p for a in alphas]
    q = [p * (1.0 - a) for a in alphas]
    delta = 2.0**-spec.inner_shells
    r, w = radial_ladder(1.0, r_max, spec)
    radial = np.stack([w * r ** (-1.0 - a) for a in ap])
    fx, gX = f.eval(X), f.grad(X)
    lin = np.abs((gX[:, None, :] * rule.nodes).sum(axis=-1)) ** p
    lin *= rule.weights
    acc = np.zeros((X.shape[0], len(ap)))
    block = max(1, _ENGINE_CHUNK // (G * rule.size))
    for lo in range(0, X.shape[0], block):
        Xb, fxb = X[lo : lo + block], fx[lo : lo + block]
        for k in range(0, r.size, G):
            offs = (r[k : k + G, None, None] * rule.nodes).reshape(-1, n)
            vals = f.eval(_translates(Xb, offs)).reshape(Xb.shape[0], G, rule.size)
            vals -= fxb[:, None, None]
            np.abs(vals, out=vals)
            if p != 1.0:
                vals **= p
            ang = np.einsum("igs,s->ig", vals, rule.weights)
            acc[lo : lo + block] += np.einsum("ig,ag->ia", ang, radial[:, k : k + G])
    total = lin.sum(axis=-1)[:, None] * np.array([delta**qa / qa for qa in q]) + acc
    total += (np.abs(fx) ** p)[:, None] * np.array([sphere_area(n) * r_max ** (-a) / a for a in ap])
    return total


SKIP_FIELDS = [bump(2), poly_bump(2, k=3), modulated_bump(2, [2.0, 0.0]), bump(3)]


@pytest.mark.parametrize("f", SKIP_FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("r_max", [None, R_MAX])
def test_panel_skip_keeps_every_bit(f, p, r_max):
    # rows inside the support, on its edge and in the shell R0 <= |x| < R0 + 0.5,
    # where a row skips the panels that add exactly 0; more rows than one
    # engine block holds
    rng = np.random.default_rng(11)
    R0 = f.support_radius
    radii = np.concatenate([rng.uniform(0, R0, 70), [R0, R0 + 1e-12], rng.uniform(R0, R0 + 0.5, 70)])
    X = rng.standard_normal((radii.size, f.dim))
    X *= (radii / np.linalg.norm(X, axis=1))[:, None]
    X = X[rng.permutation(radii.size)]
    vals, _ = _dalpha_integral_batch(f, ALPHAS, X, SPEC, p=p, r_max=r_max)
    assert np.array_equal(vals, _engine_without_skip(f, ALPHAS, X, SPEC, p, r_max))


def test_panel_skip_evaluates_fewer_points_outside_the_support():
    counts = []

    def counting(Y):
        counts[-1] += Y.shape[0]
        return FIELDS["bump"].eval(Y)

    f = dataclasses.replace(FIELDS["bump"], eval=counting)
    for x in ((0.3, 0.0), (1.3, 0.0)):
        counts.append(0)
        _dalpha_integral_batch(f, ALPHAS, np.array([x]), SPEC, r_max=R_MAX)
    assert counts[1] < counts[0]


@pytest.mark.parametrize("name", ["bump", "modulated_bump"])
@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("x", [(0.3, 0.0), (3.0, 0.0)])
def test_composed_sweep_row_matches_single_alpha_call(name, p, x):
    # the sweep runs one composed pass for the whole schedule
    f, schedule = FIELDS[name], AlphaSchedule((0.7, 0.9, 0.99))
    report = composed_limit_sweep_p(f, x, p, schedule, fast_spec(2))
    for a, row in zip(schedule.values, report.rows):
        one = bbm_operator_p(f, a, p, x, fast_spec(2))
        assert (row.value, row.error_estimate) == (one.value, one.error_estimate)
        assert row.converged == one.converged and one.note in row.note


@pytest.mark.parametrize("name", ["bump", "modulated_bump"])
def test_seminorm_sweep_row_matches_single_alpha_call(name):
    f, schedule = FIELDS[name], AlphaSchedule((0.5, 0.9, 0.99))
    report = seminorm_limit_sweep(f, schedule, fast_spec(2))
    for a, row in zip(schedule.values, report.rows):
        one = gagliardo_seminorm(f, a, fast_spec(2))
        assert row.value == (1.0 - a) * one.value
        assert row.error_estimate == (1.0 - a) * one.error_estimate
        assert row.converged == one.converged


@settings(
    max_examples=4, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(points=st.lists(st.tuples(coords, coords), min_size=2, max_size=4))
def test_cli_csv_does_not_depend_on_threads(points, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "dimension": 2,
        "field": {"name": "modulated_bump", "params": {"wavevector": [2.0, 0.0]}},
        "points": [list(pt) for pt in points],
        "mode": "sweep", "sweep_kind": "pointwise",
        "schedule": [0.5, 0.9, 0.99],
        "quadrature": {
            "inner_shells": 10, "outer_shells": 8, "gauss_order": 8,
            "sphere_order": 16, "target_rel_error": 1e-2,
        },
        "outputs": {"csv": "r.csv", "json": "r.json"},
    }), encoding="utf-8")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--threads", threads]) in (0, 1)
        outs.append((out / "r.csv").read_bytes())
    assert outs[0] == outs[1]
