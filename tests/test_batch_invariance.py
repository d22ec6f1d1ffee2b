"""A point's D^alpha value does not depend on what is batched with it: not on
the other rows of X, not on the other alphas of the call, and not on the
CLI's thread count.  All comparisons are bit for bit."""

import json

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from nonlocal_bbm.cli import main
from nonlocal_bbm.fields import bump, modulated_bump, poly_bump
from nonlocal_bbm.operators import _dalpha_integral_batch
from nonlocal_bbm.quadrature import QuadratureSpec

SPEC = QuadratureSpec(inner_shells=10, outer_shells=8, gauss_order=8, sphere_order=16)
R_MAX = 3.5
FIELDS = {
    "bump": bump(2),
    "poly_bump": poly_bump(2, k=3),
    "modulated_bump": modulated_bump(2, [2.0, 0.0]),
}
ALPHAS = (0.3, 0.5, 0.7, 0.9, 0.99)

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
    f = FIELDS[name]
    X = np.random.default_rng(seed).uniform(-1.2, 1.2, size=(size, 2))
    vals, errs = _dalpha_integral_batch(f, ALPHAS, X, SPEC, p=p, r_max=R_MAX)
    assert vals.shape == errs.shape == (size, len(ALPHAS))
    for i in sorted({k % size for k in picks}):
        alone, alone_err = _dalpha_integral_batch(f, ALPHAS, X[i : i + 1], SPEC, p=p, r_max=R_MAX)
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
    f = FIELDS[name]
    X = np.array([x, (0.1, -0.2)])
    vals, errs = _dalpha_integral_batch(f, tuple(alphas), X, SPEC, p=p)
    for k, a in enumerate(alphas):
        one, one_err = _dalpha_integral_batch(f, (a,), X, SPEC, p=p)
        assert np.array_equal(one[:, 0], vals[:, k])
        assert np.array_equal(one_err[:, 0], errs[:, k])


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
