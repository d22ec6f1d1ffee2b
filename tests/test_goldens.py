"""CLI reports at default quadrature against frozen goldens.

The goldens were written by the CLI before the inner D^alpha engine shared
its quadrature nodes across an alpha schedule; the engine may move a value
only in its last digits.  ``error_estimate`` is |v - v_half|, a difference
of near-equal numbers, so it carries an absolute tolerance as well.
"""

import json
import pathlib

import pytest

from nonlocal_bbm.cli import compare_golden, main

GOLDENS = pathlib.Path(__file__).resolve().parents[1] / "goldens"
RTOL = 1e-12
ATOL = 1e-12

CASES = {
    "pointwise_modulated_bump_2d": ("sweep", {
        "dimension": 2,
        "field": {"name": "modulated_bump", "params": {"wavevector": [2.0, 0.0]}},
        "points": [[0.2, 0.1], [1.0, 0.0], [0.0, 0.0]],
        "mode": "sweep", "sweep_kind": "pointwise",
    }),
    "pointwise_poly_bump_3d": ("sweep", {
        "dimension": 3,
        "field": {"name": "poly_bump", "params": {"k": 4}},
        "points": [[0.0, 0.0, 0.0], [0.3, -0.2, 0.1]],
        "mode": "sweep", "sweep_kind": "pointwise",
    }),
    "eval_modulated_bump_2d_p2": ("eval", {
        "dimension": 2,
        "field": {"name": "modulated_bump", "params": {"wavevector": [2.0, 0.0]}},
        "points": [[0.2, 0.1]],
        "mode": "eval", "p": 2,
    }),
}


def run_case(name, out_dir):
    """Run one golden case through the CLI; returns (exit code, CSV path)."""
    command, doc = CASES[name]
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = out_dir / f"{name}.json"
    cfg.write_text(json.dumps({
        **doc, "outputs": {"csv": f"{name}.csv", "json": f"{name}.summary.json"},
    }), encoding="utf-8")
    code = main([command, "--config", str(cfg), "--out", str(out_dir), "--threads", "1"])
    return code, out_dir / f"{name}.csv"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_report_matches_golden(name, tmp_path):
    code, report = run_case(name, tmp_path)
    assert code in (0, 1)
    result, messages = compare_golden(
        str(report), str(GOLDENS / f"{name}.csv"), rtol=RTOL, atol=ATOL
    )
    assert result == 0, messages
