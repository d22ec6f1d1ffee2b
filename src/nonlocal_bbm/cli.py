"""Command-line front end: strict JSON config ingestion, case execution on a
thread pool with deterministic ordered assembly, CSV/JSON report emission and
golden-file comparison.

Exit codes: 0 all-pass, 1 audit failure or non-convergence or golden
mismatch, 2 config / parse error.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from . import __version__
from .constants import bbm_constant, bbm_constant_p, riesz_constant, sphere_area
from .fields import make_field
from .limits import (
    AlphaSchedule,
    SweepReport,
    SweepRow,
    composed_limit_sweep_p,
    inequality_audit,
    pointwise_gradient_limit_sweep,
    seminorm_limit_sweep,
)
from .operators import _frac_derivative_schedule
from .quadrature import QuadratureSpec, default_spec, fast_spec, high_spec

CSV_COLUMNS = (
    "case_id",
    "alpha",
    "point",
    "value",
    "error_estimate",
    "target",
    "abs_error",
    "rel_error",
    "pass",
)

_MODES = ("constants", "eval", "sweep", "audit", "report")
_SWEEP_KINDS = ("pointwise", "composed", "seminorm")
_PRESETS = {"fast": fast_spec, "default": default_spec, "high": high_spec}

_CONFIG_KEYS = {
    "dimension", "field", "points", "schedule", "quadrature",
    "mode", "p", "sweep_kind", "outputs",
}
_FIELD_KEYS = {"name", "params"}
_OUTPUT_KEYS = {"csv", "json"}
_QUAD_KEYS = {
    "inner_shells", "outer_shells", "gauss_order", "sphere_order",
    "tail_policy", "target_rel_error",
}


class ConfigError(Exception):
    """Schema violation; carries the offending field in the message."""


@dataclass(frozen=True)
class RunConfig:
    dimension: int
    field_name: str
    field_params: dict
    points: tuple
    schedule: AlphaSchedule
    quadrature: QuadratureSpec
    mode: str
    p: float
    sweep_kind: str
    csv_path: str
    json_path: str
    raw: dict = dataclass_field(repr=False, default_factory=dict)

    @property
    def config_hash(self):
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def make_field(self):
        try:
            return make_field(self.field_name, self.dimension, self.field_params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"field 'field': {exc}") from exc


def _reject_unknown(mapping, allowed, context):
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {context}")


def parse_config(path, quad_preset=None):
    """Load and validate a run config; raises ConfigError on any violation."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(doc, _CONFIG_KEYS, "config root")

    n = doc.get("dimension", 2)
    if not isinstance(n, int) or isinstance(n, bool) or n not in (1, 2, 3):
        raise ConfigError(f"field 'dimension': must be one of 1, 2, 3; got {n!r}")

    fld = doc.get("field", {"name": "bump"})
    if not isinstance(fld, dict) or "name" not in fld:
        raise ConfigError("field 'field': must be an object with a 'name'")
    _reject_unknown(fld, _FIELD_KEYS, "field")
    params = fld.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("field 'field.params': must be an object")

    pts_raw = doc.get("points", [[0.0] * n])
    if not isinstance(pts_raw, list) or not pts_raw:
        raise ConfigError("field 'points': must be a nonempty list of points")
    points = []
    for i, pt in enumerate(pts_raw):
        if not isinstance(pt, list) or len(pt) != n:
            raise ConfigError(f"field 'points[{i}]': expected a list of {n} numbers")
        try:
            coords = tuple(float(c) for c in pt)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"field 'points[{i}]': {exc}") from exc
        if not all(math.isfinite(c) for c in coords):
            raise ConfigError(f"field 'points[{i}]': coordinates must be finite, got {pt!r}")
        points.append(coords)

    sched_raw = doc.get("schedule")
    if sched_raw is None:
        schedule = AlphaSchedule.default()
    else:
        if not isinstance(sched_raw, list):
            raise ConfigError("field 'schedule': must be a list of alpha values")
        for a in sched_raw:
            if not isinstance(a, (int, float)) or isinstance(a, bool) or not 0.0 < a < 1.0:
                raise ConfigError(
                    f"field 'schedule': alpha values must lie in (0, 1), got {a!r}"
                )
        try:
            schedule = AlphaSchedule(tuple(float(a) for a in sched_raw))
        except ValueError as exc:
            raise ConfigError(f"field 'schedule': {exc}") from exc

    if quad_preset is not None:
        quad = _PRESETS[quad_preset](n)
    elif "quadrature" in doc:
        qd = doc["quadrature"]
        if not isinstance(qd, dict):
            raise ConfigError("field 'quadrature': must be an object")
        _reject_unknown(qd, _QUAD_KEYS, "quadrature")
        base = default_spec(n)
        try:
            quad = QuadratureSpec(**{
                k: qd.get(k, getattr(base, k)) for k in _QUAD_KEYS
            })
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"field 'quadrature': {exc}") from exc
    else:
        quad = default_spec(n)

    mode = doc.get("mode", "sweep")
    if mode not in _MODES:
        raise ConfigError(f"field 'mode': must be one of {_MODES}, got {mode!r}")

    p = doc.get("p", 1.0)
    if not isinstance(p, (int, float)) or isinstance(p, bool) or p < 1:
        raise ConfigError(f"field 'p': must be a number >= 1, got {p!r}")

    kind = doc.get("sweep_kind", "pointwise")
    if kind not in _SWEEP_KINDS:
        raise ConfigError(
            f"field 'sweep_kind': must be one of {_SWEEP_KINDS}, got {kind!r}"
        )

    outputs = doc.get("outputs", {})
    if not isinstance(outputs, dict):
        raise ConfigError("field 'outputs': must be an object")
    _reject_unknown(outputs, _OUTPUT_KEYS, "outputs")

    return RunConfig(
        dimension=n,
        field_name=fld["name"],
        field_params=params,
        points=tuple(points),
        schedule=schedule,
        quadrature=quad,
        mode=mode,
        p=float(p),
        sweep_kind=kind,
        csv_path=outputs.get("csv", "report.csv"),
        json_path=outputs.get("json", "summary.json"),
        raw=doc,
    )


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _fmt(x):
    if x is None:
        return ""
    x = float(x)
    if math.isnan(x):
        return ""
    return format(x, ".17g")


def _fmt_point(pt):
    if pt is None:
        return ""
    return ";".join(format(float(c), ".17g") for c in pt)


def _sweep_csv_rows(case_id, point, report):
    rows = []
    for r in report.rows:
        rows.append({
            "case_id": case_id,
            "alpha": _fmt(r.alpha),
            "point": _fmt_point(point),
            "value": _fmt(r.value),
            "error_estimate": _fmt(r.error_estimate),
            "target": _fmt(r.target),
            "abs_error": _fmt(r.abs_error),
            "rel_error": _fmt(r.rel_error),
            "pass": "1" if r.converged else "0",
        })
    return rows


def _write_csv(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _write_json(path, summary):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _json_float(x):
    if x is None:
        return None
    x = float(x)
    if math.isnan(x):
        return None
    return x


def _sweep_json_case(case_id, point, report):
    return {
        "case_id": case_id,
        "point": list(point) if point is not None else None,
        "target_description": report.target_description,
        "rows": [
            {
                "alpha": r.alpha,
                "value": _json_float(r.value),
                "error_estimate": _json_float(r.error_estimate),
                "target": _json_float(r.target),
                "abs_error": _json_float(r.abs_error),
                "rel_error": _json_float(r.rel_error),
                "converged": r.converged,
                "note": r.note,
            }
            for r in report.rows
        ],
    }


def _map_ordered(fn, items, threads):
    """Apply fn to items, possibly in parallel, preserving item order."""
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def _run_constants(cfg):
    n = cfg.dimension
    rows = []

    def row(case_id, value, alpha=None):
        rows.append({
            "case_id": case_id,
            "alpha": _fmt(alpha),
            "point": "",
            "value": _fmt(value),
            "error_estimate": _fmt(0.0),
            "target": "",
            "abs_error": "",
            "rel_error": "",
            "pass": "1",
        })

    row(f"constant:sphere_area:n={n}", sphere_area(n))
    if n >= 2:
        row(f"constant:K_n:n={n}", bbm_constant(n))
        row(f"constant:K_n_p:n={n}:p=2", bbm_constant_p(n, 2.0))
    for a in cfg.schedule.values:
        row(f"constant:riesz_norm:n={n}", riesz_constant(n, a), alpha=a)
    if n >= 2:
        row(f"constant:riesz_norm:n={n}", riesz_constant(n, 1.0), alpha=1.0)
    return rows, {"cases": [], "fits": [], "audits": []}, 0


def _run_eval(cfg, threads):
    f = cfg.make_field()
    quad = cfg.quadrature

    def one(point):
        values = _frac_derivative_schedule(f, cfg.schedule.values, cfg.p, np.array(point), quad)
        return [(a, point, ov) for a, ov in zip(cfg.schedule.values, values)]

    results = _map_ordered(one, list(cfg.points), threads)
    rows, cases, bad = [], [], 0
    for chunk in results:
        for a, point, ov in chunk:
            bad += 0 if ov.converged else 1
            rows.append({
                "case_id": f"eval:{f.name}:n={cfg.dimension}:p={cfg.p:g}",
                "alpha": _fmt(a),
                "point": _fmt_point(point),
                "value": _fmt(ov.value),
                "error_estimate": _fmt(ov.error_estimate),
                "target": "",
                "abs_error": "",
                "rel_error": "",
                "pass": "1" if ov.converged else "0",
            })
    summary = {"cases": cases, "fits": [], "audits": []}
    return rows, summary, (1 if bad else 0)


def _run_sweep(cfg, threads):
    f = cfg.make_field()
    quad = cfg.quadrature
    rows, cases, fits = [], [], []
    bad = 0

    if cfg.sweep_kind == "seminorm":
        units = [None]
    else:
        units = list(cfg.points)

    def one(point):
        if cfg.sweep_kind == "pointwise":
            return pointwise_gradient_limit_sweep(f, np.array(point), cfg.schedule, quad)
        if cfg.sweep_kind == "composed":
            return composed_limit_sweep_p(f, np.array(point), cfg.p, cfg.schedule, quad)
        return seminorm_limit_sweep(f, cfg.schedule, quad)

    reports = _map_ordered(one, units, threads)
    for point, report in zip(units, reports):
        case_id = report.case_id
        rows.extend(_sweep_csv_rows(case_id, point, report))
        cases.append(_sweep_json_case(case_id, point, report))
        if report.fit is not None:
            c_fit, slope = report.fit
            fits.append({
                "case_id": case_id,
                "C": _json_float(c_fit),
                "slope": None if math.isinf(slope) else _json_float(slope),
            })
        bad += sum(0 if r.converged else 1 for r in report.rows)
    return rows, {"cases": cases, "fits": fits, "audits": []}, (1 if bad else 0)


def _run_audit(cfg, threads):
    f = cfg.make_field()
    report = inequality_audit(
        f, cfg.schedule, [np.array(p) for p in cfg.points], cfg.quadrature
    )
    rows, bad = [], report.failures
    for r in report.rows:
        if not r.converged:
            bad += 1
        if r.passed is None:
            flag = "" if r.converged else "0"
        else:
            flag = "1" if (r.passed and r.converged) else "0"
        rows.append({
            "case_id": f"{report.case_id}:{r.kind}",
            "alpha": _fmt(r.alpha),
            "point": _fmt_point(r.point),
            "value": _fmt(r.value),
            "error_estimate": _fmt(r.error_estimate),
            "target": _fmt(r.target),
            "abs_error": "",
            "rel_error": "",
            "pass": flag,
        })
    audits = [{
        "case_id": report.case_id,
        "failures": report.failures,
        "ratio_suprema": {k: _json_float(v) for k, v in report.ratio_suprema.items()},
    }]
    return rows, {"cases": [], "fits": [], "audits": audits}, (1 if bad else 0)


def _run_report(cfg):
    try:
        with open(cfg.json_path, encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read summary {cfg.json_path}: {exc}", file=sys.stderr)
        return 2
    print(f"summary version {summary.get('version')} "
          f"config {str(summary.get('config_hash'))[:12]}")
    for case in summary.get("cases", []):
        print(f"case {case['case_id']}")
        for r in case.get("rows", []):
            rel = r.get("rel_error")
            rel_s = f"{rel:.3e}" if rel is not None else "n/a"
            print(f"  alpha={r['alpha']:<8g} value={r['value']:.9g} "
                  f"rel_error={rel_s}")
    for fit in summary.get("fits", []):
        slope = fit.get("slope")
        print(f"fit {fit['case_id']}: C={fit['C']:.4g} "
              f"slope={'inf' if slope is None else format(slope, '.4g')}")
    for audit in summary.get("audits", []):
        print(f"audit {audit['case_id']}: failures={audit['failures']} "
              f"suprema={audit['ratio_suprema']}")
    return 0


def run(cfg, threads=1, out_dir=None):
    """Execute a validated config; writes CSV + JSON, returns the exit code."""
    if cfg.mode == "report":
        return _run_report(cfg)
    if cfg.mode == "constants":
        rows, summary, code = _run_constants(cfg)
    elif cfg.mode == "eval":
        rows, summary, code = _run_eval(cfg, threads)
    elif cfg.mode == "sweep":
        rows, summary, code = _run_sweep(cfg, threads)
    else:
        rows, summary, code = _run_audit(cfg, threads)

    csv_path, json_path = cfg.csv_path, cfg.json_path
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        csv_path = os.path.join(out_dir, os.path.basename(csv_path))
        json_path = os.path.join(out_dir, os.path.basename(json_path))
    summary = {
        "version": __version__,
        "config_hash": cfg.config_hash,
        **summary,
    }
    _write_csv(csv_path, rows)
    _write_json(json_path, summary)
    return code


# ---------------------------------------------------------------------------
# golden comparison
# ---------------------------------------------------------------------------

_NUMERIC_COLUMNS = ("value", "error_estimate", "target", "abs_error", "rel_error")


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected columns {reader.fieldnames}")
        rows = {}
        for i, row in enumerate(reader):
            key = (row["case_id"], row["alpha"], row["point"])
            if key in rows:
                key = key + (i,)
            rows[key] = row
    return rows


def compare_golden(report_path, golden_path, rtol=1e-12, atol=0.0):
    """Row-by-row comparison of a report against a golden CSV.

    Returns (exit_code, list of mismatch messages); 0 match, 1 mismatch,
    2 parse failure.
    """
    messages = []
    try:
        got = _read_csv(report_path)
        want = _read_csv(golden_path)
    except (OSError, ValueError) as exc:
        return 2, [str(exc)]
    for key, wrow in want.items():
        grow = got.get(key)
        if grow is None:
            messages.append(f"missing row {key}")
            continue
        for col in _NUMERIC_COLUMNS:
            a, b = grow[col], wrow[col]
            if (a == "") != (b == ""):
                messages.append(f"row {key} column {col}: {a!r} vs {b!r}")
            elif a != "":
                x, y = float(a), float(b)
                if abs(x - y) > atol + rtol * max(abs(x), abs(y)):
                    messages.append(f"row {key} column {col}: {x!r} != {y!r}")
        if grow["pass"] != wrow["pass"]:
            messages.append(f"row {key} column pass: {grow['pass']!r} vs {wrow['pass']!r}")
    extra = set(got) - set(want)
    for key in sorted(extra):
        messages.append(f"unexpected row {key}")
    return (1 if messages else 0), messages


def _resolve_golden(path):
    base = os.environ.get("NONLOCAL_BBM_GOLDEN_DIR")
    if base and not os.path.isabs(path) and not os.path.exists(path):
        return os.path.join(base, path)
    return path


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nonlocal-bbm",
        description="Nonlocal fractional operators and their limiting behavior.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _MODES:
        sp = sub.add_parser(name, help=f"run in {name} mode")
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)
        sp.add_argument("--threads", type=int, default=os.cpu_count() or 1)
        sp.add_argument("--quad-preset", choices=sorted(_PRESETS), default=None)
    cg = sub.add_parser("compare-golden", help="compare a report against a golden CSV")
    cg.add_argument("report")
    cg.add_argument("golden")
    cg.add_argument("--rtol", type=float, default=1e-12)
    cg.add_argument("--atol", type=float, default=0.0)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "compare-golden":
        code, messages = compare_golden(
            args.report, _resolve_golden(args.golden), rtol=args.rtol, atol=args.atol
        )
        for msg in messages:
            print(msg, file=sys.stderr)
        return code
    try:
        cfg = parse_config(args.config, quad_preset=args.quad_preset)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if cfg.mode != args.command:
        cfg = RunConfig(**{**cfg.__dict__, "mode": args.command})
    try:
        return run(cfg, threads=max(1, args.threads), out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
