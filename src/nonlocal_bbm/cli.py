"""Command-line front end: strict JSON config ingestion, case execution on a
thread pool with deterministic ordered assembly, CSV/JSON report emission and
golden-file comparison.

Exit codes: 0 all-pass, 1 a report row with ``pass`` "0" or a golden
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
from dataclasses import asdict, dataclass, field as dataclass_field, fields, replace

import numpy as np

from . import __version__
from .constants import bbm_constant, bbm_constant_p, riesz_constant, sphere_area
from .fields import make_field
from .limits import (
    AlphaSchedule,
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
_QUAD_KEYS = {f.name for f in fields(QuadratureSpec)}


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
        """Hash of the raw config and the quadrature it resolved to, so a
        ``--quad-preset`` override gives a hash of its own."""
        doc = {"config": self.raw, "quadrature": asdict(self.quadrature)}
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
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


def _has_non_finite(obj):
    """Whether a parsed JSON value holds a NaN or an infinity, which
    ``json.load`` accepts."""
    if isinstance(obj, float):
        return not math.isfinite(obj)
    if isinstance(obj, dict):
        obj = list(obj.values())
    return isinstance(obj, list) and any(_has_non_finite(v) for v in obj)


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
    if _has_non_finite(params):
        raise ConfigError(f"field 'field': parameters must be finite, got {params!r}")

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

    kind = doc.get("sweep_kind", "pointwise")
    if kind not in _SWEEP_KINDS:
        raise ConfigError(
            f"field 'sweep_kind': must be one of {_SWEEP_KINDS}, got {kind!r}"
        )

    # composed sweeps run in the regime alpha in (1/2, 1)
    composed = kind == "composed"
    sched_raw = doc.get("schedule")
    if sched_raw is None:
        schedule = AlphaSchedule.composed_default() if composed else AlphaSchedule.default()
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
            if composed:
                schedule.require_composed_regime()
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
    if not isinstance(p, (int, float)) or isinstance(p, bool) or not 1 <= p < math.inf:
        raise ConfigError(f"field 'p': must be a finite number >= 1, got {p!r}")

    outputs = doc.get("outputs", {})
    if not isinstance(outputs, dict):
        raise ConfigError("field 'outputs': must be an object")
    _reject_unknown(outputs, _OUTPUT_KEYS, "outputs")
    paths = {k: outputs.get(k, d) for k, d in (("csv", "report.csv"), ("json", "summary.json"))}
    for key, path in paths.items():
        if not isinstance(path, str) or not path:
            raise ConfigError(f"field 'outputs.{key}': must be a non-empty path, got {path!r}")

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
        csv_path=paths["csv"],
        json_path=paths["json"],
        raw=doc,
    )


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _json_float(x):
    if x is None:
        return None
    x = float(x)
    if math.isnan(x):
        return None
    return x


def _fmt(x):
    x = _json_float(x)
    return "" if x is None else format(x, ".17g")


def _fmt_point(pt):
    return "" if pt is None else ";".join(_fmt(c) for c in pt)


def _csv_row(case_id, alpha, point, value, error_estimate, target=None,
             abs_error=None, rel_error=None, passed="1"):
    """One report row in ``CSV_COLUMNS`` order; None prints as empty."""
    return dict(zip(CSV_COLUMNS, (
        case_id, _fmt(alpha), _fmt_point(point), _fmt(value), _fmt(error_estimate),
        _fmt(target), _fmt(abs_error), _fmt(rel_error), passed,
    )))


def _write_csv(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _write_json(path, summary):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
        rows.append(_csv_row(case_id, alpha, None, value, 0.0))

    row(f"constant:sphere_area:n={n}", sphere_area(n))
    if n >= 2:
        row(f"constant:K_n:n={n}", bbm_constant(n))
        row(f"constant:K_n_p:n={n}:p=2", bbm_constant_p(n, 2.0))
    for a in cfg.schedule.values:
        row(f"constant:riesz_norm:n={n}", riesz_constant(n, a), alpha=a)
    if n >= 2:
        row(f"constant:riesz_norm:n={n}", riesz_constant(n, 1.0), alpha=1.0)
    return rows, {}


def _run_eval(cfg, threads):
    f = cfg.make_field()
    case_id = f"eval:{f.name}:n={cfg.dimension}:p={cfg.p:g}"

    def one(point):
        values = _frac_derivative_schedule(
            f, cfg.schedule.values, cfg.p, np.array(point), cfg.quadrature
        )
        return [
            _csv_row(case_id, a, point, ov.value, ov.error_estimate,
                     passed="1" if ov.converged else "0")
            for a, ov in zip(cfg.schedule.values, values)
        ]

    chunks = _map_ordered(one, list(cfg.points), threads)
    return [row for chunk in chunks for row in chunk], {}


def _run_sweep(cfg, threads):
    f = cfg.make_field()
    quad = cfg.quadrature
    rows, cases, fits = [], [], []

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
        rows.extend(
            _csv_row(case_id, r.alpha, point, r.value, r.error_estimate, r.target,
                     r.abs_error, r.rel_error, "1" if r.converged else "0")
            for r in report.rows
        )
        cases.append({
            "case_id": case_id,
            "point": list(point) if point is not None else None,
            "target_description": report.target_description,
            "rows": [
                {k: _json_float(v) if isinstance(v, float) else v for k, v in asdict(r).items()}
                for r in report.rows
            ],
        })
        if report.fit is not None:
            c_fit, slope = report.fit
            fits.append({
                "case_id": case_id,
                "C": _json_float(c_fit),
                "slope": None if math.isinf(slope) else _json_float(slope),
            })
    return rows, {"cases": cases, "fits": fits}


def _run_audit(cfg):
    f = cfg.make_field()
    report = inequality_audit(
        f, cfg.schedule, [np.array(p) for p in cfg.points], cfg.quadrature
    )
    rows = []
    for r in report.rows:
        if r.passed is None:
            flag = "" if r.converged else "0"
        else:
            flag = "1" if (r.passed and r.converged) else "0"
        rows.append(_csv_row(
            f"{report.case_id}:{r.kind}", r.alpha, r.point, r.value, r.error_estimate,
            r.target, passed=flag,
        ))
    audits = [{
        "case_id": report.case_id,
        "failures": report.failures,
        "ratio_suprema": {k: _json_float(v) for k, v in report.ratio_suprema.items()},
    }]
    return rows, {"audits": audits}


def _entries(doc, key, where):
    """The objects listed at ``doc[key]`` of a summary, none when missing."""
    items = doc.get(key, [])
    if not isinstance(items, list) or not all(isinstance(e, dict) for e in items):
        raise ValueError(f"field '{where}{key}': must be a list of objects, got {items!r}")
    return items


def _number(doc, key, where, optional=False):
    """The number at ``doc[key]`` of a summary; None too when ``optional``."""
    x = doc.get(key)
    if (x is None and optional) or isinstance(x, (int, float)) and not isinstance(x, bool):
        return x
    raise ValueError(f"field '{where}{key}': must be a number, got {x!r}")


def _report_lines(summary):
    """The lines ``report`` prints for a summary; a malformed field raises a
    ValueError that names it."""
    if not isinstance(summary, dict):
        raise ValueError(f"the root must be a JSON object, got {type(summary).__name__}")
    lines = [f"summary version {summary.get('version')} "
             f"config {str(summary.get('config_hash'))[:12]}"]
    for i, case in enumerate(_entries(summary, "cases", "")):
        lines.append(f"case {case.get('case_id')}")
        for j, r in enumerate(_entries(case, "rows", f"cases[{i}].")):
            where = f"cases[{i}].rows[{j}]."
            rel = _number(r, "rel_error", where, optional=True)
            rel_s = f"{rel:.3e}" if rel is not None else "n/a"
            lines.append(f"  alpha={_number(r, 'alpha', where):<8g} "
                         f"value={_number(r, 'value', where):.9g} rel_error={rel_s}")
    for i, fit in enumerate(_entries(summary, "fits", "")):
        slope = _number(fit, "slope", f"fits[{i}].", optional=True)
        lines.append(f"fit {fit.get('case_id')}: C={_number(fit, 'C', f'fits[{i}].'):.4g} "
                     f"slope={'inf' if slope is None else format(slope, '.4g')}")
    for audit in _entries(summary, "audits", ""):
        lines.append(f"audit {audit.get('case_id')}: failures={audit.get('failures')} "
                     f"suprema={audit.get('ratio_suprema')}")
    return lines


def _run_report(json_path):
    """Print the summary at ``json_path``; 2 when it cannot be read."""
    try:
        with open(json_path, encoding="utf-8") as fh:
            lines = _report_lines(json.load(fh))
    except (OSError, ValueError) as exc:
        print(f"cannot read summary {json_path}: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


def _report_paths(cfg, out_dir):
    """The CSV and JSON paths of a run's report: those ``outputs`` names, or
    their basenames under ``out_dir``."""
    paths = (cfg.csv_path, cfg.json_path)
    if out_dir is None:
        return paths
    return tuple(os.path.join(out_dir, os.path.basename(path)) for path in paths)


def run(cfg, threads=1, out_dir=None):
    """Execute a validated config; writes CSV + JSON, returns the exit code:
    1 if any report row has ``pass`` "0", else 0.  ``report`` mode reads the
    JSON path a run writes and prints it instead.  A ``p`` other than 1 for
    an audit or a pointwise or seminorm sweep, and a path whose directory is
    missing, are ConfigErrors, raised before any row is computed; ``out_dir``
    is made, the directories ``outputs`` names never are."""
    csv_path, json_path = _report_paths(cfg, out_dir)
    if cfg.mode == "report":
        return _run_report(json_path)
    what = {"audit": "an audit", "sweep": f"a {cfg.sweep_kind} sweep"}.get(cfg.mode)
    if cfg.p != 1.0 and what not in (None, "a composed sweep"):
        raise ConfigError(f"field 'p': {what} is computed at p = 1 only, got {cfg.p:g}")
    try:
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write the report: {exc}") from exc
    for path in (csv_path, json_path):
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"cannot write the report: no directory for {path!r}")
    if cfg.mode == "constants":
        rows, sections = _run_constants(cfg)
    elif cfg.mode == "eval":
        rows, sections = _run_eval(cfg, threads)
    elif cfg.mode == "sweep":
        rows, sections = _run_sweep(cfg, threads)
    else:
        rows, sections = _run_audit(cfg)

    summary = {
        "version": __version__,
        "config_hash": cfg.config_hash,
        "cases": [], "fits": [], "audits": [],
        **sections,
    }
    try:
        _write_csv(csv_path, rows)
        _write_json(json_path, summary)
    except OSError as exc:
        raise ConfigError(f"cannot write the report: {exc}") from exc
    return 1 if any(row["pass"] == "0" for row in rows) else 0


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
        cfg = replace(parse_config(args.config, quad_preset=args.quad_preset), mode=args.command)
        return run(cfg, threads=max(1, args.threads), out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
