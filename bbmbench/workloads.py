"""The three workloads.

Each workload builds its inputs from the seed in ``__init__`` (that is the
set-up the benchmark times as ``setup_s``), runs one round of operations in
``run_round``, timing each inside ``timed(name)``, and hands the round's
outputs to ``checks``.  Every round runs the same operations, so failures are the same
share of the attempted operations in every run.
"""

import json
import math
import os

import numpy as np

import checks
import refs
from layers import TraceError

# The CLI's default 7-alpha schedule, which the pointwise configs leave
# unset; the checks read the report against it.
DEFAULT_ALPHAS = (0.5, 0.7, 0.9, 0.95, 0.99, 0.995, 0.999)
CLI_THREADS = 1

MOD_WAVEVECTOR = [2.0, 0.0]
MOD_POINTS = 8
# |(1-a) D^a f(x) - K_n |grad f(x)|| is O(1-a) in absolute terms, so the 1%
# relative check needs |grad f(x)| bounded away from 0 (measured gap at
# a = 0.999: 0.75% at |grad f| = 0.13, 0.3% at 0.23).
MOD_MIN_GRAD = 0.2
POLY_RADII = (0.2, 0.7)


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def _disc_point(rng, r_max):
    r = r_max * math.sqrt(rng.random())
    t = 2.0 * math.pi * rng.random()
    return [r * math.cos(t), r * math.sin(t)]


def _shell_point(rng, dim, r_lo, r_hi):
    d = rng.standard_normal(dim)
    d /= np.linalg.norm(d)
    return [float(c) for c in d * rng.uniform(r_lo, r_hi)]


class Pointwise:
    """CLI ``sweep`` runs with ``sweep_kind`` pointwise, default quadrature
    and the default schedule: the inner D^alpha engine at batch size 1."""

    required_layers = (
        "fields.eval_points", "operators.inner.calls", "operators.halved_s",
        "quadrature.s", "cli.io_s",
    )

    def __init__(self, seed, workdir):
        from nonlocal_bbm import cli

        self.cli = cli
        rng = _rng(seed, 1)
        mod_points = []
        while len(mod_points) < MOD_POINTS:
            x = _disc_point(rng, 0.7)
            if np.linalg.norm(refs.grad_modulated_bump(x, MOD_WAVEVECTOR)) >= MOD_MIN_GRAD:
                mod_points.append(x)
        self.cases = [
            {"field": "modulated_bump", "dim": 2, "wavevector": MOD_WAVEVECTOR,
             "params": {"wavevector": MOD_WAVEVECTOR}, "points": mod_points},
            {"field": "poly_bump", "dim": 2, "k": 3, "params": {"k": 3},
             "points": [[0.0, 0.0]] + [_shell_point(rng, 2, *POLY_RADII) for _ in range(3)]},
            {"field": "poly_bump", "dim": 3, "k": 4, "params": {"k": 4},
             "points": [[0.0, 0.0, 0.0], _shell_point(rng, 3, *POLY_RADII)]},
        ]
        self.ops_per_round = sum(len(c["points"]) for c in self.cases) * len(DEFAULT_ALPHAS)
        for i, case in enumerate(self.cases):
            case["config"] = os.path.join(workdir, f"pointwise{i}.json")
            case["out"] = os.path.join(workdir, f"pointwise{i}")
            with open(case["config"], "w", encoding="utf-8") as fh:
                json.dump({
                    "dimension": case["dim"],
                    "field": {"name": case["field"], "params": case["params"]},
                    "points": case["points"],
                    "mode": "sweep",
                    "sweep_kind": "pointwise",
                    "outputs": {"csv": "report.csv", "json": "summary.json"},
                }, fh)
            cli.parse_config(case["config"]).make_field()

    def trace(self, tracer):
        pass  # the tracer wraps the CLI's own field construction

    def untrace(self):
        pass

    def run_round(self, timed):
        self.codes = []
        for i, case in enumerate(self.cases):
            argv = ["sweep", "--config", case["config"], "--out", case["out"],
                    "--threads", str(CLI_THREADS)]
            try:
                with timed(f"config{i}"):
                    self.codes.append(self.cli.main(argv))
            except TraceError:
                raise
            except Exception as exc:  # counted as failed operations
                self.codes.append(f"{type(exc).__name__}: {exc}")

    def collect(self):
        out = []
        for case, code in zip(self.cases, self.codes):
            path = os.path.join(case["out"], "report.csv")
            text = None
            if code in (0, 1) and os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
                os.remove(path)
            out.append({**case, "exit_code": code, "csv": text})
        return out

    def check(self, outputs):
        return checks.check_pointwise(outputs, DEFAULT_ALPHAS)


# Reduced composed specs.  Near the support the work is the inner engine at
# thousands of outer nodes; sphere order 16 keeps a bbm_operator call near
# 0.35 s.  At |x| = 3 rotation invariance needs the finer sphere rule: at
# order 48 two rotated points differ by 11%, at 192 by at most 0.34%.
NEAR = {"radius": 0.3, "sphere_order": 16, "limit_c": 2.0, "rotation_tol": 5e-3}
FAR = {"radius": 3.0, "sphere_order": 192, "limit_c": 3.0, "rotation_tol": 1e-2}
SCHEDULE = (0.9, 0.99)
PAIR_ANGLE = 0.3  # rotation partner of (r, 0); not a multiple of pi/4


class Composed:
    """``composed_limit_sweep`` / ``composed_limit_sweep_p`` and
    ``bbm_operator`` on the radial 2-D bump, inside (near) or outside (far)
    its support."""

    required_layers = (
        "fields.eval_points", "operators.inner.calls", "operators.riesz.nodes",
        "operators.far.points", "operators.halved_s", "quadrature.s",
        "limits.target_s",
    )

    def __init__(self, seed, workdir, far):
        import nonlocal_bbm as nb

        self.nb = nb
        self.params = FAR if far else NEAR
        self.field = self.f = nb.bump(2)
        self.spec = nb.QuadratureSpec(
            inner_shells=12, outer_shells=8, gauss_order=8,
            sphere_order=self.params["sphere_order"], target_rel_error=1e-2,
        )
        self.schedule = nb.AlphaSchedule(SCHEDULE)
        r = self.params["radius"]
        p0 = np.array([r, 0.0])
        p1 = r * np.array([math.cos(PAIR_ANGLE), math.sin(PAIR_ANGLE)])
        if far:
            # no seeded point: one more far call would add 3.5 s to a round
            self.plan = {
                "P0_p1": ("sweep", p0, 1.0),
                "P1_p1": ("single", p1, 1.0),
            }
            self.pairs = [("P0_p1", "P1_p1", True)]
        else:
            theta = _rng(seed, 3).uniform(0.0, 2.0 * math.pi)
            q = r * np.array([math.cos(theta), math.sin(theta)])
            self.plan = {
                "O_p1": ("sweep", np.zeros(2), 1.0),
                "P0_p1": ("sweep", p0, 1.0),
                "P1_p1": ("sweep", p1, 1.0),
                "Q_p1": ("sweep", q, 1.0),
                "P0_p2": ("sweep", p0, 2.0),
                "P1_p2": ("sweep", p1, 2.0),
            }
            self.pairs = [
                ("P0_p1", "P1_p1", True), ("P0_p2", "P1_p2", True), ("P0_p1", "Q_p1", False),
            ]
        self.ops_per_round = sum(
            len(SCHEDULE) if kind == "sweep" else 1 for kind, _, _ in self.plan.values()
        )

    def trace(self, tracer):
        self.f = tracer.wrap_field(self.field)

    def untrace(self):
        self.f = self.field

    def _evaluate(self, kind, x, p):
        nb = self.nb
        if kind == "sweep":
            if p == 1.0:
                rep = nb.composed_limit_sweep(self.f, x, self.schedule, self.spec)
            else:
                rep = nb.composed_limit_sweep_p(self.f, x, p, self.schedule, self.spec)
            return [(r.alpha, r.value, r.error_estimate, r.target) for r in rep.rows]
        alpha = SCHEDULE[-1]
        ov = nb.bbm_operator(self.f, alpha, x, self.spec)
        return [(alpha, ov.value, ov.error_estimate, None)]

    def run_round(self, timed):
        self.results = {}
        for name, (kind, x, p) in self.plan.items():
            try:
                with timed(name):
                    self.results[name] = self._evaluate(kind, x, p)
            except TraceError:
                raise
            except Exception as exc:  # counted as failed operations
                self.results[name] = f"{type(exc).__name__}: {exc}"

    def collect(self):
        return {
            name: {"x": [float(c) for c in x], "p": p, "kind": kind,
                   "rows": self.results[name]}
            for name, (kind, x, p) in self.plan.items()
        }

    def check(self, outputs):
        good = {k: v for k, v in outputs.items() if isinstance(v["rows"], list)}
        pairs = [pr for pr in self.pairs if pr[0] in good and pr[1] in good]
        verdict = checks.check_composed(
            good, pairs, self.params["limit_c"], self.params["rotation_tol"]
        )
        for name, ev in outputs.items():
            if name not in good:
                n = len(SCHEDULE) if ev["kind"] == "sweep" else 1
                verdict.fail(n, f"{name}: {ev['rows']}")
        return verdict


WORKLOADS = {
    "pointwise": lambda seed, workdir: Pointwise(seed, workdir),
    "composed_near": lambda seed, workdir: Composed(seed, workdir, far=False),
    "composed_far": lambda seed, workdir: Composed(seed, workdir, far=True),
}
