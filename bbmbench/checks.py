"""Output checks of the three workloads.

Pure functions over plain data: they take the outputs a round produced and
the reference values from ``refs``, and return a ``Verdict``.  No check
compares against a stored copy of earlier output.
"""

import csv
import io
import math
from dataclasses import dataclass, field

import refs


@dataclass
class Verdict:
    """``errors``: outputs that fail a check.  ``failed``: operations that
    produced no output, with one line each in ``failures``."""

    errors: list = field(default_factory=list)
    max_rel_err: float = 0.0
    failed: int = 0
    failures: list = field(default_factory=list)

    def fail(self, count, why):
        self.failed += count
        self.failures.append(why)

    def note_exact(self, rel, tol, what):
        """An output against a reference that is exact at its alpha."""
        self.max_rel_err = max(self.max_rel_err, rel)
        if not rel <= tol:
            self.errors.append(f"{what}: relative deviation {rel:.3e} above {tol:.1e}")


def rel_dev(value, ref):
    return abs(value - ref) / abs(ref)


# ---------------------------------------------------------------------------
# pointwise: CLI sweep reports
# ---------------------------------------------------------------------------

CLOSED_FORM_TOL = 1e-6  # the program matches the closed form to ~7e-9
TARGET_TOL = 1e-9  # the program's K_n |grad f(x)| against the benchmark's
LIMIT_ALPHA = 0.999
POINTWISE_LIMIT_TOL = 0.01


def exact_gradient(case, x):
    if case["field"] == "poly_bump":
        return refs.grad_poly_bump(x, case["k"])
    return refs.grad_modulated_bump(x, case["wavevector"])


def check_pointwise(cases, alphas):
    """``cases``: one dict per CLI config with keys field, dim, k or
    wavevector, points, exit_code and csv (the report text or None)."""
    v = Verdict()
    for case in cases:
        name = f"{case['field']} n={case['dim']}"
        expected = len(case["points"]) * len(alphas)
        if case["csv"] is None or case["exit_code"] not in (0, 1):
            v.fail(expected, f"{name}: CLI exit code {case['exit_code']}, no report")
            continue
        rows = list(csv.DictReader(io.StringIO(case["csv"])))
        if len(rows) != expected:
            v.errors.append(f"{name}: {len(rows)} report rows, expected {expected}")
            continue
        kn = refs.K_NP[(case["dim"], 1.0)]
        for i, point in enumerate(case["points"]):
            x = [float(c) for c in point]
            grad_norm = math.sqrt(sum(g * g for g in exact_gradient(case, x)))
            target = kn * grad_norm
            for j, alpha in enumerate(alphas):
                row = rows[i * len(alphas) + j]
                where = f"{name} x={x} alpha={alpha}"
                if float(row["alpha"]) != alpha:
                    v.errors.append(f"{where}: report row has alpha {row['alpha']}")
                    continue
                value = float(row["value"])
                if not math.isfinite(value):
                    v.fail(1, f"{where}: non-finite value")
                    continue
                if grad_norm == 0.0:
                    if case["field"] == "poly_bump" and not any(x):
                        ref = (1.0 - alpha) * refs.poly_bump_dalpha_origin(
                            case["dim"], case["k"], alpha
                        )
                        v.note_exact(rel_dev(value, ref), CLOSED_FORM_TOL, where)
                    if float(row["target"]) != 0.0:
                        v.errors.append(f"{where}: target {row['target']} at a critical point")
                    continue
                trel = rel_dev(float(row["target"]), target)
                if not trel <= TARGET_TOL:
                    v.errors.append(f"{where}: target off K_n|grad f| by {trel:.3e}")
                if alpha == LIMIT_ALPHA:
                    gap = rel_dev(value, target)
                    if not gap <= POINTWISE_LIMIT_TOL:
                        v.errors.append(f"{where}: limit gap {gap:.3e}")
        if LIMIT_ALPHA not in alphas:
            v.errors.append(f"{name}: schedule lacks alpha = {LIMIT_ALPHA}")
    return v


# ---------------------------------------------------------------------------
# composed: sweeps of (1 - alpha)^{1/p} I_alpha(D^alpha_p f) for the 2-D bump
# ---------------------------------------------------------------------------

RIESZ_TARGET_TOL = 2e-3  # riesz_of_gradient against the elliptic-integral form;
# it misses by up to 6e-4 at the reduced near-field spec


def check_composed(evals, pairs, limit_c, rotation_tol):
    """``evals``: name -> dict(p, x, rows) with rows a list of
    (alpha, value, error_estimate, target or None); every evaluation is of
    the radial 2-D bump.  ``pairs``: (name_a, name_b, exact) for evaluations
    at one radius, whose values must agree; ``exact`` pairs feed
    ``max_rel_err``, the others are checked against ``rotation_tol`` only.

    Limit: the gap to K_{2,p} I_1(|grad f|)(x) shrinks along the schedule and
    ends within ``limit_c * (1 - alpha)^{1/p}``, the order of the far-field
    part that the (1 - alpha)^{1/p} factor leaves undamped.
    """
    v = Verdict()
    i1_cache = {}
    for name, ev in evals.items():
        rows = ev["rows"]
        if any(not math.isfinite(r[1]) for r in rows):
            v.fail(len(rows), f"{name}: non-finite value")
            continue
        radius = round(math.hypot(*ev["x"]), 12)
        if radius not in i1_cache:
            i1_cache[radius] = refs.riesz1_grad_bump_2d(radius)
        limit = refs.K_NP[(2, ev["p"])] * i1_cache[radius]
        gaps = []
        for alpha, value, _, target in rows:
            gaps.append(rel_dev(value, limit))
            if target is not None:
                trel = rel_dev(target, limit)
                if not trel <= RIESZ_TARGET_TOL:
                    v.errors.append(f"{name} alpha={alpha}: target off by {trel:.3e}")
        if any(b >= a for a, b in zip(gaps, gaps[1:])):
            v.errors.append(f"{name}: limit gap does not shrink: {gaps}")
        alpha_last = rows[-1][0]
        tol = limit_c * (1.0 - alpha_last) ** (1.0 / ev["p"])
        if not gaps[-1] <= tol:
            v.errors.append(
                f"{name}: limit gap {gaps[-1]:.3e} at alpha={alpha_last} above {tol:.3e}"
            )
    for a, b, exact in pairs:
        rows_a = {r[0]: r[1] for r in evals[a]["rows"]}
        for alpha, value_b, _, _ in evals[b]["rows"]:
            if alpha not in rows_a:
                continue
            rel = rel_dev(value_b, rows_a[alpha])
            what = f"rotation {a} vs {b} alpha={alpha}"
            if exact:
                v.note_exact(rel, rotation_tol, what)
            elif not rel <= rotation_tol:
                v.errors.append(f"{what}: relative deviation {rel:.3e} above {rotation_tol:.1e}")
    return v
