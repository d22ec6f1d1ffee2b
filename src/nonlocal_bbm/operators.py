"""The nonlocal operators: the fractional derivative and its L^p variant,
Riesz potentials, the composed potential-of-derivative operator, Gagliardo
seminorms, cube Poincare sides and the Leibniz gap.

Every singular integral is reduced to polar form around its evaluation
point: an analytic Taylor core on the innermost gap (which removes the
endpoint singularity from numeric quadrature entirely), Gauss nodes on a
dyadic shell ladder, and an analytic tail where the field vanishes or its
decay envelope is known.  Error estimates are a-posteriori: the difference
against a half-resolution run, plus the hard analytic bounds for core and
tail substitutions.

The inner D^alpha engine takes a tuple of alphas.  The quadrature nodes
depend only on the spec and the evaluation point, so all alphas of a sweep
share one field evaluation per node and differ only in their radial weights
and in the closed-form core and tail.  Its chunking and reduction order are
set by the spec alone, which makes a point's value independent of the batch
it was evaluated in.
"""

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional

import numpy as np

from .constants import bbm_constant, check_dimension, riesz_constant, sphere_area
from .fields import TestField, product, w11_norms
from .quadrature import (
    QuadratureSpec,
    build_sphere_rule,
    pairwise_sum,
    radial_ladder,
    rotate_rule,
    _panel_nodes,
)

__all__ = [
    "OperatorValue",
    "DecayingFunction",
    "frac_derivative",
    "frac_derivative_p",
    "frac_derivative_truncated",
    "frac_derivative_field",
    "riesz_potential",
    "riesz_of_gradient",
    "riesz_of_field_values",
    "bbm_operator",
    "bbm_operator_p",
    "gagliardo_seminorm",
    "bbm_poincare_sides",
    "leibniz_gap",
    "linear_kernel_identity",
]

_CHUNK_ELEMS = 2**23


@dataclass(frozen=True)
class OperatorValue:
    """A computed operator value with an a-posteriori error estimate."""

    value: float
    error_estimate: float
    converged: bool = True
    note: str = ""

    def combined_tolerance(self, other, floor=0.0):
        """Conservative coupling of two estimates (3x their sum, floored)."""
        return max(3.0 * (self.error_estimate + other.error_estimate), floor)


@dataclass(frozen=True)
class DecayingFunction:
    """A bounded function with a certified far-field decay envelope
    |g(y)| <= decay_constant |y|^{-decay_exponent} for |y| >= envelope_radius.

    ``support_radius`` set means g vanishes identically beyond it, making
    tails exact rather than enveloped.
    """

    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    decay_exponent: float
    decay_constant: float
    envelope_radius: float = 1.0
    support_radius: Optional[float] = None


def _check_alpha(alpha, upper=1.0):
    if not 0.0 < alpha < upper:
        raise ValueError(f"alpha must be in (0, {upper}), got {alpha}")


def _as_point(x, n):
    return np.asarray(x, dtype=float).reshape(n)


def _offset_chunks(r, w, rule, radial_power, max_points):
    """Flattened (offset, weight) chunks for a polar grid: offsets r * omega
    with weights w_r r^power w_omega, chunked along the radial axis."""
    per_r = rule.size
    rows = max(1, max_points // per_r)
    for i in range(0, r.size, rows):
        rr = r[i : i + rows]
        ww = w[i : i + rows] * rr**radial_power
        offs = (rr[:, None, None] * rule.nodes[None, :, :]).reshape(-1, rule.dim)
        wts = (ww[:, None] * rule.weights[None, :]).ravel()
        yield offs, wts


# ---------------------------------------------------------------------------
# the nonlinear fractional derivative
# ---------------------------------------------------------------------------


def _dalpha_integral_batch(f, alphas, X, spec, p=1.0, r_max=None, with_tail=True):
    """Batched integrals int |f(x)-f(y)|^p / |x-y|^{n+alpha p} dy (before the
    1/p root) for points X of shape (M, n) and every alpha of ``alphas``.

    Returns (values, hard_error_bounds), each of shape (M, A).  The Taylor
    core below the innermost shell uses the surrogate |grad f(x) . h|^p,
    whose radial integral is exact; its remainder is bounded through the
    Hessian sup norm.

    The alphas share the quadrature nodes: |f(x)-f(y)|^p is evaluated once
    per node, contracted with the sphere weights, and only then with one
    radial weight column r^{-1-alpha p} per alpha.  Chunks are one dyadic
    panel of ``gauss_order`` radii by a block of points whose size the spec
    alone sets, and every reduction is an element-wise sum in a fixed order,
    so a row's values depend neither on the other rows of X nor on A.
    """
    n = f.dim
    M = X.shape[0]
    rule = build_sphere_rule(n, spec.sphere_order)
    sigma = sphere_area(n)
    R0 = f.support_radius
    G = spec.gauss_order
    if r_max is None:
        R_big = max(1.0, float(np.max(np.linalg.norm(X, axis=1))) + R0 + 1.0)
    else:
        R_big = float(r_max)
    delta = 2.0**-spec.inner_shells
    ap = [a * p for a in alphas]
    q = [p * (1.0 - a) for a in alphas]

    fx = f.eval(X)
    gX = f.grad(X)
    gnorm = np.linalg.norm(gX, axis=1)
    H = f.hess_sup_norm
    core_err = (
        (sigma * p * (gnorm + 0.5 * H * delta) ** (p - 1.0) * 0.5 * H)[:, None]
        * np.array([delta ** (qa + 1.0) / (qa + 1.0) for qa in q])
    )

    r, w = radial_ladder(1.0, R_big, spec)
    radial = np.stack([w * r ** (-1.0 - a) for a in ap])
    s_lin = np.empty(M)
    acc = np.zeros((M, len(ap)))
    block = max(1, _CHUNK_ELEMS // (G * rule.size))
    for lo in range(0, M, block):
        Xb, fxb = X[lo : lo + block], fx[lo : lo + block]
        b = Xb.shape[0]
        # analytic core on (0, delta): |grad f(x).h|^p integrates in closed form
        lin = np.abs((gX[lo : lo + block, None, :] * rule.nodes).sum(axis=-1)) ** p
        lin *= rule.weights
        s_lin[lo : lo + block] = lin.sum(axis=-1)
        for k in range(0, r.size, G):
            offs = r[k : k + G, None, None] * rule.nodes
            P = Xb[:, None, None, :] + offs
            vals = f.eval(P.reshape(-1, n)).reshape(b, G, rule.size)
            vals -= fxb[:, None, None]
            np.abs(vals, out=vals)
            if p != 1.0:
                vals **= p
            vals *= rule.weights
            ang = vals.sum(axis=-1)
            acc[lo : lo + block] += (ang[:, None, :] * radial[:, k : k + G]).sum(axis=-1)

    total = s_lin[:, None] * np.array([delta**qa / qa for qa in q]) + acc
    if with_tail:
        total += (np.abs(fx) ** p)[:, None] * np.array(
            [sigma * R_big ** (-a) / a for a in ap]
        )
    return total, core_err


def _frac_derivative_schedule(f, alphas, p, x, spec):
    """One OperatorValue of ( int |f(x)-f(y)|^p / |x-y|^{n+alpha p} dy )^{1/p}
    per alpha, from one full- and one half-resolution engine pass."""
    for a in alphas:
        _check_alpha(a)
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    X = _as_point(x, f.dim)[None, :]
    if not np.all(np.isfinite(X)):
        raise ValueError(f"evaluation point must be finite, got {X[0].tolist()}")
    v1, e1 = _dalpha_integral_batch(f, alphas, X, spec, p=p)
    v0, _ = _dalpha_integral_batch(f, alphas, X, spec.halved(), p=p)
    out = []
    for k in range(len(alphas)):
        val = float(v1[0, k]) ** (1.0 / p)
        val0 = float(v0[0, k]) ** (1.0 / p)
        est = abs(val - val0)
        if val > 0:
            est += float(e1[0, k]) * val ** (1.0 - p) / p
        out.append(OperatorValue(
            value=val,
            error_estimate=est,
            converged=est <= spec.target_rel_error * abs(val) + 1e-300,
        ))
    return out


def frac_derivative(f, alpha, x, spec):
    """Nonlocal derivative int |f(x)-f(y)| / |x-y|^{n+alpha} dy at a point."""
    return frac_derivative_p(f, alpha, 1.0, x, spec)


def frac_derivative_p(f, alpha, p, x, spec):
    """L^p variant ( int |f(x)-f(y)|^p / |x-y|^{n+alpha p} dy )^{1/p}."""
    return _frac_derivative_schedule(f, (alpha,), p, x, spec)[0]


def frac_derivative_truncated(f, alpha, x, radius, spec):
    """Nonlocal derivative restricted to the ball B(x, radius)."""
    _check_alpha(alpha)
    if radius <= 0:
        raise ValueError("truncation radius must be positive")
    X = _as_point(x, f.dim)[None, :]
    v1, e1 = _dalpha_integral_batch(f, (alpha,), X, spec, r_max=radius, with_tail=False)
    v0, _ = _dalpha_integral_batch(
        f, (alpha,), X, spec.halved(), r_max=radius, with_tail=False
    )
    v1, v0, e1 = float(v1[0, 0]), float(v0[0, 0]), float(e1[0, 0])
    est = abs(v1 - v0) + e1
    return OperatorValue(v1, est, est <= spec.target_rel_error * abs(v1) + 1e-300)


class _SupportGridKernel:
    """Far-field evaluator: for y outside the support, the nonlocal derivative
    collapses to int_supp |f(z)|^p |y-z|^{-(n + alpha p)} dz, a smooth
    convolution computed on a fixed tensor Gauss grid over the support box."""

    def __init__(self, f, alpha, p=1.0, nodes_per_axis=None):
        n = f.dim
        R0 = f.support_radius
        if nodes_per_axis is None:
            nodes_per_axis = 40 if n <= 2 else 24
        x1, w1 = _panel_nodes(-R0, R0, nodes_per_axis)
        grids = np.meshgrid(*([x1] * n), indexing="ij")
        Z = np.column_stack([g.ravel() for g in grids])
        wz = np.ones(Z.shape[0])
        for wgrid in np.meshgrid(*([w1] * n), indexing="ij"):
            wz *= wgrid.ravel()
        c = wz * np.abs(f.eval(Z)) ** p
        keep = c > 0
        self.Z = Z[keep]
        self.c = c[keep]
        self.expo = -(n + alpha * p)
        self.l1_fp = float(np.sum(c))

    def __call__(self, Y):
        Y = np.atleast_2d(Y)
        out = np.empty(Y.shape[0])
        rows = max(1, _CHUNK_ELEMS // max(1, self.Z.shape[0]))
        for i in range(0, Y.shape[0], rows):
            d2 = np.sum((Y[i : i + rows, None, :] - self.Z[None, :, :]) ** 2, axis=-1)
            out[i : i + rows] = d2 ** (self.expo / 2.0) @ self.c
        return out


def frac_derivative_field(f, alpha, spec, p=1.0, cache=None):
    """The nonlocal derivative as an evaluable decaying function of y.

    Near the support the full shell engine runs (batched, memoized through
    ``cache``); beyond it the support-grid convolution takes over.  The decay
    envelope is the far-field domination constant 2^{n + alpha p} ||f^p||_1.
    """
    _check_alpha(alpha)
    n = f.dim
    far = _SupportGridKernel(f, alpha, p=p)
    near_radius = f.support_radius + 0.5
    memo = cache if cache is not None else {}

    def ev(Y):
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        out = np.empty(Y.shape[0])
        rad = np.linalg.norm(Y, axis=1)
        near = rad < near_radius
        if np.any(~near):
            out[~near] = far(Y[~near]) ** (1.0 / p)
        idx = np.nonzero(near)[0]
        if idx.size:
            keys = [Y[i].tobytes() for i in idx]
            missing = [i for i, k in zip(idx, keys) if k not in memo]
            if missing:
                vals, _ = _dalpha_integral_batch(f, (alpha,), Y[missing], spec, p=p)
                vals = vals[:, 0] ** (1.0 / p)
                for i, v in zip(missing, vals):
                    memo[Y[i].tobytes()] = float(v)
            out[idx] = [memo[k] for k in keys]
        return out

    return DecayingFunction(
        dim=n,
        eval=ev,
        decay_exponent=n / p + alpha,
        decay_constant=(2.0 ** (n + alpha * p) * far.l1_fp) ** (1.0 / p),
        envelope_radius=2.0 * f.support_radius + 1.0,
    )


# ---------------------------------------------------------------------------
# Riesz potentials
# ---------------------------------------------------------------------------


def _riesz_value(g, alpha, x, spec):
    """Single-resolution Riesz potential of a DecayingFunction at x.

    Returns (value, hard_error).  The integrand ~ r^{alpha-1} near zero is
    integrable; the gap below the innermost shell is filled with the local
    value g(x) whose radial integral is exact.
    """
    n = g.dim
    rule = build_sphere_rule(n, spec.sphere_order)
    sigma = sphere_area(n)
    x = _as_point(x, n)
    # The kernel r^{alpha-1} is integrable and mild, so the ladder below the
    # reference radius needs far fewer dyadic levels than the derivative's.
    n_inner = min(spec.inner_shells, 12)
    delta = 2.0**-n_inner

    if g.support_radius is not None:
        R_num = float(np.linalg.norm(x)) + g.support_radius + 0.5
        tail, tail_err = 0.0, 0.0
    else:
        R_num = 2.0**spec.outer_shells * max(1.0, float(np.linalg.norm(x)))
        d = g.decay_exponent
        env = (
            sigma
            * g.decay_constant
            * (R_num - float(np.linalg.norm(x))) ** (alpha - d)
            / (d - alpha)
        )
        if spec.tail_policy == "analytic":
            tail, tail_err = env, env
        else:
            tail, tail_err = 0.0, env

    # Dyadic below 1; above it the integrand's sharpest features sit where
    # the rays cross the source region, i.e. radii up to |x| plus the source
    # extent, so panels there grow by 1.25 and only double farther out.
    r_fine = min(R_num, max(4.0, float(np.linalg.norm(x)) + 2.0))
    r_in, w_in = radial_ladder(1.0, min(1.0, R_num), spec, n_inner=n_inner)
    xs_r, ws_r = [r_in], [w_in]
    lo = 1.0
    while lo < R_num:
        growth = 1.25 if lo < r_fine else 2.0
        hi = min(lo * growth, R_num)
        x1, w1 = _panel_nodes(lo, hi, spec.gauss_order)
        xs_r.append(x1)
        ws_r.append(w1)
        lo = hi
    r = np.concatenate(xs_r)
    w = np.concatenate(ws_r)
    gx = float(g.eval(x[None, :])[0])
    core = gx * sigma * delta**alpha / alpha
    acc = 0.0
    for offs, wts in _offset_chunks(r, w, rule, alpha - 1.0, _CHUNK_ELEMS):
        vals = g.eval(x[None, :] + offs)
        acc += pairwise_sum(vals * wts)
    gamma = riesz_constant(n, alpha)
    return gamma * (core + acc + tail), gamma * tail_err


def riesz_potential(g, alpha, x, spec):
    """Riesz potential I_alpha g(x) = gamma_{n,alpha} int g(y)|x-y|^{alpha-n} dy."""
    n = g.dim
    if not 0.0 < alpha < n:
        raise ValueError(f"alpha must be in (0, n={n}), got {alpha}")
    if g.support_radius is None and g.decay_exponent <= alpha:
        raise ValueError("decay too weak: need decay_exponent > alpha")
    v1, e1 = _riesz_value(g, alpha, x, spec)
    v0, _ = _riesz_value(g, alpha, x, spec.halved())
    est = abs(v1 - v0) + e1
    return OperatorValue(v1, est, est <= spec.target_rel_error * abs(v1) + 1e-300)


def riesz_of_field_values(f, alpha, X, spec):
    """Batched I_alpha of a compactly supported TestField at points X.

    Points beyond the support see no kernel singularity and only a narrow
    angular window of source mass, so they go through a plain tensor-grid
    convolution over the support box instead of the polar engine.
    """
    n = f.dim
    X = np.atleast_2d(np.asarray(X, dtype=float))
    R0 = f.support_radius
    out = np.empty(X.shape[0])
    rad = np.linalg.norm(X, axis=1)
    near = rad < R0 + 0.4

    if np.any(~near):
        m = 64 if n <= 2 else 24
        x1, w1 = _panel_nodes(-R0, R0, m)
        grids = np.meshgrid(*([x1] * n), indexing="ij")
        Z = np.column_stack([g.ravel() for g in grids])
        wz = np.ones(Z.shape[0])
        for wgrid in np.meshgrid(*([w1] * n), indexing="ij"):
            wz *= wgrid.ravel()
        c = wz * f.eval(Z)
        keep = c != 0.0
        Z, c = Z[keep], c[keep]
        Y = X[~near]
        vals = np.empty(Y.shape[0])
        rows = max(1, _CHUNK_ELEMS // max(1, Z.shape[0]))
        for i in range(0, Y.shape[0], rows):
            d2 = np.sum((Y[i : i + rows, None, :] - Z[None, :, :]) ** 2, axis=-1)
            vals[i : i + rows] = d2 ** ((alpha - n) / 2.0) @ c
        out[~near] = vals

    if np.any(near):
        Xn = X[near]
        rule = build_sphere_rule(n, spec.sphere_order)
        sigma = sphere_area(n)
        delta = 2.0**-spec.inner_shells
        R_big = float(np.max(np.linalg.norm(Xn, axis=1))) + R0 + 0.5
        r, w = radial_ladder(1.0, R_big, spec)
        fx = f.eval(Xn)
        acc = fx * sigma * delta**alpha / alpha
        M = Xn.shape[0]
        for offs, wts in _offset_chunks(r, w, rule, alpha - 1.0, _CHUNK_ELEMS // max(1, M)):
            P = Xn[:, None, :] + offs[None, :, :]
            acc += f.eval(P.reshape(-1, n)).reshape(M, -1) @ wts
        out[near] = acc
    return riesz_constant(n, alpha) * out


def riesz_of_gradient(f, x, spec):
    """I_1(|grad f|)(x), the right side of the pointwise limit theorems.

    Computed from the analytic gradient on its own polar grid; deliberately
    independent of the nonlocal-derivative machinery.
    """
    n = check_dimension(f.dim, minimum=2)
    x = _as_point(x, n)
    R0 = f.support_radius
    if float(np.linalg.norm(x)) > R0 + 0.25:
        # no singularity inside the source region: plain tensor-grid
        # convolution over the support box, refined once for the estimate
        def grid_value(m):
            x1, w1 = _panel_nodes(-R0, R0, m)
            grids = np.meshgrid(*([x1] * n), indexing="ij")
            Z = np.column_stack([gr.ravel() for gr in grids])
            wz = np.ones(Z.shape[0])
            for wgrid in np.meshgrid(*([w1] * n), indexing="ij"):
                wz *= wgrid.ravel()
            gv = np.linalg.norm(f.grad(Z), axis=1)
            d = np.linalg.norm(x[None, :] - Z, axis=1)
            return riesz_constant(n, 1.0) * pairwise_sum(wz * gv * d ** (1.0 - n))
        m = 96 if n == 2 else 32
        v1 = grid_value(m)
        v0 = grid_value((2 * m) // 3)
        est = abs(v1 - v0)
        return OperatorValue(v1, est, est <= spec.target_rel_error * abs(v1) + 1e-300)
    g = DecayingFunction(
        dim=n,
        eval=lambda Y: np.linalg.norm(f.grad(np.atleast_2d(Y)), axis=-1),
        decay_exponent=float("inf"),
        decay_constant=0.0,
        support_radius=f.support_radius,
    )
    return riesz_potential(g, 1.0, x, spec)


# ---------------------------------------------------------------------------
# the composed operator
# ---------------------------------------------------------------------------


def _composed_value(f, alpha, p, x, spec, cache=None):
    g = frac_derivative_field(f, alpha, spec, p=p, cache=cache)
    return _riesz_value(g, alpha, x, spec)


def bbm_operator(f, alpha, x, spec, cache=None):
    """(1 - alpha) I_alpha(D^alpha f)(x), the composed potential operator."""
    return bbm_operator_p(f, alpha, 1.0, x, spec, cache=cache)


def bbm_operator_p(f, alpha, p, x, spec, cache=None):
    """(1 - alpha)^{1/p} I_alpha(D^alpha_p f)(x)."""
    check_dimension(f.dim, minimum=2)
    if not 0.5 < alpha < 1.0:
        raise ValueError(
            f"composed operator is evaluated in the regime alpha in (1/2, 1), got {alpha}"
        )
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    factor = (1.0 - alpha) ** (1.0 / p)
    v1, e1 = _composed_value(f, alpha, p, x, spec, cache=cache)
    v0, _ = _composed_value(f, alpha, p, x, spec.halved())
    est = factor * (abs(v1 - v0) + e1)
    value = factor * v1
    converged = est <= max(spec.target_rel_error, 1e-3) * abs(value) + 1e-300
    note = "" if converged else "outer differencing above target"
    return OperatorValue(value, est, converged, note)


# ---------------------------------------------------------------------------
# seminorms and inequalities
# ---------------------------------------------------------------------------


def _seminorm_value(f, alpha, spec):
    """Single-resolution Gagliardo seminorm as int D^alpha f(x) dx."""
    n = f.dim
    sigma = sphere_area(n)
    R0 = f.support_radius
    near_radius = R0 + 0.5
    R_mid = 2.0 * R0 + 1.0
    R_far = 2.0**spec.outer_shells * R_mid
    far = _SupportGridKernel(f, alpha, p=1.0)

    # radial grid: smooth panels through the support, dyadic ladder beyond
    xs, ws = [], []
    panels = 12
    for j in range(panels):
        x1, w1 = _panel_nodes(R_mid * j / panels, R_mid * (j + 1) / panels, spec.gauss_order)
        xs.append(x1)
        ws.append(w1)
    lo = R_mid
    while lo < R_far:
        hi = min(2.0 * lo, R_far)
        x1, w1 = _panel_nodes(lo, hi, spec.gauss_order)
        xs.append(x1)
        ws.append(w1)
        lo = hi
    r = np.concatenate(xs)
    w = np.concatenate(ws)

    if f.radial:
        X = np.zeros((r.size, n))
        X[:, 0] = r
        wt = sigma * w * r ** (n - 1)
    else:
        rule = build_sphere_rule(n, spec.sphere_order)
        X = (r[:, None, None] * rule.nodes[None, :, :]).reshape(-1, n)
        wt = ((w * r ** (n - 1))[:, None] * rule.weights[None, :]).ravel()

    rad = np.linalg.norm(X, axis=1)
    near = rad < near_radius
    gvals = np.empty(X.shape[0])
    if np.any(~near):
        gvals[~near] = far(X[~near])
    hard = 0.0
    if np.any(near):
        vals, core_err = _dalpha_integral_batch(f, (alpha,), X[near], spec)
        gvals[near] = vals[:, 0]
        hard += float(np.sum(core_err[:, 0] * wt[near]))
    body = pairwise_sum(wt * gvals)
    # envelope remainder beyond the numeric horizon (A2-type domination)
    env = 2.0 ** (n + alpha) * far.l1_fp * sigma * R_far ** (-alpha) / alpha
    return body, hard + env


def gagliardo_seminorm(f, alpha, spec):
    """Double integral int int |f(x)-f(y)| / |x-y|^{n+alpha} dy dx."""
    _check_alpha(alpha)
    v1, e1 = _seminorm_value(f, alpha, spec)
    v0, _ = _seminorm_value(f, alpha, spec.halved())
    est = abs(v1 - v0) + e1
    return OperatorValue(v1, est, est <= spec.target_rel_error * abs(v1) + 1e-300)


def _cube_inner_integral(f, alpha, x, lo, hi, rule, spec):
    """int_Q |f(x)-f(y)| / |x-y|^{n+alpha} dy for x inside the cube [lo, hi]^n,
    by per-direction radial quadrature up to the exact cube exit radius."""
    n = f.dim
    delta = 2.0**-spec.inner_shells
    fx = float(f.eval(x[None, :])[0])
    g = f.grad(x[None, :])[0]
    s_lin = float(np.abs(rule.nodes @ g) @ rule.weights)
    total = s_lin * delta ** (1.0 - alpha) / (1.0 - alpha)
    with np.errstate(divide="ignore"):
        bounds = np.where(
            rule.nodes > 0,
            (hi - x)[None, :] / np.where(rule.nodes > 0, rule.nodes, 1.0),
            np.where(
                rule.nodes < 0,
                (lo - x)[None, :] / np.where(rule.nodes < 0, rule.nodes, 1.0),
                np.inf,
            ),
        )
    t_exit = np.min(bounds, axis=1)
    for s in range(rule.size):
        te = float(t_exit[s])
        if te <= delta:
            continue
        r, w = radial_ladder(min(1.0, te), te, spec)
        vals = np.abs(f.eval(x[None, :] + r[:, None] * rule.nodes[s][None, :]) - fx)
        total += float(rule.weights[s]) * pairwise_sum(w * r ** (-1.0 - alpha) * vals)
    return total


def bbm_poincare_sides(f, cube_center, side, alpha, spec, grid_per_axis=12):
    """(lhs, rhs) of the fractional Poincare inequality on the cube Q.

    lhs is the mean oscillation of f on Q; rhs is (1-alpha) l(Q)^alpha times
    the mean fractional energy of f over Q x Q.  The implicit comparison
    constant is reported by callers, never asserted.
    """
    _check_alpha(alpha)
    n = f.dim
    c = _as_point(cube_center, n)
    lo, hi = c - side / 2.0, c + side / 2.0
    x1, w1 = _panel_nodes(0.0, 1.0, grid_per_axis)
    grids = np.meshgrid(*([x1] * n), indexing="ij")
    X = lo + side * np.column_stack([g.ravel() for g in grids])
    wx = np.ones(X.shape[0])
    for wgrid in np.meshgrid(*([w1] * n), indexing="ij"):
        wx *= wgrid.ravel()
    wx *= side**n
    volume = side**n

    fvals = f.eval(X)
    f_mean = pairwise_sum(wx * fvals) / volume
    lhs = pairwise_sum(wx * np.abs(fvals - f_mean)) / volume

    rule = build_sphere_rule(n, max(16, spec.sphere_order // 2))
    inner = np.array(
        [_cube_inner_integral(f, alpha, X[i], lo, hi, rule, spec) for i in range(X.shape[0])]
    )
    rhs = (1.0 - alpha) * side**alpha * pairwise_sum(wx * inner) / volume
    return lhs, rhs


def _lp_norm_of_operator(h, weight_field, alpha, p, spec, include_tail):
    """|| weight_field * D^alpha_p h ||_{L^p} by polar outer quadrature.

    ``weight_field`` of None means the plain norm of the operator output, in
    which case the integrand is not compactly supported and an envelope tail
    bound is returned alongside.
    """
    n = h.dim
    sigma = sphere_area(n)
    far = _SupportGridKernel(h, alpha, p=p)
    near_radius = h.support_radius + 0.5
    if weight_field is not None:
        R_num = weight_field.support_radius
    else:
        R_num = 2.0**spec.outer_shells * (2.0 * h.support_radius + 1.0)

    xs, ws = [], []
    panels = 10
    R_panels = min(R_num, 2.0 * h.support_radius + 1.0)
    for j in range(panels):
        x1, w1 = _panel_nodes(R_panels * j / panels, R_panels * (j + 1) / panels, spec.gauss_order)
        xs.append(x1)
        ws.append(w1)
    lo = R_panels
    while lo < R_num:
        hi = min(2.0 * lo, R_num)
        x1, w1 = _panel_nodes(lo, hi, spec.gauss_order)
        xs.append(x1)
        ws.append(w1)
        lo = hi
    r = np.concatenate(xs)
    w = np.concatenate(ws)
    rule = build_sphere_rule(n, spec.sphere_order)
    X = (r[:, None, None] * rule.nodes[None, :, :]).reshape(-1, n)
    wt = ((w * r ** (n - 1))[:, None] * rule.weights[None, :]).ravel()

    if weight_field is not None:
        wvals = np.abs(weight_field.eval(X)) ** p
        keep = wvals > 0
        X, wt, wvals = X[keep], wt[keep], wvals[keep]
    else:
        wvals = np.ones(X.shape[0])

    rad = np.linalg.norm(X, axis=1)
    near = rad < near_radius
    dvals = np.empty(X.shape[0])
    if np.any(~near):
        dvals[~near] = far(X[~near])
    hard = 0.0
    if np.any(near):
        vals, core_err = _dalpha_integral_batch(h, (alpha,), X[near], spec, p=p)
        dvals[near] = vals[:, 0]
        hard += float(np.sum(core_err[:, 0] * wt[near] * wvals[near]))
    integral = pairwise_sum(wt * wvals * dvals)
    if weight_field is None and include_tail:
        hard += 2.0 ** (n + alpha * p) * far.l1_fp * sigma * R_num ** (-alpha * p) / (alpha * p)
    return integral ** (1.0 / p), hard


def leibniz_gap(f, g, alpha, p, spec):
    """Defect ||f D_p g||_p + ||g D_p f||_p - ||D_p(fg)||_p of the
    Leibniz-type inequality; nonnegative up to quadrature error."""
    _check_alpha(alpha)
    if f.dim != g.dim:
        raise ValueError("dimension mismatch in leibniz_gap")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    fg = product(f, g)

    def run(quad):
        a, ea = _lp_norm_of_operator(g, f, alpha, p, quad, include_tail=False)
        b, eb = _lp_norm_of_operator(f, g, alpha, p, quad, include_tail=False)
        if fg.sup_norm == 0.0:
            c, ec = 0.0, 0.0
        else:
            c, ec = _lp_norm_of_operator(fg, None, alpha, p, quad, include_tail=True)
        return a + b - c, ea + eb + ec

    v1, e1 = run(spec)
    v0, _ = run(spec.halved())
    est = abs(v1 - v0) + e1
    return OperatorValue(v1, est, True)


def linear_kernel_identity(n, direction, alpha, spec):
    """(1-alpha) int_{|h|<1} |g.h| / |h|^{n+alpha} dh for a unit vector g,
    computed through the shell + sphere machinery; equals K_n exactly."""
    check_dimension(n, minimum=2)
    _check_alpha(alpha)
    e = np.asarray(direction, dtype=float).reshape(n)
    e = e / np.linalg.norm(e)
    rule = rotate_rule(build_sphere_rule(n, spec.sphere_order), e)
    s_lin = pairwise_sum(rule.weights * np.abs(rule.nodes @ e))
    delta = 2.0**-spec.inner_shells
    r, w = radial_ladder(1.0, 1.0, spec)
    body = pairwise_sum(w * r ** (-alpha))
    return s_lin * (delta ** (1.0 - alpha) + (1.0 - alpha) * body)
