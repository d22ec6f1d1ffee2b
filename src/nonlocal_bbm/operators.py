"""The nonlocal operators: the fractional derivative and its L^p variant,
Riesz potentials, the composed potential-of-derivative operator, Gagliardo
seminorms and the Leibniz gap.

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
and in the closed-form core and tail.  The engine works in passes of at
most ``_ENGINE_CHUNK`` nodes, one block of rows times one run of radii.
Each (row, radius) is contracted in one ``np.einsum`` pass with the sphere
weights, then each panel in one with the radial weights, in ladder order;
neither sum depends on how far a pass reaches, so a point's value depends
neither on its batch nor on the passes.  A row with f(x) = 0 skips every
panel whose nodes all lie where f vanishes (below |x| - R0 or beyond
|x| + R0): such a panel would add an exact 0, so the skip changes no bit.
A pass's offsets are C-contiguous (n, K), one contiguous row per
coordinate, and serve every block of points; its translates
(``_translates``) are column-major, one contiguous column per coordinate.

The layers above it take the same tuple.  ``_DalphaField`` returns one
column per alpha, and its support-grid kernel forms log |y - z|^2 once
per cache-sized chunk for all exponents, takes each power as the
exponential of a multiple of that log, and sums each row in one pass in
an order the grid alone sets, so a far row's value does not depend on its
batch either.  ``_riesz_value``'s nodes do not depend on alpha.  So a
composed sweep, a seminorm sweep and the audit's composed and seminorm rows
each run one D^alpha field pass and one Riesz ladder per resolution for the
whole schedule, and every column keeps the bits of a one-alpha call.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .constants import check_dimension, riesz_constant, sphere_area
from .fields import product
from .quadrature import (
    box_rule,
    build_sphere_rule,
    pairwise_sum,
    panel_ladder,
    radial_ladder,
    rotate_rule,
)

__all__ = [
    "OperatorValue",
    "DecayingFunction",
    "frac_derivative",
    "frac_derivative_p",
    "frac_derivative_field",
    "riesz_potential",
    "riesz_of_gradient",
    "riesz_of_field_values",
    "bbm_operator",
    "bbm_operator_p",
    "gagliardo_seminorm",
    "leibniz_gap",
    "linear_kernel_identity",
]

_CHUNK_ELEMS = 2**23
# The inner engine's budget, small enough that a pass's temporaries stay in
# cache.  A pass is one block of rows times one run of radii.  A block holds
# _ENGINE_CHUNK // (gauss_order x sphere nodes) rows, at least one.  Blocks
# of several rows take one panel a pass; a batch under one block takes as
# many whole panels as fit; a row whose one panel exceeds the budget takes it
# in runs of radii that divide gauss_order, and never in runs of one radius:
# numpy sums a lone (row, radius) of over 8,192 sphere nodes in buffered
# pieces, which would move its bits.  So a pass exceeds the budget only when
# two radii do (high_spec(3): 2 x 18,432 nodes).  A row's values do not
# depend on the budget.  bbmbench composed_near took 0.374, 0.352, 0.385 and
# 0.438 s per round at 2^13, 2^14, 2^15 and 2^16 (medians of three seeds, one
# core of a 2-core host).  _KERNEL_CHUNK is the support-grid kernel's chunk
# in elements, and a row's values do not depend on it either.
_ENGINE_CHUNK = 2**14
_KERNEL_CHUNK = 2**15


@dataclass(frozen=True)
class OperatorValue:
    """A computed operator value with an a-posteriori error estimate."""

    value: float
    error_estimate: float
    converged: bool = True
    note: str = ""


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


def _check_alpha(alpha):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1.0), got {alpha}")


def _check_p(p):
    if not 1.0 <= p < np.inf:
        raise ValueError(f"p must be a finite number >= 1, got {p}")


def _root(value, hard, p):
    """The p-th root v of an integral ``value`` and a bound on its error from
    the bound ``hard`` on the integral's: hard v^{1-p} / p, and hard^{1/p}
    at v = 0, which bounds the root of any integral in [0, hard].  Both
    leave p = 1 bounds as they are."""
    v = value ** (1.0 / p)
    return v, hard * v ** (1.0 - p) / p if v > 0 else hard ** (1.0 / p)


def _as_point(x, n):
    return np.asarray(x, dtype=float).reshape(n)


def _translates(X, offs, buf):
    """The (M * K, n) array of X[i] + offs[:, j] for X (M, n) and C-contiguous
    offsets offs (n, K), as a column-major view into the flat buffer ``buf``:
    each coordinate is filled from one contiguous row of offs and later read
    as one contiguous column.  A broadcast add over the short last axis is
    several times slower, and gives the same sums."""
    M, n = X.shape
    P = buf[: n * M * offs.shape[1]].reshape(n, M, -1)
    for j in range(n):
        np.add(X[:, j, None], offs[j], out=P[j])
    return P.reshape(n, -1).T


# ---------------------------------------------------------------------------
# the nonlinear fractional derivative
# ---------------------------------------------------------------------------


def _dalpha_integral_batch(f, alphas, X, spec, p=1.0, r_max=None):
    """Batched integrals int |f(x)-f(y)|^p / |x-y|^{n+alpha p} dy (before the
    1/p root) for points X of shape (M, n) and every alpha of ``alphas``.

    Returns (values, hard_error_bounds), each of shape (M, A).  The Taylor
    core below the innermost shell uses the surrogate |grad f(x) . h|^p,
    whose radial integral is exact; its remainder is bounded through the
    Hessian sup norm.

    The alphas share the quadrature nodes: |f(x)-f(y)|^p is evaluated once
    per node, contracted with the sphere weights, and only then with one
    radial weight column r^{-1-alpha p} per alpha.  Passes are those rows of
    a block of points that take its panels, times a run of radii (see
    ``_ENGINE_CHUNK``).  Each row's sphere sums run over one radius and its
    radial sums over one panel, in ladder order, so a row's values depend
    neither on the other rows of X, nor on A, nor on the passes.
    """
    n = f.dim
    M = X.shape[0]
    rule = build_sphere_rule(n, spec.sphere_order)
    sigma = sphere_area(n)
    R0 = f.support_radius
    G = spec.gauss_order
    xn = np.linalg.norm(X, axis=1)
    if r_max is None:
        R_big = max(1.0, float(np.max(xn)) + R0 + 1.0)
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
    # A panel adds exactly 0 to a row with f(x) = 0 when all its nodes lie
    # at |y| >= R0, where f vanishes: in the gap below |x| - R0, or beyond
    # |x| + R0.  Such a row skips the panel.  The margin exceeds the
    # rounding of x + r u, so a field nonzero up to its edge (poly_bump) is
    # never skipped where it is not 0.
    edge = (R0 + 1e-9 * (1.0 + xn + R_big))[:, None]
    pan = r.reshape(-1, G)
    live = (fx != 0.0)[:, None] | (
        (xn[:, None] - pan[:, -1] < edge) & (pan[:, 0] - xn[:, None] < edge)
    )
    S = rule.size
    s_lin = np.empty(M)
    acc = np.zeros((M, len(ap)))
    block = max(1, _ENGINE_CHUNK // (G * S))
    starts = range(0, M, block)
    for lo in starts:
        # analytic core on (0, delta): |grad f(x).h|^p integrates in closed form
        lin = np.abs((gX[lo : lo + block, None, :] * rule.nodes).sum(axis=-1)) ** p
        lin *= rule.weights
        s_lin[lo : lo + block] = lin.sum(axis=-1)
    # per block and panel: do all the block's rows take the panel
    full = np.logical_and.reduceat(live, starts, axis=0).tolist()
    # the passes (see _ENGINE_CHUNK), each some panels js and a run g0:g1 of
    # their radii
    run = _ENGINE_CHUNK // (max(1, min(M, block)) * S)
    if run > G:
        # a batch under one block: runs of live panels that the same rows
        # take, at most run // G of them
        idx = np.flatnonzero(live.any(axis=0))
        cut = np.ones(idx.size, dtype=bool)
        cut[1:] = np.any(live[:, idx[1:]] != live[:, idx[:-1]], axis=0)
        k = np.arange(idx.size)
        cut |= (k - np.maximum.accumulate(np.where(cut, k, 0))) % (run // G) == 0
        passes = [(js, 0, G) for js in np.split(idx, np.flatnonzero(cut))[1:]]
    else:
        divisors = [d for d in range(2, G + 1) if G % d == 0]
        run = max([d for d in divisors if d <= run], default=divisors[0])
        passes = [([j], g, g + run) for j in range(pan.shape[0]) for g in range(0, G, run)]
    # the angular sums of a panel taken in several runs, until it is complete
    open_sums = np.empty((M, G)) if run < G else None
    nodes = np.ascontiguousarray(rule.nodes.T)
    # one workspace holds every pass's offsets, C-contiguous (n, K), and
    # translates: fresh arrays per pass made the allocator hand pages back
    # and fault them in again, pass after pass
    K = S * max((len(js) * (g1 - g0) for js, g0, g1 in passes), default=0)
    work = np.empty(n * K * (1 + min(M, block)))
    for js, g0, g1 in passes:
        j = js[0]
        radii = pan[js, g0:g1].ravel()
        offs = work[: n * radii.size * S].reshape(n, radii.size, S)
        np.einsum("js,g->jgs", nodes, radii, out=offs)
        offs = offs.reshape(n, -1)
        # one pass's offsets serve every block, and each row still takes its
        # panels in ladder order
        for b, lo in enumerate(starts):
            # the block's rows that take the pass's panels: a view when all do
            if full[b][j]:
                rows = slice(lo, lo + block)
            else:
                rows = lo + np.flatnonzero(live[lo : lo + block, j])
            Xk, fxk = X[rows], fx[rows]
            if Xk.shape[0] == 0:
                continue
            Y = _translates(Xk, offs, work[n * K :])
            vals = f.eval(Y).reshape(Xk.shape[0], radii.size, S)
            vals -= fxk[:, None, None]
            np.abs(vals, out=vals)
            if p != 1.0:
                vals **= p
            ang = np.einsum("igs,s->ig", vals, rule.weights)
            if g1 - g0 < G:
                open_sums[rows, g0:g1] = ang
                if g1 < G:
                    continue
                ang = open_sums[rows]
            for i, jp in enumerate(js):
                rad = radial[:, jp * G : (jp + 1) * G]
                acc[rows] += np.einsum("ig,ag->ia", ang[:, i * G : (i + 1) * G], rad)

    total = s_lin[:, None] * np.array([delta**qa / qa for qa in q]) + acc
    total += (np.abs(fx) ** p)[:, None] * np.array([sigma * R_big ** (-a) / a for a in ap])
    return total, core_err


def _frac_derivative_schedule(f, alphas, p, x, spec):
    """One OperatorValue of ( int |f(x)-f(y)|^p / |x-y|^{n+alpha p} dy )^{1/p}
    per alpha, from one full- and one half-resolution engine pass."""
    for a in alphas:
        _check_alpha(a)
    _check_p(p)
    X = _as_point(x, f.dim)[None, :]
    if not np.all(np.isfinite(X)):
        raise ValueError(f"evaluation point must be finite, got {X[0].tolist()}")

    def run(quad):
        v, e = _dalpha_integral_batch(f, alphas, X, quad, p=p)
        return zip(*(_root(c, h, p) for c, h in zip(v[0].tolist(), e[0].tolist())))

    return _two_resolution(run, spec)


def _estimate(v1, v0, hard, spec):
    """OperatorValue of v1 whose estimate is the difference against the
    half-resolution value v0 plus the hard bound; converged means both are
    finite and the estimate meets the spec's relative target."""
    est = abs(v1 - v0) + hard
    ok = math.isfinite(v1) and math.isfinite(est)
    return OperatorValue(v1, est, ok and est <= spec.target_rel_error * abs(v1) + 1e-300)


def _two_resolution(run, spec):
    """One OperatorValue per entry of a single-resolution
    ``run(spec) -> (values, hards)``, run at the spec and at half resolution."""
    v1, e1 = run(spec)
    v0, _ = run(spec.halved())
    return [_estimate(a, b, e, spec) for a, b, e in zip(v1, v0, e1)]


def frac_derivative(f, alpha, x, spec):
    """Nonlocal derivative int |f(x)-f(y)| / |x-y|^{n+alpha} dy at a point."""
    return frac_derivative_p(f, alpha, 1.0, x, spec)


def frac_derivative_p(f, alpha, p, x, spec):
    """L^p variant ( int |f(x)-f(y)|^p / |x-y|^{n+alpha p} dy )^{1/p}."""
    return _frac_derivative_schedule(f, (alpha,), p, x, spec)[0]


class _SupportGridKernel:
    """The support-box convolutions y -> sum_z c_z |y - z|^e, one column per
    exponent e of ``expos``, where c_z is the tensor Gauss weight of an
    ``order``^n grid over [-R0, R0]^n times ``density(z)``.  For y away from
    the support the integrand is smooth, so a fixed grid serves.  Each
    row's sum over z is one ``np.einsum`` pass in an order the grid alone
    sets; y - z is a copy of y less z, a broadcast subtract's bits for less."""

    def __init__(self, f, order, density, expos):
        R0 = f.support_radius
        Z, wz = box_rule(-R0, R0, f.dim, order)
        c = wz * density(Z)
        # sum_z c_z, summed before the zeros are dropped to fix its rounding
        self.mass = float(np.sum(c))
        keep = c != 0.0
        # column-major: each chunk reads the grid one coordinate at a time
        self.Z = np.asfortranarray(Z[keep])
        self.c = c[keep]
        self.expos = tuple(expos)

    def __call__(self, Y):
        Y = np.atleast_2d(Y)
        out = np.empty((Y.shape[0], len(self.expos)))
        # cache-sized chunks; each row is reduced on its own in an order the
        # grid alone sets, so a row's value does not depend on its batch
        rows = max(1, _KERNEL_CHUNK // max(1, self.Z.shape[0]))
        # two chunk buffers for the whole call, reused by every chunk
        d2_buf = np.empty((min(rows, Y.shape[0]), self.Z.shape[0]))
        t_buf = np.empty_like(d2_buf)
        for i in range(0, Y.shape[0], rows):
            Yb = Y[i : i + rows]
            d2, t = d2_buf[: Yb.shape[0]], t_buf[: Yb.shape[0]]
            # |y - z|^2 coordinate by coordinate, formed once for all exponents
            for j in range(Y.shape[1]):
                np.copyto(t, Yb[:, None, j])
                t -= self.Z[:, j]
                np.square(t, out=t if j else d2)
                if j:
                    d2 += t
            # one log for all exponents: |y - z|^e = exp((e/2) log |y - z|^2)
            np.log(d2, out=d2)
            for k, e in enumerate(self.expos):
                np.exp(np.multiply(d2, e / 2.0, out=t), out=t)
                out[i : i + rows, k] = np.einsum("rz,z->r", t, self.c)
        return out


class _DalphaField:
    """D^alpha_p f before its 1/p root as a function of y, one column per
    alpha, evaluated over whole node sets of an outer quadrature.  Within
    ``near_radius`` the shell engine runs, batched over the near points;
    beyond it the integral collapses to int_supp |f(z)|^p |y-z|^{-(n+alpha p)}
    dz, the support-grid convolution.  For |y| >= ``envelope_radius`` the
    value is at most ``envelope[k]`` |y|^{-(n + alpha p)}, with the envelope
    constant 2^{n + alpha p} ||f^p||_1.
    """

    def __init__(self, f, alphas, spec, p=1.0):
        n = f.dim
        self.f, self.alphas, self.spec, self.p = f, tuple(alphas), spec, p
        self.near_radius = f.support_radius + 0.5
        self.envelope_radius = 2.0 * f.support_radius + 1.0
        self.kernel = _SupportGridKernel(
            f, 40 if n <= 2 else 24, lambda Z: np.abs(f.eval(Z)) ** p,
            [-(n + a * p) for a in self.alphas],
        )
        self.envelope = [2.0 ** (n + a * p) * self.kernel.mass for a in self.alphas]

    def __call__(self, Y, weight=None):
        """Values at Y, shape (M, A), and per alpha the sum of the Taylor-core
        bounds of the near points, each times ``weight`` at its point when
        given."""
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        A = len(self.alphas)
        out = np.empty((Y.shape[0], A))
        near = np.linalg.norm(Y, axis=1) < self.near_radius
        if np.any(~near):
            out[~near] = self.kernel(Y[~near])
        hard = [0.0] * A
        if np.any(near):
            out[near], core_err = _dalpha_integral_batch(
                self.f, self.alphas, Y[near], self.spec, p=self.p
            )
            if weight is not None:
                core_err *= weight[near, None]
            # one contiguous row per alpha, so each sum keeps its pairwise order
            hard = [float(np.sum(c)) for c in np.ascontiguousarray(core_err.T)]
        return out, hard

    def tail(self, R):
        """Per alpha, the envelope bound on the integral over |y| > R."""
        ap = [a * self.p for a in self.alphas]
        return [env * sphere_area(self.f.dim) * R ** (-x) / x for env, x in zip(self.envelope, ap)]


def _dalpha_decaying(f, alphas, spec, p):
    """D^alpha_p f as a DecayingFunction with one eval column, decay exponent
    and decay constant per alpha."""
    D = _DalphaField(f, alphas, spec, p)
    return DecayingFunction(
        dim=f.dim,
        eval=lambda Y: D(Y)[0] ** (1.0 / p),
        decay_exponent=tuple(f.dim / p + a for a in D.alphas),
        decay_constant=tuple(env ** (1.0 / p) for env in D.envelope),
        envelope_radius=D.envelope_radius,
    )


def frac_derivative_field(f, alpha, spec, p=1.0):
    """The nonlocal derivative as an evaluable decaying function of y, with
    the decay envelope of ``_DalphaField``."""
    _check_alpha(alpha)
    _check_p(p)
    g = _dalpha_decaying(f, (alpha,), spec, p)
    (d,), (c,) = g.decay_exponent, g.decay_constant
    return replace(g, eval=lambda Y: g.eval(Y)[:, 0], decay_exponent=d, decay_constant=c)


# ---------------------------------------------------------------------------
# Riesz potentials
# ---------------------------------------------------------------------------


def _riesz_value(g, alphas, x, spec):
    """Single-resolution Riesz potentials of a DecayingFunction at x.

    Returns (values, hard_errors), one entry per alpha of ``alphas``.  The
    nodes do not depend on alpha, so ``g.eval`` returns one column per alpha
    (1-D for one alpha), and an enveloped g has one decay exponent and
    constant per column.  The integrand ~ r^{alpha-1} near zero is
    integrable; the gap below the innermost shell is filled with the local
    value g(x) whose radial integral is exact.
    """
    n = g.dim
    A = len(alphas)
    rule = build_sphere_rule(n, spec.sphere_order)
    sigma = sphere_area(n)
    x = _as_point(x, n)
    xn = float(np.linalg.norm(x))
    # The kernel r^{alpha-1} is integrable and mild, so the ladder below the
    # reference radius needs far fewer dyadic levels than the derivative's.
    delta = 2.0 ** -min(spec.inner_shells, 12)

    if g.support_radius is not None:
        R_num = xn + g.support_radius + 0.5
        tails = [0.0] * A
    else:
        R_num = 2.0**spec.outer_shells * max(1.0, xn)
        ds, cs = (np.broadcast_to(v, A).tolist() for v in (g.decay_exponent, g.decay_constant))
        tails = [sigma * c * (R_num - xn) ** (a - d) / (d - a) for a, d, c in zip(alphas, ds, cs)]

    # Dyadic below 1; above it the integrand's sharpest features sit where
    # the rays cross the source region, i.e. radii up to |x| plus the source
    # extent, so panels there grow by 1.25 and only double farther out.
    r_fine = min(R_num, max(4.0, xn + 2.0))
    r, w = panel_ladder(
        spec.gauss_order, delta, R_num, growth=lambda lo: 1.25 if 1.0 <= lo < r_fine else 2.0
    )
    gx = g.eval(x[None, :]).reshape(-1).tolist()
    acc = [0.0] * A
    rows = max(1, _CHUNK_ELEMS // rule.size)
    for i in range(0, r.size, rows):
        rr = r[i : i + rows]
        offs = (rr[:, None, None] * rule.nodes[None, :, :]).reshape(-1, n)
        vals = g.eval(x[None, :] + offs).reshape(offs.shape[0], -1)
        for k, a in enumerate(alphas):
            ww = w[i : i + rows] * rr ** (a - 1.0)
            wts = (ww[:, None] * rule.weights[None, :]).ravel()
            acc[k] += pairwise_sum(vals[:, k] * wts)
    gammas = [riesz_constant(n, a) for a in alphas]
    cores = [gxk * sigma * delta**a / a for gxk, a in zip(gx, alphas)]
    values = [gm * (c + s + t) for gm, c, s, t in zip(gammas, cores, acc, tails)]
    return values, [gm * t for gm, t in zip(gammas, tails)]


def riesz_potential(g, alpha, x, spec):
    """Riesz potential I_alpha g(x) = gamma_{n,alpha} int g(y)|x-y|^{alpha-n} dy."""
    n = g.dim
    if not 0.0 < alpha < n:
        raise ValueError(f"alpha must be in (0, n={n}), got {alpha}")
    if g.support_radius is None and g.decay_exponent <= alpha:
        raise ValueError("decay too weak: need decay_exponent > alpha")
    return _two_resolution(lambda quad: _riesz_value(g, (alpha,), x, quad), spec)[0]


def _supported(f, ev):
    """The DecayingFunction of values ``ev(Y)`` that vanish beyond the
    support of the TestField f."""
    return DecayingFunction(
        dim=f.dim,
        eval=ev,
        decay_exponent=float("inf"),
        decay_constant=0.0,
        support_radius=f.support_radius,
    )


def riesz_of_field_values(f, alpha, X, spec):
    """Batched I_alpha of a compactly supported TestField at points X.

    Points beyond the support see no kernel singularity and only a narrow
    angular window of source mass, so they go through a plain tensor-grid
    convolution over the support box.  The others go one at a time through
    the polar Riesz ladder, so their values do not depend on the batch.
    """
    n = f.dim
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.empty(X.shape[0])
    near = np.linalg.norm(X, axis=1) < f.support_radius + 0.4
    if np.any(~near):
        far = _SupportGridKernel(f, 64 if n <= 2 else 24, f.eval, (alpha - n,))
        out[~near] = riesz_constant(n, alpha) * far(X[~near])[:, 0]
    g = _supported(f, f.eval)
    for i in np.flatnonzero(near):
        out[i] = _riesz_value(g, (alpha,), X[i], spec)[0][0]
    return out


def riesz_of_gradient(f, x, spec):
    """I_1(|grad f|)(x), the right side of the pointwise limit theorems.

    Computed from the analytic gradient on its own polar grid; deliberately
    independent of the nonlocal-derivative machinery.
    """
    n = check_dimension(f.dim, minimum=2)
    x = _as_point(x, n)
    R0 = f.support_radius

    def grad_norm(Y):
        return np.linalg.norm(f.grad(Y), axis=-1)

    if float(np.linalg.norm(x)) > R0 + 0.25:
        # no singularity inside the source region: the support-grid
        # convolution, refined once for the estimate
        def grid_value(m):
            K = _SupportGridKernel(f, m, grad_norm, (1 - n,))
            return riesz_constant(n, 1.0) * float(K(x[None, :])[0, 0])
        m = 96 if n == 2 else 32
        return _estimate(grid_value(m), grid_value((2 * m) // 3), 0.0, spec)
    return riesz_potential(_supported(f, grad_norm), 1.0, x, spec)


# ---------------------------------------------------------------------------
# the composed operator
# ---------------------------------------------------------------------------


def _composed_value(f, alphas, p, x, spec):
    """Single-resolution I_alpha(D^alpha_p f)(x) per alpha: one D^alpha field
    pass and one Riesz ladder serve the whole schedule."""
    return _riesz_value(_dalpha_decaying(f, alphas, spec, p), alphas, x, spec)


def _bbm_schedule(f, alphas, p, x, spec):
    """One OperatorValue of (1 - alpha)^{1/p} I_alpha(D^alpha_p f)(x) per
    alpha, from one full- and one half-resolution composed pass."""
    check_dimension(f.dim, minimum=2)
    for alpha in alphas:
        if not 0.5 < alpha < 1.0:
            raise ValueError(
                f"composed operator is evaluated in the regime alpha in (1/2, 1), got {alpha}"
            )
    _check_p(p)
    raws = _two_resolution(lambda quad: _composed_value(f, alphas, p, x, quad), spec)
    out = []
    for alpha, raw in zip(alphas, raws):
        factor = (1.0 - alpha) ** (1.0 / p)
        value, est = factor * raw.value, factor * raw.error_estimate
        ok = math.isfinite(value) and math.isfinite(est)
        converged = ok and est <= max(spec.target_rel_error, 1e-3) * abs(value) + 1e-300
        note = "" if converged else "outer differencing above target"
        out.append(OperatorValue(value, est, converged, note))
    return out


def bbm_operator(f, alpha, x, spec):
    """(1 - alpha) I_alpha(D^alpha f)(x), the composed potential operator."""
    return bbm_operator_p(f, alpha, 1.0, x, spec)


def bbm_operator_p(f, alpha, p, x, spec):
    """(1 - alpha)^{1/p} I_alpha(D^alpha_p f)(x)."""
    return _bbm_schedule(f, (alpha,), p, x, spec)[0]


# ---------------------------------------------------------------------------
# seminorms and inequalities
# ---------------------------------------------------------------------------


def _outer_integral(D, R_num, spec, weight=None):
    """Single-resolution int_{|y| < R_num} |weight(y)|^p D(y) dy for the
    _DalphaField D, one per alpha, with the hard bounds: the weighted
    Taylor-core bounds, plus the envelope tail beyond R_num when there is no
    weight.  Smooth panels run through the support, a dyadic ladder beyond;
    a radial integrand needs only the ray along the first axis.  Returns
    (values, hard_errors)."""
    n = D.f.dim
    r, w = panel_ladder(spec.gauss_order, min(R_num, D.envelope_radius), R_num, uniform=12)
    if D.f.radial and (weight is None or weight.radial):
        X = np.zeros((r.size, n))
        X[:, 0] = r
        wt = sphere_area(n) * w * r ** (n - 1)
    else:
        rule = build_sphere_rule(n, spec.sphere_order)
        X = (r[:, None, None] * rule.nodes[None, :, :]).reshape(-1, n)
        wt = ((w * r ** (n - 1))[:, None] * rule.weights[None, :]).ravel()
    if weight is not None:
        wt = wt * np.abs(weight.eval(X)) ** D.p
        keep = wt != 0.0
        X, wt = X[keep], wt[keep]
    vals, hard = D(X, wt)
    bodies = [pairwise_sum(wt * vals[:, k]) for k in range(len(D.alphas))]
    if weight is None:
        hard = [h + t for h, t in zip(hard, D.tail(R_num))]
    return bodies, hard


def _dalpha_norms(h, alphas, spec, p=1.0, weight=None):
    """Single-resolution ||weight D^alpha_p h||_{L^p} per alpha of ``alphas``,
    from one D^alpha field pass, with hard bounds in root units.  With a
    weight the integral runs over its support; without one, over
    2^outer_shells envelope radii plus the envelope tail, and at p = 1 that
    is the Gagliardo seminorm.  Returns (values, hard_errors)."""
    D = _DalphaField(h, alphas, spec, p)
    if weight is not None:
        R_num = weight.support_radius
    else:
        R_num = 2.0**spec.outer_shells * D.envelope_radius
    roots = [_root(v, e, p) for v, e in zip(*_outer_integral(D, R_num, spec, weight))]
    return [v for v, _ in roots], [e for _, e in roots]


def _seminorm_schedule(f, alphas, spec):
    """One OperatorValue of the Gagliardo seminorm per alpha, from one full-
    and one half-resolution pass."""
    for a in alphas:
        _check_alpha(a)
    return _two_resolution(lambda quad: _dalpha_norms(f, alphas, quad), spec)


def gagliardo_seminorm(f, alpha, spec):
    """Double integral int int |f(x)-f(y)| / |x-y|^{n+alpha} dy dx."""
    return _seminorm_schedule(f, (alpha,), spec)[0]


def leibniz_gap(f, g, alpha, p, spec):
    """Defect ||f D_p g||_p + ||g D_p f||_p - ||D_p(fg)||_p of the
    Leibniz-type inequality; nonnegative up to quadrature error.  Its
    ``converged`` is always True: the estimate is not held to the spec's
    target, and may exceed the gap."""
    _check_alpha(alpha)
    if f.dim != g.dim:
        raise ValueError("dimension mismatch in leibniz_gap")
    _check_p(p)
    fg = product(f, g)

    def run(quad):
        (a,), (ea,) = _dalpha_norms(g, (alpha,), quad, p, f)
        (b,), (eb,) = _dalpha_norms(f, (alpha,), quad, p, g)
        if fg.sup_norm == 0.0:
            c, ec = 0.0, 0.0
        else:
            (c,), (ec,) = _dalpha_norms(fg, (alpha,), quad, p)
        return [a + b - c], [ea + eb + ec]

    return replace(_two_resolution(run, spec)[0], converged=True)


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
