"""Compactly supported test fields with analytic gradients.

Fields are immutable descriptors evaluated exactly (no grid interpolation),
so quadrature accuracy is never limited by the field representation.  All
evaluation callables are batched: they take an (M, n) array of points and
return (M,) values or (M, n) gradients; a single point of shape (n,) gives
a 0-d value and an (n,) gradient.

eval and grad receive (M, n) arrays in any memory layout: the inner
D^alpha engine passes column-major node arrays.  They read the coordinates
as the columns x[..., j] and form every sum over them one column at a time,
in a fixed order, so each layout gives the same bits.
"""

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .constants import check_dimension
from .quadrature import build_sphere_rule, pairwise_sum, panel_ladder

__all__ = [
    "TestField",
    "bump",
    "poly_bump",
    "modulated_bump",
    "translate",
    "dilate",
    "product",
    "zero_field",
    "w11_norms",
    "make_field",
    "standard_catalog",
]

_NORM_SAMPLES = 4096
_SAFETY = 1.01


@dataclass(frozen=True)
class TestField:
    """A compactly supported function with analytic gradient and norm metadata.

    ``support_radius`` is measured from the origin: eval(x) = 0 whenever
    |x| >= support_radius.  The sup-norm fields are certified upper bounds,
    used by the Taylor-core remainder and tail estimates.
    """

    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    support_radius: float
    sup_norm: float
    grad_sup_norm: float
    hess_sup_norm: float
    radial: bool
    name: str = "field"


def _sample_ball(n, radius, count, seed=20240817):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((count, n))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    r = radius * rng.random(count) ** (1.0 / n)
    pts = w * r[:, None]
    pts[0] = 0.0
    return pts

def _estimate_norms(n, ev, gr, radius):
    """Dense-sampling estimates of ||f||_inf, ||grad f||_inf, ||D^2 f||_inf
    with a small safety factor."""
    pts = _sample_ball(n, radius, _NORM_SAMPLES)
    sup = float(np.max(np.abs(ev(pts))))
    gsup = float(np.max(np.linalg.norm(gr(pts), axis=1)))
    # Hessian by central differences of the analytic gradient.
    sub = pts[:: max(1, pts.shape[0] // 512)]
    h = 1e-5 * max(1.0, radius)
    J = np.empty((sub.shape[0], n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        J[:, :, j] = (gr(sub + e) - gr(sub - e)) / (2.0 * h)
    J = 0.5 * (J + np.swapaxes(J, 1, 2))
    hsup = float(np.max(np.abs(np.linalg.eigvalsh(J))))
    return _SAFETY * sup, _SAFETY * gsup, _SAFETY * hsup


def _sq_dist(x, c):
    """|x - c|^2 over the last axis of x, one coordinate column x[..., j] at
    a time, with no subtraction where c[j] = 0: x - 0 is x to the last bit.
    A broadcast x - c costs more than the rest of a bump; the columns give
    the same sums in any layout, and a point of shape (n,) a 0-d array."""
    t = np.empty(x.shape[:-1])
    d = np.empty_like(t)
    for j in range(c.size):
        xj = x[..., j] if c[j] == 0.0 else np.subtract(x[..., j], c[j], out=d)
        np.square(xj, out=d if j else t)
        if j:
            t += d
    return t


def _dot(x, k):
    """k . x over the last axis of x, one coordinate column at a time.  A
    BLAS product x @ k sums in an order that depends on the layout of x."""
    s = np.empty(x.shape[:-1])
    d = np.empty_like(s)
    np.multiply(x[..., 0], k[0], out=s)
    for j in range(1, k.size):
        s += np.multiply(x[..., j], k[j], out=d)
    return s


def _ball_field(n, center, scale, name, profile, grad):
    """The field profile(u) of u = 1 - |x - c|^2/s^2 on the ball |x - c| < s.

    ``profile(u)`` maps u in place to the values, 0 wherever u <= 0.
    ``grad(t, d, s2)`` gives the gradient from t = |x - c|^2/s^2,
    d = x - c and s2 = s^2.
    """
    check_dimension(n)
    if scale <= 0:
        raise ValueError("scale must be positive")
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float).reshape(n)
    s2 = float(scale) ** 2

    def ev(x):
        u = _sq_dist(np.asarray(x, dtype=float), c)
        if s2 != 1.0:  # dividing by 1 changes no bit
            u /= s2
        return profile(np.subtract(1.0, u, out=u))

    def gr(x):
        x = np.asarray(x, dtype=float)
        return grad(_sq_dist(x, c) / s2, x - c, s2)

    sup, gsup, hsup = _estimate_norms(n, ev, gr, scale)
    return TestField(
        dim=n, eval=ev, grad=gr,
        support_radius=float(np.linalg.norm(c)) + float(scale),
        sup_norm=sup, grad_sup_norm=gsup, hess_sup_norm=hsup,
        radial=bool(np.all(c == 0.0)),
        name=name,
    )


def bump(n, center=None, scale=1.0):
    """Canonical C_c^infinity bump exp(-1/(1 - |x-c|^2/s^2)) on |x-c| < s."""

    def profile(u):
        # u clamped at 1e-14: wherever that bites, exp(-1/u) is already 0 to
        # the last bit, so no inside mask is needed
        np.fmax(u, 1e-14, out=u)
        np.divide(-1.0, u, out=u)
        return np.exp(u, out=u)

    def grad(t, d, s2):
        out = np.zeros_like(d)
        inside = t < 1.0 - 1e-14
        w = 1.0 - t[inside]
        coef = -np.exp(-1.0 / w) / w**2 * (2.0 / s2)
        out[inside] = coef[:, None] * d[inside]
        return out

    return _ball_field(n, center, scale, f"bump{n}d", profile, grad)


def poly_bump(n, k=3, center=None, scale=1.0):
    """C^2 witness (1 - |x-c|^2/s^2)^k on the ball, zero outside; k >= 3."""
    if not isinstance(k, int) or k < 3:
        raise ValueError("poly_bump requires integer k >= 3")

    def profile(u):
        # u clipped at 0 is already 0 wherever |x - c| >= s
        np.clip(u, 0.0, None, out=u)
        u **= k
        return u

    def grad(t, d, s2):
        coef = np.where(t < 1.0, -k * np.clip(1.0 - t, 0.0, None) ** (k - 1), 0.0)
        return coef[..., None] * d * (2.0 / s2)

    return _ball_field(n, center, scale, f"poly_bump{n}d_k{k}", profile, grad)


def modulated_bump(n, wavevector, base=None):
    """sin(k . x) times a base field; gives nonzero gradients at the base's
    critical points so limit targets are nondegenerate."""
    check_dimension(n)
    k = np.asarray(wavevector, dtype=float).reshape(n)
    if base is None:
        base = bump(n)
    if base.dim != n:
        raise ValueError("dimension mismatch between wavevector and base field")

    bev, bgr = base.eval, base.grad

    def ev(x):
        x = np.asarray(x, dtype=float)
        b = bev(x)
        # the sine only where the base is nonzero: many nodes of a wide
        # quadrature lie outside the support
        s = _dot(x, k)
        np.sin(s, out=s, where=b != 0.0)
        s *= b
        return s

    def gr(x):
        x = np.asarray(x, dtype=float)
        phase = _dot(x, k)
        return (np.cos(phase) * bev(x))[..., None] * k + np.sin(phase)[..., None] * bgr(x)

    sup, gsup, hsup = _estimate_norms(n, ev, gr, base.support_radius)
    return TestField(
        dim=n, eval=ev, grad=gr,
        support_radius=base.support_radius,
        sup_norm=sup, grad_sup_norm=gsup, hess_sup_norm=hsup,
        radial=False,
        name=f"modulated_{base.name}",
    )


def translate(f, v):
    """x -> f(x - v); sup norms are invariant, the support radius grows by |v|."""
    v = np.asarray(v, dtype=float).reshape(f.dim)
    fev, fgr = f.eval, f.grad
    return replace(
        f,
        eval=lambda x: fev(np.asarray(x, dtype=float) - v),
        grad=lambda x: fgr(np.asarray(x, dtype=float) - v),
        support_radius=f.support_radius + float(np.linalg.norm(v)),
        radial=f.radial and bool(np.all(v == 0.0)),
        name=f"{f.name}_translated",
    )


def dilate(f, lam):
    """x -> f(lam x); norms rescale exactly under the dilation."""
    if lam <= 0:
        raise ValueError("dilation factor must be positive")
    fev, fgr = f.eval, f.grad
    return replace(
        f,
        eval=lambda x: fev(lam * np.asarray(x, dtype=float)),
        grad=lambda x: lam * fgr(lam * np.asarray(x, dtype=float)),
        support_radius=f.support_radius / lam,
        grad_sup_norm=lam * f.grad_sup_norm,
        hess_sup_norm=lam**2 * f.hess_sup_norm,
        name=f"{f.name}_dilated",
    )


def product(f, g):
    """Pointwise product with conservative arithmetic norm bounds."""
    if f.dim != g.dim:
        raise ValueError("dimension mismatch in product")
    fev, fgr, gev, ggr = f.eval, f.grad, g.eval, g.grad
    return TestField(
        dim=f.dim,
        eval=lambda x: fev(x) * gev(x),
        grad=lambda x: fgr(x) * gev(x)[..., None] + ggr(x) * fev(x)[..., None],
        support_radius=min(f.support_radius, g.support_radius),
        sup_norm=f.sup_norm * g.sup_norm,
        grad_sup_norm=f.sup_norm * g.grad_sup_norm + g.sup_norm * f.grad_sup_norm,
        hess_sup_norm=(
            f.sup_norm * g.hess_sup_norm
            + 2.0 * f.grad_sup_norm * g.grad_sup_norm
            + g.sup_norm * f.hess_sup_norm
        ),
        radial=f.radial and g.radial,
        name=f"{f.name}*{g.name}",
    )


def zero_field(n):
    """The zero function; useful as a degenerate witness in tests."""
    check_dimension(n)
    return TestField(
        dim=n,
        eval=lambda x: np.zeros(np.asarray(x).shape[:-1]),
        grad=lambda x: np.zeros(np.asarray(x).shape),
        support_radius=1.0,
        sup_norm=0.0, grad_sup_norm=0.0, hess_sup_norm=0.0,
        radial=True, name="zero",
    )


def _ball_norms(f, spec, panels):
    """Polar quadrature of |f| and of |grad f| over the support ball, both
    from one node set."""
    n = f.dim
    rule = build_sphere_rule(n, spec.sphere_order)
    R = f.support_radius
    r, w = panel_ladder(spec.gauss_order, R, R, uniform=panels)
    pts = (r[:, None, None] * rule.nodes[None, :, :]).reshape(-1, n)
    return [
        pairwise_sum(w * r ** (n - 1) * (vals.reshape(r.size, rule.size) @ rule.weights))
        for vals in (np.abs(f.eval(pts)), np.linalg.norm(f.grad(pts), axis=-1))
    ]


def w11_norms(f, spec):
    """(||f||_L1, ||grad f||_L1) by quadrature over the support ball.

    Refined once to confirm convergence; raises if the refinement disagrees
    beyond the spec's relative target.
    """
    a1, g1 = _ball_norms(f, spec, panels=16)
    a2, g2 = _ball_norms(f, spec, panels=24)
    scale = max(abs(a2), abs(g2), 1e-300)
    tol = max(spec.target_rel_error, 1e-8) * scale
    if max(abs(a1 - a2), abs(g1 - g2)) > max(tol, 1e-13):
        raise RuntimeError(
            f"w11_norms did not converge for {f.name}: "
            f"refinement moved by {max(abs(a1 - a2), abs(g1 - g2)):.3e}"
        )
    return a2, g2


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


_CATALOG_PARAMS = {
    "bump": ("center", "scale"),
    "poly_bump": ("k", "center", "scale"),
    "modulated_bump": ("wavevector", "base"),
    "zero": (),
}


def make_field(name, dim, params=None):
    """Instantiate a catalog field by name, as addressed from run configs.

    Raises ValueError for an unknown name, a parameter the entry does not
    take, or a ``base`` that is not an object {"name": ..., "params": ...}.
    """
    if name not in _CATALOG_PARAMS:
        raise ValueError(
            f"unknown catalog field {name!r}; expected one of {sorted(_CATALOG_PARAMS)}"
        )
    params = dict(params or {})
    unknown = sorted(set(params) - set(_CATALOG_PARAMS[name]))
    if unknown:
        raise ValueError(f"unknown parameter(s) {unknown} for catalog field {name!r}")
    if name == "bump":
        return bump(dim, **params)
    if name == "poly_bump":
        return poly_bump(dim, **params)
    if name == "modulated_bump":
        wave = params.get("wavevector")
        if wave is None:
            wave = [2.0] + [0.0] * (dim - 1)
        base = params.get("base")
        if base is not None:
            if not isinstance(base, dict) or "name" not in base or set(base) - {"name", "params"}:
                raise ValueError(f"parameter 'base' must be a field object, got {base!r}")
            base = make_field(base["name"], dim, base.get("params"))
        return modulated_bump(dim, wave, base=base)
    return zero_field(dim)


def standard_catalog(n):
    """The fixed per-dimension catalog exercised by the inequality audits."""
    check_dimension(n)
    if n == 1:
        return [bump(1), poly_bump(1, k=3)]
    if n == 2:
        return [bump(2), poly_bump(2, k=3), modulated_bump(2, [2.0, 0.0])]
    if n == 3:
        return [bump(3), poly_bump(3, k=4)]
    raise ValueError("catalog fixed to n in {1, 2, 3}")
