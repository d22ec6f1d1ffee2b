"""Singular-integral quadrature engines.

Sphere rules, dyadic radial shell ladders with analytic cores/tails, and the
slow brute-force oracles used for cross-validation.  Every integral of a
kernel |h|^{-n-a} in this package is reduced to polar form and driven by the
pieces defined here.

The sphere rules are composite Gauss-Legendre panel rules with panel
boundaries on multiples of pi/4 (and, on S^2, a polar-angle split at the
equator).  Plain uniform trapezoid rules converge only at O(N^-2) on the
kinked integrands |w . e| that dominate this problem; panel rules aligned
with the kink directions integrate them to machine precision.
"""

import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .constants import check_dimension, sphere_area

__all__ = [
    "SphereRule",
    "build_sphere_rule",
    "rotate_rule",
    "sphere_integrate",
    "QuadratureSpec",
    "fast_spec",
    "default_spec",
    "high_spec",
    "composed_spec",
    "panel_ladder",
    "box_rule",
    "radial_ladder",
    "pairwise_sum",
    "radial_reduction_oracle",
    "brute_force_grid_oracle",
]


def pairwise_sum(a):
    """Deterministic pairwise (tree) reduction of a 1D array.

    The reduction order depends only on the array length, never on
    scheduling, so results are bit-identical across runs and thread counts.
    """
    a = np.asarray(a, dtype=float).ravel().copy()
    n = a.size
    if n == 0:
        return 0.0
    while n > 1:
        half = n // 2
        a[:half] += a[n - half : n]
        n = n - half
    return float(a[0])


@lru_cache(maxsize=64)
def _leggauss(order):
    return leggauss(order)


def _panel_nodes(a, b, order):
    """Gauss-Legendre nodes/weights on [a, b]."""
    x, w = _leggauss(order)
    mid, rad = 0.5 * (a + b), 0.5 * (b - a)
    return mid + rad * x, rad * w


def panel_ladder(order, start, r_max, uniform=0, growth=None):
    """Gauss-Legendre nodes on consecutive panels, as flat (nodes, weights)
    arrays in increasing radius order.

    With ``uniform = m > 0`` the ladder opens with the m equal panels
    [start j/m, start (j+1)/m] on [0, start].  From ``start`` on, each panel
    [lo, hi] has hi = 2 lo, or lo * growth(lo) when ``growth`` is given,
    until r_max, where the last panel is clipped.
    """
    xs, ws = [], []
    for j in range(uniform):
        x, w = _panel_nodes(start * j / uniform, start * (j + 1) / uniform, order)
        xs.append(x)
        ws.append(w)
    lo = start
    while lo < r_max:
        hi = min(lo * (2.0 if growth is None else growth(lo)), r_max)
        if not hi > lo:
            raise RuntimeError("panel ladder failed to terminate")
        x, w = _panel_nodes(lo, hi, order)
        xs.append(x)
        ws.append(w)
        lo = hi
    if not xs:
        return np.empty(0), np.empty(0)
    return np.concatenate(xs), np.concatenate(ws)


def box_rule(lo, hi, n, order):
    """Tensor Gauss-Legendre rule on the cube [lo, hi]^n: nodes Z of shape
    (order^n, n) and their weights."""
    x1, w1 = _panel_nodes(lo, hi, order)
    Z = np.column_stack([g.ravel() for g in np.meshgrid(*([x1] * n), indexing="ij")])
    w = np.ones(Z.shape[0])
    for wgrid in np.meshgrid(*([w1] * n), indexing="ij"):
        w *= wgrid.ravel()
    return Z, w


# ---------------------------------------------------------------------------
# sphere rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphereRule:
    """Nodes (unit vectors) and positive weights summing to sigma(S^{n-1})."""

    dim: int
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def size(self):
        return self.weights.size


@lru_cache(maxsize=32)
def _cached_sphere_rule(n, order):
    if n == 1:
        nodes = np.array([[1.0], [-1.0]])
        weights = np.array([1.0, 1.0])
    elif n == 2:
        # 8 Gauss-Legendre arcs on the half circle, then antipodes.
        theta, w = panel_ladder(max(2, -(-order // 8)), np.pi, np.pi, uniform=4)
        upper = np.column_stack([np.cos(theta), np.sin(theta)])
        nodes = np.concatenate([upper, -upper])
        weights = np.concatenate([w, w])
    else:
        # n = 3.  Polar angle: Gauss-Legendre on [0, pi/2], mirrored; azimuth:
        # 8 Gauss-Legendre arcs.  Kinks of |w . e| for axis-aligned e fall on
        # panel boundaries, so those integrands are integrated exactly.
        n_theta = max(4, -(-order // 2))
        n_phi = max(2, -(-order // 4))
        theta, w_theta = _panel_nodes(0.0, np.pi / 2.0, n_theta)
        phi, w_phi = panel_ladder(n_phi, 2.0 * np.pi, 2.0 * np.pi, uniform=8)
        st, ct = np.sin(theta), np.cos(theta)
        upper = np.column_stack(
            [
                np.outer(st, np.cos(phi)).ravel(),
                np.outer(st, np.sin(phi)).ravel(),
                np.outer(ct, np.ones_like(phi)).ravel(),
            ]
        )
        w = np.outer(w_theta * st, w_phi).ravel()
        nodes = np.concatenate([upper, -upper])
        weights = np.concatenate([w, w])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return SphereRule(dim=n, nodes=nodes, weights=weights)


def build_sphere_rule(n, order):
    """Sphere rule on S^{n-1} for n in {1, 2, 3}; ``order`` sets resolution."""
    check_dimension(n)
    if n not in (1, 2, 3):
        raise ValueError(f"unsupported dimension {n} for sphere rules")
    if order < 1:
        raise ValueError("order must be positive")
    return _cached_sphere_rule(n, int(order))


def rotate_rule(rule, direction):
    """Rotate a sphere rule so its reference axis aligns with ``direction``.

    A rotated rule is still a valid sphere rule; aligning the axis with a
    kink direction of the integrand recovers panel-exact integration.
    """
    e = np.asarray(direction, dtype=float)
    e = e / np.linalg.norm(e)
    n = rule.dim
    axis = np.zeros(n)
    axis[0 if n == 2 else n - 1] = 1.0
    if np.allclose(e, axis):
        return rule
    if n == 2:
        c, s = e[0], e[1]
        rot = np.array([[c, -s], [s, c]])
    elif n == 3:
        v = np.cross(axis, e)
        c = float(axis @ e)
        if np.linalg.norm(v) < 1e-15:
            rot = -np.eye(3) if c < 0 else np.eye(3)
        else:
            vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
            rot = np.eye(3) + vx + vx @ vx / (1.0 + c)
    else:
        raise ValueError("rotation only supported for n in {2, 3}")
    return SphereRule(dim=n, nodes=rule.nodes @ rot.T, weights=rule.weights)


def sphere_integrate(rule, g):
    """Integrate a batched map g: S^{n-1} -> R against the rule."""
    vals = np.asarray(g(rule.nodes), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite integrand value at a sphere node")
    return pairwise_sum(rule.weights * vals)


# ---------------------------------------------------------------------------
# radial shell schemes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution parameters shared by every singular-integral engine."""

    inner_shells: int = 40
    outer_shells: int = 30
    gauss_order: int = 16
    sphere_order: int = 128
    target_rel_error: float = 1e-6

    def __post_init__(self):
        for name in ("inner_shells", "outer_shells", "gauss_order", "sphere_order"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or isinstance(v, bool):
                raise TypeError(f"{name} must be an int, got {v!r}")
        if self.inner_shells < 4 or self.outer_shells < 4:
            raise ValueError("inner_shells and outer_shells must be >= 4")
        if self.gauss_order < 8:
            raise ValueError("gauss_order must be >= 8")
        if self.sphere_order < 8:
            raise ValueError("sphere_order must be >= 8")
        t = self.target_rel_error
        if not isinstance(t, numbers.Real) or isinstance(t, bool):
            raise TypeError(f"target_rel_error must be a number, got {t!r}")
        if not (math.isfinite(t) and t > 0):
            raise ValueError(f"target_rel_error must be finite and > 0, got {t!r}")

    def halved(self):
        """Spec at half resolution, used for a-posteriori differencing.

        Each order halves down to its floor, so a coarse spec may keep part
        of its resolution: ``gauss_order`` 8 stays 8 (``fast_spec``), and in
        2-D sphere orders 16 and 8 build the same 16-node rule.  At 12/8/8/16
        both resolutions then share the angular rule and the Gauss order, and
        their difference sees only the shell counts.  Every preset halves its
        sphere rule to a strictly smaller one.
        """
        return replace(
            self,
            inner_shells=max(4, self.inner_shells // 2),
            outer_shells=max(4, self.outer_shells // 2),
            gauss_order=max(8, self.gauss_order // 2),
            sphere_order=max(8, self.sphere_order // 2),
        )


def fast_spec(n=2):
    return QuadratureSpec(
        inner_shells=12, outer_shells=10, gauss_order=8,
        sphere_order=32 if n == 2 else 16, target_rel_error=1e-3,
    )


def default_spec(n=2):
    return QuadratureSpec(
        inner_shells=40, outer_shells=30, gauss_order=16,
        sphere_order=128 if n == 2 else 48, target_rel_error=1e-6,
    )


def high_spec(n=2):
    return QuadratureSpec(
        inner_shells=56, outer_shells=36, gauss_order=24,
        sphere_order=384 if n == 2 else 96, target_rel_error=1e-8,
    )


def composed_spec(n=2):
    """Calibrated for the nested potential-of-derivative evaluations, where
    the inner operator is revisited at every outer node."""
    return QuadratureSpec(
        inner_shells=32, outer_shells=20, gauss_order=12,
        sphere_order=96 if n == 2 else 32, target_rel_error=1e-3,
    )


def radial_ladder(r_mid, r_max, spec):
    """Gauss nodes on a dyadic ladder from 2^{-inner_shells} r_mid up to r_max.

    Shells double until they pass r_max; the last one is clipped.  Returns
    flat (nodes, weights) arrays in increasing radius order.
    """
    return panel_ladder(spec.gauss_order, r_mid * 2.0**-spec.inner_shells, r_max)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def radial_reduction_oracle(f, alpha, inner_shells=60, gauss_order=24):
    """1D oracle for the nonlocal derivative of a radial field at the origin.

    Reduces the n-dimensional integral to sigma(S^{n-1}) times a radial one
    and integrates it on its own dyadic ladder, fully independent of the
    n-dimensional shell engine.  The gap below the innermost shell is bounded
    by the Hessian norm (the integrand is O(r^{1-alpha}) there) and the exact
    tail |f(0)| sigma R0^{-alpha} / alpha is added beyond the support.
    """
    if not f.radial:
        raise ValueError("radial_reduction_oracle requires a radial field")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    n = f.dim
    sigma = sphere_area(n)
    R0 = f.support_radius
    f0 = float(f.eval(np.zeros((1, n)))[0])

    xs, ws = [], []
    for k in range(inner_shells, 0, -1):
        x, w = _panel_nodes(R0 * 2.0**-k, R0 * 2.0 ** (-k + 1), gauss_order)
        xs.append(x)
        ws.append(w)
    r = np.concatenate(xs)
    w = np.concatenate(ws)
    pts = np.zeros((r.size, n))
    pts[:, 0] = r
    vals = np.abs(f.eval(pts) - f0)
    body = pairwise_sum(w * vals * r ** (-1.0 - alpha))
    tail = abs(f0) * R0 ** (-alpha) / alpha
    delta = R0 * 2.0**-inner_shells
    gap_bound = 0.5 * f.hess_sup_norm * delta ** (2.0 - alpha) / (2.0 - alpha)
    return sigma * (body + tail), sigma * gap_bound


def brute_force_grid_oracle(f, alpha, x, cells_per_axis):
    """Midpoint-grid oracle for the nonlocal derivative, n <= 2.

    Integrates over the ball B(x, 4 R0) on a tensor midpoint grid, replaces
    the cell containing the singularity by the exact integral of the local
    Taylor surrogate |grad f(x) . h| over an equal-area disc, and adds the
    exact constant tail beyond the ball.  Requires |x| <= 3 R0 so that the
    field vanishes outside the ball.
    """
    from .constants import bbm_constant

    n = f.dim
    if n > 2:
        raise ValueError("brute_force_grid_oracle supports n <= 2 only")
    if cells_per_axis > 4096:
        raise ValueError("cells_per_axis must be <= 4096")
    x = np.asarray(x, dtype=float).reshape(n)
    R0 = f.support_radius
    Rc = 4.0 * R0
    if np.linalg.norm(x) > 3.0 * R0:
        raise ValueError("evaluation point too far from support for this oracle")

    h = 2.0 * Rc / cells_per_axis
    axis = x[0] - Rc + h * (np.arange(cells_per_axis) + 0.5)
    if n == 1:
        grid = axis[:, None]
    else:
        ay = x[1] - Rc + h * (np.arange(cells_per_axis) + 0.5)
        gx, gy = np.meshgrid(axis, ay, indexing="ij")
        grid = np.column_stack([gx.ravel(), gy.ravel()])
    d = np.linalg.norm(grid - x, axis=1)
    fx = float(f.eval(x[None, :])[0])
    g = f.grad(x[None, :])[0]
    gnorm = float(np.linalg.norm(g))
    # equal-measure radius of one cell
    if n == 1:
        delta = h / 2.0
    else:
        delta = h / np.sqrt(np.pi)
    # subtract the first-order surrogate |grad f(x).(y-x)| inside the unit
    # ball and add back its exact integral: the residual integrand is
    # O(|y-x|^{2-n-alpha}) at the singularity, which the midpoint grid
    # resolves far better than the raw O(|y-x|^{1-n-alpha}) one
    mask = (d < Rc) & (d > delta)
    vals = np.abs(f.eval(grid[mask]) - fx)
    lin = np.abs((grid[mask] - x) @ g) * (d[mask] < 1.0)
    body = pairwise_sum((vals - lin) * d[mask] ** (-(n + alpha))) * h**n
    Kn = bbm_constant(n, allow_dim_one=True)
    surrogate = Kn * gnorm * (1.0 - delta ** (1.0 - alpha)) / (1.0 - alpha)
    core = Kn * gnorm * delta ** (1.0 - alpha) / (1.0 - alpha)
    tail = abs(fx) * sphere_area(n) * Rc ** (-alpha) / alpha
    return body + surrogate + core + tail
