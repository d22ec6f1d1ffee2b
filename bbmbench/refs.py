"""Reference values computed apart from the package under test.

Nothing here imports ``nonlocal_bbm``.  Every value is a closed form or a
plain one-dimensional integral done with scipy, so a fault in the package's
quadrature cannot leak into the numbers the benchmark checks against.
"""

import math

import numpy as np

# K_{n,p} = ((1/p) int_{S^{n-1}} |w.e|^p dsigma)^{1/p}: the sphere moments of
# Bourgain-Brezis-Mironescu.  On S^1 the p=1 moment is int |cos t| dt = 4 and
# the p=2 moment is int cos^2 t dt = pi; on S^2 the p=1 moment is 2 pi.
K_NP = {
    (2, 1.0): 4.0,
    (3, 1.0): 2.0 * math.pi,
    (2, 2.0): math.sqrt(math.pi / 2.0),
}


def sphere_area(n):
    """Surface measure of S^{n-1}."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def poly_bump_dalpha_origin(n, k, alpha):
    """D^alpha of (1 - |x|^2)_+^k at the origin, in closed form.

    |f(0) - f(y)| = 1 - (1 - r^2)^k = sum_j C(k, j) (-1)^{j+1} r^{2j} inside
    the unit ball and 1 outside, so the radial integral against r^{-1-alpha}
    is sum_j C(k, j) (-1)^{j+1} / (2j - alpha) + 1/alpha.
    """
    inner = sum(
        math.comb(k, j) * (-1) ** (j + 1) / (2 * j - alpha) for j in range(1, k + 1)
    )
    return sphere_area(n) * (inner + 1.0 / alpha)


def bump_value(x):
    """exp(-1 / (1 - |x|^2)) inside the unit ball, 0 outside; x of shape (n,)."""
    t = float(np.dot(x, x))
    return math.exp(-1.0 / (1.0 - t)) if t < 1.0 else 0.0


def grad_bump(x):
    x = np.asarray(x, dtype=float)
    t = float(np.dot(x, x))
    if t >= 1.0:
        return np.zeros_like(x)
    w = 1.0 - t
    return -math.exp(-1.0 / w) * 2.0 / w**2 * x


def grad_poly_bump(x, k):
    """Gradient of (1 - |x|^2)_+^k."""
    x = np.asarray(x, dtype=float)
    t = float(np.dot(x, x))
    if t >= 1.0:
        return np.zeros_like(x)
    return -2.0 * k * (1.0 - t) ** (k - 1) * x


def grad_modulated_bump(x, wavevector):
    """Gradient of sin(k . x) exp(-1 / (1 - |x|^2))."""
    x = np.asarray(x, dtype=float)
    k = np.asarray(wavevector, dtype=float)
    phase = float(np.dot(k, x))
    return math.cos(phase) * bump_value(x) * k + math.sin(phase) * grad_bump(x)


def _bump_profile_slope(s):
    """|d/ds exp(-1 / (1 - s^2))| for 0 <= s < 1."""
    if s >= 1.0:
        return 0.0
    w = 1.0 - s * s
    return math.exp(-1.0 / w) * 2.0 * s / w**2


def _ring_kernel(r, s):
    """int_0^{2 pi} dt / |x - s e^{it}| for |x| = r, via the complete
    elliptic integral: 4 K(m) / (r + s) with 1 - m = ((r - s)/(r + s))^2."""
    from scipy.special import ellipkm1

    if r == 0.0:
        return 2.0 * math.pi / s
    return 4.0 * float(ellipkm1(((r - s) / (r + s)) ** 2)) / (r + s)


def riesz1_grad_bump_2d(r):
    """I_1(|grad f|)(x) for the 2-D bump f at |x| = r.

    I_1 g(x) = (1 / 2 pi) int g(y) / |x - y| dy in the plane.  For a radial
    g the angular integral is a complete elliptic integral, which leaves one
    radial integral, split at s = r where its log singularity sits.  At the
    origin the value is exactly 1/e.
    """
    from scipy.integrate import quad

    def integrand(s):
        return _bump_profile_slope(s) * s * _ring_kernel(r, s)

    pieces = [(0.0, r), (r, 1.0)] if 0.0 < r < 1.0 else [(0.0, 1.0)]
    total = 0.0
    for a, b in pieces:
        val, _ = quad(integrand, a, b, limit=200, epsabs=0.0, epsrel=1e-12)
        total += val
    return total / (2.0 * math.pi)
