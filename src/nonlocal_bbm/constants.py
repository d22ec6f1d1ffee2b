"""Closed-form constants: Gamma, the Riesz normalization, sphere measures and
the geometric constants K_n, K_{n,p}."""

import math

__all__ = [
    "gamma_fn",
    "riesz_constant",
    "bbm_constant",
    "bbm_constant_p",
    "sphere_area",
    "check_dimension",
]

_GAMMA_MAX_ARG = 50.0


def check_dimension(n, minimum=1):
    """Validate an ambient dimension; raises ValueError otherwise."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"dimension must be an integer, got {n!r}")
    if n < minimum:
        raise ValueError(f"dimension must be >= {minimum}, got {n}")
    return n


def gamma_fn(x):
    """Gamma function on (0, 50], accurate to better than 1e-12 relative.

    Backed by the C library implementation (Lanczos-type coefficient
    approximation), which meets the accuracy target on this range.
    """
    if not x > 0:
        raise ValueError(f"gamma_fn requires x > 0, got {x}")
    if x > _GAMMA_MAX_ARG:
        raise ValueError(f"gamma_fn restricted to x <= {_GAMMA_MAX_ARG}, got {x}")
    return math.gamma(x)


def riesz_constant(n, alpha):
    """Normalization gamma_{n,alpha} = Gamma((n-a)/2) / (2^a pi^{n/2} Gamma(a/2)).

    Makes the Riesz potential the Fourier multiplier |xi|^{-alpha}.
    """
    check_dimension(n)
    if not 0.0 < alpha < n:
        raise ValueError(f"riesz_constant requires 0 < alpha < n={n}, got {alpha}")
    return gamma_fn((n - alpha) / 2.0) / (
        2.0**alpha * math.pi ** (n / 2.0) * gamma_fn(alpha / 2.0)
    )


def sphere_area(n):
    """Surface measure of the unit sphere S^{n-1}; n = 1 gives 2 (two points)."""
    check_dimension(n)
    if n == 1:
        return 2.0
    return 2.0 * math.pi ** (n / 2.0) / gamma_fn(n / 2.0)


def bbm_constant(n, allow_dim_one=False):
    """Geometric constant K_n = int_{S^{n-1}} |w . e| dsigma(w), any unit e.

    Closed form 2 pi^{(n-1)/2} / Gamma((n+1)/2).  Requires n >= 2; pass
    ``allow_dim_one=True`` to get the degenerate K_1 = 2 used by
    seminorm-only experiments.
    """
    check_dimension(n)
    if n < 2 and not allow_dim_one:
        raise ValueError("bbm_constant requires n >= 2 (set allow_dim_one for K_1)")
    if n == 1:
        return 2.0
    return 2.0 * math.pi ** ((n - 1) / 2.0) / gamma_fn((n + 1) / 2.0)


def bbm_constant_p(n, p):
    """p-mean analogue K_{n,p} = ((1/p) int_{S^{n-1}} |w . e|^p dsigma)^{1/p}.

    Reduces to K_n at p = 1.  Uses the closed form of the absolute moment
    int |w.e|^p dsigma = 2 pi^{(n-1)/2} Gamma((p+1)/2) / Gamma((n+p)/2).
    Where (n+p)/2 is beyond ``gamma_fn``'s range it is formed from
    log-gamma, whose absolute error the root divides by p.
    """
    check_dimension(n, minimum=2)
    if p < 1:
        raise ValueError(f"bbm_constant_p requires p >= 1, got {p}")
    c = 2.0 * math.pi ** ((n - 1) / 2.0)
    a, b = (p + 1) / 2.0, (n + p) / 2.0
    if b > _GAMMA_MAX_ARG:
        return math.exp((math.log(c) + math.lgamma(a) - math.lgamma(b) - math.log(p)) / p)
    return (c * gamma_fn(a) / gamma_fn(b) / p) ** (1.0 / p)
