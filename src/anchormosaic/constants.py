"""Closed-form constants and expectation formulas for sliced Poisson mosaics.

A stationary Poisson process in R^n sliced by a k-plane induces a weighted
Delaunay mosaic in R^k whose anchored radius function decomposes into
intervals of type (ell, m). The expected number of type-(ell, m) intervals
with anchor in a region of k-volume ``area`` and radius at most r0 is

    C[ell, m; k, n] * P(m + 1 - k/n, rho nu_n r0^n) * rho^(k/n) * area,

where P is the regularized lower incomplete Gamma function and nu_n the unit
ball volume. This module evaluates the constants C (closed forms exist for
k <= 2), the simplex-count constants D_j obtained from them by a binomial
relation, the top-dimensional constant D_k (closed form for every k < n),
and the n -> infinity limits of the one-dimensional constants.

All evaluation is done in log-Gamma space so that very large ambient
dimensions (n up to ~1e5, used by the limit checks) stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from scipy import special

from . import specfun

__all__ = [
    "SCHEMA_VERSION",
    "DimensionConfig",
    "IntervalType",
    "sphere_surface",
    "ball_volume",
    "log_sphere_surface",
    "log_ball_volume",
    "grassmannian_volume",
    "angle_bracket",
    "critical_vertex_constant",
    "vertex_edge_pair_constant",
    "critical_edge_constant",
    "interval_constant",
    "top_simplex_constant",
    "simplex_constant",
    "expected_interval_count",
    "expected_simplex_count",
    "valid_interval_types",
    "asymptotic_limits_1d",
    "AsymptoticLimits1D",
]

# version of every JSON document the package writes: reports, tables, dumps
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class DimensionConfig:
    """Ambient dimension n, slice dimension k, and process density rho."""

    n: int
    k: int
    rho: float = 1.0

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and isinstance(self.k, int)):
            raise TypeError("dimensions must be integers")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError(f"density must be positive, got rho={self.rho}")


@dataclass(frozen=True, order=True)
class IntervalType:
    """Dimensions (ell, m) of the lower and upper bound of an interval."""

    ell: int
    m: int

    def __post_init__(self) -> None:
        if not 0 <= self.ell <= self.m:
            raise ValueError(f"need 0 <= ell <= m, got ({self.ell}, {self.m})")


def valid_interval_types(k: int) -> tuple[IntervalType, ...]:
    """All interval types that can occur in a k-dimensional mosaic."""
    return tuple(
        IntervalType(ell, m) for m in range(k + 1) for ell in range(m + 1)
    )


def log_sphere_surface(n: int) -> float:
    """log of the (n-1)-dimensional surface volume of the unit sphere in R^n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return math.log(2.0) + 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n)


def sphere_surface(n: int) -> float:
    """Surface volume sigma_n = 2 pi^(n/2) / Gamma(n/2) of the unit sphere in R^n."""
    return math.exp(log_sphere_surface(n))


def log_ball_volume(n: int) -> float:
    """log of the volume of the unit ball in R^n."""
    return log_sphere_surface(n) - math.log(n)


def ball_volume(n: int) -> float:
    """Volume nu_n = sigma_n / n of the unit ball in R^n."""
    return math.exp(log_ball_volume(n))


def grassmannian_volume(m: int, k: int) -> float:
    """Total invariant measure of the Grassmannian of m-planes in R^k.

    Normalized so that lines in R^k carry measure sigma_k / 2 (half the unit
    sphere) and the two trivial cases m = 0 and m = k carry measure 1.
    """
    if not 0 <= m <= k:
        raise ValueError(f"need 0 <= m <= k, got m={m}, k={k}")
    log_total = 0.0
    for i in range(m):
        log_total += log_sphere_surface(k - i) - log_sphere_surface(m - i)
    return math.exp(log_total)


def _check_dims(k: int, n: int) -> None:
    if k < 1:
        raise ValueError(f"slice dimension must be >= 1, got k={k}")
    if n <= k:
        raise ValueError(f"ambient dimension must exceed k, got n={n}, k={k}")


@lru_cache(maxsize=None)
def critical_vertex_constant(k: int, n: int) -> float:
    """Constant C[0,0; k,n] = sigma_(n-k) Gamma(1 - k/n) / (n nu_n^(1 - k/n))."""
    _check_dims(k, n)
    log_c = (
        log_sphere_surface(n - k)
        + math.lgamma(1.0 - k / n)
        - math.log(n)
        - (1.0 - k / n) * log_ball_volume(n)
    )
    return math.exp(log_c)


@lru_cache(maxsize=None)
def vertex_edge_pair_constant(k: int, n: int) -> float:
    """Constant C[0,1; k,n] in its hypergeometric closed form.

    Valid for every 1 <= k < n; the 3F2 argument is z = 1, where the series
    converges for all n > 0 (and terminates when n - k is even).
    """
    _check_dims(k, n)
    b1 = (k + 3.0) / 2.0
    b2 = (n + 2.0) / 2.0
    series = specfun.hyp3f2(0.5, 1.0, (k - n + 2.0) / 2.0, b1, b2)
    if series <= 0.0:
        raise ArithmeticError(f"3F2 sum must be positive, got {series}")
    log_c = (
        2.0 * log_sphere_surface(n - k + 1)
        + log_sphere_surface(k)
        + math.lgamma(2.0 - k / n)
        - math.log(4.0 * n)
        - (2.0 - k / n) * log_ball_volume(n)
        + math.lgamma(k + 1.0)
        + 2.0 * math.lgamma((n - k + 1.0) / 2.0)
        - k * math.log(2.0)
        - 0.5 * math.log(math.pi)
        - math.lgamma((n - k) / 2.0)
        + math.log(series)
        - math.lgamma(b1)
        - math.lgamma(b2)
    )
    return math.exp(log_c)


@lru_cache(maxsize=None)
def critical_edge_constant(k: int, n: int) -> float:
    """Constant C[1,1; k,n] as a binomial sum of Beta-function products."""
    _check_dims(k, n)
    half = (n - k) / 2.0

    def lbeta(a: float, b: float) -> float:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    log_terms = [
        math.lgamma(k + 1.0)
        - math.lgamma(i + 1.0)
        - math.lgamma(k - i + 1.0)
        + lbeta(half, (i + 1.0) / 2.0)
        + lbeta(half, (k - i + 1.0) / 2.0)
        for i in range(k + 1)
    ]
    peak = max(log_terms)
    log_sum = peak + math.log(sum(math.exp(t - peak) for t in log_terms))
    log_c = (
        2.0 * log_sphere_surface(n - k + 1)
        + log_sphere_surface(k)
        + math.lgamma(2.0 - k / n)
        - math.log(8.0 * n)
        - (2.0 - k / n) * log_ball_volume(n)
        - 2.0 * lbeta(half, 0.5)
        + log_sum
    )
    return math.exp(log_c)


def angle_bracket(n: int) -> float:
    """2 Gamma(n-1) / Gamma(n-1/2) - Gamma((n-1)/2) / Gamma(n/2), the bracket of
    the two-angle integral's closed form sqrt(pi) / (n-1) * bracket."""
    return 2.0 * math.exp(math.lgamma(n - 1.0) - math.lgamma(n - 0.5)) - math.exp(
        math.lgamma((n - 1.0) / 2.0) - math.lgamma(n / 2.0)
    )


@lru_cache(maxsize=None)
def _pair_constant_1d(n: int) -> float:
    # C[0,1; 1,n] via the one-dimensional angle-integral closed form
    _check_dims(1, n)
    bracket = angle_bracket(n)
    if bracket <= 0.0:
        raise ArithmeticError(f"angle-integral bracket must be positive, got {bracket}")
    log_c = (
        2.0 * log_sphere_surface(n - 1)
        + 0.5 * math.log(math.pi)
        + math.lgamma(2.0 - 1.0 / n)
        - math.log(n)
        - math.log(n - 1.0)
        - (2.0 - 1.0 / n) * log_ball_volume(n)
        + math.log(bracket)
    )
    return math.exp(log_c)


@lru_cache(maxsize=None)
def top_simplex_constant(k: int, n: int) -> float:
    """Constant D_k[k,n]: expected top-dimensional simplices per unit rho^(k/n) volume.

    Closed form for every 1 <= k < n via the Crofton route, not limited to k <= 2.
    """
    _check_dims(k, n)
    log_d = (
        log_sphere_surface(1)
        + log_sphere_surface(n + 1)
        - log_sphere_surface(k + 1)
        - log_sphere_surface(n - k + 1)
        + (k + 1.0) * math.log(2.0)
        + 0.5 * k * math.log(math.pi)
        - math.log(n)
        - math.lgamma(k + 2.0)
        + math.lgamma((k * n + n - k + 1.0) / 2.0)
        - math.lgamma((k * n + n - k) / 2.0)
        + (k + 1.0 - k / n) * math.lgamma((n + 2.0) / 2.0)
        - k * math.lgamma((n + 1.0) / 2.0)
        + math.lgamma(k + 1.0 - k / n)
        - math.lgamma((n - k + 1.0) / 2.0)
    )
    return math.exp(log_d)


def interval_constant(t: IntervalType | tuple[int, int], k: int, n: int) -> float:
    """Constant C[ell, m; k, n] for k in {1, 2}.

    k = 1 uses the elementary one-dimensional closed forms; k = 2 combines the
    hypergeometric and Beta-sum forms with the Euler relation, the planar
    triangles = 2 * vertices relation, and the top-simplex constant.
    """
    if not isinstance(t, IntervalType):
        t = IntervalType(*t)
    _check_dims(k, n)
    if k not in (1, 2):
        raise ValueError(f"closed-form interval constants exist only for k in {{1, 2}}, got k={k}")
    if t.m > k:
        raise ValueError(f"type {t} cannot occur in a {k}-dimensional mosaic")
    if k == 1:
        if t == IntervalType(0, 0) or t == IntervalType(1, 1):
            return critical_vertex_constant(1, n)
        return _pair_constant_1d(n)  # type (0, 1)
    c00 = critical_vertex_constant(2, n)
    if t == IntervalType(0, 0):
        return c00
    if t == IntervalType(0, 1):
        return vertex_edge_pair_constant(2, n)
    if t == IntervalType(1, 1):
        return critical_edge_constant(2, n)
    c11 = critical_edge_constant(2, n)
    c22 = c11 - c00  # Euler relation for the critical simplices
    if t == IntervalType(2, 2):
        return c22
    c01 = vertex_edge_pair_constant(2, n)
    d2 = top_simplex_constant(2, n)
    if t == IntervalType(0, 2):
        return -c00 - c01 + 0.5 * d2
    # type (1, 2): remainder of the planar 2:1 count relation
    return c00 + c01 - c22 + 0.5 * d2


def simplex_constant(j: int, k: int, n: int) -> float:
    """Constant D_j[k,n] = sum_{m=j..k} sum_{ell=0..j} binom(m-ell, m-j) C[ell,m;k,n]."""
    _check_dims(k, n)
    if not 0 <= j <= k:
        raise ValueError(f"need 0 <= j <= k, got j={j}, k={k}")
    total = 0.0
    for m in range(j, k + 1):
        for ell in range(j + 1):
            total += math.comb(m - ell, m - j) * interval_constant(
                IntervalType(ell, m), k, n
            )
    return total


def _gamma_fraction(shape: float, cfg: DimensionConfig, r0: float) -> float:
    if not r0 >= 0:
        raise ValueError(f"radius threshold must be non-negative, got {r0}")
    return float(special.gammainc(shape, cfg.rho * ball_volume(cfg.n) * r0**cfg.n))


def expected_interval_count(
    t: IntervalType | tuple[int, int],
    cfg: DimensionConfig,
    area: float,
    r0: float = math.inf,
) -> float:
    """Expected number of type-(ell, m) intervals with anchor in a region of
    k-volume ``area`` and radius at most ``r0``."""
    if not isinstance(t, IntervalType):
        t = IntervalType(*t)
    if not area > 0:
        raise ValueError(f"area must be positive, got {area}")
    shape = t.m + 1.0 - cfg.k / cfg.n
    return (
        interval_constant(t, cfg.k, cfg.n)
        * _gamma_fraction(shape, cfg, r0)
        * cfg.rho ** (cfg.k / cfg.n)
        * area
    )


def expected_simplex_count(
    j: int, cfg: DimensionConfig, area: float, r0: float = math.inf
) -> float:
    """Expected number of j-simplices with anchor in a region of k-volume
    ``area`` and radius at most ``r0`` (a Gamma mixture across upper-bound
    dimensions m)."""
    if not area > 0:
        raise ValueError(f"area must be positive, got {area}")
    total = 0.0
    for m in range(j, cfg.k + 1):
        shape = m + 1.0 - cfg.k / cfg.n
        inner = sum(
            math.comb(m - ell, m - j)
            * interval_constant(IntervalType(ell, m), cfg.k, cfg.n)
            for ell in range(j + 1)
        )
        total += _gamma_fraction(shape, cfg, r0) * inner
    return total * cfg.rho ** (cfg.k / cfg.n) * area


@dataclass(frozen=True)
class AsymptoticLimits1D:
    """n -> infinity limits of the one-dimensional constants with convergence data."""

    critical_vertex_limit: float  # sqrt(e)
    pair_limit: float  # sqrt(e) (sqrt(2) - 1)
    vertex_count_limit: float  # sqrt(2 e)
    values: dict[int, tuple[float, float, float]]  # n -> (C00, C01, D0)


def asymptotic_limits_1d() -> AsymptoticLimits1D:
    """Limits of C[0,0; 1,n], C[0,1; 1,n], D_0[1,n] with their values at
    n = 100, 1000 and 10000."""
    values = {}
    for n in (100, 1000, 10000):
        c00 = critical_vertex_constant(1, n)
        c01 = _pair_constant_1d(n)
        values[n] = (c00, c01, c00 + c01)
    sqrt_e = math.sqrt(math.e)
    return AsymptoticLimits1D(
        critical_vertex_limit=sqrt_e,
        pair_limit=sqrt_e * (math.sqrt(2.0) - 1.0),
        vertex_count_limit=math.sqrt(2.0 * math.e),
        values=values,
    )
