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

Every function of a slice takes its dimensions as ``(..., k, n)``. The two
expectations, ``expected_interval_count(t, k, n, rho, area, r0)`` and
``expected_simplex_count(j, k, n, rho, area, r0)``, take the rest of the
formula as plain arguments: the density ``rho`` (finite and above 0), the
region's k-volume ``area`` (above 0) and the radius threshold ``r0`` (at
least 0, infinite by default). ``expected_rates(k, n, rho, area, r0)`` is
the package's one prediction: every expectation of a k-mosaic per unit
rho^(k/n) area, as the census and the ``constants`` table report it.

Each closed form is a few Gamma values at small arguments times ratios
Gamma(x) / Gamma(x - h) at x of order n, all from one helper that subtracts
Stirling series where two lgamma values of size (n/2) log n would cancel:
the constants hold to about 1e-15 relative from n = 2 to n = 10^6.
rho nu_n r0^n is taken in logs, so that ambient dimensions past n = 453,
where nu_n underflows, stay finite.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, partial, reduce

import numpy as np
from scipy import special

from . import specfun

__all__ = [
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
    "expected_rates",
    "valid_interval_types",
    "asymptotic_limits_1d",
    "AsymptoticLimits1D",
]

# the package's one rule for a short sum, of Python floats (from an int 0, as
# builtin sum added before Python 3.12) or of arrays over their first axis:
# index order, (a + b) + c. The only long sums are numpy's pairwise add.reduce
# (a bp chunk's mean and M2, the census's per-type replicate mean and SD) and
# the one exactly rounded math.fsum over the terms of specfun.hyp3f2
_sum = partial(reduce, operator.add)


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


def _check_simplex_dims(j: int, k: int, n: int) -> None:
    _check_dims(k, n)
    if not 0 <= j <= k:
        raise ValueError(f"need 0 <= j <= k, got j={j}, k={k}")


# B_2j / (2j (2j - 1)) for j = 1..8: the coefficients of the Stirling series
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)


def _stirling_series(z: float) -> float:
    """log Gamma(z) - (z - 1/2) log z + z - log(2 pi) / 2, for z >= 10."""
    w = 1.0 / (z * z)
    series = 0.0
    for coefficient in reversed(_STIRLING):
        series = coefficient + w * series
    return series / z


def _log_gamma_ratio(x: float, h: float) -> float:
    """log Gamma(x) - log Gamma(x - h), for h of either sign.

    Two lgamma values of size x log x would cancel to about h log x; from
    argument 10 on, the Stirling expansions are subtracted term by term
    instead, so the result keeps its own relative accuracy at every x.
    """
    if min(x, x - h) < 10.0:
        return math.log(math.gamma(x) / math.gamma(x - h))
    return (
        h * math.log(x) - (x - h - 0.5) * math.log1p(-h / x) - h
        + _stirling_series(x) - _stirling_series(x - h)
    )


@lru_cache(maxsize=None)
def critical_vertex_constant(k: int, n: int) -> float:
    """Constant C[0,0; k,n] = sigma_(n-k) Gamma(1 - k/n) / (n nu_n^(1 - k/n)),
    evaluated as Gamma(1 - k/n) Gamma(n/2) / (Gamma((n-k)/2) Gamma(n/2 + 1)^(k/n))."""
    _check_dims(k, n)
    # the ratio Gamma((n-k)/2) / Gamma(n/2) makes C[0,0; 1,2] exactly 1
    return math.gamma(1.0 - k / n) / math.exp(
        _log_gamma_ratio((n - k) / 2.0, -k / 2.0) + k / n * math.lgamma(n / 2.0 + 1.0)
    )


@lru_cache(maxsize=None)
def vertex_edge_pair_constant(k: int, n: int) -> float:
    """Constant C[0,1; k,n] = C[0,0; k,n] k (n-k) / (n (k+1))
    3F2(1/2, 1, (k-n+2)/2; (k+3)/2, (n+2)/2; 1).

    Valid for every 1 <= k < n; the 3F2 argument is z = 1, where the series
    converges for all n > 0 (and terminates when n - k is even).
    """
    _check_dims(k, n)
    series = specfun.hyp3f2(0.5, 1.0, (k - n + 2.0) / 2.0, (k + 3.0) / 2.0, (n + 2.0) / 2.0)
    if series <= 0.0:
        raise ArithmeticError(f"3F2 sum must be positive, got {series}")
    return critical_vertex_constant(k, n) * k * (n - k) / (n * (k + 1.0)) * series


@lru_cache(maxsize=None)
def critical_edge_constant(k: int, n: int) -> float:
    """Constant C[1,1; k,n] as a binomial sum of Gamma-ratio products.

    With x = n/2 + 1, a_i = (i+1)/2 and b_i = (k-i+1)/2 it is Gamma(2 - k/n)
    / (n Gamma(k/2) Gamma(x)^(k/n)) times the sum over i = 0..k of
    binom(k, i) Gamma(a_i) Gamma(b_i) Gamma(x)^2 / (Gamma(x - a_i) Gamma(x - b_i)).
    """
    _check_dims(k, n)
    x = n / 2.0 + 1.0
    log_scale = -k / n * math.lgamma(x)

    def term(a: float, b: float) -> float:
        ratios = _log_gamma_ratio(x, a) + _log_gamma_ratio(x, b)
        return math.gamma(a) * math.gamma(b) * math.exp(ratios + log_scale)

    terms = (math.comb(k, i) * term((i + 1.0) / 2.0, (k - i + 1.0) / 2.0) for i in range(k + 1))
    return math.gamma(2.0 - k / n) / (n * math.gamma(k / 2.0)) * _sum(terms, 0)


def angle_bracket(n: int) -> float:
    """2 Gamma(n-1) / Gamma(n-1/2) - Gamma((n-1)/2) / Gamma(n/2), the bracket of
    the two-angle integral's closed form sqrt(pi) / (n-1) * bracket."""
    return 2.0 * math.exp(-_log_gamma_ratio(n - 0.5, 0.5)) - math.exp(
        -_log_gamma_ratio(n / 2.0, 0.5)
    )


@lru_cache(maxsize=None)
def top_simplex_constant(k: int, n: int) -> float:
    """Constant D_k[k,n]: expected top-dimensional simplices per unit rho^(k/n) volume.

    Closed form for every 1 <= k < n via the Crofton route, not limited to
    k <= 2. With x = n/2 + 1 and X = (kn + n - k)/2 it is 2^(k+1)
    pi^((k-1)/2) Gamma((k+1)/2) Gamma(k+1 - k/n) / (n Gamma(k+2) Gamma(x)^(k/n))
    times Gamma(X + 1/2) / Gamma(X) times (Gamma(x) / Gamma(x - 1/2))^(k+1).
    """
    _check_dims(k, n)
    x = n / 2.0 + 1.0
    big = (k * n + n - k) / 2.0
    ratios = (
        _log_gamma_ratio(big + 0.5, 0.5)
        + (k + 1.0) * _log_gamma_ratio(x, 0.5)
        - _log_gamma_ratio(k + 2.0, 1.0 + k / n)
        - k / n * math.lgamma(x)
    )
    scale = 2.0 ** (k + 1) * math.pi ** ((k - 1.0) / 2.0) * math.gamma((k + 1.0) / 2.0)
    return scale / n * math.exp(ratios)


def interval_constant(t: IntervalType | tuple[int, int], k: int, n: int) -> float:
    """Constant C[ell, m; k, n] for k in {1, 2}.

    Type (0, 1) is the hypergeometric form at both k. The rest of k = 1 is the
    critical-vertex constant; k = 2 adds the Beta-sum form, the Euler
    relation, the planar triangles = 2 * vertices relation, and the
    top-simplex constant.
    """
    if not isinstance(t, IntervalType):
        t = IntervalType(*t)
    _check_dims(k, n)
    if k not in (1, 2):
        raise ValueError(f"closed-form interval constants exist only for k in {{1, 2}}, got k={k}")
    if t.m > k:
        raise ValueError(f"type {t} cannot occur in a {k}-dimensional mosaic")
    if t == IntervalType(0, 1):
        return vertex_edge_pair_constant(k, n)
    if k == 1:
        return critical_vertex_constant(1, n)  # types (0, 0) and (1, 1)
    c00 = critical_vertex_constant(2, n)
    if t == IntervalType(0, 0):
        return c00
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


def _simplex_share(j: int, m: int, k: int, n: int) -> float:
    """sum_{ell=0..j} binom(m-ell, m-j) C[ell,m;k,n], the m-th term of D_j[k,n]."""
    terms = (math.comb(m - ell, m - j) * interval_constant((ell, m), k, n) for ell in range(j + 1))
    return _sum(terms, 0)


def simplex_constant(j: int, k: int, n: int) -> float:
    """Constant D_j[k,n] = sum_{m=j..k} sum_{ell=0..j} binom(m-ell, m-j) C[ell,m;k,n]."""
    _check_simplex_dims(j, k, n)
    return _sum((_simplex_share(j, m, k, n) for m in range(j, k + 1)), 0)


def _gamma_fraction(shape: float, n: int, rho: float, r0: float) -> float:
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError(f"density must be positive, got rho={rho}")
    if not r0 >= 0:
        raise ValueError(f"radius threshold must be non-negative, got {r0}")
    # rho nu_n r0^n in logs: r0 = 0 gives P = 0, r0 = inf or an overflow P = 1
    with np.errstate(divide="ignore", over="ignore"):
        x = np.exp(math.log(rho) + log_ball_volume(n) + n * np.log(r0))
    return float(special.gammainc(shape, x))


def expected_interval_count(
    t: IntervalType | tuple[int, int],
    k: int,
    n: int,
    rho: float,
    area: float,
    r0: float = math.inf,
) -> float:
    """Expected number of type-(ell, m) intervals with anchor in a region of
    k-volume ``area`` and radius at most ``r0``."""
    if not isinstance(t, IntervalType):
        t = IntervalType(*t)
    if not area > 0:
        raise ValueError(f"area must be positive, got {area}")
    # the constant first: it refuses an n with none before n divides
    constant = interval_constant(t, k, n)
    return constant * _gamma_fraction(t.m + 1.0 - k / n, n, rho, r0) * rho ** (k / n) * area


def expected_simplex_count(
    j: int, k: int, n: int, rho: float, area: float, r0: float = math.inf
) -> float:
    """Expected number of j-simplices with anchor in a region of k-volume
    ``area`` and radius at most ``r0`` (a Gamma mixture across upper-bound
    dimensions m)."""
    _check_simplex_dims(j, k, n)
    if not area > 0:
        raise ValueError(f"area must be positive, got {area}")
    terms = (
        _gamma_fraction(m + 1.0 - k / n, n, rho, r0) * _simplex_share(j, m, k, n)
        for m in range(j, k + 1)
    )
    return _sum(terms, 0) * rho ** (k / n) * area


def expected_rates(k: int, n: int, rho: float, area: float, r0: float) -> list[float]:
    """Expected counts of radius at most ``r0`` per unit rho^(k/n) ``area``: one
    per type in ``valid_interval_types(k)`` order, then one per simplex
    dimension j = 0..k."""
    counts = [expected_interval_count(t, k, n, rho, area, r0) for t in valid_interval_types(k)]
    counts += [expected_simplex_count(j, k, n, rho, area, r0) for j in range(k + 1)]
    norm = rho ** (k / n) * area  # after the counts, which refuse an n <= k
    return [count / norm for count in counts]


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
        c01 = vertex_edge_pair_constant(1, n)
        values[n] = (c00, c01, c00 + c01)
    sqrt_e = math.sqrt(math.e)
    return AsymptoticLimits1D(
        critical_vertex_limit=sqrt_e,
        pair_limit=sqrt_e * (math.sqrt(2.0) - 1.0),
        vertex_count_limit=math.sqrt(2.0 * math.e),
        values=values,
    )
