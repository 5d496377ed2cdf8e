"""Self-contained special-function kernel.

Provides the regularized lower incomplete Gamma function, (incomplete) Beta
functions, the generalized hypergeometric sum 3F2, and the closed form of the
power-exponential integral

    int_0^{t0} t^(j-1) exp(-c t^p) dt.

Everything here is plain ``math``-module scalar arithmetic; all functions are
pure and safe for concurrent use.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, IterationLimitError

__all__ = [
    "regularized_lower_gamma",
    "beta_fn",
    "beta_inc",
    "hyp3f2",
    "power_exp_integral",
]

_MAX_GAMMA_ITER = 10_000
_MAX_BETA_ITER = 10_000
_HYP3F2_MAX_TERMS = 1_000_000
_HYP3F2_RELTOL = 1e-14
_TINY = 1e-300


def _require_finite(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def regularized_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete Gamma function P(a, x) = gamma(a, x) / Gamma(a).

    Uses the power series for x < a + 1 and the Lentz continued fraction for
    the complementary function otherwise. P is monotone non-decreasing in x,
    with P(a, 0) = 0 and P(a, x) -> 1 as x -> inf.
    """
    _require_finite(a=a, x=x)
    if a <= 0.0:
        raise ValueError(f"shape parameter must be positive, got a={a}")
    if x < 0.0:
        raise ValueError(f"argument must be non-negative, got x={x}")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _lower_gamma_series(a, x)
    return 1.0 - _upper_gamma_cf(a, x)


def _gamma_prefactor(a: float, x: float) -> float:
    # x^a e^{-x} / Gamma(a), assembled in log space
    return math.exp(a * math.log(x) - x - math.lgamma(a))


def _lower_gamma_series(a: float, x: float) -> float:
    # P(a,x) = x^a e^{-x}/Gamma(a) * sum_{i>=0} x^i / (a (a+1) ... (a+i))
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_GAMMA_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-16:
            return total * _gamma_prefactor(a, x)
    raise IterationLimitError(
        f"incomplete Gamma series did not converge for a={a}, x={x}"
    )


def _upper_gamma_cf(a: float, x: float) -> float:
    # Q(a,x) via the standard even-odd continued fraction, modified Lentz method
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b if b != 0.0 else 1.0 / _TINY
    h = d
    for i in range(1, _MAX_GAMMA_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h * _gamma_prefactor(a, x)
    raise IterationLimitError(
        f"incomplete Gamma continued fraction did not converge for a={a}, x={x}"
    )


def beta_fn(a: float, b: float) -> float:
    """Complete Beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b)."""
    _require_finite(a=a, b=b)
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"Beta parameters must be positive, got a={a}, b={b}")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def beta_inc(t0: float, a: float, b: float) -> float:
    """Incomplete Beta integral int_0^{t0} t^(a-1) (1-t)^(b-1) dt (not regularized).

    Satisfies beta_inc(1, a, b) = beta_fn(a, b) and is monotone in t0.
    """
    _require_finite(t0=t0, a=a, b=b)
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"Beta parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= t0 <= 1.0:
        raise ValueError(f"upper limit must lie in [0, 1], got t0={t0}")
    return _regularized_beta_inc(t0, a, b) * beta_fn(a, b)


def _regularized_beta_inc(x: float, a: float, b: float) -> float:
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _beta_cf(a: float, b: float, x: float) -> float:
    # continued fraction for the regularized incomplete Beta, modified Lentz method
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_BETA_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise IterationLimitError(
        f"incomplete Beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and float(x).is_integer()


def hyp3f2(a1: float, a2: float, a3: float, b1: float, b2: float, z: float) -> float:
    """Generalized hypergeometric sum 3F2(a1, a2, a3; b1, b2; z) for real z in [0, 1].

    The series terminates exactly when some upper parameter is a non-positive
    integer. For non-terminating series at z = 1 the sufficient convergence
    condition b1 + b2 > a1 + a2 + a3 is enforced; the polynomially decaying
    tail is summed with a first-order asymptotic remainder estimate once all
    terms have settled to a fixed sign.
    """
    _require_finite(a1=a1, a2=a2, a3=a3, b1=b1, b2=b2, z=z)
    for name, b in (("b1", b1), ("b2", b2)):
        if _is_nonpositive_integer(b):
            raise ValueError(f"{name} must not be a non-positive integer, got {b}")
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"argument must lie in [0, 1], got z={z}")
    if z == 0.0:
        return 1.0

    uppers = (a1, a2, a3)
    terminating = any(_is_nonpositive_integer(a) for a in uppers)
    psi = b1 + b2 - (a1 + a2 + a3)
    if z == 1.0 and not terminating and psi <= 0.0:
        raise ConvergenceError(
            "3F2 series diverges at z=1: requires b1 + b2 > a1 + a2 + a3, "
            f"got {b1 + b2} <= {a1 + a2 + a3}"
        )
    # index after which every factor (j + a_i) keeps a fixed sign
    sign_fix = max([0] + [math.ceil(-a) for a in uppers if a < 0.0])

    total = 1.0
    term = 1.0
    streak = 0
    for j in range(_HYP3F2_MAX_TERMS):
        num = (j + a1) * (j + a2) * (j + a3)
        if num == 0.0:
            return total  # terminating series: all later terms vanish
        term *= num * z / ((j + b1) * (j + b2) * (j + 1.0))
        total += term
        if z < 1.0:
            if abs(term) <= _HYP3F2_RELTOL * abs(total) * (1.0 - z):
                streak += 1
                if streak >= 3:
                    return total
            else:
                streak = 0
        elif j + 1 <= sign_fix:
            # alternating regime: the remainder is bounded by the next term
            if 4.0 * abs(term) <= _HYP3F2_RELTOL * abs(total):
                streak += 1
                if streak >= 3:
                    return total
            else:
                streak = 0
        else:
            # fixed-sign regime at z=1: terms decay like j^-(psi+1), so the
            # remainder is approximately term * (j+1)/psi with O(1/j) error
            tail = term * (j + 1.0) / psi
            if 8.0 * abs(tail) <= _HYP3F2_RELTOL * abs(total) * (j + 1.0):
                return total + tail
    raise IterationLimitError(
        f"3F2 series hit the {_HYP3F2_MAX_TERMS}-term cap for parameters "
        f"({a1}, {a2}, {a3}; {b1}, {b2}; {z})"
    )


def power_exp_integral(j: float, p: float, c: float, t0: float) -> float:
    """Closed form of int_0^{t0} t^(j-1) exp(-c t^p) dt.

    For p > 0 this equals gamma(j/p, c t0^p) / (p c^(j/p)); for p < 0 the
    substitution reverses orientation and the upper incomplete Gamma function
    appears instead. Requires j/p > 0 and c > 0; t0 may be ``math.inf``.
    """
    _require_finite(j=j, p=p, c=c)
    if p == 0.0:
        raise ValueError("exponent p must be nonzero")
    if c <= 0.0:
        raise ValueError(f"scale c must be positive, got c={c}")
    if not t0 > 0.0:
        raise ValueError(f"upper limit must be positive, got t0={t0}")
    a = j / p
    if a <= 0.0:
        raise ValueError(f"j/p must be positive, got {a}")
    x = c * t0**p if math.isfinite(t0) else (math.inf if p > 0 else 0.0)
    if math.isinf(x):
        frac = 1.0
    elif p > 0:
        frac = regularized_lower_gamma(a, x)
    else:
        frac = 1.0 - regularized_lower_gamma(a, x)
    return frac * math.exp(math.lgamma(a) - a * math.log(c)) / abs(p)
