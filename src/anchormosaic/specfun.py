"""Special functions that ``scipy.special`` lacks and the paper needs.

Provides the generalized hypergeometric sum 3F2 at unit argument, behind
the vertex-edge constant C[0,1; k,n]. The regularized incomplete Gamma and
Beta functions, their complements and inverses come from ``scipy.special``
wherever the package needs them. All functions are pure and safe for
concurrent use.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, IterationLimitError

__all__ = [
    "hyp3f2",
]

_HYP3F2_MAX_TERMS = 1_000_000
_HYP3F2_RELTOL = 1e-14


def _require_finite(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and float(x).is_integer()


def hyp3f2(a1: float, a2: float, a3: float, b1: float, b2: float) -> float:
    """Generalized hypergeometric sum 3F2(a1, a2, a3; b1, b2; 1) at unit argument.

    The series terminates exactly when some upper parameter is a non-positive
    integer. For a non-terminating series the sufficient convergence
    condition b1 + b2 > a1 + a2 + a3 is enforced; the polynomially decaying
    tail is summed with a first-order asymptotic remainder estimate once all
    terms have settled to a fixed sign.
    """
    _require_finite(a1=a1, a2=a2, a3=a3, b1=b1, b2=b2)
    for name, b in (("b1", b1), ("b2", b2)):
        if _is_nonpositive_integer(b):
            raise ValueError(f"{name} must not be a non-positive integer, got {b}")

    uppers = (a1, a2, a3)
    terminating = any(_is_nonpositive_integer(a) for a in uppers)
    psi = b1 + b2 - (a1 + a2 + a3)
    if not terminating and psi <= 0.0:
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
        term *= num / ((j + b1) * (j + b2) * (j + 1.0))
        total += term
        if j + 1 <= sign_fix:
            # alternating regime: the remainder is bounded by the next term
            if 4.0 * abs(term) <= _HYP3F2_RELTOL * abs(total):
                streak += 1
                if streak >= 3:
                    return total
            else:
                streak = 0
        else:
            # fixed-sign regime: terms decay like j^-(psi+1), so the
            # remainder is approximately term * (j+1)/psi with O(1/j) error
            tail = term * (j + 1.0) / psi
            if 8.0 * abs(tail) <= _HYP3F2_RELTOL * abs(total) * (j + 1.0):
                return total + tail
    raise IterationLimitError(
        f"3F2 series hit the {_HYP3F2_MAX_TERMS}-term cap for parameters "
        f"({a1}, {a2}, {a3}; {b1}, {b2}; 1)"
    )
