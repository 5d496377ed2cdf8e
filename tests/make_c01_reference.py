"""Write ``c01_reference.py``: C[0,1; k,n] to 30 significant digits.

Run by hand (it needs mpmath, which the package and its tests do not):

    python tests/make_c01_reference.py

The 3F2 series of the hypergeometric closed form is summed with
``mpmath.nsum`` at 60 and at 120 digits, and the two values must agree far
past the 30 digits written. ``mpmath.hyp3f2`` is not used: at z = 1 it is
wrong by far more than 30 digits on some of these series. At k = 1 each value
is also checked against the two-angle integral's closed form, a route that
has no 3F2.
"""

import math
from pathlib import Path

import mpmath as mp

K_N = [(k, n) for k in (1, 2) for n in [*range(k + 1, 14), 50, 100, 1000]]
DIGITS = 30
OUT = Path(__file__).with_name("c01_reference.py")


def sphere(d):
    return 2 * mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2)


def series(k, n):
    """3F2(1/2, 1, (k-n+2)/2; (k+3)/2, (n+2)/2; 1)."""
    a3 = mp.mpf(k - n + 2) / 2
    b1, b2 = mp.mpf(k + 3) / 2, mp.mpf(n + 2) / 2

    def term(j):
        j = int(j)
        return (
            mp.rf(mp.mpf(1) / 2, j) * mp.rf(a3, j)
            / (mp.rf(b1, j) * mp.rf(b2, j))
        )  # (1)_j cancels j!

    if (n - k) % 2 == 0:  # a3 is a non-positive integer: the series terminates
        return mp.fsum(term(j) for j in range((n - k) // 2))
    # exact head through the alternating terms, nsum on the fixed-sign tail
    head = math.ceil(-a3) + 1
    return mp.fsum(term(j) for j in range(head)) + mp.nsum(term, [head, mp.inf])


def pair_constant(k, n):
    ratio = 2 - mp.mpf(k) / n
    return (
        sphere(n - k + 1) ** 2 * sphere(k) * mp.gamma(ratio)
        / (4 * n * (sphere(n) / n) ** ratio)
        * mp.factorial(k) * mp.gamma(mp.mpf(n - k + 1) / 2) ** 2
        / (2**k * mp.sqrt(mp.pi) * mp.gamma(mp.mpf(n - k) / 2))
        * series(k, n) / (mp.gamma(mp.mpf(k + 3) / 2) * mp.gamma(mp.mpf(n + 2) / 2))
    )


def angle_pair_constant(n):
    """C[0,1; 1,n] from sqrt(pi) / (n-1) times the two-angle bracket."""
    ratio = 2 - mp.mpf(1) / n
    bracket = 2 * mp.gamma(n - 1) / mp.gamma(n - mp.mpf(1) / 2) - mp.gamma(
        mp.mpf(n - 1) / 2
    ) / mp.gamma(mp.mpf(n) / 2)
    return (
        sphere(n - 1) ** 2 * mp.sqrt(mp.pi) * mp.gamma(ratio)
        / (n * (n - 1) * (sphere(n) / n) ** ratio) * bracket
    )


def main():
    rows = []
    for k, n in K_N:
        mp.mp.dps = 60
        low = pair_constant(k, n)
        mp.mp.dps = 120
        value = pair_constant(k, n)
        assert abs(low / value - 1) < mp.mpf(10) ** -50, (k, n)
        if k == 1:
            assert abs(angle_pair_constant(n) / value - 1) < mp.mpf(10) ** -100, n
        rows.append(f'    ({k}, {n}): "{mp.nstr(value, DIGITS, strip_zeros=False)}",\n')
    OUT.write_text(
        '"""C[0,1; k,n] to 30 significant digits, written by make_c01_reference.py."""\n'
        "\n"
        "# (k, n): C[0,1; k,n]\n"
        "C01_REFERENCE = {\n" + "".join(rows) + "}\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    main()
