"""Write ``constants_reference.py``: C[0,0], C[0,1], C[1,1] and D_k to 30 digits.

Run by hand (it needs mpmath, which the package and its tests do not):

    python tests/make_constants_reference.py

Each value comes from the paper's own form, written with the unit sphere
surface sigma_d and ball volume nu_d, not from the reduced Gamma-ratio forms
that ``anchormosaic.constants`` evaluates. Every row is computed at 60 and at
120 digits, and the two must agree far past the 30 digits written.

The 3F2 series of C[0,1] is summed by its term-ratio recurrence until a term
falls below 10^-(dps + 10) of the sum. Where the terms reach their fixed sign
first (n - k odd and n small, so that they decay only like j^-(n+1)), the
rest is left to ``mpmath.nsum``. ``mpmath.hyp3f2`` is not used: at z = 1 it
is wrong by far more than 30 digits on some of these series.
"""

from pathlib import Path

import mpmath as mp

K_N = [
    (k, n)
    for k in (1, 2, 3)
    for n in [*range(k + 1, 14), 50, 100, 10**3, 10**4, 10**5, 10**6]
]
DIGITS = 30
OUT = Path(__file__).with_name("constants_reference.py")


def sphere(d):
    return 2 * mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2)


def ball(d):
    return sphere(d) / d


def series(k, n):
    """3F2(1/2, 1, (k-n+2)/2; (k+3)/2, (n+2)/2; 1)."""
    a3 = mp.mpf(k - n + 2) / 2
    b1, b2 = mp.mpf(k + 3) / 2, mp.mpf(n + 2) / 2
    half = mp.mpf(1) / 2
    small = mp.mpf(10) ** -(mp.mp.dps + 10)
    total, term, j = mp.mpf(1), mp.mpf(1), 0
    # (1)_j cancels j!, so the ratio of term j+1 to term j has three factors
    while abs(term) >= small * abs(total):
        if j + a3 > 0:  # every factor positive from here on: a slow tail
            return total + mp.nsum(
                lambda i: mp.rf(half, i) * mp.rf(a3, i) / (mp.rf(b1, i) * mp.rf(b2, i)),
                [j + 1, mp.inf],
            )
        term *= (j + half) * (j + a3) / ((j + b1) * (j + b2))
        total += term
        j += 1
    return total


def c00(k, n):
    return sphere(n - k) * mp.gamma(1 - mp.mpf(k) / n) / (n * ball(n) ** (1 - mp.mpf(k) / n))


def c01(k, n):
    ratio = 2 - mp.mpf(k) / n
    return (
        sphere(n - k + 1) ** 2 * sphere(k) * mp.gamma(ratio)
        / (4 * n * ball(n) ** ratio)
        * mp.factorial(k) * mp.gamma(mp.mpf(n - k + 1) / 2) ** 2
        / (2**k * mp.sqrt(mp.pi) * mp.gamma(mp.mpf(n - k) / 2))
        * series(k, n) / (mp.gamma(mp.mpf(k + 3) / 2) * mp.gamma(mp.mpf(n + 2) / 2))
    )


def c11(k, n):
    ratio = 2 - mp.mpf(k) / n
    half = mp.mpf(n - k) / 2
    beta_sum = mp.fsum(
        mp.binomial(k, i) * mp.beta(half, mp.mpf(i + 1) / 2) * mp.beta(half, mp.mpf(k - i + 1) / 2)
        for i in range(k + 1)
    )
    return (
        sphere(n - k + 1) ** 2 * sphere(k) * mp.gamma(ratio)
        / (8 * n * ball(n) ** ratio * mp.beta(half, mp.mpf(1) / 2) ** 2)
        * beta_sum
    )


def top_simplex(k, n):
    big = mp.mpf(k * n + n - k) / 2
    return (
        sphere(1) * sphere(n + 1) / (sphere(k + 1) * sphere(n - k + 1))
        * 2 ** (k + 1) * mp.pi ** (mp.mpf(k) / 2) / (n * mp.factorial(k + 1))
        * mp.gamma(big + mp.mpf(1) / 2) / mp.gamma(big)
        * mp.gamma(mp.mpf(n + 2) / 2) ** (k + 1 - mp.mpf(k) / n)
        / mp.gamma(mp.mpf(n + 1) / 2) ** k
        * mp.gamma(k + 1 - mp.mpf(k) / n) / mp.gamma(mp.mpf(n - k + 1) / 2)
    )


FORMS = (c00, c01, c11, top_simplex)


def main():
    rows = []
    for k, n in K_N:
        values = []
        for form in FORMS:
            mp.mp.dps = 60
            low = form(k, n)
            mp.mp.dps = 120
            value = form(k, n)
            assert abs(low / value - 1) < mp.mpf(10) ** -45, (form.__name__, k, n)
            values.append(f'"{mp.nstr(value, DIGITS, strip_zeros=False)}"')
        rows.append(f"    ({k}, {n}): ({', '.join(values)}),\n")
    OUT.write_text(
        '"""C[0,0], C[0,1], C[1,1] and D_k to 30 significant digits, written by\n'
        'make_constants_reference.py from the paper\'s sphere-and-ball forms."""\n'
        "\n"
        "# (k, n): (C[0,0; k,n], C[0,1; k,n], C[1,1; k,n], D_k[k,n])\n"
        "REFERENCE = {\n" + "".join(rows) + "}\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    main()
