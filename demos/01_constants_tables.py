"""Closed-form constants for sliced Poisson mosaics.

Prints the expected-count constants per unit rho^(k/n) * |R| for the
one- and two-dimensional mosaics, together with the n -> infinity limits of
the one-dimensional constants. These are the numbers that the Monte Carlo
demos reproduce empirically.
"""

import math

from anchormosaic import constants

print("One-dimensional mosaic (k = 1): intervals per unit length")
print(f"{'n':>6} {'C[0,0]':>8} {'C[0,1]':>8} {'C[1,1]':>8} {'D_0':>8}")
for n in list(range(2, 10)) + [20, 100]:
    c00 = constants.interval_constant((0, 0), 1, n)
    c01 = constants.interval_constant((0, 1), 1, n)
    c11 = constants.interval_constant((1, 1), 1, n)
    d0 = constants.simplex_constant(0, 1, n)
    print(f"{n:>6} {c00:>8.4f} {c01:>8.4f} {c11:>8.4f} {d0:>8.4f}")

lim = constants.asymptotic_limits_1d()
print("\nn -> infinity limits:")
print(f"  critical vertices -> sqrt(e)            = {lim.critical_vertex_limit:.6f}")
print(f"  pairs             -> sqrt(e)(sqrt(2)-1) = {lim.pair_limit:.6f}")
print(f"  vertices          -> sqrt(2e)           = {lim.vertex_count_limit:.6f}")
for n, (c00, c01, d0) in lim.values.items():
    print(f"  at n = {n:>6}: gaps {abs(c00 - lim.critical_vertex_limit):.2e}, "
          f"{abs(c01 - lim.pair_limit):.2e}, {abs(d0 - lim.vertex_count_limit):.2e}")

print("\nTwo-dimensional mosaic (k = 2): intervals per unit area")
header = [f"C{t}" for t in ["(0,0)", "(0,1)", "(0,2)", "(1,1)", "(1,2)", "(2,2)"]]
print(f"{'n':>6} " + " ".join(f"{h:>8}" for h in header) + f" {'D_0':>8} {'D_1':>8} {'D_2':>8}")
for n in list(range(3, 11)) + [20]:
    order = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    cells = [constants.interval_constant(t, 2, n) for t in order]
    ds = [constants.simplex_constant(j, 2, n) for j in range(3)]
    print(f"{n:>6} " + " ".join(f"{c:>8.4f}" for c in cells) + " "
          + " ".join(f"{d:>8.4f}" for d in ds))

print("\nExact relations (n = 5):")
c = {t: constants.interval_constant(t, 2, 5) for t in [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]}
print(f"  Euler:  C(0,0) - C(1,1) + C(2,2) = {c[(0,0)] - c[(1,1)] + c[(2,2)]:+.2e}")
tri = c[(0, 2)] + c[(1, 2)] + c[(2, 2)]
ver = c[(0, 0)] + c[(0, 1)] + c[(0, 2)]
print(f"  planar 2:1: triangles / vertices = {tri / ver:.12f}")

print("\nRadius-thresholded expectation, k=2, n=3, rho=1, area=400:")
for r0 in (0.2, 0.5, 1.0, math.inf):
    counts = [constants.expected_interval_count(t, 2, 3, 1.0, 400.0, r0)
              for t in [(0, 0), (1, 1), (2, 2)]]
    label = "inf" if math.isinf(r0) else f"{r0:.1f}"
    print(f"  r0 = {label:>4}: criticals " + ", ".join(f"{v:8.2f}" for v in counts))
