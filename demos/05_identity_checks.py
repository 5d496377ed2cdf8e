"""Numerical verification of the analytic identities behind the constants.

Checks, per run: the sphere-parametrization integral identity (a Monte
Carlo right side against the closed-form left side), the two-angle integral
against its closed form (quadrature), the expected interval and simplex
counts against quadrature of the radius density on random draws (the Gamma
lemma), the Gamma law of critical-vertex radii
(Kolmogorov-Smirnov), and the Beta law of projected sphere points.
"""

import dataclasses
import math

from anchormosaic import constants, experiments, sampler
from anchormosaic.sampler import SamplingConfig

print("sphere-parametrization identity, Gaussian test function, 1e6 samples:")
for n, k, m in [(2, 1, 1), (3, 2, 1), (3, 2, 2), (2, 2, 2)]:
    check = experiments.verify_bp_identity(n, k, m, samples=10**6, seed=0)
    print(f"  (n,k,m)=({n},{k},{m}): left={check.left:10.4f}  "
          f"right={check.right:10.4f} +- {(check.right_ci[1] - check.right):7.4f}  "
          f"analytic={check.analytic:10.4f}  CI overlap: {check.passed}")

print("\ntwo-angle integral vs closed form:")
for n in (2, 3, 6, 10):
    check = experiments.verify_angle_integral(n)
    note = "  (= 4 - pi)" if n == 2 else ""
    print(f"  n={n}: quadrature {check.quadrature:.10f}  "
          f"closed {check.closed_form:.10f}  err {check.abs_error:.1e}{note}")

print("\nGamma lemma: expected counts vs radius-density quadrature, 100 random draws:")
lemma = experiments.verify_gamma_lemma(draws=100, seed=1)
print(f"  max relative error {lemma.max_rel_error:.2e} (tolerance {lemma.tolerance:.0e})")

print("\nGamma law of critical-vertex radii (KS test):")
cfg = SamplingConfig(n=2, rho=1.0, window=((0.0, 3000.0),), seed=5)
cfg = dataclasses.replace(cfg, buffer=sampler.choose_buffer(cfg, 1 - 1e-8))
report = experiments.estimate_interval_rates(cfg, replicates=4, collect_radii=True)
radii = report.radii_by_type[(0, 0)]
p_good = experiments.ks_gamma_test(radii, 0.5, math.pi, 2)
p_bad = experiments.ks_gamma_test(radii, 1.0, math.pi, 2)
print(f"  {radii.size} radii, shape 1 - k/n = 0.5: p = {p_good:.3f}")
print(f"  deliberately mis-specified shape 1.0:  p = {p_bad:.2e} (rejected)")

print("\nBeta law of the squared projected norm of a uniform sphere point:")
check = experiments.verify_beta_projection_law(4, 2, samples=30_000, seed=2)
print(f"  Beta(k/2, (n-k)/2):  p = {check.p_half_dims:.3f} (accepted)")
print(f"  Beta(k/n, (n-k)/n):  p = {check.p_fraction_dims:.2e} (rejected)")
