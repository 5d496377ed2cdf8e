"""Monte Carlo interval rates against the closed-form constants.

Runs seeded replicates of the full pipeline (sample, slice, mosaic,
intervals), aggregates per-type rates with standard errors, attaches
z-scores against the predictions, and audits the exact per-replicate
reconciliation between simplex counts and interval counts.
"""

import sys

from anchormosaic import experiments
from anchormosaic.sampler import SamplingConfig


def run(cfg, replicates, label):
    report = experiments.estimate_interval_rates(cfg, replicates=replicates)
    print(f"\n{label} (buffer {cfg.buffer:.2f}, {replicates} replicates)")
    # the wall-clock time differs from run to run, so it stays off stdout
    print(f"{label}: runtime {report.runtime:.1f}s", file=sys.stderr)
    print(f"  {'type':>14} {'rate':>8} {'se':>8} {'predicted':>10} {'z':>6}")
    rows = [(f"interval({r.ell},{r.m})", r) for r in report.interval_rates]
    rows += [(f"simplex-{r.ell}", r) for r in report.simplex_rates]
    for name, rate in rows:
        print(f"  {name:>14} {rate.rate:>8.4f} {rate.se:>8.4f} "
              f"{rate.predicted:>10.4f} {rate.z:>+6.2f}")
    audit = experiments.reconcile_simplex_counts(report)
    print(f"  simplex/interval reconciliation exact: {audit.ok}")


run(
    SamplingConfig(n=2, rho=1.0, window=((0.0, 500.0),), seed=7),
    replicates=10,
    label="k=1 slice of a planar Poisson process",
)
run(
    SamplingConfig(n=3, rho=1.0, window=((0.0, 15.0), (0.0, 15.0)), seed=7),
    replicates=10,
    label="k=2 slice of a spatial Poisson process",
)
run(
    SamplingConfig(n=5, rho=1.0, window=((0.0, 300.0),), seed=7),
    replicates=10,
    label="k=1 slice of a 5-dimensional Poisson process",
)
