"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary lines. Every tolerance is fixed here; nothing is calibrated at
runtime.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from anchormosaic import constants, experiments, sampler
from anchormosaic.sampler import SamplingConfig

from oracles import build, interval_violations, random_cloud
from test_constants import MISPRINTED_2D, TABLE_1D, TABLE_2D, TYPES_2D


def _clear_constant_caches():
    constants.critical_vertex_constant.cache_clear()
    constants.vertex_edge_pair_constant.cache_clear()
    constants.critical_edge_constant.cache_clear()
    constants.top_simplex_constant.cache_clear()
    constants._pair_constant_1d.cache_clear()


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_01_table_1d_closed_form():
    _clear_constant_caches()
    start = time.perf_counter()
    worst = 0.0
    for n in list(range(2, 10)) + [20]:
        c00, c01, d0 = TABLE_1D[n]
        worst = max(
            worst,
            abs(constants.interval_constant((0, 0), 1, n) - c00),
            abs(constants.interval_constant((0, 1), 1, n) - c01),
            abs(constants.simplex_constant(0, 1, n) - d0),
        )
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 0.005 and elapsed < 1.0,
        f"1d table, max deviation {worst:.4f} (<= 0.005), runtime {elapsed:.3f}s (< 1s)",
    )


def test_criterion_02_table_2d_closed_form():
    _clear_constant_caches()
    start = time.perf_counter()
    worst = 0.0
    worst_misprinted = 0.0
    for n in list(range(3, 11)) + [20]:
        row = TABLE_2D[n]
        for (ell, m), want in zip(TYPES_2D, row[:6]):
            got = constants.interval_constant((ell, m), 2, n)
            if (ell, m, n) in MISPRINTED_2D:
                worst_misprinted = max(worst_misprinted, abs(got - want))
            else:
                worst = max(worst, abs(got - want))
        for j, want in enumerate(row[6:]):
            worst = max(worst, abs(constants.simplex_constant(j, 2, n) - want))
    elapsed = time.perf_counter() - start
    # Three printed entries are provably inconsistent with the table's own
    # linear relations (see test_constants.TestTable2D); for them the exact
    # constants sit within one unit of the last printed digit.
    report(
        2,
        worst <= 0.005 and worst_misprinted <= 0.011 and elapsed < 1.0,
        f"2d table, max deviation {worst:.4f} (<= 0.005) on consistent entries, "
        f"{worst_misprinted:.4f} (<= 0.011) on the 3 misprinted entries, "
        f"runtime {elapsed:.3f}s (< 1s)",
    )


def test_criterion_03_asymptotic_limits():
    lim = constants.asymptotic_limits_1d()
    targets = (lim.critical_vertex_limit, lim.pair_limit, lim.vertex_count_limit)
    assert targets[0] == pytest.approx(math.sqrt(math.e), rel=1e-14)
    assert targets[1] == pytest.approx(math.sqrt(math.e) * (math.sqrt(2) - 1), rel=1e-14)
    assert targets[2] == pytest.approx(math.sqrt(2 * math.e), rel=1e-14)
    gaps = {
        n: [abs(v - t) for v, t in zip(vals, targets)] for n, vals in lim.values.items()
    }
    monotone = all(gaps[100][i] > gaps[1000][i] > gaps[10000][i] for i in range(3))
    final = max(gaps[10000])
    report(
        3,
        monotone and final < 0.01,
        f"limits sqrt(e), sqrt(e)(sqrt(2)-1), sqrt(2e); monotone={monotone}, "
        f"final gap {final:.2e} (< 0.01)",
    )


def test_criterion_04_exact_identities():
    worst_euler = worst_planar = 0.0
    for n in range(3, 51):
        c = {t: constants.interval_constant(t, 2, n) for t in TYPES_2D}
        worst_euler = max(
            worst_euler, abs(c[(0, 0)] - c[(1, 1)] + c[(2, 2)]) / c[(1, 1)]
        )
        triangles = c[(0, 2)] + c[(1, 2)] + c[(2, 2)]
        vertices = c[(0, 0)] + c[(0, 1)] + c[(0, 2)]
        worst_planar = max(worst_planar, abs(triangles - 2 * vertices) / triangles)
    worst_1d = 0.0
    for n in range(2, 21):
        pair_1d = constants.interval_constant((0, 1), 1, n)
        crit_1d = constants.interval_constant((0, 0), 1, n)
        worst_1d = max(
            worst_1d,
            abs(constants.vertex_edge_pair_constant(1, n) - pair_1d) / pair_1d,
            abs(constants.critical_edge_constant(1, n) - crit_1d) / crit_1d,
            abs(constants.critical_vertex_constant(1, n) - crit_1d) / crit_1d,
        )
    report(
        4,
        worst_euler <= 1e-10 and worst_planar <= 1e-10 and worst_1d <= 1e-10,
        f"euler {worst_euler:.2e}, planar 2:1 {worst_planar:.2e}, "
        f"1d specialization {worst_1d:.2e} (all <= 1e-10)",
    )


def test_criterion_05_power_exp_integral_identity():
    check = experiments.verify_gamma_lemma(draws=100, seed=2024)
    report(
        5,
        check.passed,
        f"power-exponential integral vs quadrature on {check.draws} draws, "
        f"max rel err {check.max_rel_error:.2e} (<= 1e-9)",
    )


def test_criterion_06_monte_carlo_1d():
    start = time.perf_counter()
    cfg = SamplingConfig(n=2, rho=1.0, window=((0.0, 1000.0),), buffer=1.0, seed=2025)
    cfg = dataclasses.replace(cfg, buffer=sampler.choose_buffer(cfg, 1 - 1e-6))
    rep = experiments.estimate_interval_rates(cfg, replicates=20)
    lines = []
    ok = True
    for rate in rep.interval_rates:
        z_ok = abs(rate.rate - rate.predicted) <= 3.0 * rate.se
        rel_ok = abs(rate.rate - rate.predicted) / rate.predicted < 0.05
        ok &= z_ok and rel_ok
        lines.append(f"({rate.ell},{rate.m}) z={rate.z:+.2f} rel={abs(rate.rate - rate.predicted) / rate.predicted:.3%}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    report(6, ok, f"1d rates {'; '.join(lines)}; runtime {elapsed:.1f}s (< 120s)")


def test_criterion_07_monte_carlo_2d():
    start = time.perf_counter()
    cfg = SamplingConfig(
        n=3, rho=1.0, window=((0.0, 20.0), (0.0, 20.0)), buffer=1.0, seed=2025
    )
    cfg = dataclasses.replace(cfg, buffer=sampler.choose_buffer(cfg, 1 - 1e-6))
    rep = experiments.estimate_interval_rates(cfg, replicates=20)
    lines = []
    ok = True
    for rate in rep.interval_rates:
        z_ok = abs(rate.rate - rate.predicted) <= 3.0 * rate.se
        rel_ok = abs(rate.rate - rate.predicted) / rate.predicted < 0.10
        ok &= z_ok and rel_ok
        lines.append(f"({rate.ell},{rate.m}) z={rate.z:+.2f} rel={abs(rate.rate - rate.predicted) / rate.predicted:.3%}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 600.0
    report(7, ok, f"2d rates {'; '.join(lines)}; runtime {elapsed:.1f}s (< 600s)")


def test_criterion_08_gamma_law_of_radii():
    results = []
    ok = True
    for n, k, window, seed in [
        (2, 1, ((0.0, 11000.0),), 808),
        (3, 2, ((0.0, 52.0), (0.0, 52.0)), 2025),
    ]:
        cfg = SamplingConfig(n=n, rho=1.0, window=window, buffer=1.0, seed=seed)
        cfg = dataclasses.replace(cfg, buffer=sampler.choose_buffer(cfg, 1 - 1e-9))
        reps = 1 if k == 1 else 4
        rep = experiments.estimate_interval_rates(cfg, replicates=reps, collect_radii=True)
        radii = rep.radii_by_type[(0, 0)]
        shape = 1.0 - k / n
        rate_scale = cfg.rho * constants.ball_volume(n)
        p_good = experiments.ks_gamma_test(radii, shape, rate_scale, n)
        p_bad = experiments.ks_gamma_test(radii, shape + 0.5, rate_scale, n)
        ok &= radii.size >= 10_000 and p_good > 0.01 and p_bad < 0.01
        results.append(
            f"(n,k)=({n},{k}) samples={radii.size} p={p_good:.3f} (>0.01) "
            f"mis-specified p={p_bad:.1e} (<0.01)"
        )
    report(8, ok, "; ".join(results))


def test_criterion_09_bp_identities():
    lines = []
    ok = True
    for n, k, m in [(2, 1, 1), (3, 2, 2), (3, 2, 1)]:
        check = experiments.verify_bp_identity(
            n, k, m, test_function="gaussian", samples=10**7, seed=0, chunk=500_000
        )
        ok &= check.overlap
        lines.append(
            f"({n},{k},{m}) right={check.right:.4g} vs analytic={check.analytic:.4g} "
            f"overlap={check.overlap}"
        )
    full = experiments.verify_bp_identity(
        2, 2, 2, test_function="gaussian", samples=10**7, seed=0, chunk=500_000
    )
    ok &= full.right_covers_analytic
    lines.append(
        f"m=k=n=2 right={full.right:.5g} covers pi^3={full.analytic:.5g}: "
        f"{full.right_covers_analytic}"
    )
    report(9, ok, "; ".join(lines))


def _audit(rng, k: int) -> list[str]:
    """One criterion-10 instance of 10-500 points over a k-box: the shared
    invariant audit, and in 1-D the alternation of interior criticals."""
    size = int(rng.integers(10, 501))
    if k == 1:
        side = max(size / 1.27, 4.0)
        cloud, margin = random_cloud(rng, size, 1, side, (0, 2.5)), 0.15 * side
    else:
        side = max(math.sqrt(size / 1.46), 2.0)
        cloud, margin = random_cloud(rng, size, 2, side, (-1.5, 1.5)), 0.22 * side
    interior = [(margin, side - margin)] * k
    mosaic = build(cloud, k)
    failures = [f"{k}d {v}" for v in interval_violations(mosaic, cloud, interior)]
    if k == 1:
        lo, hi = interior[0]
        ordered = sorted(
            (iv for iv in mosaic.intervals if lo <= iv.sphere.anchor[0] < hi),
            key=lambda iv: iv.sphere.anchor[0],
        )
        criticals = [iv.type for iv in ordered if iv.type.ell == iv.type.m]
        failures += ["1d alternation"] * sum(a == b for a, b in zip(criticals, criticals[1:]))
    return failures


def test_criterion_10_per_sample_audits():
    start = time.perf_counter()
    rng = np.random.default_rng(31415)
    failures: list[str] = []
    for instance in range(1000):
        failures += _audit(rng, 1 + instance % 2)
    elapsed = time.perf_counter() - start
    report(
        10,
        not failures,
        f"1000 instances audited, {len(failures)} violations "
        f"{sorted(set(failures))[:4]}; runtime {elapsed:.0f}s",
    )
