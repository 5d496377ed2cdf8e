"""Tests for the Monte Carlo experiments and identity checks."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from anchormosaic import experiments, sampler, specfun
from anchormosaic.errors import InsufficientSampleError
from anchormosaic.sampler import SamplingConfig


def cfg_1d(**overrides):
    base = dict(n=2, rho=1.0, window=((0.0, 200.0),), buffer=2.3, seed=3)
    base.update(overrides)
    return SamplingConfig(**base)


def cfg_2d(**overrides):
    base = dict(n=3, rho=1.0, window=((0.0, 7.0), (0.0, 7.0)), buffer=1.7, seed=3)
    base.update(overrides)
    return SamplingConfig(**base)


class TestEstimateRates:
    def test_zero_threshold_gives_zero_counts(self):
        report = experiments.estimate_interval_rates(cfg_1d(), replicates=2, r0=0.0)
        assert all(r.count_mean == 0.0 for r in report.interval_rates)
        assert all(r.count_mean == 0.0 for r in report.simplex_rates)

    def test_1d_rates_close_to_predictions(self):
        report = experiments.estimate_interval_rates(cfg_1d(), replicates=6)
        for rate in report.interval_rates + report.simplex_rates:
            assert abs(rate.z) < 4.0, rate

    def test_2d_rates_close_to_predictions(self):
        report = experiments.estimate_interval_rates(cfg_2d(), replicates=6)
        for rate in report.interval_rates + report.simplex_rates:
            assert abs(rate.z) < 4.0, rate

    def test_density_invariance_of_rates(self):
        reports = []
        for rho in (0.5, 1.0, 2.0):
            cfg = cfg_1d(rho=rho, seed=9)
            cfg = dataclasses.replace(cfg, buffer=sampler.choose_buffer(cfg, 1 - 1e-6))
            reports.append(experiments.estimate_interval_rates(cfg, replicates=6))
        for idx in range(3):
            rates = [r.interval_rates[idx] for r in reports]
            predicted = rates[0].predicted
            for rate in rates:
                assert rate.predicted == pytest.approx(predicted, rel=1e-12)
                assert abs(rate.rate - predicted) < 3.5 * max(rate.se, 2e-3)

    def test_small_buffer_warns(self):
        with pytest.warns(UserWarning):
            experiments.estimate_interval_rates(cfg_1d(buffer=0.5), replicates=1)

    @pytest.mark.parametrize("k", [1, 2])
    def test_scale_equivariance_per_sample(self, k):
        # scaling all coordinates by s and then translating within the plane
        # scales every radius by s, moves every anchor along, and leaves the
        # simplices and the interval census unchanged
        from anchormosaic import geomcore, mosaic1d, mosaic2d

        def decompose(cloud):
            if k == 1:
                return mosaic1d.radius_and_intervals_1d(mosaic1d.build_1d(cloud, (0, 1)))
            y, w = geomcore.slice_cloud(cloud, 2)
            tri = mosaic2d.regular_triangulation(y, w)
            return mosaic2d.radius_and_intervals_2d(tri, mosaic2d.power_dual(tri))

        rng = np.random.default_rng(4)
        side = 20.0 if k == 1 else 6.0
        cloud = np.column_stack([rng.uniform(0, side, (60, k)), rng.uniform(0, 2.2, 60)])
        scale, shift = 2.5, np.array([-7.25, 3.5])[:k]
        moved = cloud * scale
        moved[:, :k] += shift
        base, other = decompose(cloud), decompose(moved)

        def census(mosaic):
            return sorted(
                (iv.type.ell, iv.type.m, iv.members) for iv in mosaic.intervals
            )

        assert base.vertices.tolist() == other.vertices.tolist()
        assert census(base) == census(other)
        row = {s: r for r, s in enumerate(other.simplices)}
        moved_rows = [row[s] for s in base.simplices]
        np.testing.assert_allclose(other.radii[moved_rows], base.radii * scale, rtol=1e-9)
        np.testing.assert_allclose(
            other.anchors[moved_rows], base.anchors * scale + shift, rtol=1e-9, atol=1e-9
        )

    def test_reconcile_counts_exact(self):
        report = experiments.estimate_interval_rates(cfg_2d(seed=8), replicates=4)
        result = experiments.reconcile_simplex_counts(report)
        assert result.ok, result.failures
        report1 = experiments.estimate_interval_rates(cfg_1d(seed=8), replicates=4)
        result1 = experiments.reconcile_simplex_counts(report1)
        assert result1.ok, result1.failures

    @pytest.mark.parametrize(
        "n,window,intervals,simplices",
        [
            (2, ((0.0, 1000.0),), {(0, 0): 1021, (0, 1): 262, (1, 1): 1021}, {0: 1283, 1: 1283}),
            (
                3,
                ((0.0, 20.0), (0.0, 20.0)),
                {(0, 0): 433, (0, 1): 111, (0, 2): 41, (1, 1): 997, (1, 2): 573, (2, 2): 561},
                {0: 585, 1: 1763, 2: 1175},
            ),
        ],
    )
    def test_census_pinned_at_acceptance_seeds(self, n, window, intervals, simplices):
        # replicate 0 of the criterion-6 and criterion-7 configurations; the
        # in-window census must not move under refactors of the decomposition
        cfg = SamplingConfig(n=n, rho=1.0, window=window, buffer=1.0, seed=2025)
        cfg = dataclasses.replace(cfg, buffer=sampler.choose_buffer(cfg, 1 - 1e-6))
        record = experiments.run_replicate(cfg, 0)
        assert record.interval_counts() == intervals
        assert record.simplex_counts() == simplices

    @pytest.mark.parametrize("r0", ["median", "inf"])
    def test_counts_match_counter_over_rows(self, r0):
        # the bincount census against a Counter over the same rows, on
        # replicate 0 of the criterion-7 configuration
        cfg = SamplingConfig(
            n=3, rho=1.0, window=((0.0, 20.0), (0.0, 20.0)), buffer=1.0, seed=2025
        )
        cfg = dataclasses.replace(cfg, buffer=sampler.choose_buffer(cfg, 1 - 1e-6))
        record = experiments.run_replicate(cfg, 0)
        r0 = float(np.median(record.interval_radii)) if r0 == "median" else math.inf
        iv = record.interval_in_window & (record.interval_radii <= r0)
        sx = record.simplex_in_window & (record.simplex_radii <= r0)
        intervals = Counter((int(ell), int(m)) for ell, m in record.interval_types[iv])
        simplices = Counter(int(j) for j in record.simplex_dims[sx])
        assert record.interval_counts(r0) == dict(intervals)
        assert record.simplex_counts(r0) == dict(simplices)
        assert all(type(ell) is int and type(m) is int for ell, m in record.interval_counts(r0))

    def test_counts_of_empty_record(self):
        record = experiments._empty_record(0, 2)
        assert record.interval_counts() == {}
        assert record.simplex_counts() == {}

    def test_1d_critical_counts_balance(self):
        # critical vertices and edges alternate, so window counts differ by O(1)
        report = experiments.estimate_interval_rates(cfg_1d(seed=12), replicates=5)
        for rec in report.records:
            counts = rec.interval_counts()
            assert abs(counts.get((0, 0), 0) - counts.get((1, 1), 0)) <= 1


class TestKSGammaTest:
    def test_calibration_on_synthetic_radii(self):
        # radii drawn exactly from the target law must pass
        rng = np.random.default_rng(5)
        shape, n, rate = 0.5, 2, math.pi
        radii = (rng.gamma(shape, 1.0, size=5000) / rate) ** (1.0 / n)
        p = experiments.ks_gamma_test(radii, shape, rate, n)
        assert p > 0.01

    def test_power_against_mis_specified_shape(self):
        rng = np.random.default_rng(6)
        shape, n, rate = 0.5, 2, math.pi
        radii = (rng.gamma(shape, 1.0, size=10_000) / rate) ** (1.0 / n)
        p_wrong = experiments.ks_gamma_test(radii, shape + 0.5, rate, n)
        assert p_wrong < 0.01

    def test_insufficient_sample(self):
        with pytest.raises(InsufficientSampleError):
            experiments.ks_gamma_test(np.ones(50), 0.5, 1.0, 2)

    def test_matches_per_radius_reference(self):
        # the vectorised transform against the scalar incomplete Gamma series
        rng = np.random.default_rng(8)
        shape, n, rate = 0.5, 2, math.pi
        radii = (rng.gamma(shape, 1.0, size=2000) / rate) ** (1.0 / n)
        reference = np.array(
            [specfun.regularized_lower_gamma(shape, rate * r**n) for r in radii]
        )
        p_ref = float(stats.kstest(reference, "uniform").pvalue)
        p = experiments.ks_gamma_test(radii, shape, rate, n)
        assert p == pytest.approx(p_ref, rel=1e-12)

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_invalid_radius_rejected(self, bad):
        radii = np.linspace(0.1, 2.0, 200)
        radii[17] = bad
        with pytest.raises(ValueError):
            experiments.ks_gamma_test(radii, 0.5, math.pi, 3)

    def test_mosaic_radii_follow_gamma_law(self):
        report = experiments.estimate_interval_rates(
            cfg_1d(window=((0.0, 600.0),), seed=21), replicates=2, collect_radii=True
        )
        radii = report.radii_by_type[(0, 0)]
        assert radii.size > 400
        p = experiments.ks_gamma_test(radii, 1.0 - 1.0 / 2.0, math.pi, 2)
        assert p > 0.01


class TestBPIdentity:
    @pytest.mark.parametrize("n,k,m", [(2, 1, 1), (3, 2, 1), (3, 2, 2), (2, 2, 2)])
    def test_gaussian_sides_agree(self, n, k, m):
        check = experiments.verify_bp_identity(n, k, m, samples=300_000, seed=0)
        assert check.left == pytest.approx(check.analytic, rel=1e-9)
        assert check.right == pytest.approx(check.analytic, rel=0.02)

    def test_gaussian_left_is_exact(self):
        check = experiments.verify_bp_identity(2, 1, 1, samples=10_000, seed=1)
        assert check.left_ci[0] == pytest.approx(check.left_ci[1], abs=1e-9)
        assert check.analytic == pytest.approx(math.pi**2, rel=1e-12)

    def test_gaussian_left_is_exact_across_chunks(self):
        # chunks of 3000, 3000, 3000 and 1000 exercise the moment merge
        check = experiments.verify_bp_identity(2, 1, 1, samples=10_000, seed=1, chunk=3_000)
        assert check.left_ci[0] == pytest.approx(check.left_ci[1], abs=1e-9)

    def test_merged_moments_match_two_pass(self):
        # a large offset with a unit spread: E[x^2] - mean^2 loses every digit
        # of the variance here, a two-pass reference keeps them
        x = 1e8 + np.random.default_rng(5).standard_normal(10_001)
        moments = (0, 0.0, 0.0)
        for part in np.split(x, [1, 2_500, 2_501, 7_777]):
            moments = experiments._merge_moments(moments, experiments._moments(part))
        count, mean, m2 = moments
        assert count == x.size
        assert mean == pytest.approx(np.mean(x), rel=1e-15)
        assert m2 / count == pytest.approx(np.var(x, ddof=0), rel=1e-9)

    def test_point_case_matches_sphere_measure(self):
        # m = 0: the right side reduces to an exact one-point quadrature
        check = experiments.verify_bp_identity(3, 1, 0, samples=50_000, seed=2)
        assert check.right == pytest.approx(check.analytic, rel=1e-9)

    def test_bump_function_sides_agree(self):
        check = experiments.verify_bp_identity(
            2, 1, 1, test_function="bump", samples=400_000, seed=2
        )
        assert check.left == pytest.approx(check.analytic, rel=0.02)
        assert check.right == pytest.approx(check.analytic, rel=0.03)
        assert check.overlap

    def test_validation(self):
        with pytest.raises(ValueError):
            experiments.verify_bp_identity(2, 3, 1)
        with pytest.raises(ValueError):
            experiments.verify_bp_identity(6, 2, 1)  # sphere dimension too high
        with pytest.raises(ValueError):
            experiments.verify_bp_identity(2, 1, 1, test_function="what")


class TestAngleIntegral:
    def test_closed_form_at_two(self):
        check = experiments.verify_angle_integral(2)
        assert check.closed_form == pytest.approx(4.0 - math.pi, rel=1e-12)
        assert check.abs_error < 1e-10

    @pytest.mark.parametrize("n", [3, 4, 7, 12])
    def test_quadrature_matches(self, n):
        check = experiments.verify_angle_integral(n)
        assert check.abs_error < 1e-8

    def test_symmetry_of_integrand(self):
        # swapping the two angles leaves the integral unchanged
        from scipy import integrate

        n = 5

        def upper(b, a):
            return (math.sin(a) * math.sin(b)) ** (n - 2) * abs(
                math.cos(b) - math.cos(a)
            )

        lower_half, _ = integrate.dblquad(upper, 0, math.pi / 2, 0, lambda a: a)
        upper_half, _ = integrate.dblquad(
            upper, 0, math.pi / 2, lambda a: a, math.pi / 2
        )
        assert lower_half == pytest.approx(upper_half, rel=1e-8)


class TestGammaLemma:
    def test_identity_holds(self):
        check = experiments.verify_gamma_lemma(draws=100, seed=0)
        assert check.passed
        assert check.max_rel_error < 1e-9


class TestBetaLaw:
    def test_half_dim_parameters_accepted(self):
        check = experiments.verify_beta_projection_law(4, 2, samples=20_000, seed=0)
        assert check.p_half_dims > 0.01
        assert check.p_fraction_dims < 0.01
        assert check.passed

    def test_other_dimensions(self):
        check = experiments.verify_beta_projection_law(5, 1, samples=20_000, seed=1)
        assert check.p_half_dims > 0.01
