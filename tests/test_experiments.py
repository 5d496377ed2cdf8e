"""Tests for the Monte Carlo experiments and identity checks."""

import dataclasses
import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy import special, stats

from anchormosaic import constants, experiments, sampler
from anchormosaic.errors import InsufficientSampleError
from anchormosaic.sampler import SamplingConfig

from oracles import beta_fn, beta_inc, regularized_lower_gamma


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

    def test_json_config_is_the_report_config(self):
        cfg = cfg_2d(seed=5)
        report = experiments.estimate_interval_rates(cfg, replicates=3, r0=0.9)
        config = json.loads(experiments.report_to_json(report))["config"]
        assert config == {
            "n": cfg.n, "k": cfg.k, "rho": cfg.rho,
            "window": [list(side) for side in cfg.window],
            "buffer": cfg.buffer, "seed": cfg.seed, "replicates": 3, "r0": 0.9,
        }
        assert config["replicates"] == len(report.records)
        assert report.cfg is cfg

    def test_1d_critical_counts_balance(self):
        # critical vertices and edges alternate, so window counts differ by O(1)
        report = experiments.estimate_interval_rates(cfg_1d(seed=12), replicates=5)
        for rec in report.records:
            counts = rec.interval_counts()
            assert abs(counts.get((0, 0), 0) - counts.get((1, 1), 0)) <= 1


class TestOneCensusPath:
    @pytest.mark.parametrize(
        "n,window", [(2, ((0.0, 1000.0),)), (3, ((0.0, 20.0), (0.0, 20.0)))]
    )
    def test_adapter_route_agrees(self, n, window):
        # replicate 0 of the criterion-6 and criterion-7 configurations, once
        # through run_replicate and once through the per-k adapters
        from anchormosaic import geomcore, mosaic1d, mosaic2d

        cfg = SamplingConfig(n=n, rho=1.0, window=window, buffer=1.0, seed=2025)
        cfg = dataclasses.replace(cfg, buffer=sampler.choose_buffer(cfg, 1 - 1e-6))
        record = experiments.run_replicate(cfg, 0)
        points = sampler.sample_poisson_box(cfg)
        if n == 2:
            halfplane = mosaic1d.rotate_to_halfplane(points)
            mosaic = mosaic1d.radius_and_intervals_1d(mosaic1d.build_1d(halfplane, window[0]))
        else:
            y, w = geomcore.slice_cloud(points, 2)
            tri = mosaic2d.regular_triangulation(y, w)
            mosaic = mosaic2d.radius_and_intervals_2d(tri, mosaic2d.power_dual(tri))
        types = np.column_stack([mosaic.dims[mosaic.lower], mosaic.dims[mosaic.upper]])
        radii = mosaic.radii[mosaic.upper]
        in_window = experiments._window_mask(mosaic.anchors[mosaic.upper], window)

        adapter_counts = Counter(map(tuple, types[in_window].tolist()))
        assert record.interval_counts() == dict(adapter_counts)
        for ell, m in set(adapter_counts) | set(map(tuple, types.tolist())):
            mine = record.interval_radii[(record.interval_types == (ell, m)).all(axis=1)]
            theirs = radii[(types == (ell, m)).all(axis=1)]
            np.testing.assert_allclose(np.sort(mine), np.sort(theirs), rtol=1e-12, atol=0)

    def test_adapter_route_solves_duals_once(self, monkeypatch):
        # power_dual defers its solve; the decomposition makes the only one
        from anchormosaic import geomcore, mosaic2d

        calls = []
        solve = geomcore.dual_vertices

        def counted(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(geomcore, "dual_vertices", counted)
        monkeypatch.setattr(mosaic2d, "dual_vertices", counted)
        y, w = geomcore.slice_cloud(np.random.default_rng(7).uniform(0, 10, (200, 3)), 2)
        tri = mosaic2d.regular_triangulation(y, w)
        mosaic = mosaic2d.radius_and_intervals_2d(tri, mosaic2d.power_dual(tri))
        assert len(calls) == 1
        assert mosaic.anchors[mosaic.dims == 2].shape == (len(tri.triangles), 2)

    @pytest.mark.parametrize("seed,points,rows", [(3, 1, 1), (14, 2, 3)])
    def test_sparse_planar_sample_is_recorded(self, seed, points, rows):
        # one or two generators span one simplex; only an empty sample gives
        # an empty record
        window = ((0.0, 0.5), (0.0, 0.5))
        cfg = SamplingConfig(n=3, rho=0.05, window=window, buffer=1.0, seed=seed)
        record = experiments.run_replicate(cfg, 0)
        assert record.num_points == points
        assert len(record.simplex_dims) == rows

    def test_k3_hull_builds_and_the_decomposition_names_k(self):
        from anchormosaic import geomcore

        cfg = SamplingConfig(n=4, rho=1.0, window=((0.0, 4.0),) * 3, buffer=1.41, seed=0)
        points = sampler.sample_poisson_box(cfg)
        assert len(points) == 852
        _, _, facets = geomcore.lower_hull(*geomcore.slice_cloud(points, 3))
        assert facets.shape == (3168, 4)
        with pytest.raises(ValueError, match="k=3"):
            experiments.run_replicate(cfg, 0)


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
            [regularized_lower_gamma(shape, rate * r**n) for r in radii]
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
        # (3,2,2) has the noisiest right side: at 1.2e6 samples its SE is
        # about 0.5%, so the 2% bound sits near 4 SE (1.9 SE at 3e5)
        samples = 1_200_000 if (n, k, m) == (3, 2, 2) else 300_000
        check = experiments.verify_bp_identity(n, k, m, samples=samples, seed=0)
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

    # float.hex of (left, left_ci, right, right_ci) at samples=30_000,
    # chunk=7_000, seed=3; the last chunk of 2_000 rows is uneven
    PINNED = {
        (2, 1, 1, "gaussian"): (
            "0x1.3bd3cc9be45dep+3", ("0x1.3bd3cc9be45dep+3", "0x1.3bd3cc9be45dep+3"),
            "0x1.3b9b9380f8552p+3", ("0x1.37693db99e525p+3", "0x1.3fcde9485257fp+3"),
        ),
        (3, 2, 2, "gaussian"): (
            "0x1.594e658cd8e71p+7", ("0x1.594e658cd8e71p+7", "0x1.594e658cd8e71p+7"),
            "0x1.5ea96991060fbp+7", ("0x1.4abf481622bf2p+7", "0x1.72938b0be9604p+7"),
        ),
        (3, 2, 1, "gaussian"): (
            "0x1.f019b59389d7bp+4", ("0x1.f019b59389d7bp+4", "0x1.f019b59389d7bp+4"),
            "0x1.f0e3057e3d5b9p+4", ("0x1.e8348dea050e7p+4", "0x1.f9917d1275a8bp+4"),
        ),
        (2, 2, 2, "gaussian"): (
            "0x1.f019b59389d7bp+4", ("0x1.f019b59389d7bp+4", "0x1.f019b59389d7bp+4"),
            "0x1.ee77940ba3471p+4", ("0x1.e4dbce3bc59c0p+4", "0x1.f81359db80f22p+4"),
        ),
        (2, 1, 1, "bump"): (
            "0x1.1a6d3b25f2c6fp+0", ("0x1.145ca93a39e11p+0", "0x1.207dcd11abacdp+0"),
            "0x1.1eda15c234248p+0", ("0x1.1493aaf1a10f5p+0", "0x1.29208092c739bp+0"),
        ),
        (3, 1, 0, "gaussian"): (
            "0x1.645f7c63f2c6bp+2", ("0x1.645f7c63f2c6bp+2", "0x1.645f7c63f2c6bp+2"),
            "0x1.645f7c63f2c6cp+2", ("0x1.645f7c63f2c6cp+2", "0x1.645f7c63f2c6cp+2"),
        ),
    }

    @pytest.mark.parametrize("case", list(PINNED), ids=lambda c: "{}-{}-{}-{}".format(*c))
    def test_bp_bits_pinned(self, case):
        # the sampler's RNG stream and its arithmetic are fixed bit for bit
        n, k, m, kind = case
        check = experiments.verify_bp_identity(
            n, k, m, test_function=kind, samples=30_000, chunk=7_000, seed=3
        )
        got = (
            check.left.hex(), tuple(v.hex() for v in check.left_ci),
            check.right.hex(), tuple(v.hex() for v in check.right_ci),
        )
        assert got == self.PINNED[case]

    def test_point_case_has_full_effective_sample_size(self):
        # m = 0: every right-side weight is the same constant
        check = experiments.verify_bp_identity(3, 1, 0, samples=20_000, seed=4, chunk=7_000)
        assert check.right_ess == 20_000
        assert check.right_nonfinite == 0

    @pytest.mark.parametrize("n,k,m", [(2, 1, 1), (3, 2, 2), (3, 2, 1), (2, 2, 2)])
    def test_weight_health_of_criterion_triples(self, n, k, m):
        check = experiments.verify_bp_identity(n, k, m, samples=20_000, seed=5)
        assert check.right_nonfinite == 0
        assert 0.0 < check.right_ess < check.samples

    def test_validation(self):
        with pytest.raises(ValueError):
            experiments.verify_bp_identity(2, 3, 1)
        with pytest.raises(ValueError):
            experiments.verify_bp_identity(6, 2, 1)  # sphere dimension too high
        with pytest.raises(ValueError):
            experiments.verify_bp_identity(2, 1, 1, test_function="what")


def _jacobian(r, u, k, n):
    # one row of the bp kernel's vectorised Jacobian
    u = np.asarray(u, dtype=float)[None]
    return float(np.exp(experiments._log_sphere_jacobian(np.array([r]), u, k, n))[0])


class TestBPJacobian:
    def test_planar_two_angle_form(self):
        # k = 1, n = 2: the Jacobian is r^2 |cos(b) - cos(a)|
        a, b, r = 0.0, math.pi / 2, 2.0
        u = np.array([[math.cos(a), math.sin(a)], [math.cos(b), math.sin(b)]])
        assert _jacobian(r, u, 1, 2) == pytest.approx(4.0, rel=1e-14)

    def test_degenerate_projection(self):
        u = np.array(
            [
                [0.6, 0.0, 0.8],
                [0.6, 0.0, -0.8],
                [0.6, 0.0, 0.8],
            ]
        )
        assert _jacobian(1.5, u, 2, 3) == 0.0

    def test_full_dimension_reduces_to_classical(self):
        # k = n: the projected simplex is the simplex itself
        rng = np.random.default_rng(12)
        u = rng.normal(size=(3, 2))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        vol2 = abs(np.linalg.det(u[1:] - u[0]))  # 2! * area
        r = 1.7
        assert _jacobian(r, u, 2, 2) == pytest.approx(r**3 * vol2, rel=1e-12)

    def test_against_finite_difference_determinant(self):
        # oracle: central finite differences of the parametrization
        # (y, r, local sphere charts) -> point tuple, with tangent charts that
        # are orthonormal at the evaluation point
        rng = np.random.default_rng(4)
        k, n = 2, 3
        u = rng.normal(size=(k + 1, n))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        y = rng.uniform(-1, 1, size=k)
        r = 1.3

        tangents = []
        for i in range(k + 1):
            basis, _ = np.linalg.qr(
                np.column_stack([u[i], rng.normal(size=(n, n - 1))])
            )
            tangents.append(basis[:, 1:])

        def chart(params):
            yy = params[:k]
            rr = params[k]
            out = np.empty((k + 1) * n)
            for i in range(k + 1):
                t = params[k + 1 + i * (n - 1) : k + 1 + (i + 1) * (n - 1)]
                ui = u[i] + tangents[i] @ t
                ui = ui / np.linalg.norm(ui)
                point = rr * ui
                point[:k] += yy
                out[i * n : (i + 1) * n] = point
            return out

        dim = (k + 1) * n
        params0 = np.concatenate([y, [r], np.zeros((k + 1) * (n - 1))])
        step = 1e-5
        jac = np.empty((dim, dim))
        for col in range(dim):
            lo, hi = params0.copy(), params0.copy()
            lo[col] -= step
            hi[col] += step
            jac[:, col] = (chart(hi) - chart(lo)) / (2 * step)
        oracle = abs(np.linalg.det(jac))
        assert _jacobian(r, u, k, n) == pytest.approx(oracle, rel=1e-4)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_closed_form_matches_determinant(self, m):
        # k = m, n = m + 1 and r = 1: the log Jacobian is log m! Vol_m(u');
        # both sides round to a few ulps of the Hadamard bound prod |e_i|
        rng = np.random.default_rng(20 + m)
        u = rng.normal(size=(2_000, m + 1, m + 1))
        u /= np.linalg.norm(u, axis=2, keepdims=True)
        edges = u[:, 1:, :m] - u[:, :1, :m]
        ref = np.abs(np.linalg.det(edges))
        got = np.exp(experiments._log_sphere_jacobian(np.ones(len(u)), u, m, m + 1))
        hadamard = np.prod(np.linalg.norm(edges, axis=2), axis=1)
        assert np.all(np.abs(got - ref) <= 1e-12 * hadamard)
        well_posed = ref >= 1e-3 * hadamard
        assert np.count_nonzero(well_posed) > 1_900
        np.testing.assert_allclose(got[well_posed], ref[well_posed], rtol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_degenerate_rows_give_minus_inf(self, m):
        # u'_1 = u'_0: the projected simplex has no m-volume
        rng = np.random.default_rng(30 + m)
        u = rng.normal(size=(5, m + 1, m + 1))
        u[:, 1] = u[:, 0]
        u /= np.linalg.norm(u, axis=2, keepdims=True)
        log_j = experiments._log_sphere_jacobian(np.full(5, 1.3), u, m, m + 1)
        assert np.all(log_j == -np.inf)


def _mean_cosine(kappa, d):
    # A_d(kappa), the mean cosine to the center of a vMF draw on S^(d-1)
    if kappa == 0.0:
        return 0.0
    if d == 2:
        return special.i1e(kappa) / special.i0e(kappa)
    return 1.0 / math.tanh(kappa) - 1.0 / kappa


def _unit_rows(rng, count, d):
    x = rng.standard_normal((count, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestSampleVMF:
    # one call with every rung of the kappa ladder, kappa = 0 included
    PER_KAPPA = 20_000

    def _draw(self, rng, centers):
        kappa = np.repeat(experiments._KAPPA_LADDER, self.PER_KAPPA)
        draws = experiments._sample_vmf(rng, centers, kappa)
        np.testing.assert_allclose(np.linalg.norm(draws, axis=1), 1.0, rtol=1e-14)
        return draws.reshape(len(experiments._KAPPA_LADDER), self.PER_KAPPA, -1)

    @pytest.mark.parametrize("d", [2, 3])
    def test_mean_cosine_per_kappa(self, d):
        rng = np.random.Generator(np.random.Philox(key=11))
        count = len(experiments._KAPPA_LADDER) * self.PER_KAPPA
        centers = _unit_rows(rng, count, d)
        draws = self._draw(rng, centers)
        cosines = np.einsum("kcj,kcj->kc", draws, centers.reshape(draws.shape))
        for kappa, cos in zip(experiments._KAPPA_LADDER, cosines):
            se = np.std(cos) / math.sqrt(cos.size)
            assert abs(np.mean(cos) - _mean_cosine(kappa, d)) < 4.0 * se, kappa

    @pytest.mark.parametrize(
        "center", [(0.6, 0.8), (0.6, 0.0, 0.8), (0.96, 0.28, 0.0)], ids=str
    )
    def test_mean_draw_per_kappa(self, center):
        # E[x] = A_d(kappa) c: a biased azimuth moves the tangential mean; the
        # second 3-D center builds its tangent frame from the other axis
        rng = np.random.Generator(np.random.Philox(key=12))
        d = len(center)
        count = len(experiments._KAPPA_LADDER) * self.PER_KAPPA
        draws = self._draw(rng, np.tile(center, (count, 1)))
        for kappa, x in zip(experiments._KAPPA_LADDER, draws):
            se = np.std(x, axis=0) / math.sqrt(len(x))
            expected = _mean_cosine(kappa, d) * np.array(center)
            assert np.all(np.abs(np.mean(x, axis=0) - expected) < 4.0 * se), kappa

    @pytest.mark.parametrize("d", [2, 3])
    def test_component_frequencies(self, d, monkeypatch):
        # the per-row kappas that _sphere_mixture asks for follow _MIX_PROBS
        drawn = []
        sample = experiments._sample_vmf

        def spy(rng, centers, kappa):
            drawn.append(kappa)
            return sample(rng, centers, kappa)

        monkeypatch.setattr(experiments, "_sample_vmf", spy)
        experiments._sphere_mixture(np.random.Generator(np.random.Philox(key=13)), 100_000, 2, d)
        kappa = np.concatenate(drawn)
        counts = [np.count_nonzero(kappa == k) for k in experiments._KAPPA_LADDER]
        assert sum(counts) == kappa.size == 200_000
        assert stats.chisquare(counts, experiments._MIX_PROBS * kappa.size).pvalue > 1e-3


def _log_vmf_pdf(cos_angle, kappa, d):
    if d == 2:
        return kappa * (cos_angle - 1.0) - np.log(2.0 * math.pi * special.i0e(kappa))
    log_norm = (
        math.log(kappa) - math.log(2.0 * math.pi) - math.log1p(-math.exp(-2.0 * kappa))
    )
    return kappa * (cos_angle - 1.0) + log_norm


def _full_log_density(cos_angle, d):
    # reference: the defensive term plus all 16 vMF terms on every row
    probs = np.array([0.5] + [0.5 / 16] * 16)
    dens = probs[0] / constants.sphere_surface(d) * np.ones(cos_angle.size)
    for c, kappa in enumerate(experiments._VMF_KAPPAS, start=1):
        dens += probs[c] * np.exp(_log_vmf_pdf(cos_angle, kappa, d))
    return np.log(dens)


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


class TestSphereMixture:
    @pytest.mark.parametrize("d,m", [(2, 1), (3, 1), (3, 2)])
    def test_log_density_matches_full_sum(self, d, m):
        rng = np.random.Generator(np.random.Philox(key=8))
        u, log_q = experiments._sphere_mixture(rng, 200_000, m, d)
        ref = np.full(u.shape[0], -math.log(constants.sphere_surface(d)))
        for i in range(1, m + 1):
            cos_angle = np.einsum("cj,cj->c", np.ascontiguousarray(u[:, i]), u[:, 0])
            ref += _full_log_density(cos_angle, d)
        assert _same_bits(log_q, ref)

    @pytest.mark.parametrize("d", [2, 3])
    def test_log_density_at_the_cuts(self, d):
        # rows whose exponent sits at each kappa's cut and one ulp either side
        rows = [-1.0, 0.0, 1.0]
        for kappa in experiments._VMF_KAPPAS:
            log_norm = experiments._log_vmf_norm(kappa, d)
            cos_cut = 1.0 + (experiments._NEGLIGIBLE_EXPONENT - log_norm) / kappa
            if cos_cut > -1.0:
                rows += [np.nextafter(cos_cut, -2.0), cos_cut, np.nextafter(cos_cut, 2.0)]
        cos_angle = np.array(rows)
        assert _same_bits(experiments._log_mixture_density(cos_angle, d),
                          _full_log_density(cos_angle, d))

    @pytest.mark.parametrize("d,m", [(2, 1), (3, 1), (3, 2)])
    def test_density_is_normalised(self, d, m):
        # E_q[1/q(u)] is the volume of (S^(d-1))^(m+1); 1/q <= (2 sigma_d)^(m+1)
        rng = np.random.Generator(np.random.Philox(key=9))
        _, log_q = experiments._sphere_mixture(rng, 200_000, m, d)
        inv_q = np.exp(-log_q)
        se = np.std(inv_q) / math.sqrt(inv_q.size)
        assert abs(np.mean(inv_q) - constants.sphere_surface(d) ** (m + 1)) < 4.0 * se


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

    def test_reference_quadrature_converges(self):
        # the draws of seed 0 include near-singular t^(j-1) integrands
        # (j about 0.1) on which a plain adaptive quadrature gives up
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check = experiments.verify_gamma_lemma(draws=2000, seed=0)
        assert check.max_rel_error < 1e-9


class TestBetaLaw:
    def test_half_dim_parameters_accepted(self):
        check = experiments.verify_beta_projection_law(4, 2, samples=20_000, seed=0)
        assert check.p_half_dims > 0.01
        assert check.p_fraction_dims < 0.01
        assert check.passed

    def test_matches_per_sample_reference(self):
        n, k, samples, seed = 5, 2, 3_000, 4
        check = experiments.verify_beta_projection_law(n, k, samples=samples, seed=seed)
        rng = np.random.Generator(np.random.Philox(key=seed))
        x = rng.standard_normal((samples, n))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        r2 = np.einsum("ij,ij->i", x[:, :k], x[:, :k])
        for a, b, p in [(k / 2.0, (n - k) / 2.0, check.p_half_dims),
                        (k / n, (n - k) / n, check.p_fraction_dims)]:
            norm = beta_fn(a, b)
            u = np.array([beta_inc(t, a, b) / norm for t in r2])
            assert p == pytest.approx(stats.kstest(u, "uniform").pvalue, rel=1e-9)

    def test_other_dimensions(self):
        check = experiments.verify_beta_projection_law(5, 1, samples=20_000, seed=1)
        assert check.p_half_dims > 0.01


@pytest.mark.parametrize(
    "check,args,count",
    [
        pytest.param(experiments.verify_bp_identity, (2, 1, 1), "samples", id="bp"),
        pytest.param(experiments.verify_gamma_lemma, (), "draws", id="gamma-lemma"),
        pytest.param(experiments.verify_beta_projection_law, (4, 2), "samples", id="beta-law"),
    ],
)
@pytest.mark.parametrize("value", [0, -5])
def test_checks_reject_no_draws(check, args, count, value):
    # no draws would give a vacuous pass, a NaN statistic or a division by zero
    with pytest.raises(ValueError, match=count):
        check(*args, **{count: value})
