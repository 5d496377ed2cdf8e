"""Tests for the Monte Carlo experiments and identity checks."""

import dataclasses
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special, stats

from anchormosaic import constants, experiments, sampler
from anchormosaic.errors import DegeneracyError, InsufficientSampleError
from anchormosaic.sampler import SamplingConfig

from oracles import beta_fn, beta_inc, regularized_lower_gamma

ROOT = Path(__file__).resolve().parents[1]


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
            cfg = cfg_1d(rho=rho, seed=9, buffer=None)
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

    def test_small_buffer_warning_tells_the_buffers_apart(self):
        # the recommended buffer here is 1.6116..., which three digits print
        # as 1.61, the given buffer
        cfg = cfg_2d(window=((0.0, 4.0), (0.0, 4.0)), buffer=1.61)
        with pytest.warns(UserWarning) as caught:
            experiments.estimate_interval_rates(cfg, replicates=1)
        assert str(caught[0].message) == (
            "buffer 1.61 is below the recommended 1.61164; "
            "window counts may be biased by the truncated sample"
        )

    @pytest.mark.parametrize("k", [1, 2])
    def test_scale_equivariance_per_sample(self, k):
        # scaling all coordinates by s and then translating within the plane
        # scales every radius by s, moves every anchor along, and leaves the
        # simplices and the interval census unchanged
        from anchormosaic import geomcore

        def decompose(cloud):
            y, w = geomcore.slice_cloud(cloud, k)
            return geomcore.radius_and_intervals(y, w, geomcore.lower_hull(y, w))

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
        cfg = SamplingConfig(n=n, rho=1.0, window=window, seed=2025)
        record = experiments.run_replicate(cfg, 0)
        assert record.interval_counts() == intervals
        assert record.simplex_counts() == simplices

    def test_census_record_bits_pinned(self):
        # every column of replicate 0 of the (4,3) census at seed 5 on a 6^3
        # window, hashed as the CI's one-CPU and all-CPU runs hash the records;
        # the decomposition adds each sum over coordinates or corners in index
        # order, and these bits pin that order
        cfg = SamplingConfig(n=4, rho=1.0, window=((0.0, 6.0),) * 3, seed=5)
        record = experiments._replicate_record(cfg, 0)
        columns = (np.asarray(getattr(record, f.name)).tobytes() for f in dataclasses.fields(record))
        assert hashlib.sha256(b"".join(columns)).hexdigest() == (
            "3d878b7d07ac47053fce1a97a670a7bbf6f24f77af874628032a36d46294c195"
        )

    @pytest.mark.parametrize("r0", ["smallest", "median", "inf"])
    def test_counts_match_counter_over_rows(self, r0):
        # the bincount census against a Counter over the same rows, on
        # replicate 0 of the criterion-7 configuration; at the smallest
        # in-window radius the selected rows hold (0, 0) types only
        cfg = SamplingConfig(n=3, rho=1.0, window=((0.0, 20.0), (0.0, 20.0)), seed=2025)
        record = experiments.run_replicate(cfg, 0)
        r0 = {
            "smallest": float(np.min(record.interval_radii[record.interval_in_window])),
            "median": float(np.median(record.interval_radii)),
            "inf": math.inf,
        }[r0]
        iv = record.interval_in_window & (record.interval_radii <= r0)
        sx = record.simplex_in_window & (record.simplex_radii <= r0)
        intervals = Counter((int(ell), int(m)) for ell, m in record.interval_types[iv])
        simplices = Counter(int(j) for j in record.simplex_dims[sx])
        assert record.interval_counts(r0) == dict(intervals)
        assert record.simplex_counts(r0) == dict(simplices)
        assert all(type(ell) is int and type(m) is int for ell, m in record.interval_counts(r0))

    def test_counts_of_empty_record(self):
        # at this density the buffered box expects 0.00024 points: the empty
        # sample takes the census path of every other sample
        cfg = SamplingConfig(n=2, rho=0.001, window=((0.0, 1.0),), buffer=0.1)
        record = experiments.run_replicate(cfg, 0)
        assert record.num_points == 0
        assert record.interval_types.shape == (0, 2)
        assert record.interval_types.dtype.kind == "i" and record.simplex_dims.dtype.kind == "i"
        assert record.interval_radii.dtype == record.simplex_radii.dtype == float
        assert record.interval_in_window.dtype == record.simplex_in_window.dtype == bool
        columns = (record.interval_radii, record.interval_in_window, record.simplex_dims,
                   record.simplex_radii, record.simplex_in_window)
        assert [column.shape for column in columns] == [(0,)] * 5
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

    def test_json_beyond_the_float_range_of_r0_is_the_infinite_one(self):
        # r0^n overflows a float at r0 = 1e200, n = 3: the report is the
        # r0 = inf report, its "r0" field aside
        huge, inf = (
            json.loads(experiments.report_to_json(
                experiments.estimate_interval_rates(cfg_2d(seed=5), replicates=2, r0=r0)
            ))
            for r0 in (1e200, math.inf)
        )
        assert huge["config"].pop("r0") == 1e200 and inf["config"].pop("r0") is None
        assert huge == inf

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_json_text_refuses_non_finite_values(self, value):
        with pytest.raises(ValueError):
            experiments.json_text("test", {"x": value})

    def test_1d_critical_counts_balance(self):
        # critical vertices and edges alternate, so window counts differ by O(1)
        report = experiments.estimate_interval_rates(cfg_1d(seed=12), replicates=5)
        for rec in report.records:
            counts = rec.interval_counts()
            assert abs(counts.get((0, 0), 0) - counts.get((1, 1), 0)) <= 1


class TestOneCensusPath:
    @pytest.mark.parametrize("k", [1, 2])
    def test_one_corner_system_per_level(self, k, monkeypatch):
        # the decomposition forms each level's equal-power equations once,
        # and none for the vertices, each its own anchor
        from anchormosaic import geomcore

        calls = []
        build = geomcore._corner_system

        def counted(*args):
            calls.append(1)
            return build(*args)

        y, w = geomcore.slice_cloud(np.random.default_rng(7).uniform(0, 10, (200, 3)), k)
        faces = geomcore.lower_hull(y, w)
        monkeypatch.setattr(geomcore, "_corner_system", counted)
        geomcore.radius_and_intervals(y, w, faces)
        assert len(calls) == k

    @pytest.mark.parametrize("seed,points,rows", [(0, 0, 0), (3, 1, 1), (14, 2, 3)])
    def test_sparse_planar_sample_is_recorded(self, seed, points, rows):
        # one or two generators span one simplex; only an empty sample gives
        # an empty record
        window = ((0.0, 0.5), (0.0, 0.5))
        cfg = SamplingConfig(n=3, rho=0.05, window=window, buffer=1.0, seed=seed)
        record = experiments.run_replicate(cfg, 0)
        assert record.num_points == points
        assert len(record.simplex_dims) == rows

    def test_k3_replicate_reconciles(self):
        from anchormosaic import geomcore

        cfg = SamplingConfig(n=4, rho=1.0, window=((0.0, 4.0),) * 3, buffer=1.41, seed=0)
        points = sampler.sample_poisson_box(cfg)
        assert len(points) == 852
        facets = geomcore.lower_hull(*geomcore.slice_cloud(points, 3))[3]
        assert facets.shape == (3168, 4)
        record = experiments.run_replicate(cfg, 0)
        assert record.num_points == 852
        assert np.count_nonzero(record.simplex_dims == 3) == 3168
        report = experiments.ExperimentReport(
            cfg=cfg, r0=math.inf, interval_rates=[], simplex_rates=[], records=[record]
        )
        assert experiments.reconcile_simplex_counts(report).failures == []

    def test_missing_simplex_fails_reconciliation(self):
        cfg = cfg_1d()
        records = [experiments.run_replicate(cfg, rep) for rep in range(3)]
        rec = records[2]
        records[2] = dataclasses.replace(
            rec,
            simplex_dims=rec.simplex_dims[1:],
            simplex_radii=rec.simplex_radii[1:],
            simplex_in_window=rec.simplex_in_window[1:],
        )
        report = experiments.ExperimentReport(
            cfg=cfg, r0=math.inf, interval_rates=[], simplex_rates=[], records=records
        )
        failures = experiments.reconcile_simplex_counts(report).failures
        assert failures
        assert all(f.startswith("replicate 2, r0=") for f in failures)
        assert "r0=inf: dimension 0 has" in "".join(failures)

    def test_audit_reads_the_census_counts(self, monkeypatch):
        # the audit certifies the counts the rates are built from: a census
        # that loses one vertex of replicate 1 fails there, and only there
        cfg = cfg_1d(seed=8)
        records = [experiments.run_replicate(cfg, rep) for rep in range(2)]
        report = experiments.ExperimentReport(
            cfg=cfg, r0=math.inf, interval_rates=[], simplex_rates=[], records=records
        )
        census = experiments.ReplicateRecord.interval_counts

        def one_vertex_short(self, r0=math.inf):
            counts = census(self, r0)
            if self.replicate == 1:
                counts[(0, 0)] = counts.get((0, 0), 0) - 1
            return counts

        monkeypatch.setattr(experiments.ReplicateRecord, "interval_counts", one_vertex_short)
        failures = experiments.reconcile_simplex_counts(report).failures
        assert failures
        assert all(f.startswith("replicate 1, r0=") for f in failures)

    @pytest.mark.parametrize("cfg", [cfg_1d(seed=3), cfg_2d(seed=3)], ids=["1d", "2d"])
    def test_moved_simplex_fails_as_an_independent_count(self, cfg):
        # one in-window top simplex of radius at most 1/4 of the largest
        # interval radius moves to 3/4 of it: the counts at the two lower
        # thresholds lose it, and the audit's failures, in order, are those
        # of an independent loop over records, thresholds and dimensions
        records = [experiments.run_replicate(cfg, rep) for rep in range(3)]
        rec = records[1]
        rmax = max(float(np.max(r.interval_radii)) for r in records)
        top = rec.simplex_in_window & (rec.simplex_dims == cfg.k)
        radii = rec.simplex_radii.copy()
        radii[np.flatnonzero(top & (radii <= rmax / 4))[0]] = 0.75 * rmax
        records[1] = dataclasses.replace(rec, simplex_radii=radii)
        report = experiments.ExperimentReport(
            cfg=cfg, r0=math.inf, interval_rates=[], simplex_rates=[], records=records
        )

        thresholds = (0.25 * rmax, 0.5 * rmax, rmax, math.inf)
        loop = []
        for rec in records:
            for r0 in thresholds:
                iv, sx = rec.interval_counts(r0), rec.simplex_counts(r0)
                for j in range(cfg.k + 1):
                    predicted = sum(
                        math.comb(m - ell, m - j) * n for (ell, m), n in iv.items() if m >= j
                    )
                    if sx.get(j, 0) != predicted:
                        loop.append(
                            f"replicate {rec.replicate}, r0={r0}: dimension {j} has "
                            f"{sx.get(j, 0)} simplices but intervals predict {predicted}"
                        )
        assert len(loop) == 2
        assert experiments.reconcile_simplex_counts(report).failures == loop


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

    @pytest.mark.parametrize(
        "sample", ["100", "4000", "12000", "60000", "ties", "zeros-and-ones"]
    )
    def test_pvalue_is_kstest_to_the_bit(self, sample):
        # the direct statistic and kstwo against scipy's kstest in its
        # default mode; a scipy that changes that mode fails here
        rng = np.random.default_rng(11)
        if sample == "ties":
            u = np.round(rng.random(3000), 2)
        elif sample == "zeros-and-ones":
            u = np.concatenate([np.zeros(7), rng.random(500), np.ones(4)])
        else:
            u = rng.random(int(sample))
        assert experiments._ks_uniform_pvalue(u) == stats.kstest(u, "uniform").pvalue

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


class _PoolLog:
    """What a spied ``ThreadPoolExecutor`` did: its sizes and its count of
    submitted tasks."""

    def __init__(self):
        self.workers = []
        self.submits = 0


@pytest.fixture
def pool_log(monkeypatch):
    log = _PoolLog()

    class SpyPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            log.workers.append(max_workers)
            super().__init__(max_workers=max_workers)

        def submit(self, fn, *args):
            log.submits += 1
            return super().submit(fn, *args)

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", SpyPool)
    return log


def _record_bits(records):
    """Every field of every record, as dtype and bytes."""
    values = [np.asarray(getattr(rec, f.name)) for rec in records for f in dataclasses.fields(rec)]
    return [(value.dtype.str, value.tobytes()) for value in values]


class TestCensusPool:
    @pytest.mark.parametrize(
        "cfg",
        [cfg_2d(seed=6), SamplingConfig(n=4, rho=1.0, window=((0.0, 4.0),) * 3, seed=2)],
        ids=["3-2", "4-3"],
    )
    def test_records_do_not_depend_on_usable_cpus(self, monkeypatch, pool_log, cfg):
        serial = _record_bits([experiments.run_replicate(cfg, rep) for rep in range(3)])
        for cpus in ({0}, {0, 1}, {0, 1, 2}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            assert _record_bits(experiments._census_records(cfg, 3)) == serial
        assert pool_log.workers == [1, 2, 3]

    def test_no_pool_at_k1(self, monkeypatch, pool_log):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = cfg_1d(seed=4)
        report = experiments.estimate_interval_rates(cfg, replicates=3)
        assert pool_log.workers == []
        assert _record_bits(report.records) == _record_bits(
            [experiments.run_replicate(cfg, rep) for rep in range(3)]
        )

    def test_public_functions_run_on_the_calling_thread(self, monkeypatch, pool_log):
        # the workers call private bodies only, so a wrapper on a public
        # function, as the benchmark's tracer puts there, sees no other thread
        threads = []

        def spy(fn):
            def spied(*args, **kwargs):
                threads.append(threading.get_ident())
                return fn(*args, **kwargs)

            return spied

        owners = [module for name, module in sys.modules.items() if name.startswith("anchormosaic")]
        for layer in ("constants", "experiments", "geomcore", "mosaic1d", "mosaic2d", "sampler",
                      "specfun"):
            module = importlib.import_module(f"anchormosaic.{layer}")
            for name in module.__all__:
                fn = getattr(module, name)
                if isinstance(fn, type) or getattr(fn, "__module__", None) != module.__name__:
                    continue
                for owner in owners:
                    for key in [key for key, value in vars(owner).items() if value is fn]:
                        monkeypatch.setattr(owner, key, spy(fn))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = cfg_2d(seed=4)
        report = experiments.estimate_interval_rates(cfg, replicates=4)
        # the bp workers draw as well as weigh their chunks
        experiments.verify_bp_identity(3, 2, 1, "bump", samples=4_000, seed=3, chunk=1_000)
        assert pool_log.workers == [2, 2]
        assert threads and set(threads) == {threading.get_ident()}
        assert _record_bits(report.records) == _record_bits(
            [experiments._replicate_record(cfg, rep) for rep in range(4)]
        )

    def test_replicate_error_reaches_caller(self, monkeypatch, pool_log):
        # replicate 1 of 3 fails: the pooled census raises what the serial
        # loop raises
        record = experiments._replicate_record

        def failing(cfg, replicate):
            if replicate == 1:
                raise DegeneracyError("replicate 1 is degenerate")
            return record(cfg, replicate)

        monkeypatch.setattr(experiments, "_replicate_record", failing)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = cfg_2d(seed=5)
        with pytest.raises(DegeneracyError, match="replicate 1 is degenerate"):
            [experiments.run_replicate(cfg, rep) for rep in range(3)]
        with pytest.raises(DegeneracyError, match="replicate 1 is degenerate"):
            experiments.estimate_interval_rates(cfg, replicates=3)
        assert pool_log.workers == [2]


class TestBPIdentity:
    # (4,3,2): an m-plane of dimension 2 below k
    @pytest.mark.parametrize("n,k,m", [(2, 1, 1), (3, 2, 1), (3, 2, 2), (2, 2, 2), (4, 3, 2)])
    def test_gaussian_sides_agree(self, n, k, m):
        # (3,2,2) has the noisiest right side: at 1.2e6 samples its SE is
        # about 0.5%, so the 2% bound sits near 4 SE (1.9 SE at 3e5)
        samples = 1_200_000 if (n, k, m) == (3, 2, 2) else 300_000
        check = experiments.verify_bp_identity(n, k, m, samples=samples, seed=0)
        assert check.left == pytest.approx(check.analytic, rel=1e-9)
        assert check.right == pytest.approx(check.analytic, rel=0.02)

    def test_gaussian_left_is_exact(self):
        check = experiments.verify_bp_identity(2, 1, 1, samples=10_000, seed=1)
        assert check.left == check.analytic == math.pi**2

    def test_pooled_chunks_match_serial_merge(self, monkeypatch):
        # chunks of 3000, 3000, 3000 and 1000: the pool's result equals one
        # worker's and a serial merge of the chunks in chunk order; at this
        # triple and seed (the first seed from 1 up where it does) the reverse
        # order gives other bits
        def right_bits(right, right_ci):
            return right.hex(), tuple(v.hex() for v in right_ci)

        def run():
            check = experiments.verify_bp_identity(3, 2, 1, samples=10_000, seed=2, chunk=3_000)
            return right_bits(check.right, check.right_ci)

        def merged(chunks):
            record = (0, 0.0, 0.0, 0, 0.0)
            for chunk_record in chunks:
                record = experiments._merge_moments(record, chunk_record)
            count, mean, m2, _, _ = record
            half = 1.96 * math.sqrt(m2 / count / count)
            return right_bits(mean, (mean - half, mean + half))

        pooled = run()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        one_worker = run()
        sigma, grass = constants.sphere_surface(2), constants.grassmannian_volume(1, 2)
        chunks = [
            experiments._bp_chunk(2, index, size, 3, 2, 1, False, sigma, grass)
            for index, size in enumerate([3_000, 3_000, 3_000, 1_000])
        ]
        assert pooled == one_worker == merged(chunks)
        assert merged(chunks[::-1]) != pooled

    def test_one_chunk_draws_the_keys_own_stream(self):
        # chunk 0 draws from Philox(key=seed).jumped(0), the key's own stream,
        # so a one-chunk run has the bits of the serial kernel
        check = experiments.verify_bp_identity(
            2, 1, 1, test_function="bump", samples=200_000, seed=0
        )
        assert check.right.hex() == "0x1.18a8a02da0a1bp+0"

    def test_bump_proposal_keeps_effective_samples(self):
        # r and y from the conditionals of exp(-(n + 6)/2 sum_i |x_i|^2): the
        # Gaussian's own conditionals kept 9% of the samples here
        check = experiments.verify_bp_identity(
            2, 1, 1, test_function="bump", samples=200_000, seed=0
        )
        assert check.right_ess >= 0.3 * check.samples

    def test_one_task_and_one_chunk_of_draws_per_worker(self, monkeypatch, pool_log):
        # five chunks of 40_000 rows, each of three blocks, on three usable
        # CPUs: one pool of three workers, one task per chunk, and each
        # worker holds one chunk's draws at a time, so at most three chunks'
        # draws are alive at once
        draw_sphere = experiments._draw_sphere
        lock = threading.Lock()
        drawn = []
        most_alive = 0

        def spy(*args):
            nonlocal most_alive
            draws = draw_sphere(*args)
            with lock:
                drawn.append(weakref.ref(draws[0]))
                most_alive = max(most_alive, sum(ref() is not None for ref in drawn))
            return draws

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(experiments, "_draw_sphere", spy)
        experiments.verify_bp_identity(2, 1, 1, samples=200_000, seed=6, chunk=40_000)
        assert len(drawn) == 5 and most_alive <= 3
        assert pool_log.workers == [3]
        assert pool_log.submits == 5
        # one chunk: one worker, whatever the CPUs
        experiments.verify_bp_identity(2, 1, 1, samples=1_000, seed=6)
        assert pool_log.workers == [3, 1]

    # chunks of 70_000 rows, not a multiple of the 16_384-row block, and
    # three chunks of three blocks each
    @pytest.mark.parametrize(
        "kind,samples,chunk", [("gaussian", 150_000, 70_000), ("bump", 120_000, 40_000)]
    )
    def test_bits_do_not_depend_on_usable_cpus(self, monkeypatch, pool_log, kind, samples, chunk):
        got = set()
        for cpus in ({0}, {0, 1}, {0, 1, 2}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            check = experiments.verify_bp_identity(
                3, 2, 1, test_function=kind, samples=samples, chunk=chunk, seed=4
            )
            got.add((check.right.hex(), tuple(v.hex() for v in check.right_ci),
                     check.right_ess.hex()))
        assert pool_log.workers == [1, 2, 3]
        assert len(got) == 1

    def test_pool_falls_back_to_cpu_count(self, monkeypatch, pool_log):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for cpus in (3, None):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            experiments.verify_bp_identity(2, 1, 1, samples=5_000, seed=7, chunk=1_000)
        assert pool_log.workers == [3, 1]

    def test_chunk_error_reaches_caller(self, monkeypatch):
        # only the last chunk, of 500 rows, fails; the others complete. Then
        # chunks of 40_000 rows, blocks of 16_384, 16_384 and 7_232 rows,
        # fail in their last block
        volume = experiments._log_simplex_volume

        def failing(u):
            if len(u) in (500, 7_232):
                raise FloatingPointError("chunk failed")
            return volume(u)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(experiments, "_log_simplex_volume", failing)
        with pytest.raises(FloatingPointError, match="chunk failed"):
            experiments.verify_bp_identity(2, 1, 1, samples=3_500, seed=8, chunk=1_000)
        with pytest.raises(FloatingPointError, match="chunk failed"):
            experiments.verify_bp_identity(2, 1, 1, samples=100_000, seed=8, chunk=40_000)

    def test_merged_moments_match_two_pass(self):
        # a large offset with a unit spread: E[x^2] - mean^2 loses every digit
        # of the variance here, a two-pass reference keeps them
        x = 1e8 + np.random.default_rng(5).standard_normal(10_001)
        moments = (0, 0.0, 0.0, 0, 0.0)
        for part in np.split(x, [1, 2_500, 2_501, 7_777]):
            moments = experiments._merge_moments(moments, experiments._moments(part))
        count, mean, m2, _, _ = moments
        assert count == x.size
        assert mean == pytest.approx(np.mean(x), rel=1e-15)
        assert m2 / count == pytest.approx(np.var(x, ddof=0), rel=1e-9)

    def test_point_case_matches_sphere_measure(self):
        # m = 0: the right side reduces to an exact one-point quadrature
        check = experiments.verify_bp_identity(3, 1, 0, samples=50_000, seed=2)
        assert check.right == pytest.approx(check.analytic, rel=1e-9)

    # (3,2,1): the bump's points x have zeros on the slice axes m..k-1
    @pytest.mark.parametrize("n,k,m", [(2, 1, 1), (3, 2, 1)])
    def test_bump_function_sides_agree(self, n, k, m):
        check = experiments.verify_bp_identity(
            n, k, m, test_function="bump", samples=400_000, seed=2
        )
        assert check.left == check.analytic
        assert check.right == pytest.approx(check.analytic, rel=0.03)
        assert check.passed

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("n", [2, 3])
    def test_bump_left_side_is_a_product_of_radial_integrals(self, n, m):
        # int_{R^n} max(0, 1 - |x|^2)^2 dx = sigma_n int_0^1 r^(n-1) (1 - r^2)^2 dr
        radial, _ = integrate.quad(lambda r: r ** (n - 1) * (1.0 - r * r) ** 2, 0.0, 1.0,
                                   epsabs=0.0, epsrel=1e-13)
        sigma = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
        expected = (sigma * radial) ** (m + 1)
        got = experiments._analytic_integral("bump", n, m)
        assert type(got) is float
        assert got == pytest.approx(expected, rel=1e-12)

    # float.hex of (left, right, right_ci) at samples=30_000, chunk=7_000,
    # seed=3: five chunks, each from its own jumped stream, the last one of
    # 2_000 rows
    PINNED = {
        (2, 1, 1, "gaussian"): (
            "0x1.3bd3cc9be45dep+3",
            "0x1.3b6ac73b33b96p+3", ("0x1.373691e203ca7p+3", "0x1.3f9efc9463a85p+3"),
        ),
        (3, 2, 2, "gaussian"): (
            "0x1.594e658cd8e71p+7",
            "0x1.61d0194345fa8p+7", ("0x1.4d90ec7114eedp+7", "0x1.760f461577063p+7"),
        ),
        (3, 2, 1, "gaussian"): (
            "0x1.f019b59389d7bp+4",
            "0x1.f03768095c44cp+4", ("0x1.e78a563f865a5p+4", "0x1.f8e479d3322f3p+4"),
        ),
        (2, 2, 2, "gaussian"): (
            "0x1.f019b59389d7bp+4",
            "0x1.eecca000ac0a2p+4", ("0x1.e53250cd3c5a3p+4", "0x1.f866ef341bba1p+4"),
        ),
        (2, 1, 1, "bump"): (
            "0x1.18bc4418cafdfp+0",
            "0x1.19b33f51bd49ep+0", ("0x1.15a9dee24fbe3p+0", "0x1.1dbc9fc12ad59p+0"),
        ),
        (3, 1, 0, "gaussian"): (
            "0x1.645f7c63f2c6bp+2",
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
        got = (check.left.hex(), check.right.hex(), tuple(v.hex() for v in check.right_ci))
        assert got == self.PINNED[case]

    def test_bits_pinned_above_blas_threading(self):
        # chunks of 100_000 rows, above the 10_000 elements at which OpenBLAS
        # splits a dot over its threads; right_ess reads the merged M2
        check = experiments.verify_bp_identity(3, 2, 1, samples=200_000, chunk=100_000, seed=3)
        assert check.right.hex() == "0x1.f0225d26f32acp+4"
        assert tuple(v.hex() for v in check.right_ci) == (
            "0x1.ecc9616dd597ep+4", "0x1.f37b58e010bdap+4",
        )
        assert check.right_ess.hex() == "0x1.cf9f7662beb2bp+15"

    # float.hex of (right, right_ci, right_ess) at samples=150_000,
    # chunk=70_000, seed=3: chunks of 70_000, 70_000 and 10_000 rows, each
    # ending in a partial block of the row step
    MULTI_BLOCK_PINNED = {
        (2, 1, 1, "gaussian"): (
            "0x1.3b60723b4e240p+3", ("0x1.3980dea4a5319p+3", "0x1.3d4005d1f7167p+3"),
            "0x1.ecdc2e0a434fcp+15",
        ),
        (3, 2, 2, "gaussian"): (
            "0x1.5fc568bf1a6f6p+7", ("0x1.5539002dc8301p+7", "0x1.6a51d1506caebp+7"),
            "0x1.039e8ed90116fp+12",
        ),
        (3, 2, 1, "gaussian"): (
            "0x1.efc795f34e0d9p+4", ("0x1.ebea97700c099p+4", "0x1.f3a4947690119p+4"),
            "0x1.5ba592057004fp+15",
        ),
        (2, 2, 2, "gaussian"): (
            "0x1.efe88ef170b0bp+4", ("0x1.eb9c4b22a209ap+4", "0x1.f434d2c03f57cp+4"),
            "0x1.29f872ee68d28p+15",
        ),
        (2, 1, 1, "bump"): (
            "0x1.183b19b16c1a1p+0", ("0x1.16706c36c0704p+0", "0x1.1a05c72c17c3ep+0"),
            "0x1.c3624ca7742f3p+15",
        ),
        (3, 2, 1, "bump"): (
            "0x1.d56eb1af3cba7p-1", ("0x1.d147cde6faba7p-1", "0x1.d99595777eba7p-1"),
            "0x1.210938e066a5dp+15",
        ),
        (3, 2, 2, "bump"): (
            "0x1.cba31e8d0af3dp-1", ("0x1.bcd40245fefb5p-1", "0x1.da723ad416ec5p-1"),
            "0x1.c374918aa1888p+11",
        ),
        (4, 3, 2, "bump"): (
            "0x1.1eb69e3a7089ap-1", ("0x1.19e0c4bde83f7p-1", "0x1.238c77b6f8d3dp-1"),
            "0x1.83384b1de1027p+13",
        ),
    }

    @pytest.mark.parametrize(
        "case", list(MULTI_BLOCK_PINNED), ids=lambda c: "{}-{}-{}-{}".format(*c)
    )
    def test_multi_block_bits_pinned(self, case):
        # the bits of the kernel that drew and weighed each chunk whole
        n, k, m, kind = case
        check = experiments.verify_bp_identity(
            n, k, m, test_function=kind, samples=150_000, chunk=70_000, seed=3
        )
        got = (check.right.hex(), tuple(v.hex() for v in check.right_ci), check.right_ess.hex())
        assert got == self.MULTI_BLOCK_PINNED[case]

    # (right_nonfinite, float.hex of right_max_share) of the MULTI_BLOCK_PINNED
    # runs: the merge keeps every chunk's count and its largest weight
    MULTI_BLOCK_HEALTH_PINNED = {
        (2, 1, 1, "gaussian"): (0, "0x1.dc4531473325cp-15"),
        (3, 2, 2, "gaussian"): (0, "0x1.ee27eacbb26a9p-9"),
        (3, 2, 1, "gaussian"): (0, "0x1.5f909f42c9ea3p-15"),
        (2, 2, 2, "gaussian"): (0, "0x1.afb1dad4365b6p-15"),
        (2, 1, 1, "bump"): (0, "0x1.5dac4b894687ap-14"),
        (3, 2, 1, "bump"): (0, "0x1.77eb1b532b62fp-14"),
        (3, 2, 2, "bump"): (0, "0x1.444bc14a137c3p-8"),
        (4, 3, 2, "bump"): (0, "0x1.6e8774b5f1cc1p-10"),
    }

    @pytest.mark.parametrize(
        "case", list(MULTI_BLOCK_HEALTH_PINNED), ids=lambda c: "{}-{}-{}-{}".format(*c)
    )
    def test_multi_block_health_pinned(self, case):
        n, k, m, kind = case
        check = experiments.verify_bp_identity(
            n, k, m, test_function=kind, samples=150_000, chunk=70_000, seed=3
        )
        got = (check.right_nonfinite, check.right_max_share.hex())
        assert got == self.MULTI_BLOCK_HEALTH_PINNED[case]

    def test_non_finite_weights_are_counted_across_chunks(self, monkeypatch):
        # chunks of 1_000, 1_000, 1_000 and 500 rows on two workers; the row
        # step makes 2 weights nan in each full chunk and 5 infinite in the
        # last one, and each counts as 0 in the merged record
        row_weights = experiments._row_weights

        def patched(raw, *args):
            w = row_weights(raw, *args)
            if len(raw) == 500:
                w[:5] = np.inf
            else:
                w[:2] = np.nan
            return w

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        clean = experiments.verify_bp_identity(2, 1, 1, samples=3_500, seed=8, chunk=1_000)
        monkeypatch.setattr(experiments, "_row_weights", patched)
        check = experiments.verify_bp_identity(2, 1, 1, samples=3_500, seed=8, chunk=1_000)
        assert clean.right_nonfinite == 0
        assert check.right_nonfinite == 3 * 2 + 5
        assert 0.0 < check.right < clean.right
        assert 0.0 < check.right_max_share < 1.0

    def test_bits_pinned_with_a_block_boundary_at_the_chunk_end(self):
        # chunks of 65_536 rows, a whole number of blocks each: a block
        # boundary falls at the chunk's end
        check = experiments.verify_bp_identity(3, 2, 2, samples=131_072, chunk=65_536, seed=3)
        assert check.right.hex() == "0x1.58088873ccf3ep+7"
        assert tuple(v.hex() for v in check.right_ci) == (
            "0x1.4d0f4242e2bf2p+7", "0x1.6301cea4b728ap+7",
        )
        assert check.right_ess.hex() == "0x1.cac15839aa67fp+11"

    def test_bump_places_u_once_per_block(self, monkeypatch):
        # a 70_000-row chunk ends in a partial block; each block places u and
        # takes its centroid spread once for both weights
        blocks = math.ceil(70_000 / experiments._BLOCK_ROWS)
        calls = Counter()

        def spy(name):
            real = getattr(experiments, name)

            def wrapped(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(experiments, name, wrapped)

        spy("_sphere_rows")
        spy("_centroid_spread")
        sigma, grass = constants.sphere_surface(2), constants.grassmannian_volume(1, 2)
        experiments._bp_chunk(0, 0, 70_000, 3, 2, 1, True, sigma, grass)
        assert calls == {"_sphere_rows": blocks, "_centroid_spread": blocks}

    @pytest.mark.parametrize(
        "n,k,m,kind", [(3, 2, 2, "gaussian"), (3, 2, 2, "bump"), (2, 1, 1, "gaussian")]
    )
    def test_bits_do_not_depend_on_the_block_size(self, monkeypatch, n, k, m, kind):
        # blocks of 1_000 rows divide none of the chunks of 17_500, 17_500 and
        # 3_500 rows, and every field matches the default blocks bit for bit
        def run():
            check = experiments.verify_bp_identity(
                n, k, m, test_function=kind, samples=38_500, chunk=17_500, seed=3
            )
            return dataclasses.astuple(check)

        default = run()
        monkeypatch.setattr(experiments, "_BLOCK_ROWS", 1_000)
        assert run() == default

    # tracemalloc peak of one 2**14-row (3,2,2) Gaussian block of the row
    # step, in bytes per row, where _place_vmf returned each draw for
    # _sphere_rows to copy and held every temporary to its end
    RETURNED_DRAW_BLOCK_BYTES_PER_ROW = 257

    def test_row_step_working_set(self):
        n, k, m, rows = 3, 2, 2, 2**14
        d = m + n - k
        raw, points = experiments._draw_sphere(experiments._chunk_stream(0, 0), rows, m, d)
        args = (raw, points, slice(0, rows), n, k, constants.sphere_surface(d),
                constants.grassmannian_volume(m, k), None)
        experiments._row_weights(*args)
        tracemalloc.start()
        try:
            experiments._row_weights(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # measured: 161 bytes a row
        assert peak / rows <= 176 < self.RETURNED_DRAW_BLOCK_BYTES_PER_ROW

    # tracemalloc peak of one 200_000-row chunk, in bytes per row, of the
    # kernel that held each chunk's temporaries whole
    WHOLE_CHUNK_BYTES_PER_ROW = {(2, 1, 1): 128, (3, 2, 2): 281, (3, 2, 1): 128, (2, 2, 2): 152}

    @pytest.mark.parametrize("n,k,m", list(WHOLE_CHUNK_BYTES_PER_ROW))
    def test_chunk_memory_is_at_most_half_of_whole_chunk(self, n, k, m):
        # only the draws and the weights are held per row; each block's
        # temporaries are freed before the next block
        size = 200_000
        d = m + n - k
        args = (n, k, m, False, constants.sphere_surface(d), constants.grassmannian_volume(m, k))
        experiments._bp_chunk(0, 0, 1_000, *args)
        tracemalloc.start()
        try:
            experiments._bp_chunk(0, 0, size, *args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / size <= 0.5 * self.WHOLE_CHUNK_BYTES_PER_ROW[(n, k, m)]

    def test_moments_bits_do_not_depend_on_blas_threads(self):
        # one 200_000-row chunk's M2, in interpreters with 1 and 2 BLAS threads
        code = (
            "import numpy as np; from anchormosaic import experiments; "
            "x = np.random.Generator(np.random.Philox(key=0)).standard_normal(200_000); "
            "print(experiments._moments(x)[2].hex())"
        )
        got = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads)
            done = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
            )
            assert done.returncode == 0, done.stderr
            got.append(done.stdout.strip())
        assert got[0] == got[1]

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
        # the rounding allowance leaves the statistical verdict alone
        half_width = (check.right_ci[1] - check.right_ci[0]) / 2.0
        assert check.rounding_allowance < 1e-6 * half_width

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 1), (5, 3), (6, 2), (4, 2), (5, 1)])
    def test_point_case_verdict_allows_rounding(self, n, k):
        # m = 0: the weights are one constant and the CI has no width; the
        # mean lands a few ulps off the exact value, inside the allowance,
        # and a right side 1e-9 off is still refused
        check = experiments.verify_bp_identity(n, k, 0)
        assert check.right_ci[0] == check.right_ci[1]
        assert check.passed
        moved = dataclasses.replace(
            check,
            right=check.right * (1.0 + 1e-9),
            right_ci=tuple(v * (1.0 + 1e-9) for v in check.right_ci),
        )
        assert not moved.passed

    def test_validation(self):
        with pytest.raises(ValueError):
            experiments.verify_bp_identity(2, 3, 1)
        with pytest.raises(ValueError):
            experiments.verify_bp_identity(6, 2, 1)  # sphere dimension too high
        with pytest.raises(ValueError):
            experiments.verify_bp_identity(2, 1, 1, test_function="what")
        with pytest.raises(ValueError, match="chunk"):
            experiments.verify_bp_identity(2, 1, 1, chunk=0)


def _jacobian(r, u, k, n):
    # the sphere-parametrization Jacobian r^alpha [m! Vol_m(u')]^(k-m+1),
    # alpha = n(m+1) - (k+1), from the bp kernel's simplex volume of one row
    u = np.asarray(u, dtype=float)[None]
    m = u.shape[1] - 1
    alpha = n * (m + 1) - (k + 1)
    return float(r**alpha * np.exp((k - m + 1) * experiments._log_simplex_volume(u))[0])


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
        # log m! Vol_m(u') against the determinant; both sides round to a
        # few ulps of the Hadamard bound prod |e_i|
        rng = np.random.default_rng(20 + m)
        u = rng.normal(size=(2_000, m + 1, m + 1))
        u /= np.linalg.norm(u, axis=2, keepdims=True)
        edges = u[:, 1:, :m] - u[:, :1, :m]
        ref = np.abs(np.linalg.det(edges))
        got = np.exp(experiments._log_simplex_volume(u))
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
        log_vol = experiments._log_simplex_volume(u)
        assert np.all(log_vol == -np.inf)


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
        comp = np.repeat(np.arange(len(experiments._KAPPA_LADDER), dtype=np.uint8), self.PER_KAPPA)
        d = centers.shape[1]
        draws = np.empty(centers.shape)
        experiments._place_vmf(centers, comp, experiments._draw_vmf(rng, comp, d), draws)
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
    def test_component_frequencies(self, d):
        # the per-row components that _draw_sphere draws follow _MIX_PROBS
        _, points = experiments._draw_sphere(
            np.random.Generator(np.random.Philox(key=13)), 100_000, 2, d
        )
        comp = np.concatenate([point[0] for point in points])
        counts = [np.count_nonzero(comp == c) for c in range(len(experiments._KAPPA_LADDER))]
        assert sum(counts) == comp.size == 200_000
        assert stats.chisquare(counts, experiments._MIX_PROBS * comp.size).pvalue > 1e-3


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


def _sphere_sample(rng, size, m, d):
    # u and log q(u) of `size` rows: the bp kernel's draw step, then its row
    # step over all rows at once
    raw, points = experiments._draw_sphere(rng, size, m, d)
    return experiments._sphere_rows(raw, points, slice(None), constants.sphere_surface(d))


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


class TestSphereMixture:
    @pytest.mark.parametrize("d,m", [(2, 1), (3, 1), (3, 2)])
    def test_log_density_matches_full_sum(self, d, m):
        rng = np.random.Generator(np.random.Philox(key=8))
        u, log_q = _sphere_sample(rng, 200_000, m, d)
        ref = np.full(u.shape[0], -math.log(constants.sphere_surface(d)))
        for i in range(1, m + 1):
            # the cosine's d products added in index order
            cos_angle = u[:, i, 0] * u[:, 0, 0]
            for j in range(1, d):
                cos_angle = cos_angle + u[:, i, j] * u[:, 0, j]
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
        sigma = constants.sphere_surface(d)
        assert _same_bits(experiments._log_mixture_density(cos_angle, d, sigma),
                          _full_log_density(cos_angle, d))

    @pytest.mark.parametrize("d,m", [(2, 1), (3, 1), (3, 2)])
    def test_density_is_normalised(self, d, m):
        # E_q[1/q(u)] is the volume of (S^(d-1))^(m+1); 1/q <= (2 sigma_d)^(m+1)
        rng = np.random.Generator(np.random.Philox(key=9))
        _, log_q = _sphere_sample(rng, 200_000, m, d)
        inv_q = np.exp(-log_q)
        se = np.std(inv_q) / math.sqrt(inv_q.size)
        assert abs(np.mean(inv_q) - constants.sphere_surface(d) ** (m + 1)) < 4.0 * se

    def test_component_cdf_is_exact(self):
        # the cumulative sums 1/2 + j/32 are exact binary fractions, so the
        # inverse CDF floor(32 x) - 15 needs no search
        assert np.array_equal(np.cumsum(experiments._MIX_PROBS), 0.5 + np.arange(17) / 32)

    @pytest.mark.parametrize("seed", [0, 13])
    @pytest.mark.parametrize("size", [1, 7, 2**14 + 3, 200_000])
    def test_components_are_choice_to_the_bit(self, seed, size):
        # each sphere point's components are Generator.choice's from an
        # identically keyed stream, and the variates after them, then the
        # next normal, are drawn at the same stream positions
        m, d = 2, 3
        rng = np.random.Generator(np.random.Philox(key=seed))
        ref = np.random.Generator(np.random.Philox(key=seed))
        raw, points = experiments._draw_sphere(rng, size, m, d)
        assert _same_bits(raw, ref.standard_normal((size, d)))
        for comp, xi, phi in points:
            assert comp.dtype == np.uint8
            choice = ref.choice(len(experiments._KAPPA_LADDER), size, p=experiments._MIX_PROBS)
            assert np.array_equal(comp, choice)
            assert _same_bits(xi, ref.random(size))
            assert _same_bits(phi, ref.uniform(0.0, 2.0 * math.pi, size))
        assert rng.standard_normal() == ref.standard_normal()


class TestSphereLayout:
    @pytest.mark.parametrize("n,k,m", [(2, 1, 1), (3, 2, 2), (2, 2, 2)])
    def test_every_column_of_u_is_contiguous(self, n, k, m):
        d = m + n - k
        u, _ = _sphere_sample(np.random.Generator(np.random.Philox(key=14)), 1_000, m, d)
        for i in range(m + 1):
            for j in range(d):
                assert u[:, i, j].flags.c_contiguous, (i, j)

    @pytest.mark.parametrize("n,k,m", [(2, 1, 1), (3, 2, 2), (2, 2, 2)])
    def test_layout_moves_no_bit(self, n, k, m):
        # the row step's reads of u give the same bits on a row-major copy;
        # (2,2,2) recomputes about a thousand of its rows without cancellation
        d = m + n - k
        u, _ = _sphere_sample(np.random.Generator(np.random.Philox(key=15)), 20_000, m, d)
        rows = np.ascontiguousarray(u)
        for got, ref in zip(experiments._centroid_spread(u), experiments._centroid_spread(rows)):
            assert _same_bits(got, ref)
        assert _same_bits(experiments._log_simplex_volume(u), experiments._log_simplex_volume(rows))


def _spread_without_cancellation(u):
    # sum_i |u_i[m:]|^2 + sum_i |u_i[:m] - mean_i u_i[:m]|^2, in long double
    u = np.asarray(u, dtype=np.longdouble)
    m = u.shape[1] - 1
    dev = u[:, :, :m] - u[:, :, :m].mean(axis=1, keepdims=True)
    return np.sum(u[:, :, m:] ** 2, axis=(1, 2)) + np.sum(dev**2, axis=(1, 2))


class TestCentroidSpread:
    @pytest.mark.parametrize("d,m", [(2, 1), (3, 1), (2, 2), (3, 2)])
    def test_sampler_norms_are_within_the_bound(self, d, m):
        # _centroid_spread's error bound takes |u_i|^2 within 16 u of 1
        rng = np.random.Generator(np.random.Philox(key=10))
        u, _ = _sphere_sample(rng, 200_000, m, d)
        unit = np.finfo(float).eps / 2.0
        assert np.max(np.abs(np.einsum("cij,cij->ci", u, u) - 1.0)) <= 16.0 * unit

    @pytest.mark.parametrize("d,m", [(2, 1), (3, 1), (2, 2), (3, 2)])
    def test_spread_keeps_half_its_digits(self, d, m):
        # (2,2) draws thousands of rows whose cancelling form loses over half
        # of delta's digits; each row keeps them here
        rng = np.random.Generator(np.random.Philox(key=11))
        u, _ = _sphere_sample(rng, 200_000, m, d)
        _, delta = experiments._centroid_spread(u)
        ref = _spread_without_cancellation(u)
        assert np.all(np.abs(delta - ref) <= math.sqrt(np.finfo(float).eps / 2.0) * ref)

    def test_close_points_are_recomputed(self):
        # three points of S^1 within 1e-7 of each other: (m + 1) - |s|^2 / (m + 1)
        # keeps about two digits of delta, the recompute keeps all but the last few
        angles = np.array([0.3, 0.3 + 1e-7, 0.3 - 2e-7])
        u = np.stack([np.cos(angles), np.sin(angles)], axis=1)[None]
        _, delta = experiments._centroid_spread(u)
        assert delta[0] == pytest.approx(float(_spread_without_cancellation(u)[0]), rel=1e-12)

    def test_point_case_is_one(self):
        rng = np.random.Generator(np.random.Philox(key=12))
        u, _ = _sphere_sample(rng, 1_000, 0, 3)
        s, delta = experiments._centroid_spread(u)
        assert s.shape == (1_000, 0)
        assert np.all(delta == 1.0)

    @pytest.mark.parametrize("n,k,m", [(2, 1, 1), (3, 2, 1), (2, 2, 2)])
    @pytest.mark.parametrize("bump", [False, True])
    def test_coincident_points_give_no_warning(self, monkeypatch, n, k, m, bump):
        # delta = 0: every weight is counted non-finite or is 0, and no
        # RuntimeWarning (an error under this suite's settings) is raised
        d = m + n - k

        def coincident(raw, points, rows, sigma_d):
            u = np.zeros((len(raw[rows]), m + 1, d))
            u[:, :, 0] = 1.0
            at_one = experiments._log_mixture_density(np.ones(len(u)), d, sigma_d)
            return u, -math.log(sigma_d) + m * at_one

        monkeypatch.setattr(experiments, "_sphere_rows", coincident)
        grass = constants.grassmannian_volume(m, k) if m < k else 1.0
        count, mean, _, nonfinite, w_max = experiments._bp_chunk(
            0, 0, 100, n, k, m, bump, constants.sphere_surface(d), grass
        )
        assert count == 100
        assert nonfinite == (0 if bump else 100)
        assert mean == 0.0 and w_max == 0.0


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
        assert check.max_rel_error < 1e-12

    def test_reference_quadrature_converges(self):
        # a reference quadrature that gives up (IntegrationWarning) fails the
        # test rather than leaving a loose reference value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check = experiments.verify_gamma_lemma(draws=2000, seed=0)
        assert check.max_rel_error < 1e-9

    def test_default_draws_reach_every_type_and_dimension(self, monkeypatch):
        reached = set()

        def spy(name, key):
            real = getattr(constants, name)

            def recorded(*args):
                reached.add(key(*args))
                return real(*args)

            monkeypatch.setattr(constants, name, recorded)

        spy("expected_interval_count", lambda t, k, *_: ("type", k, (t.ell, t.m)))
        spy("expected_simplex_count", lambda j, k, *_: ("simplex", k, j))
        experiments.verify_gamma_lemma()
        assert reached == {
            ("type", k, (t.ell, t.m)) for k in (1, 2) for t in constants.valid_interval_types(k)
        } | {("simplex", k, j) for k in (1, 2) for j in range(k + 1)}

    def test_fails_when_the_gamma_fraction_is_off(self, monkeypatch):
        # every prediction of the census carries this factor
        real = constants._gamma_fraction
        monkeypatch.setattr(
            constants, "_gamma_fraction", lambda *args: real(*args) * (1.0 + 1e-8)
        )
        assert not experiments.verify_gamma_lemma(draws=100, seed=0).passed


class TestBetaLaw:
    def test_half_dim_parameters_accepted(self):
        check = experiments.verify_beta_projection_law(4, 2, samples=20_000, seed=0)
        assert check.p_half_dims > 0.01
        assert check.p_fraction_dims < 0.01
        assert check.passed

    def test_matches_per_sample_reference(self):
        # every sum of squares adds its columns in index order; from 8 columns
        # on, as at (10, 5), np.linalg.norm's reduction does not
        samples, seed = 3_000, 4
        for n, k in [(5, 2), (10, 5)]:
            check = experiments.verify_beta_projection_law(n, k, samples=samples, seed=seed)
            rng = np.random.Generator(np.random.Philox(key=seed))
            x = rng.standard_normal((samples, n))
            norm2 = x[:, 0] * x[:, 0]
            for i in range(1, n):
                norm2 = norm2 + x[:, i] * x[:, i]
            x /= np.sqrt(norm2)[:, None]
            r2 = x[:, 0] * x[:, 0]
            for i in range(1, k):
                r2 = r2 + x[:, i] * x[:, i]
            for a, b, p in [(k / 2.0, (n - k) / 2.0, check.p_half_dims),
                            (k / n, (n - k) / n, check.p_fraction_dims)]:
                norm = beta_fn(a, b)
                u = np.array([beta_inc(t, a, b) / norm for t in r2])
                assert p == pytest.approx(stats.kstest(u, "uniform").pvalue, rel=1e-9)

    def test_other_dimensions(self):
        check = experiments.verify_beta_projection_law(5, 1, samples=20_000, seed=1)
        assert check.p_half_dims > 0.01

    def test_plane_is_refused(self):
        # at n = 2 the law and its alternative are both Beta(1/2, 1/2)
        with pytest.raises(ValueError, match=r"Beta\(1/2, 1/2\)"):
            experiments.verify_beta_projection_law(2, 1)


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
