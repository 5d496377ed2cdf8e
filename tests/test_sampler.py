"""Tests for the Poisson sampler and buffer sizing."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import special, stats

from anchormosaic import sampler
from anchormosaic.constants import ball_volume, log_ball_volume
from anchormosaic.sampler import SamplingConfig

from oracles import regularized_lower_gamma


def make_cfg(**overrides):
    base = dict(n=2, rho=1.0, window=((0.0, 10.0),), buffer=2.0, seed=42)
    base.update(overrides)
    return SamplingConfig(**base)


class TestSamplePoissonBox:
    def test_deterministic(self):
        cfg = make_cfg()
        first = sampler.sample_poisson_box(cfg)
        second = sampler.sample_poisson_box(cfg)
        assert first.shape == second.shape
        assert np.array_equal(first, second)

    def test_replicates_differ(self):
        cfg = make_cfg()
        other = sampler.sample_poisson_box(cfg, 1)
        assert other.shape != sampler.sample_poisson_box(cfg).shape or not np.array_equal(
            other, sampler.sample_poisson_box(cfg)
        )

    def test_points_inside_box(self):
        cfg = make_cfg(n=3, window=((0.0, 5.0), (1.0, 4.0)), buffer=1.5)
        pts = sampler.sample_poisson_box(cfg)
        assert pts.shape[1] == 3
        lows, highs = cfg.box_bounds()
        assert np.all(pts >= lows) and np.all(pts <= highs)

    def test_poisson_law_of_counts(self):
        cfg = make_cfg(rho=2.0, window=((0.0, 4.0),), buffer=0.5, n=2)
        lows, highs = cfg.box_bounds()
        mean = cfg.rho * float(np.prod(highs - lows))
        counts = np.array([len(sampler.sample_poisson_box(cfg, r)) for r in range(400)])
        assert counts.mean() == pytest.approx(mean, abs=4 * math.sqrt(mean / 400))
        assert counts.var() == pytest.approx(mean, rel=0.25)

    def test_disjoint_subbox_counts_independent_poisson(self):
        # chi-square goodness of fit of sub-box occupancy at the 1% level
        cfg = make_cfg(n=2, rho=1.0, window=((0.0, 4.0),), buffer=1.0, seed=7)
        lows, highs = cfg.box_bounds()
        sub_mean = cfg.rho * (highs[0] - lows[0]) / 4.0 * (highs[1] - lows[1])
        draws = []
        for r in range(2500):
            pts = sampler.sample_poisson_box(cfg, r)
            edges = np.linspace(lows[0], highs[0], 5)
            draws.extend(np.histogram(pts[:, 0], bins=edges)[0].tolist())
        draws = np.asarray(draws)
        kmax = int(draws.max())
        observed = np.bincount(draws, minlength=kmax + 1).astype(float)
        expected = np.array(
            [math.exp(-sub_mean) * sub_mean**k / math.factorial(k) for k in range(kmax + 1)]
        )
        expected[-1] += 1.0 - expected.sum()
        expected *= len(draws)
        # pool sparse tail bins for a valid chi-square
        keep = expected >= 5
        obs = np.append(observed[keep], observed[~keep].sum())
        exp = np.append(expected[keep], expected[~keep].sum())
        stat = float(((obs - exp) ** 2 / exp).sum())
        pvalue = 1.0 - stats.chi2.cdf(stat, df=len(obs) - 1)
        assert pvalue > 0.01

    def test_replicate_streams_uncorrelated(self):
        cfg = make_cfg(window=((0.0, 50.0),), buffer=1.0)
        a = sampler.sample_poisson_box(cfg)
        b = sampler.sample_poisson_box(cfg, 1)
        size = min(len(a), len(b))
        corr = np.corrcoef(a[:size, 0], b[:size, 0])[0, 1]
        assert abs(corr) < 0.25

    def test_count_cap(self):
        # about 4e10 expected points, over the 1e7 cap
        cfg = make_cfg(rho=1e6, window=((0.0, 1e4),))
        with pytest.raises(ValueError):
            sampler.sample_poisson_box(cfg)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_cfg(window=((3.0, 1.0),))
        with pytest.raises(ValueError):
            make_cfg(rho=-1.0)
        with pytest.raises(ValueError, match="positive buffer"):
            make_cfg(n=2, buffer=0.0)
        for buffer in (-1.0, math.nan):
            with pytest.raises(ValueError, match="buffer must be non-negative"):
                make_cfg(buffer=buffer)


class TestChooseBuffer:
    def test_bisection_against_gamma(self):
        cfg = make_cfg(n=2)
        quantile = 0.999999
        buffer = sampler.choose_buffer(cfg, quantile)
        shape = cfg.k + 1.0 - cfg.k / cfg.n
        x = cfg.rho * math.pi * buffer**2
        assert regularized_lower_gamma(shape, x) == pytest.approx(
            quantile, abs=1e-10
        )

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2)])
    def test_far_tail_accuracy(self, n, k):
        # the tail mass beyond the buffer is 1 - q to ten digits, where P
        # itself is within 1e-9 of 1 and a root search on it is ill-conditioned
        cfg = make_cfg(n=n, window=((0.0, 2.0),) * k)
        quantile = 1.0 - 1e-9
        buffer = sampler.choose_buffer(cfg, quantile)
        shape = k + 1.0 - k / n
        x = cfg.rho * ball_volume(n) * buffer**n
        assert special.gammaincc(shape, x) == pytest.approx(
            1.0 - quantile, rel=1e-10, abs=0
        )

    def test_monotone_in_quantile(self):
        cfg = make_cfg(n=3, window=((0.0, 2.0), (0.0, 2.0)))
        buffers = [sampler.choose_buffer(cfg, q) for q in (0.9, 0.99, 0.999, 0.999999)]
        assert all(b > a for a, b in zip(buffers, buffers[1:]))

    def test_density_scale_equivariance(self):
        cfg1 = make_cfg(n=3, window=((0.0, 2.0), (0.0, 2.0)), rho=1.0)
        cfg2 = dataclasses.replace(cfg1, rho=2.0)
        b1 = sampler.choose_buffer(cfg1, 0.999)
        b2 = sampler.choose_buffer(cfg2, 0.999)
        assert b2 == pytest.approx(b1 * 2.0 ** (-1.0 / 3.0), rel=1e-9)

    @pytest.mark.parametrize("n", [435, 453, 700])
    def test_default_buffer_past_the_ball_volume_underflow(self, n):
        # x / (rho nu_n) overflows from n = 435 at rho = 1, and nu_n is 0 from
        # n = 453: the quantile is then taken in logs, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = SamplingConfig(n=n, rho=1.0, window=((0.0, 10.0),))
        x = special.gammaincinv(2.0 - 1.0 / n, sampler.DEFAULT_BUFFER_QUANTILE)
        in_logs = math.exp((math.log(x) - log_ball_volume(n)) / n)
        assert math.isfinite(cfg.buffer)
        assert cfg.buffer == pytest.approx(in_logs, rel=1e-12, abs=0)


class TestDefaultBuffer:
    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (5, 3), (2, 2)])
    def test_omitted_buffer_is_the_default_quantile(self, n, k):
        cfg = make_cfg(n=n, window=((0.0, 3.0),) * k, buffer=None)
        expected = sampler.choose_buffer(cfg, sampler.DEFAULT_BUFFER_QUANTILE)
        assert cfg.buffer.hex() == expected.hex()

    def test_explicit_buffer_is_kept(self):
        # 0 as well, at n = k; at n > k it raises (test_validation)
        assert make_cfg(buffer=0.75).buffer == 0.75
        assert make_cfg(n=1, buffer=0.0).buffer == 0.0

    def test_replace_keeps_or_resolves_the_default(self):
        cfg = make_cfg(buffer=None)
        assert dataclasses.replace(cfg, seed=9).buffer == cfg.buffer
        moved = dataclasses.replace(cfg, rho=2.0, buffer=None)
        assert moved.buffer == sampler.choose_buffer(moved, sampler.DEFAULT_BUFFER_QUANTILE)
        assert moved.buffer < cfg.buffer


class TestInWindow:
    def test_half_open_on_every_axis(self):
        cfg = make_cfg(n=3, window=((0.0, 2.0), (-1.0, 1.0)))
        anchors = np.array(
            [
                [0.0, -1.0],  # on both low edges: in
                [np.nextafter(2.0, 0.0), np.nextafter(1.0, 0.0)],  # below both high edges: in
                [2.0, 0.0],  # on the high edge of axis 0: out
                [1.0, 1.0],  # on the high edge of axis 1: out
                [np.nextafter(0.0, -1.0), 0.0],  # below the low edge of axis 0: out
                [1.0, np.nextafter(-1.0, -2.0)],  # below the low edge of axis 1: out
            ]
        )
        assert cfg.in_window(anchors).tolist() == [True, True, False, False, False, False]

    def test_one_anchor(self):
        cfg = make_cfg(window=((0.0, 10.0),))
        assert cfg.in_window(np.array([0.0])).tolist() == [True]
        assert cfg.in_window(np.array([10.0])).tolist() == [False]
