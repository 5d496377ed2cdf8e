"""Tests for the special-function kernel."""

import math

import numpy as np
import pytest
from scipy import integrate

from anchormosaic import specfun
from anchormosaic.errors import ConvergenceError

from oracles import beta_fn, beta_inc, regularized_lower_gamma


class TestRegularizedLowerGamma:
    """The scalar reference that the vectorised Gamma-law tests compare to."""

    def test_exponential_shape(self):
        # gamma(1, x) = 1 - e^-x
        assert regularized_lower_gamma(1.0, 2.0) == pytest.approx(
            1.0 - math.exp(-2.0), rel=1e-14
        )

    def test_zero_argument(self):
        assert regularized_lower_gamma(2.5, 0.0) == 0.0

    def test_against_quadrature(self):
        # frozen from adaptive quadrature of t^(a-1) e^-t on [0, 2] / Gamma(1.5)
        oracle = 0.7385358700508892
        value = regularized_lower_gamma(1.5, 2.0)
        assert value == pytest.approx(oracle, rel=1e-12)
        live, _ = integrate.quad(lambda t: t**0.5 * math.exp(-t), 0.0, 2.0)
        assert value == pytest.approx(live / math.gamma(1.5), rel=1e-10)

    @pytest.mark.parametrize("a", [0.3, 0.5, 1.0, 1.5, 2.3333, 7.0, 40.0])
    def test_bounds_and_monotone(self, a):
        grid = np.linspace(0.0, 8.0 * a, 200)
        values = [regularized_lower_gamma(a, x) for x in grid]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a_ for a_, b in zip(values, values[1:]))
        assert regularized_lower_gamma(a, 80.0 * a) > 1.0 - 1e-9

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            regularized_lower_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            regularized_lower_gamma(-1.0, 1.0)
        with pytest.raises(ValueError):
            regularized_lower_gamma(1.0, -0.5)
        with pytest.raises(ValueError):
            regularized_lower_gamma(1.0, math.nan)
        with pytest.raises(ValueError):
            regularized_lower_gamma(math.inf, 1.0)


class TestBeta:
    """The scalar reference that the vectorised Beta-law test compares to."""

    def test_uniform(self):
        assert beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_half_half(self):
        assert beta_fn(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14)

    @pytest.mark.parametrize("a,b", [(0.5, 2.0), (1.3, 4.7), (3.0, 3.0), (0.2, 0.9)])
    def test_symmetry_and_gamma_identity(self, a, b):
        assert beta_fn(a, b) == pytest.approx(beta_fn(b, a), rel=1e-14)
        via_gamma = math.exp(
            math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        )
        assert beta_fn(a, b) == pytest.approx(via_gamma, rel=1e-12)

    def test_incomplete_complete(self):
        assert beta_inc(1.0, 2.5, 3.5) == pytest.approx(
            beta_fn(2.5, 3.5), rel=1e-14
        )
        assert beta_inc(0.0, 2.5, 3.5) == 0.0

    def test_incomplete_against_quadrature(self):
        # frozen from quadrature of t (1-t)^2 on [0, 0.5]
        oracle = 0.05729166666666667
        assert beta_inc(0.5, 2.0, 3.0) == pytest.approx(oracle, rel=1e-12)

    def test_incomplete_monotone(self):
        grid = np.linspace(0.0, 1.0, 101)
        values = [beta_inc(t, 1.7, 0.4) for t in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            beta_fn(-1.0, 2.0)
        with pytest.raises(ValueError):
            beta_inc(1.5, 1.0, 1.0)


class TestHyp3f2:
    def test_vanishing_upper_parameter(self):
        # a3 = 0 leaves only the j = 0 term
        assert specfun.hyp3f2(0.5, 1.0, 0.0, 2.5, 3.0) == 1.0

    def test_terminating_sum_matches_explicit(self):
        # a3 = -3 terminates after four terms; compare with the explicit sum
        a1, a2, a3, b1, b2 = 0.5, 1.0, -3.0, 2.5, 4.0

        def pochhammer(x, j):
            out = 1.0
            for i in range(j):
                out *= x + i
            return out

        explicit = sum(
            pochhammer(a1, j)
            * pochhammer(a2, j)
            * pochhammer(a3, j)
            / (pochhammer(b1, j) * pochhammer(b2, j) * math.factorial(j))
            for j in range(4)
        )
        assert specfun.hyp3f2(a1, a2, a3, b1, b2) == pytest.approx(explicit, rel=1e-12)

    def test_one_dim_pair_constant_cross_check(self):
        # fed through the pair-constant closed form at (k, n) = (1, 2), the
        # series must reproduce the known value (4 - pi) / pi = 0.27...
        n, k = 2, 1
        b1, b2 = (k + 3) / 2.0, (n + 2) / 2.0
        series = specfun.hyp3f2(0.5, 1.0, (k - n + 2) / 2.0, b1, b2) / (
            math.gamma(b1) * math.gamma(b2)
        )
        sigma = lambda d: 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
        nu = lambda d: sigma(d) / d
        expectation = (
            math.gamma(k + 1.0)
            * math.gamma((n - k + 1) / 2.0) ** 2
            / (2.0**k * math.sqrt(math.pi) * math.gamma((n - k) / 2.0))
            * series
        )
        constant = (
            sigma(n - k + 1) ** 2
            * sigma(k)
            * math.gamma(2.0 - k / n)
            / (4.0 * n * nu(n) ** (2.0 - k / n))
            * expectation
        )
        assert constant == pytest.approx((4.0 - math.pi) / math.pi, rel=1e-12)
        assert round(constant, 2) == 0.27

    def test_slow_z1_convergence_with_tail(self):
        # same shape of series at (k, n) = (1, 2): terms decay like j^-3, the
        # slowest case exercised; compare with a very long partial sum
        a1, a2, a3, b1, b2 = 0.5, 1.0, 0.5, 2.0, 2.0
        term, total = 1.0, 1.0
        for j in range(1_500_000):
            term *= (j + a1) * (j + a2) * (j + a3) / ((j + b1) * (j + b2) * (j + 1.0))
            total += term
        value = specfun.hyp3f2(a1, a2, a3, b1, b2)
        assert value == pytest.approx(total, rel=1e-10)

    def test_convergence_violation(self):
        # b1 + b2 <= a1 + a2 + a3 at z = 1 diverges
        with pytest.raises(ConvergenceError):
            specfun.hyp3f2(2.0, 2.0, 2.0, 1.5, 1.5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            specfun.hyp3f2(1.0, 1.0, 1.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            specfun.hyp3f2(1.0, 1.0, 1.0, -2.0, 2.0)

