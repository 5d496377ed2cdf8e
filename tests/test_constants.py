"""Tests for the closed-form constants and expectation formulas."""

import math

import pytest
from scipy import integrate

from anchormosaic import constants
from anchormosaic.constants import DimensionConfig, IntervalType

# published 2-decimal reference tables for the constants
TABLE_1D = {
    # n: (C00, C01, D0)
    2: (1.00, 0.27, 1.27),
    3: (1.09, 0.36, 1.46),
    4: (1.16, 0.42, 1.58),
    5: (1.22, 0.45, 1.67),
    6: (1.26, 0.48, 1.74),
    7: (1.29, 0.50, 1.79),
    8: (1.32, 0.51, 1.84),
    9: (1.35, 0.53, 1.87),
    20: (1.47, 0.60, 2.07),
}

TABLE_2D = {
    # n: (C00, C01, C02, C11, C12, C22, D0, D1, D2)
    3: (1.11, 0.26, 0.09, 2.47, 1.46, 1.37, 1.46, 4.37, 2.92),
    4: (1.25, 0.42, 0.15, 2.92, 1.83, 1.67, 1.83, 5.48, 3.66),
    5: (1.38, 0.54, 0.21, 3.30, 2.13, 1.92, 2.13, 6.38, 4.25),
    6: (1.49, 0.63, 0.25, 3.61, 2.37, 2.12, 2.37, 7.10, 4.74),
    7: (1.58, 0.71, 0.28, 3.87, 2.57, 2.29, 2.57, 7.71, 5.14),
    8: (1.66, 0.77, 0.31, 4.09, 2.74, 2.43, 2.74, 8.22, 5.48),
    9: (1.73, 0.82, 0.33, 4.28, 2.89, 2.55, 2.89, 8.66, 5.77),
    10: (1.79, 0.86, 0.35, 4.44, 3.01, 2.66, 3.01, 9.03, 6.02),
    20: (2.12, 1.12, 0.47, 5.37, 3.72, 3.25, 3.72, 11.16, 7.44),
    1000: (2.69, 1.54, 0.65, 6.92, 4.88, 4.23, 4.88, 14.65, 9.77),
}

TYPES_2D = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]

# Three printed entries are internally inconsistent with the table's own
# linear relations (e.g. at n = 4 the printed rows give
# C02 = D0 - C00 - C01 = 1.83 - 1.25 - 0.42 = 0.16, yet 0.15 is printed);
# the exact values land within one unit of the last printed digit instead.
MISPRINTED_2D = {(0, 2, 4), (0, 1, 10), (0, 1, 20)}


class TestGeometryConstants:
    def test_exact_spot_checks(self):
        assert constants.sphere_surface(1) == pytest.approx(2.0, rel=1e-14)
        assert constants.sphere_surface(2) == pytest.approx(2 * math.pi, rel=1e-14)
        assert constants.ball_volume(1) == pytest.approx(2.0, rel=1e-14)
        assert constants.ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
        assert constants.ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20])
    def test_ball_is_surface_over_n(self, n):
        assert constants.ball_volume(n) == pytest.approx(
            constants.sphere_surface(n) / n, rel=1e-14
        )

    def test_grassmannian_measures(self):
        assert constants.grassmannian_volume(0, 3) == pytest.approx(1.0)
        assert constants.grassmannian_volume(3, 3) == pytest.approx(1.0, rel=1e-14)
        # lines in the plane: angles in [0, pi)
        assert constants.grassmannian_volume(1, 2) == pytest.approx(math.pi, rel=1e-14)
        # lines and planes in R^3: half the sphere area
        assert constants.grassmannian_volume(1, 3) == pytest.approx(2 * math.pi, rel=1e-14)
        assert constants.grassmannian_volume(2, 3) == pytest.approx(2 * math.pi, rel=1e-14)


class TestTypes:
    def test_dimension_config_validation(self):
        with pytest.raises(ValueError):
            DimensionConfig(n=2, k=3)
        with pytest.raises(ValueError):
            DimensionConfig(n=2, k=1, rho=0.0)

    def test_interval_type_validation(self):
        with pytest.raises(ValueError):
            IntervalType(2, 1)

    def test_valid_types(self):
        assert [(t.ell, t.m) for t in constants.valid_interval_types(1)] == [
            (0, 0), (0, 1), (1, 1),
        ]
        assert len(constants.valid_interval_types(2)) == 6


class TestTable1D:
    @pytest.mark.parametrize("n", sorted(TABLE_1D))
    def test_published_values(self, n):
        c00, c01, d0 = TABLE_1D[n]
        assert constants.interval_constant((0, 0), 1, n) == pytest.approx(c00, abs=0.005)
        assert constants.interval_constant((0, 1), 1, n) == pytest.approx(c01, abs=0.005)
        assert constants.simplex_constant(0, 1, n) == pytest.approx(d0, abs=0.005)

    def test_frozen_exact_values(self):
        assert constants.interval_constant((0, 0), 1, 2) == pytest.approx(1.0, rel=1e-12)
        assert constants.interval_constant((0, 1), 1, 2) == pytest.approx(
            (4 - math.pi) / math.pi, rel=1e-12
        )

    @pytest.mark.parametrize("n", [2, 3, 5, 9, 20])
    def test_critical_edges_match_critical_vertices(self, n):
        assert constants.interval_constant((1, 1), 1, n) == pytest.approx(
            constants.interval_constant((0, 0), 1, n), rel=1e-14
        )

    @pytest.mark.parametrize("n", [2, 3, 7, 20])
    def test_edge_count_equals_vertex_count(self, n):
        d0 = constants.simplex_constant(0, 1, n)
        d1 = constants.simplex_constant(1, 1, n)
        assert d1 == pytest.approx(d0, rel=1e-12)
        assert constants.top_simplex_constant(1, n) == pytest.approx(d1, rel=1e-12)


class TestTable2D:
    @pytest.mark.parametrize("n", sorted(TABLE_2D))
    def test_published_values(self, n):
        row = TABLE_2D[n]
        for (ell, m), want in zip(TYPES_2D, row[:6]):
            got = constants.interval_constant((ell, m), 2, n)
            tol = 0.011 if (ell, m, n) in MISPRINTED_2D else 0.005
            assert got == pytest.approx(want, abs=tol), (ell, m, n)
        for j, want in enumerate(row[6:]):
            assert constants.simplex_constant(j, 2, n) == pytest.approx(want, abs=0.005)

    def test_misprinted_entries_are_table_side(self):
        # the printed rows violate the table's own linear relation at n = 4:
        # D0 = C00 + C01 + C02 forces C02 = 0.16 from the printed neighbors
        c00, c01, c02, *_ = TABLE_2D[4]
        d0 = TABLE_2D[4][6]
        assert abs(d0 - (c00 + c01 + c02)) >= 0.0099
        # the exact constants do satisfy the relation
        exact = [constants.interval_constant((ell, m), 2, 4) for ell, m in TYPES_2D]
        assert exact[0] + exact[1] + exact[2] == pytest.approx(
            constants.simplex_constant(0, 2, 4), rel=1e-12
        )

    def test_frozen_exact_values(self):
        # frozen from this implementation after cross-checking against direct
        # high-precision quadrature of the defining pair-count integral
        assert constants.interval_constant((0, 0), 2, 3) == pytest.approx(
            1.1079205567301793, rel=1e-12
        )
        assert constants.interval_constant((0, 1), 2, 3) == pytest.approx(
            0.25892164361501385, rel=1e-12
        )
        assert constants.interval_constant((1, 1), 2, 3) == pytest.approx(
            2.4747627570753705, rel=1e-12
        )
        assert constants.interval_constant((0, 1), 2, 10) == pytest.approx(
            0.8688955645201987, rel=1e-12
        )
        assert constants.interval_constant((0, 1), 2, 20) == pytest.approx(
            1.1255973566524382, rel=1e-12
        )
        assert constants.top_simplex_constant(2, 3) == pytest.approx(
            2.9159300274030846, rel=1e-12
        )

    def test_pair_constant_against_direct_quadrature(self):
        # independent oracle: the defining double integral of the projected
        # pair distance, evaluated by adaptive quadrature
        n, k = 5, 2
        exponent = (n - k - 2) / 2.0

        def inner(x):
            val, _ = integrate.quad(
                lambda y: (x - y) ** k * ((1 - x * x) * (1 - y * y)) ** exponent,
                0.0,
                x,
            )
            return val

        double, _ = integrate.quad(inner, 0.0, 1.0, limit=100)
        beta = math.gamma((n - k) / 2) * math.gamma(0.5) / math.gamma((n - k + 1) / 2)
        expectation = 4.0 / beta**2 * double
        sigma = lambda d: 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
        nu_n = sigma(n) / n
        oracle = (
            sigma(n - k + 1) ** 2
            * sigma(k)
            * math.gamma(2.0 - k / n)
            / (4.0 * n * nu_n ** (2.0 - k / n))
            * expectation
        )
        assert constants.interval_constant((0, 1), 2, n) == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("n", range(3, 51))
    def test_euler_and_planar_relations(self, n):
        c = {t: constants.interval_constant(t, 2, n) for t in TYPES_2D}
        euler = c[(0, 0)] - c[(1, 1)] + c[(2, 2)]
        assert abs(euler) <= 1e-10 * c[(1, 1)]
        triangles = c[(0, 2)] + c[(1, 2)] + c[(2, 2)]
        vertices = c[(0, 0)] + c[(0, 1)] + c[(0, 2)]
        assert triangles == pytest.approx(2.0 * vertices, rel=1e-10)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_top_simplex_two_routes(self, n):
        assert constants.simplex_constant(2, 2, n) == pytest.approx(
            constants.top_simplex_constant(2, n), rel=1e-10
        )

    def test_monotone_in_n(self):
        for t in TYPES_2D:
            values = [constants.interval_constant(t, 2, n) for n in range(3, 21)]
            assert all(b > a for a, b in zip(values, values[1:])), t
        for t in [(0, 0), (0, 1)]:
            values = [constants.interval_constant(t, 1, n) for n in range(2, 21)]
            assert all(b > a for a, b in zip(values, values[1:])), t


class TestOneDimSpecialization:
    @pytest.mark.parametrize("n", range(2, 21))
    def test_general_formulas_reduce_to_1d(self, n):
        # the general-k pair and critical-edge forms at k = 1 against the
        # elementary one-dimensional closed forms
        assert constants.vertex_edge_pair_constant(1, n) == pytest.approx(
            constants.interval_constant((0, 1), 1, n), rel=1e-10
        )
        assert constants.critical_edge_constant(1, n) == pytest.approx(
            constants.interval_constant((0, 0), 1, n), rel=1e-10
        )
        assert constants.critical_vertex_constant(1, n) == pytest.approx(
            constants.interval_constant((0, 0), 1, n), rel=1e-10
        )


class TestExpectedCounts:
    def test_zero_threshold(self):
        cfg = DimensionConfig(n=3, k=2, rho=2.0)
        for t in TYPES_2D:
            assert constants.expected_interval_count(t, cfg, 10.0, 0.0) == 0.0
        for j in range(3):
            assert constants.expected_simplex_count(j, cfg, 10.0, 0.0) == 0.0

    def test_infinite_threshold_reduces_to_constant(self):
        cfg = DimensionConfig(n=2, k=1, rho=1.0)
        assert constants.expected_interval_count((0, 0), cfg, 1000.0) == pytest.approx(
            1000.0 * constants.interval_constant((0, 0), 1, 2), rel=1e-12
        )
        cfg4 = DimensionConfig(n=3, k=2, rho=2.0)
        for j in range(3):
            assert constants.expected_simplex_count(j, cfg4, 7.0) == pytest.approx(
                constants.simplex_constant(j, 2, 3) * 2.0 ** (2 / 3) * 7.0, rel=1e-12
            )

    def test_pair_curve_against_quadrature_oracle(self):
        # (0,1) intervals at n=2, k=1, rho=4, area=10, r0=0.5: the Gamma
        # fraction has shape 2 - 1/2 = 1.5 at x = rho nu_2 r0^2 = pi;
        # frozen from quadrature of t^0.5 e^-t over [0, pi]
        val, _ = integrate.quad(
            lambda t: t**0.5 * math.exp(-t), 0.0, 4 * math.pi * 0.25, epsrel=1e-13
        )
        oracle = (4 - math.pi) / math.pi * val / math.gamma(1.5) * 2.0 * 10.0
        assert oracle == pytest.approx(4.9258711482185, rel=1e-12)
        cfg = DimensionConfig(n=2, k=1, rho=4.0)
        assert constants.expected_interval_count((0, 1), cfg, 10.0, 0.5) == pytest.approx(
            oracle, rel=1e-10
        )

    def test_top_dim_simplex_count_matches_interval_sum(self):
        # j = k: a single m = k term with binom(k - ell, 0) = 1
        cfg = DimensionConfig(n=3, k=2, rho=1.3)
        direct = constants.expected_simplex_count(2, cfg, 5.0, 0.8)
        summed = sum(
            constants.expected_interval_count((ell, 2), cfg, 5.0, 0.8) for ell in range(3)
        )
        assert direct == pytest.approx(summed, rel=1e-12)

    def test_monotone_in_threshold_and_area(self):
        cfg = DimensionConfig(n=3, k=2, rho=1.0)
        values = [
            constants.expected_interval_count((1, 1), cfg, 3.0, r0)
            for r0 in [0.0, 0.2, 0.5, 1.0, 2.0, math.inf]
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert constants.expected_interval_count((1, 1), cfg, 6.0, 0.5) == pytest.approx(
            2.0 * constants.expected_interval_count((1, 1), cfg, 3.0, 0.5), rel=1e-12
        )

    def test_unsupported_k(self):
        with pytest.raises(ValueError):
            constants.interval_constant((0, 0), 3, 5)
        with pytest.raises(ValueError):
            constants.interval_constant((0, 0), 2, 2)


class TestAsymptoticLimits:
    def test_limit_values(self):
        lim = constants.asymptotic_limits_1d()
        assert lim.critical_vertex_limit == pytest.approx(1.64872, abs=1e-5)
        assert lim.pair_limit == pytest.approx(math.sqrt(math.e) * (math.sqrt(2) - 1), rel=1e-14)
        assert lim.vertex_count_limit == pytest.approx(2.33164, abs=1e-5)

    def test_monotone_convergence(self):
        lim = constants.asymptotic_limits_1d()
        targets = (lim.critical_vertex_limit, lim.pair_limit, lim.vertex_count_limit)
        gaps = {
            n: [abs(v - t) for v, t in zip(vals, targets)]
            for n, vals in lim.values.items()
        }
        for i in range(3):
            assert gaps[100][i] > gaps[1000][i] > gaps[10000][i]
            assert gaps[10000][i] < 0.01

    def test_table_value_at_20(self):
        assert constants.interval_constant((0, 0), 1, 20) == pytest.approx(1.47, abs=0.005)
