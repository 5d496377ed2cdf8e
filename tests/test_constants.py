"""Tests for the closed-form constants and expectation formulas."""

import builtins
import functools
import math

import pytest
from scipy import integrate, special

from anchormosaic import constants, experiments
from anchormosaic.constants import IntervalType
from oracles import compensated_sum

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

    def test_pair_constant_is_the_upper_total_less_the_critical_edges(self):
        # summed over ell, the sphere integral's weight det[1, u'_i]^2 has a
        # Cauchy-Binet mean, so C[0,1] + C[1,1] = T1 = grass(1,2) sigma_(n-1)^2
        # Gamma(2 - 2/n) / (n (n-1) nu_n^(2-2/n)): the 3F2 route checked
        # without a 3F2
        for n in range(3, 101):
            log_t1 = (
                math.log(constants.grassmannian_volume(1, 2))
                + 2.0 * constants.log_sphere_surface(n - 1)
                + math.lgamma(2.0 - 2.0 / n)
                - math.log(n)
                - math.log(n - 1.0)
                - (2.0 - 2.0 / n) * constants.log_ball_volume(n)
            )
            c01 = math.exp(log_t1) - constants.critical_edge_constant(2, n)
            assert c01 == pytest.approx(constants.interval_constant((0, 1), 2, n), rel=1e-12), n

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
    def test_input_validation(self):
        # n <= k, and a density that is not finite and above 0
        for k, n, rho in [(2, 2, 1.0), (3, 2, 1.0), (1, 2, 0.0), (1, 2, math.nan)]:
            with pytest.raises(ValueError):
                constants.expected_interval_count((0, 0), k, n, rho, 1.0)
            with pytest.raises(ValueError):
                constants.expected_simplex_count(0, k, n, rho, 1.0)

    @pytest.mark.parametrize("j", [-1, 3])
    def test_simplex_dimension_range(self, j):
        with pytest.raises(ValueError, match="need 0 <= j <= k"):
            constants.simplex_constant(j, 2, 3)
        with pytest.raises(ValueError, match="need 0 <= j <= k"):
            constants.expected_simplex_count(j, 2, 3, 1.0, 1.0)

    def test_zero_threshold(self):
        for t in TYPES_2D:
            assert constants.expected_interval_count(t, 2, 3, 2.0, 10.0, 0.0) == 0.0
        for j in range(3):
            assert constants.expected_simplex_count(j, 2, 3, 2.0, 10.0, 0.0) == 0.0

    @pytest.mark.parametrize("k", [1, 2])
    def test_simplex_constant_is_the_unit_expectation(self, k):
        # one sum for both: D_j[k,n] is the expected count at rho = area = 1,
        # r0 = inf, bit for bit
        for j in range(k + 1):
            for n in range(k + 1, 41):
                assert constants.simplex_constant(j, k, n) == constants.expected_simplex_count(
                    j, k, n, 1.0, 1.0
                ), (j, n)

    def test_infinite_threshold_reduces_to_constant(self):
        assert constants.expected_interval_count((0, 0), 1, 2, 1.0, 1000.0) == pytest.approx(
            1000.0 * constants.interval_constant((0, 0), 1, 2), rel=1e-12
        )
        for j in range(3):
            assert constants.expected_simplex_count(j, 2, 3, 2.0, 7.0) == pytest.approx(
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
        assert constants.expected_interval_count((0, 1), 1, 2, 4.0, 10.0, 0.5) == pytest.approx(
            oracle, rel=1e-10
        )

    def test_top_dim_simplex_count_matches_interval_sum(self):
        # j = k: a single m = k term with binom(k - ell, 0) = 1
        direct = constants.expected_simplex_count(2, 2, 3, 1.3, 5.0, 0.8)
        summed = sum(
            constants.expected_interval_count((ell, 2), 2, 3, 1.3, 5.0, 0.8) for ell in range(3)
        )
        assert direct == pytest.approx(summed, rel=1e-12)

    def test_monotone_in_threshold_and_area(self):
        values = [
            constants.expected_interval_count((1, 1), 2, 3, 1.0, 3.0, r0)
            for r0 in [0.0, 0.2, 0.5, 1.0, 2.0, 1e200, math.inf]
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))
        # 1e200^3 is past the float range: the r0 = inf value, exactly
        assert values[-2] == values[-1]
        assert constants.expected_interval_count((1, 1), 2, 3, 1.0, 6.0, 0.5) == pytest.approx(
            2.0 * constants.expected_interval_count((1, 1), 2, 3, 1.0, 3.0, 0.5), rel=1e-12
        )

    def test_threshold_past_the_float_range_at_a_tiny_density(self):
        # r0^2 overflows at r0 = 1e155, but rho nu_2 r0^2 = pi at rho = 1e-310
        got = constants.expected_interval_count((0, 0), 1, 2, 1e-310, 1.0, 1e155)
        fraction = special.gammainc(0.5, math.pi)
        assert fraction < 0.99
        assert got == pytest.approx(
            constants.interval_constant((0, 0), 1, 2) * fraction * 1e-155, rel=1e-12
        )

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n", [453, 700, 10000])
    def test_infinite_threshold_past_the_ball_volume_underflow(self, k, n):
        # nu_n is 0 in floating point from n = 453; at r0 = inf the Gamma
        # factor is still 1, bit for bit
        for t in constants.valid_interval_types(k):
            assert constants.expected_interval_count(t, k, n, 2.0, 7.0) == (
                constants.interval_constant(t, k, n) * 2.0 ** (k / n) * 7.0
            ), t
        for j in range(k + 1):
            assert constants.expected_simplex_count(j, k, n, 2.0, 7.0) == (
                constants.simplex_constant(j, k, n) * 2.0 ** (k / n) * 7.0
            ), j

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("rho", [1.0, 1e232])
    def test_finite_threshold_past_the_ball_volume_underflow(self, k, rho):
        # at n = 700, r0 = 3: rho nu_n r0^n is 7.9e-233 at rho = 1 and 0.79
        # at rho = 1e232, though nu_700 and 3^700 are past the float range
        n, r0 = 700, 3.0
        x = math.exp(math.log(rho) + constants.log_ball_volume(n) + n * math.log(r0))
        norm = rho ** (k / n) * 5.0
        for t in constants.valid_interval_types(k):
            got = constants.expected_interval_count(t, k, n, rho, 5.0, r0)
            fraction = special.gammainc(t.m + 1.0 - k / n, x)
            assert math.isfinite(got)
            assert got == pytest.approx(
                constants.interval_constant(t, k, n) * fraction * norm, rel=1e-12, abs=0
            ), t
        for j in range(k + 1):
            got = constants.expected_simplex_count(j, k, n, rho, 5.0, r0)
            mixed = sum(
                special.gammainc(m + 1.0 - k / n, x) * constants._simplex_share(j, m, k, n)
                for m in range(j, k + 1)
            )
            assert math.isfinite(got)
            assert got == pytest.approx(mixed * norm, rel=1e-12, abs=0), j

    def test_unsupported_k(self):
        with pytest.raises(ValueError):
            constants.interval_constant((0, 0), 3, 5)
        with pytest.raises(ValueError):
            constants.interval_constant((0, 0), 2, 2)


def _log_grain_moment(q: int, p: int) -> float:
    # log beta_p, beta_p = (q/2) B(q/2, p/2 + 1) = E[(s/r)^p] for a grain of
    # radius s = sqrt(r^2 - h^2) cut from a radius-r ball whose centre lies
    # at a uniform height h of the q = n - k slice-normal dimensions
    return (
        math.log(q / 2.0) + math.lgamma(q / 2.0) + math.lgamma(p / 2.0 + 1.0)
        - math.lgamma((q + p) / 2.0 + 1.0)
    )


def _euler_coefficients(k: int, n: int) -> dict[int, tuple[float, float]]:
    """(sign, log |b_j|) of the sliced Boolean model's Euler density
    rho^(k/n) e^(-x) sum_j b_j x^(j - k/n), x = rho nu_n r^n, for j = 1..k."""
    log_nu_n = constants.log_ball_volume(n)
    log_b1 = constants.log_ball_volume(n - k) - (1.0 - k / n) * log_nu_n
    beta = functools.partial(_log_grain_moment, n - k)
    b = {1: (1.0, log_b1)}
    if k == 2:
        b[2] = (-1.0, math.log(math.pi) + 2.0 * beta(1) + 2.0 * log_b1 - 2.0 / n * log_nu_n)
    elif k == 3:
        b[2] = (-1.0, math.log(4.0 * math.pi) + beta(1) + beta(2) + 2.0 * log_b1 - 3.0 / n * log_nu_n)
        b[3] = (1.0, 4.0 * math.log(math.pi) - math.log(6.0) + 3.0 * beta(2) + 3.0 * log_b1
                - 6.0 / n * log_nu_n)
    return b


def _critical_constants(k: int, n: int) -> list[float]:
    """C[m,m; k,n] = (-1)^m (Gamma(m+2-k/n) b_(m+1) - Gamma(m+1-k/n) b_m) for
    m = 0..k, with b_0 = b_(k+1) = 0: the critical simplices are the Euler
    density's x-derivative, matched power by power."""
    b = _euler_coefficients(k, n)

    def term(j: int, shape: float) -> float:  # Gamma(shape) b_j
        sign, log_b = b.get(j, (0.0, 0.0))
        return sign * math.exp(math.lgamma(shape) + log_b)

    return [(-1) ** m * (term(m + 1, m + 2 - k / n) - term(m, m + 1 - k / n)) for m in range(k + 1)]


def _upper_total(k: int, n: int) -> float:
    """T_(k-1) = sum_ell C[ell, k-1; k,n] = grass(k-1, k) sigma_(n-1)^k
    Gamma(k - k/n) / (n (n-1)^(k-1) nu_n^(k-k/n)), the Cauchy-Binet mean of
    the sphere integral's weight det[1, u'_i]^2."""
    log_t = (
        math.log(constants.grassmannian_volume(k - 1, k))
        + k * constants.log_sphere_surface(n - 1)
        + math.lgamma(k - k / n)
        - math.log(n)
        - (k - 1) * math.log(n - 1.0)
        - (k - k / n) * constants.log_ball_volume(n)
    )
    return math.exp(log_t)


# C[2,2] and C[3,3] at k = 3, n = 4..9, from the sliced Boolean model
CRITICAL_3D = {
    4: (6.757112, 2.702845),
    5: (8.504594, 3.484044),
    6: (10.059238, 4.180462),
    7: (11.432079, 4.796599),
    8: (12.645092, 5.341821),
    9: (13.720892, 5.825935),
}


class TestSlicedBooleanModel:
    # the sublevel set of the radius function is homotopic to the k-plane
    # slice of a union of balls, an isotropic Boolean model in R^k, whose
    # Euler density gives every critical constant C[m,m]

    @pytest.mark.parametrize("k", [1, 2])
    def test_critical_constants_are_the_closed_forms(self, k):
        for n in range(k + 1, 13):
            for m, got in enumerate(_critical_constants(k, n)):
                assert got == pytest.approx(constants.interval_constant((m, m), k, n), rel=1e-12), n

    @pytest.mark.parametrize("n", range(4, 13))
    def test_k3_vertices_and_edges_are_the_any_k_forms(self, n):
        c = _critical_constants(3, n)
        assert c[0] == pytest.approx(constants.critical_vertex_constant(3, n), rel=1e-12)
        assert c[1] == pytest.approx(constants.critical_edge_constant(3, n), rel=1e-12)
        assert abs(c[0] - c[1] + c[2] - c[3]) <= 1e-12 * c[1]

    def test_k3_table(self):
        for n, (c22, c33) in CRITICAL_3D.items():
            c = _critical_constants(3, n)
            assert (round(c[2], 6), round(c[3], 6)) == (c22, c33), n

    def test_k3_upper_total_fixes_the_upper_pairs(self):
        # C[0,2] + C[1,2] at (4,3), the rest of the upper total: 10.8113797 -
        # 6.7571123, which the 6-decimal values round to 4.054268
        assert round(_upper_total(3, 4) - _critical_constants(3, 4)[2], 7) == 4.0542674


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

    @pytest.mark.parametrize(
        "constant, limit",
        [
            (lambda n: constants.critical_vertex_constant(1, n), math.exp(0.5)),
            (lambda n: constants.critical_vertex_constant(2, n), math.e),
            (lambda n: constants.critical_vertex_constant(3, n), math.exp(1.5)),
            (lambda n: constants.critical_edge_constant(2, n), math.e * (1.0 + math.pi / 2.0)),
            (lambda n: constants.interval_constant((2, 2), 2, n), math.e * math.pi / 2.0),
            (lambda n: constants.interval_constant((0, 1), 2, n), math.e * (math.pi / 2.0 - 1.0)),
            (lambda n: constants.top_simplex_constant(1, n), math.sqrt(2.0 * math.e)),
            (lambda n: constants.top_simplex_constant(2, n), 2.0 * math.pi * math.e / math.sqrt(3.0)),
            (lambda n: constants.top_simplex_constant(3, n), 4.0 * math.pi * math.exp(1.5)),
            (lambda n: constants.interval_constant((0, 2), 2, n),
             math.pi * math.e * (1.0 / math.sqrt(3.0) - 0.5)),
            (lambda n: constants.interval_constant((1, 2), 2, n), math.pi * math.e / math.sqrt(3.0)),
            (lambda n: constants.critical_edge_constant(3, n), 5.0 * math.exp(1.5)),
            (lambda n: constants.interval_constant((0, 1), 2, n) + constants.critical_edge_constant(2, n),
             math.pi * math.e),
        ],
        ids=["C00-k1", "C00-k2", "C00-k3", "C11-k2", "C22-k2", "C01-k2",
             "D1-k1", "D2-k2", "D3-k3", "C02-k2", "C12-k2", "C11-k3", "T1-k2"],
    )
    def test_closed_forms_reach_their_large_n_limits(self, constant, limit):
        # C[0,0; k,n] -> e^(k/2), and at k = 2 C[1,1] -> e (1 + pi/2),
        # C[2,2] -> e pi/2 and C[0,1] -> e (pi/2 - 1). D_k -> 2^k
        # pi^((k-1)/2) Gamma((k+1)/2) e^(k/2) / sqrt(k+1): in its log form
        # sigma_{n+1} / sigma_{n-k+1} cancels the last lgamma and Stirling
        # takes the n-dependent rest to log(k+1)/2 - log 2 + k/2. At k = 2
        # the planar relations then give C[0,2] -> pi e (1/sqrt 3 - 1/2) and
        # C[1,2] -> pi e / sqrt 3. At k = 3, C[1,1] -> 5 e^(3/2), and the
        # upper total C[0,1] + C[1,1] at k = 2 tends to pi e. The relative gap
        # falls about 8x per decade of n
        gap = {n: abs(constant(n) / limit - 1.0) for n in (10**4, 10**5, 10**6)}
        assert gap[10**6] < 5e-5
        assert gap[10**5] <= gap[10**4] / 5.0

    @pytest.mark.parametrize(
        "constant, limit",
        [
            (lambda n: _critical_constants(3, n)[2], math.exp(1.5) * (4.0 + math.pi)),
            (lambda n: _critical_constants(3, n)[3], math.exp(1.5) * math.pi),
            (lambda n: _upper_total(3, n), 4.0 * math.pi * math.exp(1.5)),
        ],
        ids=["C22-k3", "C33-k3", "T2-k3"],
    )
    def test_k3_limits_from_the_sliced_boolean_model(self, constant, limit):
        # b_2 -> -2 e^(3/2) and b_3 -> (pi/6) e^(3/2) give C[2,2] -> e^(3/2)
        # (4 + pi) and C[3,3] -> e^(3/2) pi; the upper total tends to
        # (sigma_3 / 2) 2! e^(3/2) = 4 pi e^(3/2). All in logs, since nu_n
        # underflows past n = 453
        gap = {n: abs(constant(n) / limit - 1.0) for n in (10**4, 10**5, 10**6)}
        assert gap[10**6] < 5e-5
        assert gap[10**5] <= gap[10**4] / 5.0


def _clear_constant_caches():
    for value in vars(constants).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def _summed_values() -> list[str]:
    # every value of a sum over types or dimensions at k <= 2, n < 400
    values = []
    for k in (1, 2):
        for n in range(k + 1, 400):
            values += [constants.interval_constant(t, k, n) for t in constants.valid_interval_types(k)]
            values += [constants.simplex_constant(j, k, n) for j in range(k + 1)]
            values += [constants.critical_edge_constant(k, n)]
            values += [constants.expected_simplex_count(j, k, n, 1.0, 1.0, 1.3) for j in range(k + 1)]
    values += [experiments.verify_gamma_lemma().max_rel_error]
    return [float(v).hex() for v in values]


def test_no_value_reads_the_builtin_sum(monkeypatch):
    # Python 3.12 made the builtin sum compensated; while the package called
    # it, 67 of these values took other last bits there than on 3.10 and 3.11
    _clear_constant_caches()
    plain = _summed_values()
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    _clear_constant_caches()
    try:
        assert _summed_values() == plain
    finally:
        _clear_constant_caches()
