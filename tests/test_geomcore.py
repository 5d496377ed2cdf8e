"""Tests for the geometric kernel."""

import copy
import dataclasses
import functools
import math
import pickle
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.spatial import ConvexHull, Delaunay

from anchormosaic import experiments, geomcore, sampler
from anchormosaic.constants import IntervalType
from anchormosaic.errors import DegeneracyError, MosaicError
from anchormosaic.geomcore import AnchoredSphere
from anchormosaic.sampler import SamplingConfig

from oracles import (
    WeightedPoint,
    build,
    exact_anchor,
    exact_barycentric,
    exact_lower_chain,
    exact_lower_hull_1d,
    interval_violations,
    intervals_per_row,
    random_cloud,
    smallest_anchored_circumsphere,
    visibility_type,
)


# (5, 3), 6^3 window: replicate 69 at seed 7 holds a sliver tetrahedron at the
# boundary of the sampled box, volume 9.3e-8 and cond(e) 2.7e8, whose Gram
# matrix e e^T is singular in floating point
SLIVER_CFG = SamplingConfig(n=5, rho=1.0, window=((0.0, 6.0),) * 3, seed=7)


@functools.cache
def sliver_mosaic() -> geomcore.Mosaic:
    return build(sampler.sample_poisson_box(SLIVER_CFG, 69), 3)


def power_grid_winners(y: np.ndarray, w: np.ndarray, grid: np.ndarray) -> set[int]:
    """Generators of least power at some point of ``grid``."""
    powers = np.stack([np.einsum("ij,ij->i", grid - y[i], grid - y[i]) - w[i] for i in range(len(y))])
    return set(np.argmin(powers, axis=0).tolist())


class TestProjection:
    def test_simple(self):
        y, w = geomcore.slice_cloud(np.array([[3.0, 4.0]]), 1)
        assert y[0] == pytest.approx([3.0])
        assert w[0] == pytest.approx(-16.0)

    def test_point_in_plane(self):
        _, w = geomcore.slice_cloud(np.array([[1.0, 2.0, 0.0]]), 2)
        assert w[0] == 0.0

    def test_no_tail_coordinates(self):
        # k = n: the slice is the whole space, and every weight is 0
        y, w = geomcore.slice_cloud(np.array([[1.0, 2.0], [3.0, 4.0]]), 2)
        assert y.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert w.shape == (2,)
        assert (w == 0.0).all()

    def test_two_tail_coordinates(self):
        y, w = geomcore.slice_cloud(np.array([[1.0, 2.0, 2.0]]), 1)
        assert y[0] == pytest.approx([1.0])
        assert w[0] == pytest.approx(-8.0)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        cloud = rng.normal(size=(20, 4))
        y, w = geomcore.slice_cloud(cloud, 2)
        for i in range(20):
            tail = cloud[i, 2:]
            assert y[i] == pytest.approx(cloud[i, :2])
            assert w[i] == pytest.approx(-float(tail @ tail))


class TestSmallestAnchoredCircumsphere:
    def test_single_point(self):
        s = smallest_anchored_circumsphere(np.array([[0.0, 0.0, 3.0]]), 2)
        assert s.anchor == pytest.approx([0.0, 0.0])
        assert s.radius == pytest.approx(3.0)

    def test_symmetric_pair(self):
        s = smallest_anchored_circumsphere(
            np.array([[-1.0, 1.0], [1.0, 1.0]]), 1
        )
        assert s.anchor == pytest.approx([0.0])
        assert s.radius == pytest.approx(math.sqrt(2.0))

    def test_symmetric_triple(self):
        theta = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
        pts = np.column_stack([np.cos(theta), np.sin(theta), np.ones(3)])
        s = smallest_anchored_circumsphere(pts, 2)
        assert s.anchor == pytest.approx([0.0, 0.0], abs=1e-12)
        assert s.radius == pytest.approx(math.sqrt(2.0))

    def test_random_triples_against_grid_descent_oracle(self):
        # oracle: coarse grid on the plane minimizing the distance spread,
        # refined by derivative-free local descent; the winner is the unique
        # equal-distance anchor for three points in R^3 with k = 2
        rng = np.random.default_rng(3)
        for _ in range(5):
            pts = rng.uniform(-1, 1, size=(3, 3))

            def spread(z):
                d = np.linalg.norm(pts - np.array([z[0], z[1], 0.0]), axis=1)
                return (d.max() - d.min()) ** 2

            grid = np.linspace(-6, 6, 121)
            best, best_val = None, np.inf
            for gx in grid:
                for gy in grid:
                    val = spread((gx, gy))
                    if val < best_val:
                        best, best_val = (gx, gy), val
            res = optimize.minimize(spread, best, method="Nelder-Mead",
                                    options={"xatol": 1e-12, "fatol": 1e-24})
            anchor = res.x
            radius = float(
                np.mean(np.linalg.norm(pts - np.array([*anchor, 0.0]), axis=1))
            )
            s = smallest_anchored_circumsphere(pts, 2)
            assert s.anchor == pytest.approx(anchor, abs=1e-6)
            assert s.radius == pytest.approx(radius, abs=1e-6)

    def test_pair_in_plane_against_constrained_oracle(self):
        # two points, k = 2: minimize the radius over the equal-distance flat
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1, 1, size=(2, 3))

        def radius(z):
            return np.linalg.norm(pts[0] - np.array([z[0], z[1], 0.0]))

        constraint = {
            "type": "eq",
            "fun": lambda z: np.linalg.norm(pts[0] - np.array([z[0], z[1], 0.0]))
            - np.linalg.norm(pts[1] - np.array([z[0], z[1], 0.0])),
        }
        res = optimize.minimize(radius, [0.0, 0.0], method="SLSQP",
                                constraints=[constraint], options={"ftol": 1e-14})
        s = smallest_anchored_circumsphere(pts, 2)
        assert s.anchor == pytest.approx(res.x, abs=1e-6)
        assert s.radius == pytest.approx(res.fun, abs=1e-7)

    @pytest.mark.parametrize("m,k,n", [(0, 1, 3), (1, 1, 2), (1, 2, 3), (2, 2, 3), (2, 2, 4)])
    def test_equal_power_invariant(self, m, k, n):
        rng = np.random.default_rng(100 * m + 10 * k + n)
        for _ in range(20):
            pts = rng.uniform(-2, 2, size=(m + 1, n))
            s = smallest_anchored_circumsphere(pts, k)
            center = np.zeros(n)
            center[:k] = s.anchor
            dists = np.linalg.norm(pts - center, axis=1)
            assert dists == pytest.approx(np.full(m + 1, s.radius), rel=1e-9)

    def test_anchor_stationarity(self):
        # perturbing the anchor inside the equal-power flat never shrinks the radius
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, size=(2, 3))
        s = smallest_anchored_circumsphere(pts, 2)
        y = pts[:, :2]
        direction = np.array([-(y[1] - y[0])[1], (y[1] - y[0])[0]])
        direction /= np.linalg.norm(direction)

        def radius_at(z):
            return np.linalg.norm(pts[0] - np.array([z[0], z[1], 0.0]))

        for eps in (1e-4, -1e-4, 1e-3, -1e-3):
            assert radius_at(s.anchor + eps * direction) >= s.radius - 1e-12

    def test_errors(self):
        with pytest.raises(ValueError):
            smallest_anchored_circumsphere(np.zeros((3, 3)), 1)  # m > k
        with pytest.raises(DegeneracyError):
            smallest_anchored_circumsphere(
                np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]]), 2
            )  # identical projections


class TestSphereIsEmpty:
    def test_empty_cloud(self):
        s = AnchoredSphere(anchor=np.array([0.0]), radius=1.0)
        assert geomcore.sphere_is_empty(s, np.empty((0, 2)))

    def test_contains_point(self):
        s = AnchoredSphere(anchor=np.array([0.0]), radius=1.0)
        cloud = np.array([[0.0, 0.5]])
        assert not geomcore.sphere_is_empty(s, cloud)
        assert geomcore.sphere_is_empty(s, cloud, exclude=[0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        cloud = rng.uniform(-2, 2, size=(50, 3))
        for _ in range(20):
            anchor = rng.uniform(-2, 2, size=2)
            radius = float(rng.uniform(0.1, 2.0))
            s = AnchoredSphere(anchor=anchor, radius=radius)
            center = np.array([*anchor, 0.0])
            brute = bool(
                np.all(np.linalg.norm(cloud - center, axis=1) >= radius * (1 - 1e-9))
            )
            assert geomcore.sphere_is_empty(s, cloud) == brute

    def test_tolerance_band_boundary(self):
        # points within a relative 1e-9 of the radius count as on the sphere
        s = AnchoredSphere(anchor=np.array([1.0, -2.0]), radius=3.0)
        direction = np.array([0.6, 0.0, 0.8])
        inside = np.array([[1.0, -2.0, 0.0]]) + 3.0 * (1.0 - 2e-9) * direction
        on_band = np.array([[1.0, -2.0, 0.0]]) + 3.0 * (1.0 - 0.5e-9) * direction
        assert not geomcore.sphere_is_empty(s, inside)
        assert geomcore.sphere_is_empty(s, on_band)

    def test_every_point_excluded(self):
        s = AnchoredSphere(anchor=np.array([0.0]), radius=10.0)
        cloud = np.array([[0.0, 0.1], [1.0, -0.2], [-1.0, 0.3]])
        assert not geomcore.sphere_is_empty(s, cloud, exclude=[0, 1])
        assert geomcore.sphere_is_empty(s, cloud, exclude=[0, 1, 2])

    @pytest.mark.parametrize("kind", [list, tuple, lambda rows: np.array(rows, dtype=int)])
    def test_exclude_kinds(self, kind):
        # the points at rows 1 and 3 lie inside; excluding both empties the sphere
        s = AnchoredSphere(anchor=np.array([0.0, 0.0]), radius=1.0)
        cloud = np.array([[2.0, 0.0, 0.0], [0.1, 0.0, 0.2], [0.0, 3.0, 0.0], [0.0, -0.5, 0.0]])
        assert geomcore.sphere_is_empty(s, cloud, exclude=kind([1, 3]))
        assert not geomcore.sphere_is_empty(s, cloud, exclude=kind([1]))
        assert not geomcore.sphere_is_empty(s, cloud, exclude=kind([3]))
        assert not geomcore.sphere_is_empty(s, cloud, exclude=kind([]))

    def test_nan_coordinate_is_not_empty(self):
        s = AnchoredSphere(anchor=np.array([0.0]), radius=1.0)
        cloud = np.array([[5.0, 0.0], [np.nan, 0.0], [-5.0, 0.0]])
        assert not geomcore.sphere_is_empty(s, cloud)
        assert not geomcore.sphere_is_empty(s, cloud, exclude=(0,))

    def test_excluded_nan_row_is_ignored(self):
        s = AnchoredSphere(anchor=np.array([0.0]), radius=1.0)
        cloud = np.array([[5.0, 0.0], [0.0, np.nan], [-5.0, 0.0]])
        assert geomcore.sphere_is_empty(s, cloud, exclude=(1,))
        inside = np.vstack([cloud, [[0.0, 0.5]]])
        assert not geomcore.sphere_is_empty(s, inside, exclude=(1,))

    def test_single_point_as_vector(self):
        s = AnchoredSphere(anchor=np.array([0.0]), radius=1.0)
        assert not geomcore.sphere_is_empty(s, np.array([0.0, 0.5]))
        assert geomcore.sphere_is_empty(s, np.array([0.0, 1.5]))
        assert geomcore.sphere_is_empty(s, [0.0, 0.5], exclude=[0])

    @pytest.mark.parametrize("k", [1, 2])
    def test_anchor_of_either_slice_dimension_in_3d(self, k):
        rng = np.random.default_rng(40 + k)
        cloud = rng.uniform(-2, 2, size=(60, 3))
        for _ in range(30):
            anchor = rng.uniform(-2, 2, size=k)
            radius = float(rng.uniform(0.1, 2.0))
            exclude = rng.choice(60, size=3, replace=False)
            center = np.concatenate([anchor, np.zeros(3 - k)])
            keep = np.ones(60, dtype=bool)
            keep[exclude] = False
            brute = bool(np.all(np.linalg.norm(cloud[keep] - center, axis=1) >= radius * (1 - 1e-9)))
            s = AnchoredSphere(anchor=anchor, radius=radius)
            assert geomcore.sphere_is_empty(s, cloud, exclude=exclude) == brute


class TestLowerHull:
    def test_line(self):
        # the lift (x, x^2 - w) of five generators; the one at x = 2 is submerged
        y = np.array([[4.0], [0.0], [2.0], [1.0], [3.0]])
        w = np.array([-1.0, -1.0, -9.0, -1.0, -1.0])
        faces = geomcore.lower_hull(y, w)
        vertices, edges, facets = faces[0][:, 0], faces[1], faces[1]
        assert vertices.tolist() == [0, 1, 3, 4]
        assert edges.tolist() == [[0, 4], [1, 3], [3, 4]]
        assert facets.shape == (3, 2)
        assert sorted(map(sorted, facets.tolist())) == edges.tolist()

    @pytest.mark.parametrize("k", [1, 2])
    def test_fewer_than_k_plus_two_generators(self, k):
        # two distinct generators span an edge however close they lie
        close_pair = 1e-13 * np.eye(2, k)
        for y in [np.eye(count, k) for count in range(1, k + 2)] + [close_pair]:
            count = len(y)
            faces = geomcore.lower_hull(y, np.zeros(count))
            vertices, edges, facets = faces[0][:, 0], faces[1], faces[k]
            assert vertices.tolist() == list(range(count))
            assert edges.tolist() == [[i, j] for i in range(count) for j in range(i + 1, count)]
            assert facets.tolist() == ([list(range(count))] if count == k + 1 else [])
            assert facets.shape[1] == k + 1

    def test_errors(self):
        with pytest.raises(DegeneracyError):
            geomcore.lower_hull(np.array([[0.0], [1.0], [0.0]]), np.zeros(3))
        with pytest.raises(ValueError):
            geomcore.lower_hull(np.zeros((3, 1)), np.zeros(2))

    def test_keys_that_would_overflow_are_refused(self):
        # 17 affinely independent generators in R^16 span one simplex, whose
        # 16-digit face keys in base 17 exceed 2^63
        with pytest.raises(ValueError, match=r"N\^k < 2\^63"):
            geomcore.lower_hull(np.eye(17, 16), np.zeros(17))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_cells_in_lexsort_order(self, k):
        # the cells against an independent hull, ordered by np.lexsort; the
        # samples hold cells that share their first k indices, the ties the
        # ridge-key sort leaves to the swap
        ties = 0
        for seed in range(8):
            mosaic = TestMosaic._random_mosaic(k, 100 * k + seed)
            y, w, faces = mosaic.y, mosaic.w, mosaic.faces
            if k == 1:
                v = faces[0][np.argsort(y[faces[0][:, 0], 0]), 0]
                cells = np.column_stack([v[:-1], v[1:]])
            else:
                hull = ConvexHull(np.column_stack([y, np.einsum("ij,ij->i", y, y) - w]), "Qt Qbb")
                cells = hull.simplices[hull.equations[:, k] < 0.0]
            cells = np.sort(cells, axis=1)
            np.testing.assert_array_equal(faces[k], cells[np.lexsort(cells.T[::-1])])
            ties += np.count_nonzero((faces[k][1:, :k] == faces[k][:-1, :k]).all(axis=1))
        assert ties > 0

    def test_line_against_grid_oracle(self):
        # the survivors are the generators whose power wins somewhere on a
        # fine grid of the line
        rng = np.random.default_rng(17)
        points = np.column_stack([rng.uniform(0, 10, 50), rng.uniform(0, 2, 50)])
        y, w = geomcore.slice_cloud(points, 1)
        lo, hi = y.min(), y.max()
        grid = np.linspace(4 * lo - 3 * hi - 3, 4 * hi - 3 * lo + 3, 400_001)[:, None]
        assert set(geomcore.lower_hull(y, w)[0][:, 0].tolist()) == power_grid_winners(y, w, grid)

    def test_line_far_from_origin_against_exact_chain(self):
        # criterion-6 configuration at seed 201, replicate 6: near x = 945 the
        # lift is about 1e6 and generator 83 lies below the chord of its
        # neighbours by an exact cross product of only +1.3e-6; Qhull without
        # the Qbb lift scaling drops it
        cfg = SamplingConfig(n=2, rho=1.0, window=((0.0, 1000.0),), seed=201)
        points = sampler.sample_poisson_box(cfg, 6)
        vertices = geomcore.lower_hull(*geomcore.slice_cloud(points, 1))[0][:, 0]
        assert 83 in vertices
        assert len(vertices) == 1274
        assert vertices.tolist() == sorted(exact_lower_hull_1d(points))

    def test_equal_weights_match_unweighted_delaunay(self):
        rng = np.random.default_rng(2)
        y = rng.uniform(0, 5, size=(40, 2))
        triangles = geomcore.lower_hull(y, np.full(40, -1.3))[2]
        assert {tuple(t) for t in triangles.tolist()} == {
            tuple(sorted(t)) for t in Delaunay(y).simplices.tolist()
        }
        # direct empty-circumcircle certificate
        cloud = np.column_stack([y, np.zeros(len(y))])
        for a, b, c in triangles:
            sphere = smallest_anchored_circumsphere(cloud[[a, b, c]], 2)
            assert geomcore.sphere_is_empty(sphere, cloud, exclude=[a, b, c])

    def test_heavily_weighted_generator_submerged(self):
        # the generator at (1, 1) never attains the least power on a fine grid
        y = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
        w = np.array([0.0, 0.0, 0.0, -25.0])
        assert 3 not in geomcore.lower_hull(y, w)[0]
        grid = np.stack(np.meshgrid(np.linspace(-2, 5, 141), np.linspace(-2, 5, 141)), axis=-1)
        assert 3 not in power_grid_winners(y, w, grid.reshape(-1, 2))

    def test_submerged_generators_never_win(self):
        rng = np.random.default_rng(6)
        y, w = geomcore.slice_cloud(random_cloud(rng, 50, 2, 5.0, (-1.5, 1.5)), 2)
        submerged = set(range(50)) - set(geomcore.lower_hull(y, w)[0][:, 0].tolist())
        grid = np.stack(np.meshgrid(np.linspace(-1, 6, 201), np.linspace(-1, 6, 201)), axis=-1)
        assert power_grid_winners(y, w, grid.reshape(-1, 2)).isdisjoint(submerged)

    def test_lower_hull_certificate(self):
        # no lifted generator lies below the plane of a cell
        rng = np.random.default_rng(5)
        y, w = geomcore.slice_cloud(random_cloud(rng, 60, 2, 6.0, (-1.5, 1.5)), 2)
        lifted = np.column_stack([y, np.einsum("ij,ij->i", y, y) - w])
        for t in geomcore.lower_hull(y, w)[2]:
            base = lifted[t]
            normal = np.cross(base[1] - base[0], base[2] - base[0])
            if normal[2] > 0:
                normal = -normal  # downward-facing
            offsets = (lifted - base[0]) @ normal
            assert np.all(offsets <= 1e-9 * np.abs(offsets).max() + 1e-12)

    def test_duplicate_projection_far_apart_in_input(self):
        rng = np.random.default_rng(3)
        y = rng.uniform(0, 5, size=(50, 2))
        y[41] = y[6]
        with pytest.raises(DegeneracyError):
            geomcore.lower_hull(y, np.zeros(50))

    @pytest.mark.parametrize("k", [2, 3])
    def test_generators_tied_in_x_are_accepted(self, k):
        # a grid ties every x with other rows that differ in a later coordinate
        grid = np.stack(np.meshgrid(*[np.arange(4.0)] * k, indexing="ij"), axis=-1).reshape(-1, k)
        y = grid + np.random.default_rng(k).uniform(0, 1e-3, grid.shape) * (np.arange(k) > 0)
        assert len(np.unique(y[:, 0])) == 4
        faces = geomcore.lower_hull(y, np.zeros(len(y)))
        assert faces[0][:, 0].tolist() == list(range(len(y)))

    @pytest.mark.parametrize("k", [2, 3])
    def test_duplicate_among_three_tied_generators(self, k):
        # rows 0 and 2 are the duplicate, and row 1 ties them in x
        y = np.array([[1.0, 0.0, 0.0], [1.0, 5.0, 2.0], [1.0, 0.0, 0.0], [3.0, 1.0, 4.0]])[:, :k]
        with pytest.raises(DegeneracyError, match="duplicate projected generators"):
            geomcore.lower_hull(y, np.zeros(len(y)))


class TestIndexOrderSums:
    """The decomposition, the slice and the bump add every sum over
    coordinates in index order. On the vector (1, 1.288, 0.965), whose
    squares a, b, c give (a + b) + c != (a + c) + b in floating point, the
    results are those of (a + b) + c."""

    V = np.array([1.0, 1.288, 0.965])
    IN_ORDER = (1.0 + 1.288 * 1.288) + 0.965 * 0.965
    OTHER = (1.0 + 0.965 * 0.965) + 1.288 * 1.288

    def test_the_orders_round_apart(self):
        assert self.IN_ORDER != self.OTHER

    def test_corner_system(self):
        # generator 1 at V, generator 0 at the origin, equal weights
        yt = np.column_stack([np.zeros(3), self.V])
        e, b = geomcore._corner_system(yt, np.zeros(2), np.array([[0], [1]]))
        assert e[:, 0, 0].tolist() == self.V.tolist()
        assert b[0, 0] == 0.5 * self.IN_ORDER != 0.5 * self.OTHER

    def test_equal_power(self):
        # one vector: u = (V / |V|) (2 / |V|) and lam = (2 / |V|) / |V|
        u, lam = geomcore._equal_power(self.V.reshape(3, 1, 1), np.array([[2.0]]))

        def solve(norm2):
            r = np.sqrt(norm2)
            return (self.V / r) * (2.0 / r), 2.0 / r / r

        assert u[:, 0].tolist() == solve(self.IN_ORDER)[0].tolist()
        assert u[:, 0].tolist() != solve(self.OTHER)[0].tolist()
        assert lam[0, 0] == solve(self.IN_ORDER)[1]

    def test_slice_cloud(self):
        # a point (0, V) sliced at k = 1: the tail is V, the weight -|V|^2
        _, w = geomcore.slice_cloud(np.concatenate([[0.0], self.V])[None, :], 1)
        assert w[0] == -self.IN_ORDER != -self.OTHER

    def test_bump_f(self):
        # one row of one point x = V / 2, whose squares a, b, c give
        # (1 - ((a + b) + c))^2, not (1 - ((a + c) + b))^2
        a, b, c = (0.5 * self.V) ** 2
        got = experiments._bump_f((0.5 * self.V).reshape(1, 1, 3))
        assert got[0] == (1.0 - ((a + b) + c)) ** 2 != (1.0 - ((a + c) + b)) ** 2


@st.composite
def line_clouds(draw):
    """A family name and a half-plane cloud (x, h) of 2 to 40 points, x on a
    1/1024 grid of [0, 10]: heights uniform, lifting x near the line 10 x + c,
    over 200 orders of magnitude, or with two equal projections; then
    translated to x in 1e3..1e6, scaled by 2^-30..2^30, or left in place."""
    count = draw(st.integers(2, 40))
    grid = st.integers(0, 10_240).map(lambda i: i / 1024)
    x = np.array(draw(st.lists(grid, min_size=count, max_size=count, unique=True)))
    h = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=count, max_size=count)))
    kind = draw(st.sampled_from(["uniform", "near-collinear", "extreme", "duplicate"]))
    if kind == "near-collinear":
        h = np.sqrt(x * (10.0 - x) + draw(st.floats(0.5, 100.0)))
    elif kind == "extreme":
        exponents = draw(st.lists(st.integers(-150, 50), min_size=count, max_size=count))
        h = h * 10.0 ** np.array(exponents)
    elif kind == "duplicate":
        i, j = draw(st.lists(st.integers(0, count - 1), min_size=2, max_size=2, unique=True))
        x[j] = x[i]
    move = draw(st.sampled_from(["none", "translated", "scaled"]))
    if move == "translated":
        x = x + draw(st.floats(1e3, 1e6))
    elif move == "scaled":
        scale = 2.0 ** draw(st.integers(-30, 30))
        x, h = x * scale, h * scale
    return kind, np.column_stack([x, h])


class TestLowerChain:
    """``lower_hull`` at k = 1: the exact lower chain of the lift."""

    def test_near_collinear_lifts_keep_their_exact_vertices(self):
        # h = sqrt(5x - x^2 + 30) lifts every x onto the line 5x + 30, up to the
        # rounding of h^2; an apex far above keeps the lift two-dimensional
        rng = np.random.default_rng(60)
        for _ in range(60):
            x = rng.uniform(0.0, 5.0, 100)
            cloud = np.vstack([np.column_stack([x, np.sqrt(5 * x - x * x + 30)]), [[2.5, 10.0]]])
            y, w = geomcore.slice_cloud(cloud, 1)
            assert geomcore.lower_hull(y, w)[0][:, 0].tolist() == sorted(exact_lower_chain(y, w))

    def test_collinear_lift_keeps_its_ends(self):
        # the lift x^2 - w = 5x + 30 is exactly a line
        x = np.array([3.0, 0.0, 5.0, 1.0, 4.0, 2.0])
        faces = geomcore.lower_hull(x[:, None], x * x - 5 * x - 30)
        assert faces[0].tolist() == [[1], [2]]
        assert faces[1].tolist() == [[1, 2]]

    def test_non_finite_input_is_refused(self):
        y = np.array([[0.0], [1.0], [2.0]])
        for w in ([0.0, np.nan, 0.0], [0.0, -np.inf, 0.0]):
            with pytest.raises(ValueError, match="finite"):
                geomcore.lower_hull(y, np.array(w))
        # one check for every k and every sample size: k = 1 with N = 2, and
        # k = 2 with one cell (N = 3) and with Qhull's hull (N = 40)
        rng = np.random.default_rng(3)
        planar = rng.uniform(0.0, 5.0, (40, 2))
        cases = [
            (np.array([[0.0], [np.nan]]), np.array([0.0, -1.0])),
            (planar[:3], np.array([0.0, np.inf, 0.0])),
            (planar, np.where(np.arange(40) == 7, np.inf, -rng.uniform(0.0, 1.0, 40))),
            (np.where(np.arange(80).reshape(40, 2) == 11, np.nan, planar), np.zeros(40)),
        ]
        for y, w in cases:
            with pytest.raises(ValueError, match="finite"):
                geomcore.lower_hull(y, w)

    @staticmethod
    def cascade(count: int) -> tuple[np.ndarray, np.ndarray]:
        # two end generators at h = 0 and all others at one height, their
        # lifts above the ends' chord and strictly convex among themselves:
        # each pass drops only the two points next to the ends
        w = np.full(count, -((count - 1) ** 2 / 4 + 1))
        w[[0, -1]] = 0.0
        return np.arange(float(count))[:, None], w

    def test_cascade_finishes_in_the_sequential_scan(self, monkeypatch):
        tests = []

        def counted(*args):
            tests.append(args)
            return below_chord(*args)

        below_chord = geomcore._below_chord
        monkeypatch.setattr(geomcore, "_below_chord", counted)
        faces = geomcore.lower_hull(*self.cascade(20_000))
        assert faces[0].tolist() == [[0], [19_999]]
        assert faces[1].tolist() == [[0, 19_999]]
        assert len(tests) > 20_000

    def test_scan_decides_an_undecided_triple_exactly(self, monkeypatch):
        # the cascade's ends at x = 0 and 64, both of weight 0, lift onto the
        # line z = 64 x; a generator added at x = 64.2 with the float weight
        # (x - 64) x lifts onto it too, up to the rounding of that weight,
        # which is downward. Only the scan tests the end at 64 against the
        # chord of 0 and 64.2: exactly it lies strictly below, and the float
        # cross is 0
        y, w = self.cascade(65)
        xc = 64.2
        wc = (xc - 64.0) * xc
        assert Fraction(xc - 64.0) * Fraction(xc) > Fraction(wc)
        y, w = np.append(y, xc)[:, None], np.append(w, wc)
        scanned = []

        def spy(*args):
            scanned.append(args)
            return below_chord(*args)

        below_chord = geomcore._below_chord
        monkeypatch.setattr(geomcore, "_below_chord", spy)
        vertices = geomcore.lower_hull(y, w)[0][:, 0].tolist()
        assert vertices == exact_lower_chain(y, w) == [0, 64, 65]
        triple = (0.0, 64.0, xc, 0.0, 0.0, wc)
        assert triple in scanned
        cross, bound = geomcore._chord_cross(*triple)
        assert cross == 0.0 < bound

    def test_cascade_against_exact_chain(self):
        y, w = self.cascade(2_000)
        assert exact_lower_chain(y, w) == [0, 1_999]
        assert geomcore.lower_hull(y, w)[0][:, 0].tolist() == [0, 1_999]

    def test_near_collinear_radii_stay_monotone(self):
        # all five power functions nearly meet at x = 5, so the power cells of
        # the middle vertices are narrower than the floats resolve; the radius
        # of edge (3, 4) came out one rounding below that of vertex 4
        x = np.array([0.0, 2.0, 4.0, 3.625, 0.5])
        cloud = np.column_stack([x, np.sqrt(x * (10.0 - x) + 3.0)])
        mosaic = build(cloud, 1)
        assert mosaic.vertices.tolist() == [0, 2, 3, 4]
        assert interval_violations(mosaic, cloud, [(0.0, 4.0)]) == []

    def test_overflowing_anchor_is_refused(self):
        # vertices 0 and 1 nearly share a projection but differ in weight, so
        # the edge's barycentric solve overflows; off the grid of line_clouds
        y, w = np.array([[0.0], [1e-300], [5.0]]), np.array([-2.0, -1.0, -1.0])
        faces = geomcore.lower_hull(y, w)
        assert faces[0][:, 0].tolist() == [0, 1, 2]
        with pytest.raises(DegeneracyError, match="finite"):
            geomcore.radius_and_intervals(y, w, faces)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(line_clouds())
    def test_line_clouds(self, family):
        kind, cloud = family
        y, w = geomcore.slice_cloud(cloud, 1)
        if kind == "duplicate":
            with pytest.raises(DegeneracyError):
                geomcore.lower_hull(y, w)
            return
        faces = geomcore.lower_hull(y, w)
        assert faces[0][:, 0].tolist() == sorted(exact_lower_chain(y, w))
        if any(0 in exact_barycentric(y[e], w[e]) for e in faces[1]):
            with pytest.raises(DegeneracyError):
                geomcore.radius_and_intervals(y, w, faces)
            return
        interior = [(cloud[:, 0].min(), cloud[:, 0].max())]
        assert interval_violations(build(cloud, 1), cloud, interior) == []


class TestMosaic:
    @staticmethod
    def _random_mosaic(k, seed):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(20, 300))
        if k == 3:
            side, height, tail = max((count / 1.4) ** (1 / 3), 2.0), 1.2, 1
        else:
            side = count / 1.27 if k == 1 else math.sqrt(count / 1.46)
            height, tail = 2.0, 3 - k
        return build(random_cloud(rng, count, k, side, (-height, height), tail), k)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_intervals_numbered_by_upper_bound(self, k, seed):
        # interval i is the i-th upper-bound row, and its lower bound is its
        # smallest row
        mosaic = self._random_mosaic(k, 100 * k + seed)
        ids, rows = mosaic.interval_id, np.arange(len(mosaic.interval_id))
        assert np.all(np.diff(mosaic.upper) > 0)
        assert np.array_equal(ids[mosaic.upper], np.arange(len(mosaic.upper)))
        smallest = np.full(len(mosaic.lower), len(rows))
        np.minimum.at(smallest, ids, rows)
        assert np.array_equal(mosaic.lower, smallest)
        reference = np.unique(ids, return_index=True)[1]
        assert np.array_equal(mosaic.lower, reference)
        assert mosaic.lower.dtype == reference.dtype

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_intervals_match_per_row_builder(self, k, seed):
        mosaic = self._random_mosaic(k, 100 * k + seed)
        expected = intervals_per_row(mosaic)
        got = mosaic.intervals
        assert len(got) == len(expected) == len(mosaic.lower)
        for iv, ref in zip(got, expected):
            assert iv.lower == ref.lower
            assert iv.upper == ref.upper
            assert type(iv.type) is IntervalType and iv.type == ref.type
            assert iv.sphere.anchor.dtype == ref.sphere.anchor.dtype
            assert iv.sphere.anchor.shape == ref.sphere.anchor.shape == (k,)
            assert iv.sphere.anchor.tolist() == ref.sphere.anchor.tolist()
            assert type(iv.sphere.radius) is float and iv.sphere.radius == ref.sphere.radius
            assert iv.members == ref.members

    @pytest.mark.parametrize("k", [1, 2])
    def test_interval_anchors_are_copies(self, k):
        mosaic = self._random_mosaic(k, 7)
        anchors = mosaic.anchors.copy()
        first, second = mosaic.intervals[:2]
        kept = second.sphere.anchor.copy()
        assert not np.shares_memory(first.sphere.anchor, mosaic.anchors)
        first.sphere.anchor[:] = 1e9
        assert np.array_equal(mosaic.anchors, anchors)
        assert np.array_equal(second.sphere.anchor, kept)

    @pytest.mark.parametrize("k", [1, 2])
    def test_interval_records_are_slotted_and_frozen(self, k):
        # no instance dict per record; copies and pickles give equal records
        iv = self._random_mosaic(k, 9).intervals[0]
        assert not hasattr(iv, "__dict__") and not hasattr(iv.sphere, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            iv.upper = iv.lower
        with pytest.raises(dataclasses.FrozenInstanceError):
            iv.sphere.radius = 0.0

        def fields(rec):
            sphere = rec.sphere
            return rec.lower, rec.upper, rec.type, rec.members, sphere.radius, sphere.anchor.tolist()

        for twin in (dataclasses.replace(iv), copy.deepcopy(iv), pickle.loads(pickle.dumps(iv))):
            assert type(twin) is geomcore.Interval and type(twin.sphere) is AnchoredSphere
            assert fields(twin) == fields(iv)

    @pytest.mark.parametrize("k", [1, 2])
    def test_edge_radius_is_a_view(self, k):
        mosaic = self._random_mosaic(k, 5)
        assert np.shares_memory(mosaic.edge_radius, mosaic.radii)
        assert np.array_equal(mosaic.edge_radius, mosaic.radii[mosaic.dims == 1])
        assert np.shares_memory(mosaic.vertex_radius, mosaic.radii)
        assert np.array_equal(mosaic.vertex_radius, mosaic.radii[mosaic.dims == 0])
        # the vertex rows come in the order of ``vertices``
        vertex_rows = [s[0] for s, dim in zip(mosaic.simplices, mosaic.dims) if dim == 0]
        assert vertex_rows == mosaic.vertices.tolist()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_no_generators_give_an_empty_mosaic(self, k):
        y, w = np.empty((0, k)), np.empty(0)
        mosaic = geomcore.radius_and_intervals(y, w, geomcore.lower_hull(y, w))
        columns = [mosaic.dims, mosaic.anchors, mosaic.radii, mosaic.interval_id,
                   mosaic.lower, mosaic.upper, mosaic.vertices]
        assert [len(column) for column in columns] == [0] * len(columns)
        assert mosaic.anchors.shape == (0, k)
        assert [face.shape for face in mosaic.faces] == [(0, m + 1) for m in range(k + 1)]
        assert mosaic.simplices == [] and mosaic.intervals == []

    def test_intervals_built_on_first_use(self):
        mosaic = self._random_mosaic(2, 3)
        assert "intervals" not in vars(mosaic)
        intervals = mosaic.intervals
        assert "intervals" in vars(mosaic)
        assert mosaic.intervals is intervals

    def test_equal_power_at_the_power_diagram_vertices(self):
        # the anchors of the top rows are the vertices of the power diagram:
        # each has equal power at its triangle's three generators
        rng = np.random.default_rng(8)
        mosaic = build(random_cloud(rng, 30, 2, 5.0, (-1.2, 1.2)), 2)
        y, w = mosaic.y, mosaic.w
        for (a, b, c), z in zip(mosaic.faces[2], mosaic.anchors[mosaic.dims == 2]):
            powers = [np.sum((z - y[i]) ** 2) - w[i] for i in (a, b, c)]
            assert powers[0] == pytest.approx(powers[1], rel=1e-9)
            assert powers[0] == pytest.approx(powers[2], rel=1e-9)

    def test_positive_weight_is_refused(self):
        # a slice's weights -|tail|^2 are at most 0; raised to +1e-12, the
        # heaviest generator is a critical vertex of power -1e-12, which no
        # rounding can explain
        rng = np.random.default_rng(3)
        y, w = geomcore.slice_cloud(random_cloud(rng, 30, 2, 5.0, (-1.2, 1.2)), 2)
        w[np.argmax(w)] = 1e-12
        faces = geomcore.lower_hull(y, w)
        assert np.argmax(w) in faces[0]
        with pytest.raises(MosaicError, match="negative squared radius"):
            geomcore.radius_and_intervals(y, w, faces)


class TestCertificates:
    """Every refusal of ``lower_hull`` and ``radius_and_intervals``, each from
    an input that trips it, or with Qhull or the solve replaced where no
    input can."""

    @staticmethod
    def _planar():
        cloud = random_cloud(np.random.default_rng(8), 30, 2, 5.0, (-1.2, 1.2))
        y, w = geomcore.slice_cloud(cloud, 2)
        return y, w, geomcore.lower_hull(y, w)

    def test_anchor_on_a_generator(self):
        # the edge's equal-power point is generator 1 itself
        y, w = np.array([[0.0], [1.0]]), np.array([0.0, -1.0])
        with pytest.raises(DegeneracyError, match="on a facet hyperplane"):
            geomcore.radius_and_intervals(y, w, geomcore.lower_hull(y, w))

    def test_cell_listed_twice(self):
        y, w, faces = self._planar()
        mosaic = geomcore.radius_and_intervals(y, w, faces)
        top = np.flatnonzero(mosaic.dims == 2)
        claiming = top[mosaic.lower[mosaic.interval_id[top]] != top][0]
        faces[2] = np.concatenate([faces[2], faces[2][[claiming - top[0]]]])
        with pytest.raises(MosaicError, match="claimed by two upper bounds"):
            geomcore.radius_and_intervals(y, w, faces)

    def test_claimed_edge_missing(self):
        y, w, faces = self._planar()
        mosaic = geomcore.radius_and_intervals(y, w, faces)
        edges = np.flatnonzero(mosaic.dims == 1)
        claimed = edges[mosaic.dims[mosaic.upper[mosaic.interval_id[edges]]] == 2][0]
        faces[1] = np.delete(faces[1], claimed - edges[0], axis=0)
        with pytest.raises(MosaicError, match="claimed face is not in the mosaic"):
            geomcore.radius_and_intervals(y, w, faces)

    def test_vertex_claims_of_a_tie(self):
        # edge (0, 2)'s equal-power point is exactly generator 2; the solve's
        # rounding of sqrt(2) leaves that coordinate just off 0, and the
        # vertex certificate refuses the claims that follow
        y, w = np.array([[1.0, -1.0], [1.0, 2.0], [2.0, -2.0]]), np.array([-2.0, -2.0, -4.0])
        assert exact_barycentric(y[[0, 2]], w[[0, 2]]) == [0, 1]
        with pytest.raises(MosaicError, match="vertex claims disagree"):
            geomcore.radius_and_intervals(y, w, geomcore.lower_hull(y, w))

    def test_equal_power_certificate(self, monkeypatch):
        # a correct solve meets it to rounding, so the solve is skewed
        solve = geomcore._equal_power

        def skewed(e, b):
            u, lam = solve(e, b)
            return 1.01 * u, lam

        monkeypatch.setattr(geomcore, "_equal_power", skewed)
        with pytest.raises(MosaicError, match="equal-power certificate"):
            geomcore.radius_and_intervals(*self._planar())

    def test_exact_powers_out_of_order(self):
        # no input is known to give it, so the k = 1 ordering step is called
        # directly: vertex 0's power 1 stays above its edge's exact 1/4
        faces = [np.array([[0], [1]]), np.array([[0, 1]])]
        x, w, upper = np.array([0.0, 1.0]), np.zeros(2), np.array([0, 1, 2])
        with pytest.raises(MosaicError, match="exact powers put an edge below an endpoint"):
            geomcore._order_edge_powers(x, w, faces, upper, np.array([1.0, 0.0, 0.25]))

    @pytest.mark.parametrize(
        "y,w,faces",
        [
            # the k = 1 ordering step read an unset row for vertex 3
            (np.array([[0.0], [1.0], [2.0], [3.0]]), -np.ones(4), [[[0], [1]], [[0, 3]]]),
            # a triangle decomposed without its corner 2
            (
                np.array([[0.0, 0.0], [1.0, 0.0], [0.4, 0.9]]), np.zeros(3),
                [[[0], [1]], [[0, 1], [0, 2], [1, 2]], [[0, 1, 2]]],
            ),
        ],
        ids=["k1", "k2"],
    )
    def test_corner_not_a_listed_vertex(self, y, w, faces):
        with pytest.raises(MosaicError, match="a corner of a face is not a listed vertex"):
            geomcore.radius_and_intervals(y, w, [np.array(face) for face in faces])

    def test_flat_lift(self):
        y = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        with pytest.raises(DegeneracyError, match="degenerate lifted configuration") as raised:
            geomcore.lower_hull(y, np.zeros(4))
        assert "Initial simplex is flat" in str(raised.value)

    @pytest.mark.parametrize(
        "facets,normal,message",
        [
            ([[0, 1, 2], [0, 1, 3], [0, 1, 4]], -1.0, "a ridge belongs to more than two facets"),
            ([[0, 1, 2], [1, 2, 3]], 1.0, "no downward-facing hull facets"),
        ],
    )
    def test_qhull_facets_refused(self, monkeypatch, facets, normal, message):
        # a hull Qhull builds has neither: replaced by these facets
        equations = np.zeros((len(facets), 4))
        equations[:, 2] = normal
        hull = types.SimpleNamespace(simplices=np.array(facets), equations=equations)
        monkeypatch.setattr(geomcore, "ConvexHull", lambda *args, **kwargs: hull)
        y = np.random.default_rng(0).uniform(0.0, 1.0, (5, 2))
        with pytest.raises((DegeneracyError, MosaicError), match=message):
            geomcore.lower_hull(y, np.zeros(5))


class TestIntervalViolations:
    """The shared audit reports each fault injected into a copy of a real
    mosaic's columns or intervals."""

    INTERIOR = [(2.4, 9.6)] * 2

    def _faulty(self, fault):
        cloud = random_cloud(np.random.default_rng(12), 200, 2, 12.0, (-1.4, 1.4))
        mosaic = build(cloud, 2)
        if fault == "raised radius":
            # a vertex above every simplex, its cofaces included
            radii = mosaic.radii.copy()
            radii[0] = 2.0 * radii.max()
            return dataclasses.replace(mosaic, radii=radii), cloud
        edits = {
            "dropped member": (
                IntervalType(0, 2),
                lambda iv: dataclasses.replace(iv, members=iv.members[1:]),
            ),
            # (1, 2) has the member count of (0, 1), so only the census can tell
            "wrong type": (
                IntervalType(0, 1),
                lambda iv: dataclasses.replace(iv, type=IntervalType(1, 2)),
            ),
            "non-empty sphere": (
                IntervalType(2, 2),
                lambda iv: dataclasses.replace(
                    iv, sphere=AnchoredSphere(iv.sphere.anchor, 4.0 * iv.sphere.radius)
                ),
            ),
        }
        kind, edit = edits[fault]
        lo, hi = np.array(self.INTERIOR).T
        intervals = list(mosaic.intervals)
        # the largest interior interval of the type: above the median radius,
        # so a larger sphere leaves the census at the median as it was
        candidates = [
            i
            for i, iv in enumerate(intervals)
            if iv.type == kind and np.all((lo <= iv.sphere.anchor) & (iv.sphere.anchor < hi))
        ]
        i = max(candidates, key=lambda i: intervals[i].sphere.radius)
        intervals[i] = edit(intervals[i])
        faulty = dataclasses.replace(mosaic)
        faulty.intervals = intervals
        return faulty, cloud

    @pytest.mark.parametrize(
        "fault,kinds",
        [
            ("dropped member", {"partition", "members"}),
            ("raised radius", {"monotone"}),
            ("wrong type", {"reconciliation"}),
            ("non-empty sphere", {"emptiness"}),
        ],
    )
    def test_each_fault_is_reported(self, fault, kinds):
        found = interval_violations(*self._faulty(fault), self.INTERIOR)
        assert {message.split(":")[0] for message in found} == kinds


class TestAnchorAccuracy:
    """Anchors against exact rational solves, in window units."""

    @staticmethod
    def _error(mosaic, bounds):
        """Largest coordinate error of the anchors of the upper-bound rows ``bounds``."""
        rows = [list(mosaic.simplices[r]) for r in bounds.tolist()]
        return max(
            abs(float(Fraction(float(a)) - b))
            for row, anchor in zip(rows, mosaic.anchors[bounds])
            for a, b in zip(anchor, exact_anchor(mosaic.y[row], mosaic.w[row]))
        )

    def _worst_error(self, cfg, replicate, dim):
        mosaic = build(sampler.sample_poisson_box(cfg, replicate), cfg.k)
        top = np.flatnonzero(mosaic.dims == dim)
        assert dim == cfg.k and len(top) > 1000  # top simplices anchor themselves
        return self._error(mosaic, top)

    def test_triangle_anchors(self):
        # criterion-7 replicate 0, sliver triangles included; the normal
        # equations, the Gram system, err by about 2e-6 here
        cfg = SamplingConfig(n=3, rho=1.0, window=((0.0, 20.0),) * 2, seed=2025)
        assert self._worst_error(cfg, 0, 2) <= 1e-9

    def test_edge_anchors_far_from_the_origin(self):
        # criterion-6 at seed 201, replicate 6, where x is about 1000: a solve
        # on differences of the lift |y|^2 - w errs by about 1e-9 here
        cfg = SamplingConfig(n=2, rho=1.0, window=((0.0, 1000.0),), seed=201)
        assert self._worst_error(cfg, 6, 1) <= 1e-10

    def test_sliver_sample_face_anchors(self):
        # the 40 triangle upper bounds of the sliver sample with the largest
        # cond(e e^T): the Gram system, whose condition number that is,
        # erred by 2.6e-13 here
        mosaic = sliver_mosaic()
        bounds = mosaic.upper[mosaic.dims[mosaic.upper] == 2]
        cells = np.array([mosaic.simplices[r] for r in bounds.tolist()])
        e = mosaic.y[cells[:, 1:]] - mosaic.y[cells[:, :1]]
        worst = bounds[np.argsort(np.linalg.cond(e @ np.swapaxes(e, 1, 2)))[-40:]]
        assert self._error(mosaic, worst) <= 1e-13

    @pytest.mark.parametrize(
        "n,window",
        [(2, ((0.0, 1000.0),)), (3, ((0.0, 20.0), (0.0, 20.0))), (5, SLIVER_CFG.window)],
    )
    def test_upper_bound_types_match_exact_signs(self, n, window):
        # an upper bound of type (ell, m), m > 0, has ell + 1 positive
        # rational barycentric coordinates: every upper bound of replicate 0
        # of criteria 6 and 7, and at k = 3 the 40 worst-conditioned top
        # simplices of the sliver sample
        if n == 5:
            mosaic = sliver_mosaic()
            top = np.flatnonzero(mosaic.dims == 3)
            cells = mosaic.faces[3]
            cond = np.linalg.cond(mosaic.y[cells[:, 1:]] - mosaic.y[cells[:, :1]])
            bounds = top[np.argsort(cond)[-40:]]
        else:
            cfg = SamplingConfig(n=n, rho=1.0, window=window, seed=2025)
            mosaic = build(sampler.sample_poisson_box(cfg, 0), cfg.k)
            bounds = mosaic.upper[mosaic.dims[mosaic.upper] > 0]
            assert len(bounds) > 1000
        rows = [list(mosaic.simplices[r]) for r in bounds.tolist()]
        positive = [
            sum(c > 0 for c in exact_barycentric(mosaic.y[row], mosaic.w[row])) for row in rows
        ]
        assert positive == (mosaic.dims[mosaic.lower[mosaic.interval_id[bounds]]] + 1).tolist()

    def test_sliver_sample_decomposes(self):
        # the signs come from a QR of e, not from the Gram matrix, which is
        # singular in floating point at the sliver
        record = experiments.run_replicate(SLIVER_CFG, 69)
        assert record.num_points == 4439
        report = experiments.ExperimentReport(
            cfg=SLIVER_CFG, r0=math.inf, interval_rates=[], simplex_rates=[], records=[record]
        )
        assert experiments.reconcile_simplex_counts(report).failures == []
        mosaic = sliver_mosaic()
        assert len(mosaic.dims) == 44_403
        cells = mosaic.faces[3]
        volumes = np.abs(np.linalg.det(mosaic.y[cells[:, 1:]] - mosaic.y[cells[:, :1]]))
        sliver = int(np.argmin(volumes))
        row = np.flatnonzero(mosaic.dims == 3)[sliver]
        exact = exact_barycentric(mosaic.y[cells[sliver]], mosaic.w[cells[sliver]])
        ell = mosaic.dims[mosaic.lower[mosaic.interval_id[row]]]
        assert sum(c > 0 for c in exact) == ell + 1


class TestVisibilityType:
    def _wp(self, y, w):
        return WeightedPoint(y=np.asarray(y, dtype=float), w=w)

    def test_anchor_between_projections(self):
        # critical edge: projections straddle the anchor
        sphere = AnchoredSphere(anchor=np.array([0.0]), radius=math.sqrt(2.0))
        simplex = [self._wp([-1.0], -1.0), self._wp([1.0], -1.0)]
        assert visibility_type(sphere, simplex) == IntervalType(1, 1)

    def test_anchor_left_of_both(self):
        # anchor at -1, generators at heights making both lie on radius sqrt(5)
        sphere = AnchoredSphere(anchor=np.array([-1.0]), radius=math.sqrt(5.0))
        simplex = [self._wp([0.0], -4.0), self._wp([1.0], -1.0)]
        assert visibility_type(sphere, simplex) == IntervalType(0, 1)

    def test_anchor_inside_triangle(self):
        theta = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
        sphere = AnchoredSphere(anchor=np.array([0.0, 0.0]), radius=math.sqrt(2.0))
        simplex = [self._wp([np.cos(t), np.sin(t)], -1.0) for t in theta]
        assert visibility_type(sphere, simplex) == IntervalType(2, 2)

    def test_single_vertex(self):
        sphere = AnchoredSphere(anchor=np.array([2.0, 0.0]), radius=1.0)
        assert visibility_type(sphere, [self._wp([2.0, 0.0], -1.0)]) == IntervalType(0, 0)

    def test_sign_rule_one_dim(self):
        # for edges on the line the type reduces to the side test against the anchor
        rng = np.random.default_rng(21)
        for _ in range(50):
            x = np.sort(rng.uniform(-3, 3, size=2))
            pre = np.column_stack([x, rng.uniform(0.2, 2.0, size=2)])
            s = smallest_anchored_circumsphere(pre, 1)
            simplex = [self._wp([pre[i, 0]], -pre[i, 1] ** 2) for i in range(2)]
            got = visibility_type(s, simplex)
            same_side = (x[0] - s.anchor[0]) * (x[1] - s.anchor[0]) > 0
            assert got == (IntervalType(0, 1) if same_side else IntervalType(1, 1))

    def test_off_sphere_rejected(self):
        sphere = AnchoredSphere(anchor=np.array([0.0]), radius=1.0)
        with pytest.raises(ValueError):
            visibility_type(sphere, [self._wp([5.0], -1.0)])

