"""Tests for the geometric kernel."""

import dataclasses
import functools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import optimize
from scipy.spatial import Delaunay

from anchormosaic import experiments, geomcore, sampler
from anchormosaic.constants import SCHEMA_VERSION, IntervalType
from anchormosaic.errors import DegeneracyError
from anchormosaic.geomcore import AnchoredSphere
from anchormosaic.sampler import SamplingConfig

from oracles import (
    WeightedPoint,
    build,
    exact_anchor,
    exact_barycentric,
    exact_lower_hull_1d,
    interval_violations,
    intervals_per_row,
    random_cloud,
    smallest_anchored_circumsphere,
    visibility_type,
)


def replicate_points(cfg: SamplingConfig, replicate: int) -> np.ndarray:
    """The sample of ``replicate`` at ``cfg`` with the census's default buffer."""
    cfg = dataclasses.replace(cfg, buffer=sampler.choose_buffer(cfg, 1 - 1e-6))
    return sampler.sample_poisson_box(dataclasses.replace(cfg, replicate_index=replicate))


# (5, 3), 6^3 window: replicate 69 at seed 7 holds a sliver tetrahedron at the
# boundary of the sampled box, volume 9.3e-8 and cond(e) 2.7e8, whose Gram
# matrix e e^T is singular in floating point
SLIVER_CFG = SamplingConfig(n=5, rho=1.0, window=((0.0, 6.0),) * 3, buffer=1.0, seed=7)


@functools.cache
def sliver_mosaic() -> geomcore.Mosaic:
    return build(replicate_points(SLIVER_CFG, 69), 3)


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
        for count in range(1, k + 2):
            y = np.eye(count, k)
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
        cfg = SamplingConfig(n=2, rho=1.0, window=((0.0, 1000.0),), buffer=1.0, seed=201)
        points = replicate_points(cfg, 6)
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


class TestMosaic:
    @pytest.mark.parametrize("k", [1, 2])
    def test_dump_schema(self, k):
        rng = np.random.default_rng(42 + k)
        if k == 1:
            mosaic = build(random_cloud(rng, 12, 1, 6, (0, 1.0)), 1, ((0, 6),))
        else:
            mosaic = build(random_cloud(rng, 30, 2, 4, (-1, 1)), 2, ((0, 4),) * 2)
        dump = json.loads(json.dumps(mosaic.to_dict()))
        assert dump["schema_version"] == SCHEMA_VERSION == 1
        assert dump["k"] == k
        assert len(dump["window"]) == k
        assert [v["id"] for v in dump["vertices"]] == mosaic.vertices.tolist()
        assert len(dump["simplices"]) == len(mosaic.simplices)
        for s, iid in zip(dump["simplices"], mosaic.interval_id.tolist()):
            assert s["interval"] == iid
            iv = dump["intervals"][iid]
            assert iv["id"] == iid
            assert s["vertices"] in iv["members"]
            assert s["radius"] == pytest.approx(iv["radius"], rel=1e-12)

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
    def test_edge_radius_is_a_view(self, k):
        mosaic = self._random_mosaic(k, 5)
        assert np.shares_memory(mosaic.edge_radius, mosaic.radii)
        assert np.array_equal(mosaic.edge_radius, mosaic.radii[mosaic.dims == 1])

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

    def _worst_error(self, cfg, replicate, dim):
        mosaic = build(replicate_points(cfg, replicate), cfg.k)
        y, w = mosaic.y, mosaic.w
        top = mosaic.faces[dim]
        assert dim == cfg.k and len(top) > 1000  # top simplices anchor themselves
        anchors = mosaic.anchors[mosaic.dims == dim]
        return max(
            abs(float(Fraction(float(a)) - b))
            for row, anchor in zip(top, anchors)
            for a, b in zip(anchor, exact_anchor(y[row], w[row]))
        )

    def test_triangle_anchors(self):
        # criterion-7 replicate 0, sliver triangles included; normal
        # equations in place of the square solve err by about 2e-6 here
        cfg = SamplingConfig(n=3, rho=1.0, window=((0.0, 20.0),) * 2, buffer=1.0, seed=2025)
        assert self._worst_error(cfg, 0, 2) <= 1e-9

    def test_edge_anchors_far_from_the_origin(self):
        # criterion-6 at seed 201, replicate 6, where x is about 1000: a solve
        # on differences of the lift |y|^2 - w errs by about 1e-9 here
        cfg = SamplingConfig(n=2, rho=1.0, window=((0.0, 1000.0),), buffer=1.0, seed=201)
        assert self._worst_error(cfg, 6, 1) <= 1e-10

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
            cfg = SamplingConfig(n=n, rho=1.0, window=window, buffer=1.0, seed=2025)
            mosaic = build(replicate_points(cfg, 0), cfg.k)
            bounds = mosaic.upper[mosaic.dims[mosaic.upper] > 0]
            assert len(bounds) > 1000
        rows = [list(mosaic.simplices[r]) for r in bounds.tolist()]
        positive = [
            sum(c > 0 for c in exact_barycentric(mosaic.y[row], mosaic.w[row])) for row in rows
        ]
        assert positive == (mosaic.dims[mosaic.lower[mosaic.interval_id[bounds]]] + 1).tolist()

    def test_sliver_sample_decomposes(self):
        # the top level's signs come from the square system, not from the
        # Gram matrix, which is singular in floating point at the sliver
        cfg = dataclasses.replace(SLIVER_CFG, buffer=sampler.choose_buffer(SLIVER_CFG, 1 - 1e-6))
        record = experiments.run_replicate(cfg, 69)
        assert record.num_points == 4439
        report = experiments.ExperimentReport(
            cfg=cfg, r0=math.inf, interval_rates=[], simplex_rates=[], records=[record]
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

