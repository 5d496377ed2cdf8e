"""Tests for the planar adapters: regular triangulation, power diagram, and intervals."""

import dataclasses
import math

import numpy as np
import pytest

from anchormosaic import experiments, geomcore, mosaic2d, sampler
from anchormosaic.constants import IntervalType
from anchormosaic.errors import DegeneracyError
from anchormosaic.sampler import SamplingConfig

from oracles import WeightedPoint, smallest_anchored_circumsphere, visibility_type


def build(cloud: np.ndarray):
    y, w = geomcore.slice_cloud(cloud, 2)
    tri = mosaic2d.regular_triangulation(y, w, preimages=cloud)
    dia = mosaic2d.power_dual(tri)
    return tri, dia, mosaic2d.radius_and_intervals_2d(tri, dia)


def random_cloud(rng, count, side, height):
    return np.column_stack(
        [rng.uniform(0, side, (count, 2)), rng.uniform(-height, height, (count, 1))]
    )


class TestRegularTriangulation:
    def test_three_points(self):
        y = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        tri = mosaic2d.regular_triangulation(y, np.array([-1.0, -2.0, -0.5]))
        assert len(tri.triangles) == 1
        assert sorted(tri.triangles[0]) == [0, 1, 2]

    @pytest.mark.parametrize("size", [10, 37, 160, 500])
    def test_edges_match_row_unique(self, size):
        # the integer-keyed edge list against a row-wise unique of the pairs
        rng = np.random.default_rng(size)
        cloud = random_cloud(rng, size, math.sqrt(size / 1.46), 1.5)
        y, w = geomcore.slice_cloud(cloud, 2)
        tri = mosaic2d.regular_triangulation(y, w)
        t = tri.triangles
        pairs = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [0, 2]]])
        np.testing.assert_array_equal(tri.edges, np.unique(np.sort(pairs, 1), axis=0))

    def test_errors(self):
        with pytest.raises(ValueError):
            mosaic2d.regular_triangulation(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(DegeneracyError):
            mosaic2d.regular_triangulation(
                np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]), np.zeros(3)
            )
        with pytest.raises(DegeneracyError):
            mosaic2d.regular_triangulation(
                np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 1.0]]), np.zeros(3)
            )


class TestPowerDual:
    def test_unweighted_circumcenter(self):
        theta = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
        y = np.column_stack([np.cos(theta), np.sin(theta)])
        tri = mosaic2d.regular_triangulation(y, np.zeros(3))
        mosaic = mosaic2d.radius_and_intervals_2d(tri, mosaic2d.power_dual(tri))
        # the power diagram's vertex is the anchor of the top row
        assert mosaic.anchors[mosaic.dims == 2][0] == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_radical_line_shifts_toward_lighter_point(self):
        # two generators embedded in a triangle; check the halfplane boundary
        y = np.array([[0.0, 0.0], [2.0, 0.0]])
        heavy, light = -0.5, -2.0  # weights; first point is heavier (larger w)
        # radical line: 2(y1-y0) z = h1 - h0 with h = |y|^2 - w
        h0, h1 = 0.0 - heavy, 4.0 - light
        boundary = (h1 - h0) / 4.0
        assert boundary > 1.0  # heavier generator claims more than half

    def test_equal_power_at_dual_vertices(self):
        rng = np.random.default_rng(8)
        cloud = random_cloud(rng, 30, 5.0, 1.2)
        tri, _, mosaic = build(cloud)
        for (a, b, c), z in zip(tri.triangles, mosaic.anchors[mosaic.dims == 2]):
            powers = [np.sum((z - tri.y[i]) ** 2) - tri.w[i] for i in (a, b, c)]
            assert powers[0] == pytest.approx(powers[1], rel=1e-9)
            assert powers[0] == pytest.approx(powers[2], rel=1e-9)


class TestRadiusAndIntervals:
    def test_symmetric_triangle(self):
        theta = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
        cloud = np.column_stack([np.cos(theta), np.sin(theta), np.ones(3)])
        _, _, mosaic = build(cloud)
        triangle = [iv for iv in mosaic.intervals if iv.type.m == 2]
        assert len(triangle) == 1
        assert triangle[0].type == IntervalType(2, 2)
        assert triangle[0].sphere.anchor == pytest.approx([0.0, 0.0], abs=1e-12)
        assert triangle[0].sphere.radius == pytest.approx(math.sqrt(2.0))

    def test_simplices_built_on_first_use(self):
        rng = np.random.default_rng(11)
        tri, dia, mosaic = build(random_cloud(rng, 90, 8.0, 1.2))
        assert "simplices" not in vars(mosaic)
        eager = [(v,) for v in tri.vertices.tolist()]
        eager += [tuple(e) for e in np.sort(dia.edges, axis=1).tolist()]
        eager += [tuple(t) for t in np.sort(tri.triangles, axis=1).tolist()]
        assert mosaic.simplices == eager
        assert "simplices" in vars(mosaic)

    def test_critical_vertex_radius_is_height(self):
        rng = np.random.default_rng(10)
        cloud = random_cloud(rng, 40, 5.0, 1.0)
        tri, dia, mosaic = build(cloud)
        for iv in mosaic.intervals:
            if iv.type != IntervalType(0, 0):
                continue
            v = iv.lower[0]
            assert iv.sphere.anchor == pytest.approx(tri.y[v], abs=1e-9)
            assert iv.sphere.radius == pytest.approx(abs(cloud[v, 2]), rel=1e-9)

    def test_interval_member_counts(self):
        rng = np.random.default_rng(12)
        cloud = random_cloud(rng, 200, 12.0, 1.4)
        _, _, mosaic = build(cloud)
        seen = set()
        for iv in mosaic.intervals:
            assert len(iv.members) == 2 ** (iv.type.m - iv.type.ell)
            assert set(iv.lower) <= set(iv.upper)
            for member in iv.members:
                assert set(iv.lower) <= set(member) <= set(iv.upper)
                assert member not in seen
                seen.add(member)
        assert len(seen) == len(mosaic.simplices)
        types = {(iv.type.ell, iv.type.m) for iv in mosaic.intervals}
        assert types <= {(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)}

    def test_radius_monotone_under_inclusion(self):
        rng = np.random.default_rng(13)
        cloud = random_cloud(rng, 120, 9.0, 1.2)
        _, _, mosaic = build(cloud)
        index = {s: i for i, s in enumerate(mosaic.simplices)}
        for s, row in index.items():
            if len(s) == 1:
                continue
            for drop in range(len(s)):
                face = tuple(v for i, v in enumerate(s) if i != drop)
                if face in index:
                    assert mosaic.radii[index[face]] <= mosaic.radii[row] + 1e-9

    def test_interior_spheres_empty(self):
        rng = np.random.default_rng(14)
        cloud = random_cloud(rng, 150, 10.0, 1.3)
        _, _, mosaic = build(cloud)
        checked = 0
        for iv in mosaic.intervals:
            a = iv.sphere.anchor
            if not (2.0 <= a[0] < 8.0 and 2.0 <= a[1] < 8.0):
                continue
            checked += 1
            assert geomcore.sphere_is_empty(iv.sphere, cloud, exclude=iv.upper)
        assert checked > 20

    def test_sphere_matches_direct_circumsphere(self):
        # the canonical sphere of each interval equals the smallest anchored
        # circumsphere of the upper bound's preimages
        rng = np.random.default_rng(15)
        cloud = random_cloud(rng, 80, 7.0, 1.1)
        _, _, mosaic = build(cloud)
        for iv in mosaic.intervals:
            direct = smallest_anchored_circumsphere(cloud[list(iv.upper)], 2)
            assert iv.sphere.anchor == pytest.approx(direct.anchor, abs=1e-7)
            assert iv.sphere.radius == pytest.approx(direct.radius, rel=1e-7)

    @pytest.mark.parametrize(
        "delta", [1e-2, -1e-2, 1e-7, -1e-7, 1e-8, -1e-8, 1e-10, -1e-10, 1e-12, -1e-12]
    )
    def test_interval_type_transition(self, delta):
        # a critical-edge/critical-triangle pair collides with a (1, 2)
        # interval as the third generator's height crosses the symmetric
        # configuration, where the dual vertex lies on the edge; the sign of
        # the third corner's barycentric coordinate (of order delta, far above
        # round-off even at 1e-12) decides the type, however close the two
        # spheres are
        y = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        heights = np.sqrt(2.0 - np.einsum("ij,ij->i", y, y))
        cloud = np.column_stack([y, heights])
        cloud[2, 2] *= 1.0 + delta
        cloud = np.vstack([cloud, [5.0, 5.0, 0.3]])
        _, _, mosaic = build(cloud)
        total = sum(len(iv.members) for iv in mosaic.intervals)
        assert total == len(mosaic.simplices)
        census = sorted((iv.type.ell, iv.type.m) for iv in mosaic.intervals)
        if delta > 0:
            assert census.count((1, 1)) == 5 and census.count((2, 2)) == 2
        else:
            assert census.count((1, 2)) == 1 and census.count((2, 2)) == 1

    def test_types_match_visibility_oracle(self):
        # the facet-visibility classification, which types a simplex from a
        # least-squares solve for the anchor's barycentric coordinates, agrees
        # with the sign rule on every interval
        rng = np.random.default_rng(17)
        cloud = random_cloud(rng, 150, 10.0, 1.3)
        tri, _, mosaic = build(cloud)
        for iv in mosaic.intervals:
            upper = [WeightedPoint(y=tri.y[v], w=float(tri.w[v])) for v in iv.upper]
            assert visibility_type(iv.sphere, upper) == iv.type

    def test_sliver_triangle_claims_its_long_edge(self):
        # criterion-7 configuration; replicate 0 holds a sliver triangle of
        # three nearly collinear generators at the edge of the sampled box,
        # whose dual vertex has exact barycentric coordinates of about
        # (6.5e10, 1.7e10, -8.2e10): the edge opposite the negative corner
        # pairs with the triangle
        cfg = SamplingConfig(
            n=3, rho=1.0, window=((0.0, 20.0), (0.0, 20.0)), buffer=1.0,
            seed=6462167774629543367,
        )
        cfg = dataclasses.replace(cfg, buffer=sampler.choose_buffer(cfg, 1 - 1e-6))
        experiments.run_replicate(cfg, 0)
        cloud = sampler.sample_poisson_box(dataclasses.replace(cfg, replicate_index=0))
        _, _, mosaic = build(cloud)
        iv = mosaic.intervals[mosaic.interval_id[mosaic.simplices.index((848, 867))]]
        assert iv.type == IntervalType(1, 2)
        assert iv.lower == (848, 867)
        assert iv.upper == (848, 867, 1084)


def test_adapter_matches_geomcore():
    # replicate 0 of the criterion-7 configuration: the adapters give the
    # mosaic of slice_cloud, lower_hull and radius_and_intervals row for row
    cfg = SamplingConfig(n=3, rho=1.0, window=((0.0, 20.0),) * 2, buffer=1.0, seed=2025)
    cfg = dataclasses.replace(cfg, buffer=sampler.choose_buffer(cfg, 1 - 1e-6))
    cloud = sampler.sample_poisson_box(cfg)
    y, w = geomcore.slice_cloud(cloud, 2)
    tri = mosaic2d.regular_triangulation(y, w, preimages=cloud)
    mosaic = mosaic2d.radius_and_intervals_2d(tri, mosaic2d.power_dual(tri), cfg.window)
    faces = geomcore.lower_hull(y, w)
    direct = geomcore.radius_and_intervals(y, w, faces, cfg.window)
    assert tri.preimages is cloud
    for got, expected in zip([tri.vertices[:, None], tri.edges, tri.triangles], faces):
        np.testing.assert_array_equal(got, expected)
    for column in ("dims", "anchors", "radii", "interval_id", "lower", "upper"):
        np.testing.assert_array_equal(getattr(mosaic, column), getattr(direct, column))
