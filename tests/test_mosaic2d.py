"""Tests for the planar decomposition, built through ``geomcore``, and for the
planar adapters, a benchmark shim: regular triangulation, power diagram, and
their agreement with ``geomcore``."""

import dataclasses
import math

import numpy as np
import pytest

from anchormosaic import experiments, geomcore, mosaic2d, sampler
from anchormosaic.constants import IntervalType
from anchormosaic.errors import DegeneracyError
from anchormosaic.sampler import SamplingConfig

from oracles import build, interval_violations, oracle_disagreements, random_cloud


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
        cloud = random_cloud(rng, size, 2, math.sqrt(size / 1.46), (-1.5, 1.5))
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
        mosaic = build(np.column_stack([np.cos(theta), np.sin(theta), np.zeros(3)]), 2)
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
        # through the adapters: each top-row anchor has equal power at the
        # three generators of its triangle in tri.triangles
        rng = np.random.default_rng(8)
        y, w = geomcore.slice_cloud(random_cloud(rng, 30, 2, 5.0, (-1.2, 1.2)), 2)
        tri = mosaic2d.regular_triangulation(y, w)
        mosaic = mosaic2d.radius_and_intervals_2d(tri, mosaic2d.power_dual(tri))
        for (a, b, c), z in zip(tri.triangles, mosaic.anchors[mosaic.dims == 2]):
            powers = [np.sum((z - tri.y[i]) ** 2) - tri.w[i] for i in (a, b, c)]
            assert powers[0] == pytest.approx(powers[1], rel=1e-9)
            assert powers[0] == pytest.approx(powers[2], rel=1e-9)


class TestRadiusAndIntervals:
    def test_symmetric_triangle(self):
        theta = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
        mosaic = build(np.column_stack([np.cos(theta), np.sin(theta), np.ones(3)]), 2)
        triangle = [iv for iv in mosaic.intervals if iv.type.m == 2]
        assert len(triangle) == 1
        assert triangle[0].type == IntervalType(2, 2)
        assert triangle[0].sphere.anchor == pytest.approx([0.0, 0.0], abs=1e-12)
        assert triangle[0].sphere.radius == pytest.approx(math.sqrt(2.0))

    def test_simplices_built_on_first_use(self):
        rng = np.random.default_rng(11)
        y, w = geomcore.slice_cloud(random_cloud(rng, 90, 2, 8.0, (-1.2, 1.2)), 2)
        vertices, edges, triangles = geomcore.lower_hull(y, w)
        mosaic = geomcore.radius_and_intervals(y, w, [vertices, edges, triangles])
        assert "simplices" not in vars(mosaic)
        eager = [(v,) for v in vertices[:, 0].tolist()]
        eager += [tuple(e) for e in edges.tolist()]
        eager += [tuple(t) for t in triangles.tolist()]
        assert mosaic.simplices == eager
        assert "simplices" in vars(mosaic)

    def test_critical_vertex_radius_is_height(self):
        rng = np.random.default_rng(10)
        cloud = random_cloud(rng, 40, 2, 5.0, (-1.0, 1.0))
        mosaic = build(cloud, 2)
        for iv in mosaic.intervals:
            if iv.type != IntervalType(0, 0):
                continue
            v = iv.lower[0]
            assert iv.sphere.anchor == pytest.approx(mosaic.y[v], abs=1e-9)
            assert iv.sphere.radius == pytest.approx(abs(cloud[v, 2]), rel=1e-9)

    def test_interval_member_counts(self):
        rng = np.random.default_rng(12)
        cloud = random_cloud(rng, 200, 2, 12.0, (-1.4, 1.4))
        mosaic = build(cloud, 2)
        assert interval_violations(mosaic, cloud, [(2.4, 9.6)] * 2) == []
        types = {(iv.type.ell, iv.type.m) for iv in mosaic.intervals}
        assert types <= {(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)}

    def test_radius_monotone_under_inclusion(self):
        rng = np.random.default_rng(13)
        cloud = random_cloud(rng, 120, 2, 9.0, (-1.2, 1.2))
        assert interval_violations(build(cloud, 2), cloud, [(1.8, 7.2)] * 2) == []

    def test_interior_spheres_empty(self):
        rng = np.random.default_rng(14)
        cloud = random_cloud(rng, 150, 2, 10.0, (-1.3, 1.3))
        mosaic = build(cloud, 2)
        assert interval_violations(mosaic, cloud, [(2.0, 8.0)] * 2) == []
        anchors = mosaic.anchors[mosaic.upper]
        assert np.count_nonzero(np.all((2.0 <= anchors) & (anchors < 8.0), axis=1)) > 20

    def test_sphere_matches_direct_circumsphere(self):
        # the canonical sphere of each interval equals the smallest anchored
        # circumsphere of the upper bound's preimages, and its type the
        # facet-visibility classification
        rng = np.random.default_rng(15)
        cloud = random_cloud(rng, 80, 2, 7.0, (-1.1, 1.1))
        assert oracle_disagreements(build(cloud, 2), cloud) == []

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
        mosaic = build(np.vstack([cloud, [5.0, 5.0, 0.3]]), 2)
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
        # with the sign rule on every interval, and every sphere is the
        # smallest anchored circumsphere of its upper bound's points
        rng = np.random.default_rng(17)
        cloud = random_cloud(rng, 150, 2, 10.0, (-1.3, 1.3))
        assert oracle_disagreements(build(cloud, 2), cloud) == []

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
        mosaic = build(sampler.sample_poisson_box(dataclasses.replace(cfg, replicate_index=0)), 2)
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
