"""The contract of the per-k adapters ``mosaic1d`` and ``mosaic2d``, a shim
that only the benchmark calls: half-plane rotation, the mosaic on the line,
the regular triangulation and its power diagram, their refusals, and their
agreement with ``geomcore``. This is the only test file that imports them."""

import math
import re

import numpy as np
import pytest

from anchormosaic import geomcore, mosaic1d, mosaic2d, sampler
from anchormosaic.errors import DegeneracyError
from anchormosaic.sampler import SamplingConfig

from oracles import build, random_cloud


class TestRotateToHalfplane:
    def test_distance_preserved(self):
        out = mosaic1d.rotate_to_halfplane(np.array([1.0, 2.0, 2.0]))
        assert out == pytest.approx([1.0, 2.0 * math.sqrt(2.0)])

    def test_point_on_line(self):
        out = mosaic1d.rotate_to_halfplane(np.array([3.5, 0.0, 0.0, 0.0]))
        assert out == pytest.approx([3.5, 0.0])

    def test_reflection(self):
        out = mosaic1d.rotate_to_halfplane(np.array([0.0, -3.0]))
        assert out == pytest.approx([0.0, 3.0])

    def test_adds_in_index_order(self):
        # the point (0, V), V = (1, 1.288, 0.965): its distance to the first
        # axis is |V|, whose squares a, b, c give (a + b) + c != (a + c) + b
        # in floating point (tests/test_geomcore.py::TestIndexOrderSums)
        v = np.array([1.0, 1.288, 0.965])
        out = mosaic1d.rotate_to_halfplane(np.concatenate([[0.0], v]))
        in_order = (1.0 + 1.288 * 1.288) + 0.965 * 0.965
        other = (1.0 + 0.965 * 0.965) + 1.288 * 1.288
        assert out[1] == math.sqrt(in_order) != math.sqrt(other)


class TestBuild1D:
    def test_symmetric_pair(self):
        mosaic = mosaic1d.build_1d(np.array([[0.0, 1.0], [2.0, 1.0]]), window=(-5, 5))
        assert mosaic.vertices.tolist() == [0, 1]
        assert len(mosaic.vertices) - 1 == 1

    def test_submerged_middle(self):
        pts = np.array([[0.0, 1.0], [1.0, math.sqrt(11.0)], [2.0, 1.0]])
        mosaic = mosaic1d.build_1d(pts, window=(-5, 5))
        assert mosaic.vertices.tolist() == [0, 2]
        assert len(mosaic.vertices) - 1 == 1

    def test_left_to_right_order(self):
        pts = np.array([[3.0, 0.5], [-1.0, 0.2], [1.0, 0.1], [2.0, 3.0]])
        assert mosaic1d.build_1d(pts, window=(-2, 4)).vertices.tolist() == [1, 2, 0]

    def test_duplicate_rejected(self):
        with pytest.raises(DegeneracyError):
            mosaic1d.build_1d(np.array([[1.0, 1.0], [1.0, 1.0]]), window=(0, 2))

    def test_negative_height_rejected(self):
        with pytest.raises(ValueError):
            mosaic1d.build_1d(np.array([[0.0, -1.0]]), window=(0, 1))


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


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: mosaic1d.rotate_to_halfplane(np.zeros((2, 1))), "need ambient dimension >= 2"),
        (lambda: mosaic1d.build_1d(np.zeros((2, 3)), window=(0, 1)),
         "expected a non-empty (N, 2) array of half-plane points"),
        (lambda: mosaic1d.build_1d(np.zeros((0, 2)), window=(0, 1)),
         "expected a non-empty (N, 2) array of half-plane points"),
        (lambda: mosaic1d.build_1d(np.array([[0.0, 1.0]]), window=(1, 1)),
         "window must be a proper interval, got (1, 1)"),
        (lambda: mosaic2d.regular_triangulation(np.zeros((3, 3)), np.zeros(3)),
         "expected (N, 2) projections"),
    ],
)
def test_refusals_are_plain_value_errors(call, message):
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        call()
    assert info.type is ValueError


def test_1d_adapters_match_geomcore():
    # replicate 0 of the criterion-6 configuration: the adapters give the
    # mosaic of slice_cloud, lower_hull and radius_and_intervals, with its
    # vertices and edges listed left to right
    cfg = SamplingConfig(n=2, rho=1.0, window=((0.0, 1000.0),), seed=2025)
    points = sampler.sample_poisson_box(cfg, 0)
    halfplane = mosaic1d.rotate_to_halfplane(points)
    mosaic = mosaic1d.radius_and_intervals_1d(mosaic1d.build_1d(halfplane, cfg.window[0]))
    direct = build(points, 1)
    row = {s: r for r, s in enumerate(direct.simplices)}
    rows = [row[s] for s in mosaic.simplices]
    assert sorted(rows) == list(range(len(direct.simplices)))
    np.testing.assert_array_equal(mosaic.radii, direct.radii[rows])
    np.testing.assert_array_equal(mosaic.anchors, direct.anchors[rows])
    assert sorted((iv.lower, iv.upper, iv.type) for iv in mosaic.intervals) == sorted(
        (iv.lower, iv.upper, iv.type) for iv in direct.intervals
    )
    assert np.all(np.diff(halfplane[mosaic.vertices, 0]) > 0)
    # the lower bounds of the left-to-right rows against the sort of the ids
    for built in (mosaic, direct):
        reference = np.unique(built.interval_id, return_index=True)[1]
        np.testing.assert_array_equal(built.lower, reference)
        assert built.lower.dtype == reference.dtype


def test_2d_adapters_match_geomcore():
    # replicate 0 of the criterion-7 configuration: the adapters give the
    # mosaic of slice_cloud, lower_hull and radius_and_intervals row for row
    cfg = SamplingConfig(n=3, rho=1.0, window=((0.0, 20.0),) * 2, seed=2025)
    cloud = sampler.sample_poisson_box(cfg)
    y, w = geomcore.slice_cloud(cloud, 2)
    tri = mosaic2d.regular_triangulation(y, w, preimages=cloud)
    mosaic = mosaic2d.radius_and_intervals_2d(tri, mosaic2d.power_dual(tri))
    faces = geomcore.lower_hull(y, w)
    direct = geomcore.radius_and_intervals(y, w, faces)
    assert tri.preimages is cloud
    for got, expected in zip([tri.vertices[:, None], tri.edges, tri.triangles], faces):
        np.testing.assert_array_equal(got, expected)
    for column in ("dims", "anchors", "radii", "interval_id", "lower", "upper"):
        np.testing.assert_array_equal(getattr(mosaic, column), getattr(direct, column))
