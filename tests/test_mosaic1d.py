"""Tests for the one-dimensional decomposition, built through ``geomcore``, and
for the one-dimensional adapters, a benchmark shim: half-plane rotation, the
mosaic on the line, and their agreement with ``geomcore``."""

import math

import numpy as np
import pytest

from anchormosaic import experiments, geomcore, mosaic1d, sampler
from anchormosaic.constants import IntervalType
from anchormosaic.errors import DegeneracyError
from anchormosaic.sampler import SamplingConfig

from oracles import (
    WeightedPoint,
    build,
    interval_violations,
    oracle_disagreements,
    random_cloud,
    smallest_anchored_circumsphere,
    visibility_type,
)


def brute_force_intervals(points: np.ndarray):
    """Enumerate empty anchored spheres of singletons and pairs directly.

    Returns a list of (type, anchor, radius) triples for every empty smallest
    anchored circumsphere of one or two generators.
    """
    out = []
    n = len(points)
    for i in range(n):
        sphere = smallest_anchored_circumsphere(points[i : i + 1], 1)
        if geomcore.sphere_is_empty(sphere, points, exclude=[i]):
            out.append(((0, 0), float(sphere.anchor[0]), sphere.radius))
    for i in range(n):
        for j in range(i + 1, n):
            sphere = smallest_anchored_circumsphere(points[[i, j]], 1)
            if not geomcore.sphere_is_empty(sphere, points, exclude=[i, j]):
                continue
            same_side = (points[i, 0] - sphere.anchor[0]) * (
                points[j, 0] - sphere.anchor[0]
            ) > 0
            out.append(((0, 1) if same_side else (1, 1), float(sphere.anchor[0]), sphere.radius))
    return out


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


def criterion6_replicate(seed: int, replicate: int):
    """One replicate of the criterion-6 configuration at ``seed``: the config
    and the sample."""
    cfg = SamplingConfig(n=2, rho=1.0, window=((0.0, 1000.0),), seed=seed)
    return cfg, sampler.sample_poisson_box(cfg, replicate)


def close_pair_interval():
    """The config of replicate 3 of the criterion-6 configuration at the seed
    whose generators 374 and 3668 lie 9.6e-5 apart near x = 1001, that
    replicate's mosaic, and the interval whose upper bound is their edge."""
    cfg, points = criterion6_replicate(6896151219952633663, 3)
    mosaic = build(points, 1)
    (iv,) = [iv for iv in mosaic.intervals if iv.upper == (374, 3668)]
    return cfg, mosaic, iv


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


class TestRadiusAndIntervals:
    def test_lone_vertex(self):
        (iv,) = build(np.array([[0.0, 1.0]]), 1).intervals
        assert iv.type == IntervalType(0, 0)
        assert iv.sphere.anchor[0] == pytest.approx(0.0)
        assert iv.sphere.radius == pytest.approx(1.0)

    def test_symmetric_pair_intervals(self):
        mosaic = build(np.array([[-1.0, 1.0], [1.0, 1.0]]), 1)
        by_type = {}
        for iv in mosaic.intervals:
            by_type.setdefault((iv.type.ell, iv.type.m), []).append(iv)
        assert len(by_type[(0, 0)]) == 2
        assert all(iv.sphere.radius == pytest.approx(1.0) for iv in by_type[(0, 0)])
        (edge,) = by_type[(1, 1)]
        assert edge.sphere.anchor[0] == pytest.approx(0.0)
        assert edge.sphere.radius == pytest.approx(math.sqrt(2.0))

    def test_monotone_radius_along_incidences(self):
        rng = np.random.default_rng(23)
        pts = random_cloud(rng, 80, 1, 20, (0, 2))
        assert interval_violations(build(pts, 1), pts, [(3, 17)]) == []

    def test_interval_partition_and_types(self):
        rng = np.random.default_rng(29)
        pts = random_cloud(rng, 60, 1, 20, (0, 2))
        mosaic = build(pts, 1)
        assert interval_violations(mosaic, pts, [(3, 17)]) == []
        assert {(iv.type.ell, iv.type.m) for iv in mosaic.intervals} <= {
            (0, 0), (0, 1), (1, 1),
        }

    def test_against_brute_force_sphere_enumeration(self):
        rng = np.random.default_rng(31)
        pts = random_cloud(rng, 50, 1, 12, (0, 1.5))
        mosaic = build(pts, 1)
        brute = brute_force_intervals(pts)
        # compare the multisets restricted to anchors well inside the sample
        def key(entry):
            t, anchor, radius = entry
            return (t, round(anchor, 7), round(radius, 7))

        brute_set = sorted(key(e) for e in brute if 2 <= e[1] < 10)
        mine = sorted(
            key(((iv.type.ell, iv.type.m), float(iv.sphere.anchor[0]), iv.sphere.radius))
            for iv in mosaic.intervals
            if 2 <= iv.sphere.anchor[0] < 10
        )
        assert mine == brute_set

    @pytest.mark.parametrize("seed", [37, 38, 39, 40])
    def test_alternation_pattern(self, seed):
        # scanning by anchor, the interior follows the strict repetition:
        # critical vertex, edge-vertex pairs, critical edge, vertex-edge pairs
        rng = np.random.default_rng(seed)
        pts = random_cloud(rng, 120, 1, 30, (0, 2))
        mosaic = build(pts, 1)
        ordered = sorted(mosaic.intervals, key=lambda iv: iv.sphere.anchor[0])
        sequence = []
        for iv in ordered:
            if not 3.0 <= iv.sphere.anchor[0] <= 27.0:
                continue
            if iv.type == IntervalType(0, 0):
                sequence.append("CV")
            elif iv.type == IntervalType(1, 1):
                sequence.append("CE")
            else:
                a, b = iv.upper
                left = a if pts[a, 0] < pts[b, 0] else b
                sequence.append("VE" if iv.lower[0] == left else "EV")
        allowed = {
            "CV": {"EV", "CE"},
            "EV": {"EV", "CE"},
            "CE": {"VE", "CV"},
            "VE": {"VE", "CV"},
        }
        for first, second in zip(sequence, sequence[1:]):
            assert second in allowed[first], " ".join(sequence)
        assert {"CV", "CE"} <= set(sequence)

    def test_emptiness_of_interior_spheres(self):
        rng = np.random.default_rng(41)
        pts = random_cloud(rng, 70, 1, 15, (0, 1.5))
        assert interval_violations(build(pts, 1), pts, [(3, 12)]) == []

    def test_types_match_visibility_oracle(self):
        # the facet-visibility classification, which types a simplex from a
        # least-squares solve for the anchor's barycentric coordinates, agrees
        # with the sign rule on every interval, and every sphere is the
        # smallest anchored circumsphere of its upper bound's points
        rng = np.random.default_rng(47)
        pts = random_cloud(rng, 120, 1, 30, (0, 2))
        assert oracle_disagreements(build(pts, 1), pts) == []

    def test_close_pair_with_far_anchor(self):
        # criterion-6 configuration; replicate 3 holds generators 374 and 3668,
        # 9.6e-5 apart near x = 1001, whose edge is anchored at x = 6212.7 with
        # a barycentric coordinate of about -5.4e7: a (0, 1) pair
        cfg, _, iv = close_pair_interval()
        experiments.run_replicate(cfg, 3)
        assert iv.type == IntervalType(0, 1)
        assert iv.lower == (374,)
        assert iv.sphere.anchor[0] == pytest.approx(6212.7, abs=0.1)

    def test_close_pair_visibility_oracle(self):
        # the oracle's least-squares system, in coordinates centred at the
        # first projection, types the same (0, 1) interval; uncentred, its
        # residual (5.2e-6) crossed the affine-hull bound
        _, mosaic, iv = close_pair_interval()
        upper = [WeightedPoint(y=mosaic.y[v], w=float(mosaic.w[v])) for v in iv.upper]
        assert visibility_type(iv.sphere, upper) == IntervalType(0, 1)


def test_adapter_matches_geomcore():
    # replicate 0 of the criterion-6 configuration: the adapters give the
    # mosaic of slice_cloud, lower_hull and radius_and_intervals, with its
    # vertices and edges listed left to right
    cfg, points = criterion6_replicate(2025, 0)
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
