"""Tests for the one-dimensional mosaic construction and radius function."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from anchormosaic import experiments, geomcore, mosaic1d, sampler
from anchormosaic.constants import IntervalType
from anchormosaic.errors import DegeneracyError
from anchormosaic.sampler import SamplingConfig


def brute_force_survivors(points: np.ndarray, samples: int = 400_001) -> set[int]:
    """Generators whose power function wins somewhere on a fine grid."""
    span = points[:, 0].max() - points[:, 0].min()
    grid = np.linspace(points[:, 0].min() - 3 * span - 3, points[:, 0].max() + 3 * span + 3, samples)
    powers = (grid[None, :] - points[:, 0, None]) ** 2 + points[:, 1, None] ** 2
    return set(np.unique(np.argmin(powers, axis=0)).tolist())


def brute_force_intervals(points: np.ndarray):
    """Enumerate empty anchored spheres of singletons and pairs directly.

    Returns a list of (type, anchor, radius) triples for every empty smallest
    anchored circumsphere of one or two generators.
    """
    out = []
    n = len(points)
    for i in range(n):
        sphere = geomcore.smallest_anchored_circumsphere(points[i : i + 1], 1)
        if geomcore.sphere_is_empty(sphere, points, exclude=[i]):
            out.append(((0, 0), float(sphere.anchor[0]), sphere.radius))
    for i in range(n):
        for j in range(i + 1, n):
            sphere = geomcore.smallest_anchored_circumsphere(points[[i, j]], 1)
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


def close_pair_replicate():
    """Replicate 3 of the criterion-6 configuration at the seed whose
    generators 374 and 3668 lie 9.6e-5 apart near x = 1001: the config, the
    half-plane points and their hull."""
    cfg = SamplingConfig(
        n=2, rho=1.0, window=((0.0, 1000.0),), buffer=1.0, seed=6896151219952633663
    )
    cfg = dataclasses.replace(cfg, buffer=sampler.choose_buffer(cfg, 1 - 1e-6))
    points = sampler.sample_poisson_box(dataclasses.replace(cfg, replicate_index=3))
    halfplane = mosaic1d.rotate_to_halfplane(points)
    return cfg, halfplane, mosaic1d.build_1d(halfplane, cfg.window[0])


class TestBuild1D:
    def test_symmetric_pair(self):
        mosaic = mosaic1d.build_1d(np.array([[0.0, 1.0], [2.0, 1.0]]), window=(-5, 5))
        assert mosaic.vertices.tolist() == [0, 1]
        assert mosaic.cell_bounds[1] == pytest.approx(1.0)
        assert mosaic.num_edges == 1

    def test_submerged_middle(self):
        pts = np.array([[0.0, 1.0], [1.0, math.sqrt(11.0)], [2.0, 1.0]])
        mosaic = mosaic1d.build_1d(pts, window=(-5, 5))
        assert mosaic.vertices.tolist() == [0, 2]
        assert mosaic.num_edges == 1

    def test_random_against_grid_oracle(self):
        rng = np.random.default_rng(17)
        pts = np.column_stack([rng.uniform(0, 10, 50), rng.uniform(0, 2, 50)])
        mosaic = mosaic1d.build_1d(pts, window=(0, 10))
        assert set(mosaic.vertices.tolist()) == brute_force_survivors(pts)

    def test_cell_bounds_exact_far_from_origin(self):
        # near x = 1000 the lift differences x_j^2 - x_i^2 cancel; every finite
        # bound must agree with exact arithmetic on the float inputs
        _, pts, hull = close_pair_replicate()
        worst = 0.0
        for i, j, got in zip(hull.vertices[:-1], hull.vertices[1:], hull.cell_bounds[1:-1]):
            xi, hi = Fraction(float(pts[i, 0])), Fraction(float(pts[i, 1]))
            xj, hj = Fraction(float(pts[j, 0])), Fraction(float(pts[j, 1]))
            exact = (xj * xj + hj * hj - xi * xi - hi * hi) / (2 * (xj - xi))
            worst = max(worst, float(abs(Fraction(float(got)) - exact) / abs(exact)))
        assert worst <= 1e-13

    def test_duplicate_rejected(self):
        with pytest.raises(DegeneracyError):
            mosaic1d.build_1d(np.array([[1.0, 1.0], [1.0, 1.0]]), window=(0, 2))

    def test_negative_height_rejected(self):
        with pytest.raises(ValueError):
            mosaic1d.build_1d(np.array([[0.0, -1.0]]), window=(0, 1))


class TestRadiusAndIntervals:
    def test_lone_vertex(self):
        mosaic = mosaic1d.radius_and_intervals_1d(
            mosaic1d.build_1d(np.array([[0.0, 1.0]]), window=(-1, 1))
        )
        (iv,) = mosaic.intervals
        assert iv.type == IntervalType(0, 0)
        assert iv.sphere.anchor[0] == pytest.approx(0.0)
        assert iv.sphere.radius == pytest.approx(1.0)

    def test_symmetric_pair_intervals(self):
        mosaic = mosaic1d.radius_and_intervals_1d(
            mosaic1d.build_1d(np.array([[-1.0, 1.0], [1.0, 1.0]]), window=(-5, 5))
        )
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
        pts = np.column_stack([rng.uniform(0, 20, 80), rng.uniform(0, 2, 80)])
        mosaic = mosaic1d.radius_and_intervals_1d(mosaic1d.build_1d(pts, (0, 20)))
        for e in range(len(mosaic.edge_radius)):
            assert mosaic.edge_radius[e] >= mosaic.vertex_radius[e] - 1e-12
            assert mosaic.edge_radius[e] >= mosaic.vertex_radius[e + 1] - 1e-12

    def test_interval_partition_and_types(self):
        rng = np.random.default_rng(29)
        pts = np.column_stack([rng.uniform(0, 20, 60), rng.uniform(0, 2, 60)])
        mosaic = mosaic1d.radius_and_intervals_1d(mosaic1d.build_1d(pts, (0, 20)))
        members = [m for iv in mosaic.intervals for m in iv.members]
        assert len(members) == len(set(members)) == len(mosaic.simplices)
        assert {(iv.type.ell, iv.type.m) for iv in mosaic.intervals} <= {
            (0, 0), (0, 1), (1, 1),
        }

    def test_against_brute_force_sphere_enumeration(self):
        rng = np.random.default_rng(31)
        pts = np.column_stack([rng.uniform(0, 12, 50), rng.uniform(0, 1.5, 50)])
        mosaic = mosaic1d.radius_and_intervals_1d(mosaic1d.build_1d(pts, (2, 10)))
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
        pts = np.column_stack([rng.uniform(0, 30, 120), rng.uniform(0, 2, 120)])
        mosaic = mosaic1d.radius_and_intervals_1d(mosaic1d.build_1d(pts, (0, 30)))
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
        pts = np.column_stack([rng.uniform(0, 15, 70), rng.uniform(0, 1.5, 70)])
        mosaic = mosaic1d.radius_and_intervals_1d(mosaic1d.build_1d(pts, (3, 12)))
        for iv in mosaic.intervals:
            if not 3 <= iv.sphere.anchor[0] < 12:
                continue
            assert geomcore.sphere_is_empty(iv.sphere, pts, exclude=iv.upper)

    def test_types_match_visibility_oracle(self):
        # the facet-visibility classification, which types a simplex from a
        # least-squares solve for the anchor's barycentric coordinates, agrees
        # with the sign rule on every interval
        rng = np.random.default_rng(47)
        pts = np.column_stack([rng.uniform(0, 30, 120), rng.uniform(0, 2, 120)])
        mosaic = mosaic1d.radius_and_intervals_1d(mosaic1d.build_1d(pts, (0, 30)))
        for iv in mosaic.intervals:
            upper = [
                geomcore.WeightedPoint(y=pts[v, :1], w=-float(pts[v, 1]) ** 2) for v in iv.upper
            ]
            assert geomcore.visibility_type(iv.sphere, upper) == iv.type

    def test_close_pair_with_far_anchor(self):
        # criterion-6 configuration; replicate 3 holds generators 374 and 3668,
        # 9.6e-5 apart near x = 1001, whose edge is anchored at x = 6212.7 with
        # a barycentric coordinate of about -5.4e7: a (0, 1) pair
        cfg, _, hull = close_pair_replicate()
        experiments.run_replicate(cfg, 3)
        mosaic = mosaic1d.radius_and_intervals_1d(hull)
        (iv,) = [iv for iv in mosaic.intervals if iv.upper == (374, 3668)]
        assert iv.type == IntervalType(0, 1)
        assert iv.lower == (374,)
        assert iv.sphere.anchor[0] == pytest.approx(6212.7, abs=0.1)

    def test_close_pair_visibility_oracle(self):
        # the oracle's least-squares system, in coordinates centred at the
        # first projection, types the same (0, 1) interval; uncentred, its
        # residual (5.2e-6) crossed the affine-hull bound
        _, pts, hull = close_pair_replicate()
        mosaic = mosaic1d.radius_and_intervals_1d(hull)
        (iv,) = [iv for iv in mosaic.intervals if iv.upper == (374, 3668)]
        upper = [
            geomcore.WeightedPoint(y=pts[v, :1], w=-float(pts[v, 1]) ** 2) for v in iv.upper
        ]
        assert geomcore.visibility_type(iv.sphere, upper) == IntervalType(0, 1)
