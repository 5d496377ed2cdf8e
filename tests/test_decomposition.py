"""The interval decomposition for every slice dimension k, built through
``geomcore``'s one path, ``slice_cloud``, ``lower_hull`` and
``radius_and_intervals``: the invariant audit and the oracles over random
clouds, then hand-made and census configurations at k = 1, 2 and 3."""

import math

import numpy as np
import pytest

from anchormosaic import experiments, geomcore, sampler
from anchormosaic.constants import IntervalType, valid_interval_types
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


def cube_side(count):
    """The side of a cube of about 1.4 points per unit volume, at least 2."""
    return max((count / 1.4) ** (1 / 3), 2.0)


def cube_cloud(rng, count):
    """``count`` points of R^4 over a cube of ``cube_side(count)``, and the
    cube's side."""
    side = cube_side(count)
    return random_cloud(rng, count, 3, side, (-1.2, 1.2)), side


@pytest.mark.parametrize(
    "k,seed,size,side,heights,box",
    [
        pytest.param(1, 23, 80, 20, (0, 2), (3, 17), id="k1-seed23"),
        pytest.param(1, 29, 60, 20, (0, 2), (3, 17), id="k1-seed29"),
        pytest.param(1, 41, 70, 15, (0, 1.5), (3, 12), id="k1-seed41"),
        pytest.param(2, 12, 200, 12.0, (-1.4, 1.4), (2.4, 9.6), id="k2-seed12"),
        pytest.param(2, 13, 120, 9.0, (-1.2, 1.2), (1.8, 7.2), id="k2-seed13"),
        pytest.param(2, 14, 150, 10.0, (-1.3, 1.3), (2.0, 8.0), id="k2-seed14"),
    ],
)
def test_invariants_hold(k, seed, size, side, heights, box):
    # every invariant of the audit holds, with the spheres anchored in the
    # interior box empty; every type is one of k's, and more than 20
    # intervals are anchored in the box, so the box checks something
    rng = np.random.default_rng(seed)
    cloud = random_cloud(rng, size, k, side, heights)
    mosaic = build(cloud, k)
    assert interval_violations(mosaic, cloud, [box] * k) == []
    assert {iv.type for iv in mosaic.intervals} <= set(valid_interval_types(k))
    anchors = mosaic.anchors[mosaic.upper]
    assert np.count_nonzero(np.all((box[0] <= anchors) & (anchors < box[1]), axis=1)) > 20


@pytest.mark.parametrize(
    "k,seed,draws",
    [
        pytest.param(1, 47, [(120, 30, (0, 2))], id="k1-seed47"),
        pytest.param(2, 15, [(80, 7.0, (-1.1, 1.1))], id="k2-seed15"),
        pytest.param(2, 17, [(150, 10.0, (-1.3, 1.3))], id="k2-seed17"),
        pytest.param(
            3, 31, [(count, cube_side(count), (-1.2, 1.2)) for count in (12, 40, 90, 200, 400)],
            id="k3-seed31",
        ),
    ],
)
def test_types_and_spheres_match_the_oracles(k, seed, draws):
    # the sign rule against the facet-visibility classification, which types
    # a simplex from a least-squares solve for the anchor's barycentric
    # coordinates, and every interval's sphere against the smallest anchored
    # circumsphere of its upper bound's points; the draws share one stream
    rng = np.random.default_rng(seed)
    for size, side, heights in draws:
        cloud = random_cloud(rng, size, k, side, heights)
        assert oracle_disagreements(build(cloud, k), cloud) == []


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


def close_pair_interval():
    """The config of replicate 3 of the criterion-6 configuration at the seed
    whose generators 374 and 3668 lie 9.6e-5 apart near x = 1001, that
    replicate's mosaic, and the interval whose upper bound is their edge."""
    cfg = SamplingConfig(n=2, rho=1.0, window=((0.0, 1000.0),), seed=6896151219952633663)
    mosaic = build(sampler.sample_poisson_box(cfg, 3), 1)
    (iv,) = [iv for iv in mosaic.intervals if iv.upper == (374, 3668)]
    return cfg, mosaic, iv


class TestK1:
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


class TestK2:
    def test_unweighted_circumcenter(self):
        theta = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
        mosaic = build(np.column_stack([np.cos(theta), np.sin(theta), np.zeros(3)]), 2)
        # the power diagram's vertex is the anchor of the top row
        assert mosaic.anchors[mosaic.dims == 2][0] == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_radical_line_shifts_toward_lighter_point(self):
        # the edge's anchor is the equal-power point |z|^2 + 0.5 = |z - 2|^2 + 2
        # on the radical line x = 1.375: past the midpoint, so the heavier
        # generator (larger w) claims more than half of the edge
        y = np.array([[0.0, 0.0], [2.0, 0.0]])
        w = np.array([-0.5, -2.0])
        faces = geomcore.lower_hull(y, w)
        mosaic = geomcore.radius_and_intervals(y, w, faces)
        np.testing.assert_array_equal(faces[1], [[0, 1]])
        assert mosaic.anchors[mosaic.dims == 1].tolist() == [[1.375, 0.0]]

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

    def test_sliver_triangle_claims_its_long_edge(self):
        # criterion-7 configuration; replicate 0 holds a sliver triangle of
        # three nearly collinear generators at the edge of the sampled box,
        # whose dual vertex has exact barycentric coordinates of about
        # (6.5e10, 1.7e10, -8.2e10): the edge opposite the negative corner
        # pairs with the triangle
        cfg = SamplingConfig(
            n=3, rho=1.0, window=((0.0, 20.0), (0.0, 20.0)), seed=6462167774629543367
        )
        experiments.run_replicate(cfg, 0)
        mosaic = build(sampler.sample_poisson_box(cfg, 0), 2)
        iv = mosaic.intervals[mosaic.interval_id[mosaic.simplices.index((848, 867))]]
        assert iv.type == IntervalType(1, 2)
        assert iv.lower == (848, 867)
        assert iv.upper == (848, 867, 1084)


class TestK3:
    def test_random_clouds_decompose(self):
        # 100 clouds of 10-400 points: every interval invariant of criterion 10
        # holds, and all ten types of k = 3 occur
        rng = np.random.default_rng(2030)
        seen = set()
        for _ in range(100):
            cloud, side = cube_cloud(rng, int(rng.integers(10, 401)))
            margin = 0.2 * side
            mosaic = build(cloud, 3)
            assert interval_violations(mosaic, cloud, [(margin, side - margin)] * 3) == []
            seen |= {iv.type for iv in mosaic.intervals}
        assert seen == {IntervalType(ell, m) for m in range(4) for ell in range(m + 1)}
