"""The interval decomposition of three-dimensional weighted Delaunay mosaics."""

import math
from collections import Counter
from itertools import combinations

import numpy as np

from anchormosaic import geomcore
from anchormosaic.constants import IntervalType

from oracles import WeightedPoint, smallest_anchored_circumsphere, visibility_type


def random_cloud(rng, count):
    """``count`` points of R^4 over a cube of about 1.4 points per unit volume."""
    side = max((count / 1.4) ** (1 / 3), 2.0)
    return np.column_stack([rng.uniform(0, side, (count, 3)), rng.uniform(-1.2, 1.2, count)]), side


def decompose(cloud):
    y, w = geomcore.slice_cloud(cloud, 3)
    return geomcore.radius_and_intervals(y, w, geomcore.lower_hull(y, w))


def violations(mosaic, cloud, interior):
    """Partition, member-count, reconciliation, monotonicity and emptiness
    violations of one mosaic, and the interval types it has."""
    intervals = mosaic.intervals
    simplices = mosaic.simplices
    found = []
    members = [s for iv in intervals for s in iv.members]
    if len(members) != len(simplices) or set(members) != set(simplices):
        found.append("the intervals do not partition the simplices")
    found += [
        f"{iv.type} has {len(iv.members)} members"
        for iv in intervals
        if len(iv.members) != 2 ** (iv.type.m - iv.type.ell)
    ]
    radii = mosaic.radii[mosaic.upper]
    for r0 in (float(np.median(radii)), math.inf):
        census = Counter(iv.type for iv, r in zip(intervals, radii) if r <= r0)
        for j in range(4):
            predicted = sum(
                math.comb(t.m - t.ell, t.m - j) * c for t, c in census.items() if t.m >= j
            )
            if np.count_nonzero((mosaic.dims == j) & (mosaic.radii <= r0)) != predicted:
                found.append(f"dimension {j} does not reconcile at r0 = {r0}")
    row = {s: r for r, s in enumerate(simplices)}
    for r, s in enumerate(simplices):
        for face in combinations(s, len(s) - 1) if len(s) > 1 else ():
            if mosaic.radii[row[face]] > mosaic.radii[r] * (1 + 1e-9):
                found.append(f"{face} has a larger radius than its coface {s}")
    for iv in intervals:
        inside = all(lo <= a < hi for a, (lo, hi) in zip(iv.sphere.anchor.tolist(), interior))
        if inside and not geomcore.sphere_is_empty(iv.sphere, cloud, exclude=iv.upper):
            found.append(f"the sphere of {iv.upper} is not empty")
    return found, {iv.type for iv in intervals}


def test_random_clouds_decompose():
    # 100 clouds of 10-400 points: every interval invariant of criterion 10
    # holds, and all ten types of k = 3 occur
    rng = np.random.default_rng(2030)
    seen = set()
    for _ in range(100):
        cloud, side = random_cloud(rng, int(rng.integers(10, 401)))
        margin = 0.2 * side
        found, types = violations(decompose(cloud), cloud, [(margin, side - margin)] * 3)
        assert found == []
        seen |= types
    assert seen == {IntervalType(ell, m) for m in range(4) for ell in range(m + 1)}


def test_types_and_spheres_match_the_oracles():
    # the sign rule against a least-squares barycentric solve, and every
    # interval's sphere against the smallest anchored circumsphere of its
    # upper bound's points
    rng = np.random.default_rng(31)
    for count in (12, 40, 90, 200, 400):
        cloud, _ = random_cloud(rng, count)
        mosaic = decompose(cloud)
        for iv in mosaic.intervals:
            upper = [WeightedPoint(y=mosaic.y[v], w=float(mosaic.w[v])) for v in iv.upper]
            assert visibility_type(iv.sphere, upper) == iv.type
            direct = smallest_anchored_circumsphere(cloud[list(iv.upper)], 3)
            scale = max(1.0, float(np.max(np.abs(direct.anchor))))
            assert np.max(np.abs(iv.sphere.anchor - direct.anchor)) <= 1e-8 * scale
            assert abs(iv.sphere.radius - direct.radius) <= 1e-8 * direct.radius
