"""The interval decomposition of three-dimensional weighted Delaunay mosaics."""

import dataclasses
import hashlib

import numpy as np

from anchormosaic import experiments
from anchormosaic.constants import IntervalType
from anchormosaic.sampler import SamplingConfig

from oracles import build, interval_violations, oracle_disagreements, random_cloud


def cube_cloud(rng, count):
    """``count`` points of R^4 over a cube of about 1.4 points per unit
    volume, and the cube's side."""
    side = max((count / 1.4) ** (1 / 3), 2.0)
    return random_cloud(rng, count, 3, side, (-1.2, 1.2)), side


def test_random_clouds_decompose():
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


def test_types_and_spheres_match_the_oracles():
    # the sign rule against a least-squares barycentric solve, and every
    # interval's sphere against the smallest anchored circumsphere of its
    # upper bound's points
    rng = np.random.default_rng(31)
    for count in (12, 40, 90, 200, 400):
        cloud, _ = cube_cloud(rng, count)
        assert oracle_disagreements(build(cloud, 3), cloud) == []


def test_census_record_bits_pinned():
    # every column of replicate 0 of the (4,3) census at seed 5 on a 6^3
    # window, hashed as the CI's one-CPU and all-CPU runs hash the records;
    # the decomposition adds each sum over coordinates or corners in index
    # order, and these bits pin that order
    cfg = SamplingConfig(n=4, rho=1.0, window=((0.0, 6.0),) * 3, seed=5)
    record = experiments._replicate_record(cfg, 0)
    columns = (np.asarray(getattr(record, f.name)).tobytes() for f in dataclasses.fields(record))
    assert hashlib.sha256(b"".join(columns)).hexdigest() == (
        "3d878b7d07ac47053fce1a97a670a7bbf6f24f77af874628032a36d46294c195"
    )
