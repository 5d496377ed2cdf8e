"""Planar weighted mosaic from a slice of a 3-dimensional Poisson process.

Builds the regular triangulation via the lifted lower hull, computes the
anchored radius function, whose triangle anchors are the vertices of the
dual power diagram, summarizes the interval census against its closed-form
prediction and spot-checks that the spheres of the window intervals are
empty.
"""

from collections import Counter

from anchormosaic import constants, geomcore, sampler
from anchormosaic.sampler import SamplingConfig

cfg = SamplingConfig(
    n=3, rho=1.0, window=((0.0, 12.0), (0.0, 12.0)), buffer=1.7, seed=4
)
cloud = sampler.sample_poisson_box(cfg)
print(f"sampled {len(cloud)} points in the buffered slab")

y, w = geomcore.slice_cloud(cloud, 2)
faces = geomcore.lower_hull(y, w)
mosaic = geomcore.radius_and_intervals(y, w, faces)
vertices, edges, triangles = faces

print(f"triangulation: {len(vertices)} vertices, {len(edges)} edges, "
      f"{len(triangles)} triangles "
      f"({len(cloud) - len(vertices)} generators submerged)")

area = cfg.window_volume
in_window = [iv for iv in mosaic.intervals if cfg.in_window(iv.sphere.anchor)[0]]
census = Counter((iv.type.ell, iv.type.m) for iv in in_window)
print("\ninterval census in the window vs closed-form expectation:")
for t in constants.valid_interval_types(2):
    expected = constants.expected_interval_count(t, 2, 3, cfg.rho, area)
    print(f"  type ({t.ell},{t.m}): observed {census.get((t.ell, t.m), 0):>4} "
          f"expected {expected:8.1f}")

# every interval's sphere is the smallest empty anchored circumsphere of its
# upper bound; spot-check emptiness for the window intervals
violations = sum(
    not geomcore.sphere_is_empty(iv.sphere, cloud, exclude=iv.upper)
    for iv in in_window
)
print(f"\nempty-circumsphere check: {violations} violations in {len(in_window)} intervals")
