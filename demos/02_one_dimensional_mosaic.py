"""Build a one-dimensional weighted mosaic step by step.

Samples a planar Poisson cloud, slices it with the first coordinate axis,
computes the weighted Delaunay mosaic on the line as the lower hull of the
lifted generators, and walks through the interval decomposition of the
radius function, printing the left-to-right pattern of critical and regular
intervals.
"""

from anchormosaic import geomcore, sampler
from anchormosaic.constants import IntervalType
from anchormosaic.sampler import SamplingConfig

cfg = SamplingConfig(n=2, rho=1.0, window=((0.0, 20.0),), buffer=2.5, seed=11)
points = sampler.sample_poisson_box(cfg)
print(f"sampled {len(points)} points in the buffered box")

y, w = geomcore.slice_cloud(points, 1)
faces = geomcore.lower_hull(y, w)
print(f"surviving generators: {len(faces[0])} of {len(points)} "
      f"({len(points) - len(faces[0])} submerged)")

mosaic = geomcore.radius_and_intervals(y, w, faces)

names = {
    IntervalType(0, 0): "critical vertex",
    IntervalType(1, 1): "critical edge  ",
    IntervalType(0, 1): "regular pair   ",
}
print("\nintervals by anchor position (window only):")
in_window = [iv for iv in mosaic.intervals if cfg.in_window(iv.sphere.anchor)[0]]
for iv in sorted(in_window, key=lambda iv: iv.sphere.anchor[0]):
    a = iv.sphere.anchor[0]
    print(f"  anchor {a:7.3f}  radius {iv.sphere.radius:6.3f}  "
          f"{names[iv.type]}  members {list(iv.members)}")

criticals = [iv for iv in mosaic.intervals if iv.type.ell == iv.type.m]
print(f"\n{len(criticals)} critical intervals; vertex/edge criticals alternate "
      "along the line, so their window counts differ by at most one:")
cv = sum(1 for iv in criticals if iv.type.m == 0)
ce = sum(1 for iv in criticals if iv.type.m == 1)
print(f"  critical vertices: {cv}, critical edges: {ce}")
