"""One-dimensional weighted Voronoi tessellations and Delaunay mosaics.

A cloud in R^n is first rotated about the first coordinate axis into the
upper half-plane, which preserves every distance to the axis and therefore
the induced weighted tessellation on the line. The tessellation itself is
the lower envelope of the power parabolas; since they share the leading
coefficient it reduces to the lower convex hull of the lifted points, which
:func:`geomcore.lower_hull` builds at k = 1 as an exact lower chain. The
interval decomposition is the dimension-generic one of :mod:`geomcore` on
the chain of consecutive vertices.

A benchmark shim: the benchmark's audit workload and tracer still call these
step-by-step adapters, and nothing else in the package or its demos does.
They go with the benchmark change that retires them; the one path to a
mosaic is :func:`geomcore.slice_cloud`, :func:`geomcore.lower_hull` and
:func:`geomcore.radius_and_intervals`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import _sum
from .geomcore import Mosaic, lower_hull, radius_and_intervals

__all__ = ["Mosaic1D", "rotate_to_halfplane", "build_1d", "radius_and_intervals_1d"]


def rotate_to_halfplane(x: np.ndarray) -> np.ndarray:
    """Rotate point(s) of R^n about the first axis into the upper half-plane.

    (x1, x2, ..., xn) maps to (x1, sqrt(x2^2 + ... + xn^2)); the distance to
    the first axis is preserved, so the weighted tessellation on the line is
    unchanged.
    """
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    pts = np.atleast_2d(arr)
    if pts.shape[1] < 2:
        raise ValueError("need ambient dimension >= 2")
    out = np.column_stack([pts[:, 0], np.sqrt(_sum(np.square(pts[:, 1:].T)))])
    return out[0] if single else out


@dataclass
class Mosaic1D:
    """Weighted Delaunay mosaic on the line: the lower-hull record.

    ``vertices`` are indices into ``points`` of the surviving generators in
    left-to-right order; edge i connects vertices i and i+1. The radius
    function and the interval decomposition are the ``Mosaic`` that
    :func:`radius_and_intervals_1d` returns.
    """

    points: np.ndarray
    window: tuple[float, float]
    vertices: np.ndarray


def build_1d(points: np.ndarray, window: tuple[float, float]) -> Mosaic1D:
    """Weighted Delaunay mosaic of half-plane points over the line.

    The power function of generator (x1, x2) at a is (a - x1)^2 + x2^2; its
    minimization diagram is :func:`geomcore.lower_hull` of ``y = x1`` and
    ``w = -x2^2``. Generators not on the lower hull have empty power cells
    and are submerged; the survivors are listed left to right.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValueError("expected a non-empty (N, 2) array of half-plane points")
    if np.any(pts[:, 1] < 0):
        raise ValueError("half-plane points need non-negative second coordinate")
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError(f"window must be a proper interval, got {window}")
    vertices = lower_hull(pts[:, :1], -pts[:, 1] ** 2)[0][:, 0]
    vertices = vertices[np.argsort(pts[vertices, 0])]
    return Mosaic1D(points=pts, window=(lo, hi), vertices=vertices)


def radius_and_intervals_1d(mosaic: Mosaic1D) -> Mosaic:
    """Anchored radius function and interval decomposition of a mosaic on the line.

    The dimension-generic :func:`geomcore.radius_and_intervals` with
    ``y = x1``, ``w = -x2^2`` and an edge between each pair of consecutive
    vertices. An edge is critical when its radical point lies strictly
    between its endpoints and otherwise pairs with the endpoint on the
    positive side, whose cell is clamped there. The result lists the
    vertices left to right, then the edges left to right.
    """
    v = mosaic.vertices
    faces = [v[:, None], np.sort(np.column_stack([v[:-1], v[1:]]), axis=1)]
    return radius_and_intervals(mosaic.points[:, :1], -mosaic.points[:, 1] ** 2, faces)
