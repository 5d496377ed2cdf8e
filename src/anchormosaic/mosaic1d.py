"""One-dimensional weighted Voronoi tessellations and Delaunay mosaics.

A cloud in R^n is first rotated about the first coordinate axis into the
upper half-plane, which preserves every distance to the axis and therefore
the induced weighted tessellation on the line. The tessellation itself is
the lower envelope of the power parabolas; since they share the leading
coefficient it reduces to a lower convex hull of lifted points, computed by a
monotone-chain sweep in O(N log N). The interval decomposition is the
dimension-generic one of :mod:`geomcore` on the chain of consecutive
vertices: a vertex whose projection lies outside its cell is clamped to a
cell boundary and paired with the edge dual to that boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError
from .geomcore import Mosaic, radius_and_intervals

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
    out = np.column_stack([pts[:, 0], np.sqrt(np.einsum("ij,ij->i", pts[:, 1:], pts[:, 1:]))])
    return out[0] if single else out


@dataclass
class Mosaic1D:
    """Weighted Delaunay mosaic on the line: the lower-hull record.

    ``vertices`` are indices into ``points`` of the surviving generators in
    left-to-right order; edge i connects vertices i and i+1. ``cell_bounds``
    holds the M+1 power-cell boundaries including the +-inf sentinels. The
    radius function and the interval decomposition are the ``Mosaic`` that
    :func:`radius_and_intervals_1d` returns.
    """

    points: np.ndarray
    window: tuple[float, float]
    vertices: np.ndarray
    cell_bounds: np.ndarray

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return max(len(self.vertices) - 1, 0)


def build_1d(points: np.ndarray, window: tuple[float, float]) -> Mosaic1D:
    """Weighted Delaunay mosaic of half-plane points over the line.

    The power function of generator (x1, x2) at a is (a - x1)^2 + x2^2; its
    minimization diagram is the lower convex hull of the lift
    (x1, x1^2 + x2^2). Generators not on the lower hull have empty power
    cells and are submerged. The boundary between consecutive cells i and j
    is taken as (x_i + x_j)/2 + (h_j^2 - h_i^2) / (2 (x_j - x_i)), which
    equals (lift_j - lift_i) / (2 (x_j - x_i)) without its cancellation far
    from the origin.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValueError("expected a non-empty (N, 2) array of half-plane points")
    if np.any(pts[:, 1] < 0):
        raise ValueError("half-plane points need non-negative second coordinate")
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError(f"window must be a proper interval, got {window}")

    x = pts[:, 0]
    lift = x * x + pts[:, 1] * pts[:, 1]
    order = np.argsort(x, kind="stable")
    if np.any(np.diff(x[order]) == 0.0):
        raise DegeneracyError("generators share a projected coordinate")

    hull: list[int] = []
    for idx in order:
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (x[a] - x[o]) * (lift[idx] - lift[o]) - (lift[a] - lift[o]) * (
                x[idx] - x[o]
            )
            if cross <= 0.0:  # middle generator not strictly below the chord
                hull.pop()
            else:
                break
        hull.append(int(idx))

    vertices = np.asarray(hull, dtype=int)
    xs = x[vertices]
    h2 = pts[vertices, 1] ** 2
    bounds = np.empty(len(vertices) + 1)
    bounds[0] = -np.inf
    bounds[-1] = np.inf
    if len(vertices) > 1:
        bounds[1:-1] = (xs[1:] + xs[:-1]) / 2.0 + (h2[1:] - h2[:-1]) / (
            2.0 * (xs[1:] - xs[:-1])
        )
        if np.any(np.diff(bounds[1:-1]) <= 0.0):
            raise DegeneracyError("power-cell boundaries are not strictly increasing")
    return Mosaic1D(points=pts, window=(lo, hi), vertices=vertices, cell_bounds=bounds)


def radius_and_intervals_1d(mosaic: Mosaic1D) -> Mosaic:
    """Anchored radius function and interval decomposition of a mosaic on the line.

    The dimension-generic :func:`geomcore.radius_and_intervals` with
    ``y = x1``, ``w = -x2^2`` and an edge between each pair of consecutive
    vertices; no triangles. An edge is critical when its radical point lies
    strictly between its endpoints and otherwise pairs with the endpoint on
    the positive side, whose cell is clamped there. The result lists the
    vertices left to right, then the edges left to right.
    """
    v = mosaic.vertices
    return radius_and_intervals(
        mosaic.points[:, :1],
        -mosaic.points[:, 1] ** 2,
        v,
        np.column_stack([v[:-1], v[1:]]),
        window=(mosaic.window,),
    )
