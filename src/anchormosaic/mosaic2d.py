"""Regular (weighted Delaunay) triangulations in the plane, their power
diagrams, and the planar entry to the interval decomposition.

A benchmark shim: the benchmark's audit workload and tracer still call these
step-by-step adapters over :mod:`geomcore`, and nothing else in the package
or its demos does. They go with the benchmark change that retires them; the
one path to a mosaic is :func:`geomcore.slice_cloud`,
:func:`geomcore.lower_hull` and :func:`geomcore.radius_and_intervals`. The
triangulation is the lower convex hull of the lift (y1, y2) ->
(y1, y2, |y|^2 - w); generators strictly above it have empty power cells and
are submerged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geomcore import Mosaic, lower_hull, radius_and_intervals

__all__ = [
    "RegularTriangulation",
    "PowerDiagram",
    "regular_triangulation",
    "power_dual",
    "radius_and_intervals_2d",
]


@dataclass
class RegularTriangulation:
    """Weighted Delaunay triangulation of projections ``y`` with weights ``w``.

    ``triangles`` index into the full generator array, sorted within each
    row and the rows in lexicographic order; ``vertices`` lists the surviving
    (non-submerged) generators and ``edges`` the sorted generator pairs in
    lexicographic order.
    ``preimages`` optionally keeps the originating R^n points.
    """

    y: np.ndarray
    w: np.ndarray
    triangles: np.ndarray
    vertices: np.ndarray
    edges: np.ndarray
    preimages: np.ndarray | None = None


def regular_triangulation(
    y: np.ndarray, w: np.ndarray, preimages: np.ndarray | None = None
) -> RegularTriangulation:
    """Regular triangulation of weighted points: the downward facets of
    :func:`geomcore.lower_hull`, with its vertices and edges and the errors
    it raises."""
    y = np.ascontiguousarray(np.atleast_2d(np.asarray(y, dtype=float)))
    w = np.asarray(w, dtype=float)
    if y.ndim != 2 or y.shape[1] != 2:
        raise ValueError("expected (N, 2) projections")
    if y.shape[0] < 3:
        raise ValueError(f"need at least 3 weighted points, got {y.shape[0]}")
    vertices, edges, triangles = lower_hull(y, w)
    return RegularTriangulation(
        y=y, w=w, triangles=triangles, vertices=vertices[:, 0], edges=edges, preimages=preimages
    )


@dataclass
class PowerDiagram:
    """Dual of a regular triangulation: the triangulation edges, each dual to
    the boundary between two power cells. The diagram's vertices are the
    anchors of the triangles in the ``Mosaic`` of
    :func:`radius_and_intervals_2d`."""

    tri: RegularTriangulation

    @property
    def edges(self) -> np.ndarray:
        """(E, 2) sorted generator pairs, the triangulation's edges."""
        return self.tri.edges


def power_dual(tri: RegularTriangulation) -> PowerDiagram:
    """Power diagram dual to a regular triangulation."""
    return PowerDiagram(tri=tri)


def radius_and_intervals_2d(tri: RegularTriangulation, dia: PowerDiagram) -> Mosaic:
    """Anchored radius function and interval decomposition of a planar mosaic.

    The dimension-generic :func:`geomcore.radius_and_intervals` on the
    triangulation's vertices, edges and triangles; ``dia`` supplies only
    the edges. The result lists the vertices, the edges and the triangles in
    the order of ``tri.vertices``, ``dia.edges`` and ``tri.triangles``.
    """
    faces = [tri.vertices[:, None], dia.edges, tri.triangles]
    return radius_and_intervals(tri.y, tri.w, faces)
