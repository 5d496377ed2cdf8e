"""Regular (weighted Delaunay) triangulations in the plane, their power
diagrams, and the planar entry to the interval decomposition.

Step-by-step adapters over :mod:`geomcore`, kept for callers that want each
stage on its own; the census itself runs :func:`geomcore.lower_hull` and
:func:`geomcore.radius_and_intervals` directly. The triangulation is the
lower convex hull of the lift (y1, y2) -> (y1, y2, |y|^2 - w); generators
strictly above it have empty power cells and are submerged. The power
diagram solves its dual vertices with :func:`geomcore.dual_vertices` only
when they are read; the decomposition anchors the triangles on its own
corner system, so a census through these adapters solves them once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geomcore import Mosaic, dual_vertices, lower_hull, radius_and_intervals

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
    """Dual of a regular triangulation: a diagram vertex per triangle (the
    equal-power point of its three generators) and the triangulation edges,
    each dual to the boundary between two power cells. The dual vertices are
    solved only when read; :func:`radius_and_intervals_2d` solves its own."""

    tri: RegularTriangulation

    @cached_property
    def dual_vertices(self) -> np.ndarray:
        """(T, 2) equal-power points, from :func:`geomcore.dual_vertices`."""
        return dual_vertices(self.tri.y, self.tri.w, self.tri.triangles)

    @property
    def edges(self) -> np.ndarray:
        """(E, 2) sorted generator pairs, the triangulation's edges."""
        return self.tri.edges


def power_dual(tri: RegularTriangulation) -> PowerDiagram:
    """Power diagram dual to a regular triangulation."""
    return PowerDiagram(tri=tri)


def radius_and_intervals_2d(
    tri: RegularTriangulation,
    dia: PowerDiagram,
    window: tuple[tuple[float, float], tuple[float, float]] | None = None,
) -> Mosaic:
    """Anchored radius function and interval decomposition of a planar mosaic.

    The dimension-generic :func:`geomcore.radius_and_intervals` on the
    triangulation's vertices, edges and triangles; it solves the triangles'
    dual vertices itself, so ``dia`` supplies only the edges. The result
    lists the vertices, the edges and the triangles in the order of
    ``tri.vertices``, ``dia.edges`` and ``tri.triangles``.
    """
    faces = [tri.vertices[:, None], dia.edges, tri.triangles]
    return radius_and_intervals(tri.y, tri.w, faces, window)
