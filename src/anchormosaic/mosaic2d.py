"""Regular (weighted Delaunay) triangulations in the plane, their power
diagrams, and the planar entry to the interval decomposition.

The triangulation is the lower convex hull of the lift
(y1, y2) -> (y1, y2, |y|^2 - w), built by :func:`geomcore.lower_hull`, the
same hull that gives the mosaic on the line; generators strictly above the
lower hull have empty power cells and are submerged. The dual vertices of
the power diagram solve two linear equal-power equations per triangle. The
anchored radius function and its intervals come from the dimension-generic
:func:`geomcore.radius_and_intervals`, which this module feeds with the
triangles and their dual vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegeneracyError
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

    ``triangles`` index into the full generator array, in Qhull's order and
    orientation; ``vertices`` lists the surviving (non-submerged) generators
    and ``edges`` the sorted generator pairs in lexicographic order.
    ``preimages`` optionally keeps the originating R^n points.
    """

    y: np.ndarray
    w: np.ndarray
    triangles: np.ndarray
    vertices: np.ndarray
    edges: np.ndarray
    preimages: np.ndarray | None = None

    @cached_property
    def lifted(self) -> np.ndarray:
        return np.einsum("ij,ij->i", self.y, self.y) - self.w


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
        y=y, w=w, triangles=triangles, vertices=vertices, edges=edges, preimages=preimages
    )


@dataclass
class PowerDiagram:
    """Dual of a regular triangulation: a diagram vertex per triangle (the
    equal-power point of its three generators) and the triangulation edges,
    each dual to the boundary between two power cells."""

    tri: RegularTriangulation
    dual_vertices: np.ndarray          # (T, 2) equal-power points
    edges: np.ndarray                  # (E, 2) sorted generator pairs


def power_dual(tri: RegularTriangulation) -> PowerDiagram:
    """Power diagram dual to a regular triangulation.

    Diagram vertices solve the two linear equal-power equations per triangle.
    """
    y = tri.y
    lifted = tri.lifted
    a, b, c = tri.triangles[:, 0], tri.triangles[:, 1], tri.triangles[:, 2]
    lhs = np.stack([2.0 * (y[b] - y[a]), 2.0 * (y[c] - y[a])], axis=1)
    rhs = np.stack([lifted[b] - lifted[a], lifted[c] - lifted[a]], axis=1)
    try:
        duals = np.linalg.solve(lhs, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise DegeneracyError("a triangle has collinear generators") from exc
    return PowerDiagram(tri=tri, dual_vertices=duals, edges=tri.edges)


def radius_and_intervals_2d(
    tri: RegularTriangulation,
    dia: PowerDiagram,
    window: tuple[tuple[float, float], tuple[float, float]] | None = None,
) -> Mosaic:
    """Anchored radius function and interval decomposition of a planar mosaic.

    The dimension-generic :func:`geomcore.radius_and_intervals` on the
    triangulation's vertices, edges and triangles, anchored at the dual
    vertices. The result lists the vertices, the edges and the triangles in
    the order of ``tri.vertices``, ``dia.edges`` and ``tri.triangles``.
    """
    return radius_and_intervals(
        tri.y, tri.w, tri.vertices, dia.edges, tri.triangles, dia.dual_vertices, window
    )
