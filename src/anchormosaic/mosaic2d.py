"""Regular (weighted Delaunay) triangulations in the plane, their power
diagrams, and the planar entry to the interval decomposition.

The triangulation is the lower convex hull of the lift
(y1, y2) -> (y1, y2, |y|^2 - w); generators strictly above the lower hull
have empty power cells and are submerged. The dual vertices of the power
diagram solve two linear equal-power equations per triangle. The anchored
radius function and its intervals come from the dimension-generic
:func:`geomcore.radius_and_intervals`, which this module feeds with the
triangles and their dual vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import DegeneracyError, MosaicError
from .geomcore import Mosaic, radius_and_intervals

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

    ``triangles`` index into the full generator array and are oriented
    counter-clockwise; ``vertices`` lists the surviving (non-submerged)
    generators and ``edges`` the sorted generator pairs in lexicographic
    order. ``preimages`` optionally keeps the originating R^n points.
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
    """Regular triangulation of weighted points via the lower convex hull of the lift.

    Raises DegeneracyError on duplicate projections (found by comparing
    neighbours in lexicographic order) and on a degenerate lift, and
    MosaicError when an edge belongs to more than two triangles. The edges
    are deduplicated and counted as integer keys ``lo * N + hi`` in one
    1-D ``np.unique``, which returns them in lexicographic order.
    """
    y = np.ascontiguousarray(np.atleast_2d(np.asarray(y, dtype=float)))
    w = np.asarray(w, dtype=float)
    if y.ndim != 2 or y.shape[1] != 2:
        raise ValueError("expected (N, 2) projections")
    if w.shape != (y.shape[0],):
        raise ValueError("weights must be a vector matching the projections")
    n_pts = y.shape[0]
    if n_pts < 3:
        raise ValueError(f"need at least 3 weighted points, got {n_pts}")
    ordered = y[np.lexsort((y[:, 1], y[:, 0]))]
    if np.any((ordered[1:] == ordered[:-1]).all(axis=1)):
        raise DegeneracyError("duplicate projected generators")

    lifted = np.einsum("ij,ij->i", y, y) - w
    scale = max(1.0, float(np.max(np.ptp(y, axis=0))))
    if n_pts == 3:
        ab, ac = y[1] - y[0], y[2] - y[0]
        area2 = float(ab[0] * ac[1] - ab[1] * ac[0])
        if abs(area2) <= 1e-12 * scale * scale:
            raise DegeneracyError("the three projections are collinear")
        triangles = np.array([[0, 1, 2]] if area2 > 0 else [[0, 2, 1]], dtype=int)
    else:
        try:
            hull = ConvexHull(np.column_stack([y, lifted]), qhull_options="Qt")
        except QhullError as exc:
            raise DegeneracyError(f"degenerate lifted configuration: {exc}") from exc
        downward = hull.equations[:, 2] < 0.0
        triangles = np.asarray(hull.simplices[downward], dtype=int)
        if triangles.shape[0] == 0:
            raise DegeneracyError("no downward-facing hull facets")
        # orient counter-clockwise in the projection
        ab = y[triangles[:, 1]] - y[triangles[:, 0]]
        ac = y[triangles[:, 2]] - y[triangles[:, 0]]
        det = ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0]
        flip = det < 0
        triangles[flip] = triangles[flip][:, [0, 2, 1]]

    pairs = np.sort(
        np.vstack([triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [0, 2]]]), axis=1
    )
    keys, incidence = np.unique(pairs[:, 0] * n_pts + pairs[:, 1], return_counts=True)
    if np.any(incidence > 2):
        raise MosaicError("an edge belongs to more than two triangles")
    return RegularTriangulation(
        y=y,
        w=w,
        triangles=triangles,
        vertices=np.unique(triangles),
        edges=np.column_stack([keys // n_pts, keys % n_pts]),
        preimages=preimages,
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
