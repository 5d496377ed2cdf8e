"""One-dimensional weighted Voronoi tessellations and Delaunay mosaics.

A cloud in R^n is first rotated about the first coordinate axis into the
upper half-plane, which preserves every distance to the axis and therefore
the induced weighted tessellation on the line. The tessellation itself is
the lower envelope of the power parabolas; since they share the leading
coefficient it reduces to a lower convex hull of lifted points, computed by a
monotone-chain sweep in O(N log N). The interval decomposition follows from
the same cells: a vertex whose projection lies outside its cell is clamped to
a cell boundary and paired with the edge dual to that boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import IntervalType
from .errors import DegeneracyError, MosaicError
from .geomcore import AnchoredSphere, Interval

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
    """Weighted Delaunay mosaic on the line with its radius function.

    ``vertices`` are indices into ``points`` of the surviving generators in
    left-to-right order; edge i connects vertices i and i+1. ``cell_bounds``
    holds the M+1 power-cell boundaries including the +-inf sentinels. The
    radius annotations and the interval decomposition are attached by
    :func:`radius_and_intervals_1d`.
    """

    points: np.ndarray
    window: tuple[float, float]
    vertices: np.ndarray
    cell_bounds: np.ndarray
    vertex_anchor: np.ndarray | None = None
    vertex_radius: np.ndarray | None = None
    edge_anchor: np.ndarray | None = None
    edge_radius: np.ndarray | None = None
    intervals: list[Interval] = field(default_factory=list)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return max(len(self.vertices) - 1, 0)

    def to_dict(self) -> dict:
        """JSON-ready dump: vertices, simplices with radii/anchors, interval ids."""
        if self.vertex_radius is None:
            raise MosaicError("radius function not computed yet")
        interval_of: dict[tuple[int, ...], int] = {}
        for iid, iv in enumerate(self.intervals):
            for member in iv.members:
                interval_of[member] = iid
        simplices = []
        for local, v in enumerate(self.vertices):
            key = (int(v),)
            simplices.append(
                {
                    "vertices": list(key),
                    "dim": 0,
                    "radius": float(self.vertex_radius[local]),
                    "anchor": [float(self.vertex_anchor[local])],
                    "interval": interval_of[key],
                }
            )
        for local in range(self.num_edges):
            key = tuple(sorted((int(self.vertices[local]), int(self.vertices[local + 1]))))
            simplices.append(
                {
                    "vertices": list(key),
                    "dim": 1,
                    "radius": float(self.edge_radius[local]),
                    "anchor": [float(self.edge_anchor[local])],
                    "interval": interval_of[key],
                }
            )
        return {
            "schema_version": 1,
            "k": 1,
            "window": [float(self.window[0]), float(self.window[1])],
            "vertices": [
                {
                    "id": int(v),
                    "y": [float(self.points[v, 0])],
                    "w": -float(self.points[v, 1]) ** 2,
                }
                for v in self.vertices
            ],
            "simplices": simplices,
            "intervals": [
                {
                    "id": iid,
                    "ell": iv.type.ell,
                    "m": iv.type.m,
                    "radius": float(iv.sphere.radius),
                    "anchor": [float(iv.sphere.anchor[0])],
                    "lower": list(iv.lower),
                    "upper": list(iv.upper),
                    "members": [list(mm) for mm in iv.members],
                }
                for iid, iv in enumerate(self.intervals)
            ],
        }


def build_1d(points: np.ndarray, window: tuple[float, float]) -> Mosaic1D:
    """Weighted Delaunay mosaic of half-plane points over the line.

    The power function of generator (x1, x2) at a is (a - x1)^2 + x2^2; its
    minimization diagram is the lower convex hull of the lift
    (x1, x1^2 + x2^2). Generators not on the lower hull have empty power
    cells and are submerged.
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
    hs = lift[vertices]
    bounds = np.empty(len(vertices) + 1)
    bounds[0] = -np.inf
    bounds[-1] = np.inf
    if len(vertices) > 1:
        bounds[1:-1] = (hs[1:] - hs[:-1]) / (2.0 * (xs[1:] - xs[:-1]))
        if np.any(np.diff(bounds[1:-1]) <= 0.0):
            raise DegeneracyError("power-cell boundaries are not strictly increasing")
    return Mosaic1D(points=pts, window=(lo, hi), vertices=vertices, cell_bounds=bounds)


def radius_and_intervals_1d(mosaic: Mosaic1D) -> Mosaic1D:
    """Attach the anchored radius function and the interval decomposition.

    A vertex's radius is the minimum of its power function over its cell
    (the clamped quadratic minimum); an edge's radius is the power at the
    shared cell boundary. The signs of the edge anchor's barycentric
    coordinates on the edge give its interval: strictly between its two
    generators it is a critical (1, 1) edge, otherwise it pairs the edge with
    the vertex whose cell is clamped there, a (0, 1) interval. Every other
    vertex is a critical (0, 0) interval; a vertex whose criticality (its
    projection strictly inside its cell) disagrees with this pairing raises
    MosaicError.
    """
    pts = mosaic.points
    v = mosaic.vertices
    xs = pts[v, 0]
    height = pts[v, 1]
    left = mosaic.cell_bounds[:-1]
    right = mosaic.cell_bounds[1:]

    vertex_anchor = np.clip(xs, left, right)
    vertex_radius = np.hypot(vertex_anchor - xs, height)
    edge_anchor = mosaic.cell_bounds[1:-1]
    edge_radius = np.hypot(edge_anchor - xs[:-1], height[:-1])

    span = float(np.max(xs) - np.min(xs)) if len(xs) > 1 else 1.0
    tol = 1e-12 * max(1.0, span, float(np.max(np.abs(xs))))
    if np.any(np.abs(xs[:-1] - edge_anchor) < tol) or np.any(
        np.abs(xs[1:] - edge_anchor) < tol
    ):
        raise DegeneracyError("an anchor coincides with a generator projection")

    intervals: list[Interval] = []
    paired = np.zeros(len(v), dtype=bool)

    for e in range(len(v) - 1):
        a = float(edge_anchor[e])
        sphere = AnchoredSphere(anchor=np.array([a]), radius=float(edge_radius[e]))
        edge_key = tuple(sorted((int(v[e]), int(v[e + 1]))))
        if xs[e] < a < xs[e + 1]:
            intervals.append(
                Interval(
                    lower=edge_key,
                    upper=edge_key,
                    type=IntervalType(1, 1),
                    sphere=sphere,
                    members=(edge_key,),
                )
            )
        else:
            local = e if a < xs[e] else e + 1  # the vertex whose cell clamps here
            if paired[local]:
                raise MosaicError("a vertex would belong to two intervals")
            paired[local] = True
            vertex_radius[local] = edge_radius[e]  # canonical shared sphere
            vertex_key = (int(v[local]),)
            intervals.append(
                Interval(
                    lower=vertex_key,
                    upper=edge_key,
                    type=IntervalType(0, 1),
                    sphere=sphere,
                    members=(vertex_key, edge_key),
                )
            )

    for local in range(len(v)):
        critical = left[local] < xs[local] < right[local]
        if critical == bool(paired[local]):
            raise MosaicError("vertex criticality disagrees with edge pairing")
        if not critical:
            continue
        key = (int(v[local]),)
        sphere = AnchoredSphere(
            anchor=np.array([float(vertex_anchor[local])]),
            radius=float(vertex_radius[local]),
        )
        intervals.append(
            Interval(
                lower=key, upper=key, type=IntervalType(0, 0), sphere=sphere, members=(key,)
            )
        )

    mosaic.vertex_anchor = vertex_anchor
    mosaic.vertex_radius = vertex_radius
    mosaic.edge_anchor = edge_anchor
    mosaic.edge_radius = edge_radius
    mosaic.intervals = intervals
    return mosaic
