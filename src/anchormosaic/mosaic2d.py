"""Regular (weighted Delaunay) triangulations in the plane, their power
diagrams, the anchored radius function, and the interval decomposition.

The triangulation is the lower convex hull of the lift
(y1, y2) -> (y1, y2, |y|^2 - w); generators strictly above the lower hull
have empty power cells and are submerged. The interval decomposition is
combinatorial: a simplex's smallest anchored sphere is anchored in the
relative interior of exactly one face of the power diagram, the simplex dual
to that face is the interval's upper bound, and the signs of the anchor's
barycentric coordinates on the upper bound give the lower bound and the type
(Bauer & Edelsbrunner, "The Morse theory of Cech and Delaunay complexes",
Trans. AMS 2017). Anchors are dual vertices for triangles and radical-line
crossings for edges, all in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .constants import IntervalType
from .errors import DegeneracyError, MosaicError
from .geomcore import AnchoredSphere, Interval

__all__ = [
    "RegularTriangulation",
    "PowerDiagram",
    "Mosaic2D",
    "regular_triangulation",
    "power_dual",
    "radius_and_intervals_2d",
]


@dataclass
class RegularTriangulation:
    """Weighted Delaunay triangulation of projections ``y`` with weights ``w``.

    ``triangles`` index into the full generator array and are oriented
    counter-clockwise; ``vertices`` lists the surviving (non-submerged)
    generators. ``preimages`` optionally keeps the originating R^n points.
    """

    y: np.ndarray
    w: np.ndarray
    triangles: np.ndarray
    vertices: np.ndarray
    preimages: np.ndarray | None = None

    @cached_property
    def lifted(self) -> np.ndarray:
        return np.einsum("ij,ij->i", self.y, self.y) - self.w

    @cached_property
    def edges(self) -> np.ndarray:
        pairs = np.vstack(
            [self.triangles[:, [0, 1]], self.triangles[:, [1, 2]], self.triangles[:, [0, 2]]]
        )
        return np.unique(np.sort(pairs, axis=1), axis=0)

    @cached_property
    def edge_triangles(self) -> dict[tuple[int, int], list[int]]:
        incidence: dict[tuple[int, int], list[int]] = {}
        for t, tri in enumerate(self.triangles):
            a, b, c = int(tri[0]), int(tri[1]), int(tri[2])
            for e in ((a, b), (b, c), (a, c)):
                incidence.setdefault(tuple(sorted(e)), []).append(t)
        for e, tris in incidence.items():
            if len(tris) > 2:
                raise MosaicError(f"edge {e} belongs to {len(tris)} triangles")
        return incidence


def regular_triangulation(
    y: np.ndarray, w: np.ndarray, preimages: np.ndarray | None = None
) -> RegularTriangulation:
    """Regular triangulation of weighted points via the lower convex hull of the lift."""
    y = np.ascontiguousarray(np.atleast_2d(np.asarray(y, dtype=float)))
    w = np.asarray(w, dtype=float)
    if y.ndim != 2 or y.shape[1] != 2:
        raise ValueError("expected (N, 2) projections")
    if w.shape != (y.shape[0],):
        raise ValueError("weights must be a vector matching the projections")
    n_pts = y.shape[0]
    if n_pts < 3:
        raise ValueError(f"need at least 3 weighted points, got {n_pts}")
    uniq = np.unique(y, axis=0)
    if uniq.shape[0] < n_pts:
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

    vertices = np.unique(triangles)
    tri = RegularTriangulation(
        y=y, w=w, triangles=triangles, vertices=vertices, preimages=preimages
    )
    tri.edge_triangles  # force the incidence check
    return tri


@dataclass
class PowerDiagram:
    """Dual of a regular triangulation.

    A diagram vertex per triangle (the equal-power point of its three
    generators), the triangulation edges, and one convex (possibly unbounded)
    cell per surviving generator, represented by its neighbor half-planes.
    """

    tri: RegularTriangulation
    dual_vertices: np.ndarray          # (T, 2) equal-power points
    edges: np.ndarray                  # (E, 2) sorted generator pairs
    neighbors: dict[int, np.ndarray] = field(repr=False, default_factory=dict)

    def cell_halfplanes(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Cell of generator i as {z : U z <= c} with unit rows U."""
        nb = self.neighbors[i]
        diff = self.tri.y[nb] - self.tri.y[i]
        norms = np.linalg.norm(diff, axis=1)
        u = diff / norms[:, None]
        c = (self.tri.lifted[nb] - self.tri.lifted[i]) / (2.0 * norms)
        return u, c

    def cell_polygon(self, i: int, box: tuple[float, float, float, float] | None = None) -> np.ndarray:
        """Cell of generator i clipped to ``box`` (xmin, xmax, ymin, ymax) as a
        counter-clockwise polygon, for inspection and export."""
        y = self.tri.y
        if box is None:
            span = max(float(np.max(np.ptp(y, axis=0))), 1.0)
            xmin, ymin = np.min(y, axis=0) - 2.0 * span
            xmax, ymax = np.max(y, axis=0) + 2.0 * span
        else:
            xmin, xmax, ymin, ymax = box
        poly = [
            np.array([xmin, ymin]),
            np.array([xmax, ymin]),
            np.array([xmax, ymax]),
            np.array([xmin, ymax]),
        ]
        u, c = self.cell_halfplanes(i)
        for normal, offset in zip(u, c):
            poly = _clip_halfplane(poly, normal, offset)
            if not poly:
                break
        return np.asarray(poly)


def _clip_halfplane(poly: list[np.ndarray], normal: np.ndarray, offset: float) -> list[np.ndarray]:
    # Sutherland-Hodgman clip of a convex polygon against normal . z <= offset
    out: list[np.ndarray] = []
    m = len(poly)
    for idx in range(m):
        cur, nxt = poly[idx], poly[(idx + 1) % m]
        cur_in = normal @ cur <= offset
        nxt_in = normal @ nxt <= offset
        if cur_in:
            out.append(cur)
        if cur_in != nxt_in:
            denom = normal @ (nxt - cur)
            t = (offset - normal @ cur) / denom
            out.append(cur + t * (nxt - cur))
    return out


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

    edges = tri.edges
    neighbors: dict[int, list[int]] = {int(v): [] for v in tri.vertices}
    for i, j in edges:
        neighbors[int(i)].append(int(j))
        neighbors[int(j)].append(int(i))

    return PowerDiagram(
        tri=tri,
        dual_vertices=duals,
        edges=edges,
        neighbors={k: np.asarray(v, dtype=int) for k, v in neighbors.items()},
    )


@dataclass
class Mosaic2D:
    """Planar mosaic with per-simplex spheres and the interval decomposition.

    Simplices are sorted tuples of generator indices: M vertices, E edges, and
    T triangles in that order. ``anchors``/``radii`` hold each simplex's
    canonical sphere (shared within an interval); ``interval_id`` maps each
    simplex to its interval.
    """

    tri: RegularTriangulation
    diagram: PowerDiagram
    simplices: list[tuple[int, ...]]
    dims: np.ndarray
    anchors: np.ndarray
    radii: np.ndarray
    interval_id: np.ndarray
    intervals: list[Interval]
    window: tuple[tuple[float, float], tuple[float, float]] | None = None

    def to_dict(self) -> dict:
        """JSON-ready dump: vertices, simplices with radii/anchors, interval ids."""
        return {
            "schema_version": 1,
            "k": 2,
            "window": None
            if self.window is None
            else [[float(b) for b in side] for side in self.window],
            "vertices": [
                {
                    "id": int(v),
                    "y": [float(c) for c in self.tri.y[v]],
                    "w": float(self.tri.w[v]),
                }
                for v in self.tri.vertices
            ],
            "simplices": [
                {
                    "vertices": list(s),
                    "dim": int(self.dims[idx]),
                    "radius": float(self.radii[idx]),
                    "anchor": [float(c) for c in self.anchors[idx]],
                    "interval": int(self.interval_id[idx]),
                }
                for idx, s in enumerate(self.simplices)
            ],
            "intervals": [
                {
                    "id": iid,
                    "ell": iv.type.ell,
                    "m": iv.type.m,
                    "radius": float(iv.sphere.radius),
                    "anchor": [float(c) for c in iv.sphere.anchor],
                    "lower": list(iv.lower),
                    "upper": list(iv.upper),
                    "members": [list(mm) for mm in iv.members],
                }
                for iid, iv in enumerate(self.intervals)
            ],
        }


def radius_and_intervals_2d(
    tri: RegularTriangulation,
    dia: PowerDiagram,
    window: tuple[tuple[float, float], tuple[float, float]] | None = None,
) -> Mosaic2D:
    """Anchored radius function and interval decomposition of a planar mosaic.

    Every interval is read off the signs of the barycentric coordinates of
    its upper bound's anchor, with no tolerance:

    - A triangle's anchor is its dual vertex. The edges opposite its negative
      corners join its interval, and with two negative corners so does the
      remaining vertex (a (0, 2) interval). An edge claimed by both of its
      triangles raises MosaicError.
    - An unclaimed edge (i, j) is anchored where its radical line crosses it,
      at ``y_i + s (y_j - y_i)`` with ``s = 1/2 + (w_i - w_j) / (2 |y_j - y_i|^2)``.
      It is a critical (1, 1) interval if ``0 < s < 1`` and otherwise a (0, 1)
      interval whose lower bound is the vertex with the positive coordinate.
    - A vertex no upper bound claims is a critical (0, 0) interval anchored at
      its own projection.

    Certificate: a vertex is claimed exactly once if an incident edge puts its
    projection outside its power cell (``s <= 0`` seen from the vertex), and
    never otherwise; any other outcome raises MosaicError. Each simplex
    carries the sphere of its interval's upper bound. Intervals are listed by
    decreasing row of their lower bound in ``simplices``.
    """
    y, w = tri.y, tri.w
    verts, edges, triangles = tri.vertices, dia.edges, tri.triangles
    n_v, n_e = len(verts), len(edges)
    scale = max(1.0, float(np.max(np.ptp(y[verts], axis=0))))
    vert_row = np.full(len(y), -1, dtype=int)
    vert_row[verts] = np.arange(n_v)

    # triangles: the dual vertex is the anchor
    a, b, c = triangles[:, 0], triangles[:, 1], triangles[:, 2]
    za = dia.dual_vertices
    pow_a = np.einsum("ij,ij->i", za - y[a], za - y[a]) - w[a]
    pow_b = np.einsum("ij,ij->i", za - y[b], za - y[b]) - w[b]
    pow_c = np.einsum("ij,ij->i", za - y[c], za - y[c]) - w[c]
    power_scale = np.maximum(np.abs(pow_a), 1e-12 * scale * scale)
    if np.max(np.abs(pow_b - pow_a) / power_scale) > 1e-6 or np.max(
        np.abs(pow_c - pow_a) / power_scale
    ) > 1e-6:
        raise MosaicError("a dual vertex fails the equal-power certificate")
    tri_power = (pow_a + pow_b + pow_c) / 3.0

    # Corner i of the counter-clockwise triangle (i, j, k), with p = y_k - y_j
    # and q = y_i - y_j, has the dual vertex's barycentric coordinate
    #   ((|q|^2 - w_i + w_j) |p|^2 - (|p|^2 - w_k + w_j) p.q) / (2 cross(p, q)^2),
    # from the generators alone; only the numerator's sign is needed.
    yt, wt = y[triangles], w[triangles]
    yj, wj = np.roll(yt, -1, axis=1), np.roll(wt, -1, axis=1)
    p = np.roll(yt, -2, axis=1) - yj
    q = yt - yj
    pp = np.einsum("tkx,tkx->tk", p, p)
    pq = np.einsum("tkx,tkx->tk", p, q)
    alpha_p = pp - (np.roll(wt, -2, axis=1) - wj)
    alpha_q = np.einsum("tkx,tkx->tk", q, q) - (wt - wj)
    bary_numerator = alpha_q * pp - alpha_p * pq
    if np.any(bary_numerator == 0.0):
        raise DegeneracyError("a dual vertex lies on the line of a triangle edge")
    negative = bary_numerator < 0.0

    # unclaimed edges: the anchor is the radical line's crossing of the edge
    i, j = edges[:, 0], edges[:, 1]
    d = y[j] - y[i]
    d2 = np.einsum("ij,ij->i", d, d)
    dw = w[i] - w[j]
    s = 0.5 + dw / (2.0 * d2)
    edge_anchor = y[i] + s[:, None] * d
    edge_power = s * s * d2 - w[i]
    i_outside = dw <= -d2  # s <= 0: y_i lies outside its own cell
    j_outside = dw >= d2  # s >= 1: likewise for y_j

    simplices: list[tuple[int, ...]] = [(v,) for v in verts.tolist()]
    simplices += [tuple(e) for e in edges.tolist()]
    simplices += [tuple(sorted(t)) for t in triangles.tolist()]
    count = len(simplices)
    dims = np.repeat([0, 1, 2], [n_v, n_e, len(triangles)])
    upper = np.arange(count)

    # triangle claims: the edge opposite corner i is (j, k)
    ends = np.sort(
        np.stack([np.roll(triangles, -1, axis=1), np.roll(triangles, -2, axis=1)], axis=2), axis=2
    )
    edge_keys = edges[:, 0] * len(y) + edges[:, 1]
    opposite = np.searchsorted(edge_keys, ends[..., 0] * len(y) + ends[..., 1])
    claimer, corner = np.nonzero(negative)
    claimed_edges = opposite[claimer, corner]
    edge_claims = np.bincount(claimed_edges, minlength=n_e)
    if np.any(edge_claims > 1):
        raise MosaicError("an edge is claimed by both of its triangles")
    tri_row = n_v + n_e + np.arange(len(triangles))
    upper[n_v + claimed_edges] = tri_row[claimer]
    pairs02 = np.flatnonzero(np.count_nonzero(negative, axis=1) == 2)
    apex = triangles[pairs02][~negative[pairs02]]

    # edge claims: an unclaimed edge with 0 < s < 1 is critical
    free = edge_claims == 0
    low_i = np.flatnonzero(free & i_outside)
    low_j = np.flatnonzero(free & j_outside)
    claimed_vertices = vert_row[np.concatenate([apex, i[low_i], j[low_j]])]
    upper[claimed_vertices] = np.concatenate([tri_row[pairs02], n_v + low_i, n_v + low_j])

    outside = np.zeros(n_v, dtype=int)
    outside[vert_row[i[i_outside]]] = 1
    outside[vert_row[j[j_outside]]] = 1
    if np.any(np.bincount(claimed_vertices, minlength=n_v) != outside):
        raise MosaicError("vertex claims disagree with the vertices outside their cells")

    anchors = np.vstack([y[verts], edge_anchor, za])[upper]
    powers = np.concatenate([-w[verts], edge_power, tri_power])[upper]
    if np.min(powers) < -1e-9 * scale * scale:
        raise MosaicError("negative squared radius; weights are not slice-induced")
    radii = np.sqrt(np.maximum(powers, 0.0))

    # group members by upper bound; within a group, rows ascend from the lower bound
    order = np.argsort(upper, kind="stable")
    starts = np.flatnonzero(np.diff(upper[order], prepend=-1))
    stops = np.append(starts[1:], count)
    listing = np.argsort(-order[starts], kind="stable")
    rank = np.empty(len(starts), dtype=int)
    rank[listing] = np.arange(len(starts))
    interval_id = np.empty(count, dtype=int)
    interval_id[order] = np.repeat(rank, stops - starts)

    intervals: list[Interval] = []
    for g in listing:
        rows = order[starts[g] : stops[g]]
        members = tuple(simplices[r] for r in rows)
        top = rows[-1]
        intervals.append(
            Interval(
                lower=members[0],
                upper=members[-1],
                type=IntervalType(int(dims[rows[0]]), int(dims[top])),
                sphere=AnchoredSphere(anchor=anchors[top].copy(), radius=float(radii[top])),
                members=members,
            )
        )

    return Mosaic2D(
        tri=tri,
        diagram=dia,
        simplices=simplices,
        dims=dims,
        anchors=anchors,
        radii=radii,
        interval_id=interval_id,
        intervals=intervals,
        window=window,
    )
