"""Dimension-generic geometric kernel.

The slice plane is always the span of the first k coordinate axes; general
positions are handled by rotating inputs before they get here. Provides
projections with slice weights, emptiness tests, the weighted Delaunay
mosaic as one Qhull lower hull of the lifted generators (any k), the dual
vertices of its top simplices and its interval decomposition into one
columnar ``Mosaic`` (k <= 2). The census runs ``slice_cloud``,
``lower_hull`` and ``radius_and_intervals`` in that order for every k.

The decomposition is combinatorial: a simplex's smallest anchored sphere is
anchored in the relative interior of exactly one face of the power diagram,
the simplex dual to that face is the interval's upper bound, and the signs
of the anchor's barycentric coordinates on the upper bound give the lower
bound and the type (Bauer & Edelsbrunner, "The Morse theory of Cech and
Delaunay complexes", Trans. AMS 2017). Anchors are dual vertices for
triangles and radical-hyperplane crossings for edges, all in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .constants import SCHEMA_VERSION, IntervalType
from .errors import DegeneracyError, MosaicError

__all__ = [
    "AnchoredSphere",
    "Interval",
    "Mosaic",
    "slice_cloud",
    "sphere_is_empty",
    "lower_hull",
    "dual_vertices",
    "radius_and_intervals",
]

# relative radius band within which a point counts as on, not inside, a sphere
_EMPTY_REL_TOL = 1e-9


@dataclass(frozen=True)
class AnchoredSphere:
    """Sphere in R^n whose center (the anchor) lies in the slice plane."""

    anchor: np.ndarray
    radius: float


@dataclass(frozen=True)
class Interval:
    """Interval [lower, upper] of mosaic simplices sharing one anchored sphere.

    Simplices are identified by sorted tuples of generator indices; the type
    is (dim lower, dim upper) and the members are all simplices Q with
    lower <= Q <= upper.
    """

    lower: tuple[int, ...]
    upper: tuple[int, ...]
    type: IntervalType
    sphere: AnchoredSphere
    members: tuple[tuple[int, ...], ...]


@dataclass
class Mosaic:
    """Weighted Delaunay mosaic of a k-plane slice with its anchored radius
    function and interval decomposition, held column by column.

    ``y`` (N, k) and ``w`` (N,) are the projections and weights of all
    generators; ``vertices`` lists the surviving ones, ``edges`` (E, 2) and
    ``triangles`` (T, 3) the edges and triangles as generator indices sorted
    within each row (T = 0 for k = 1). The rows are the vertices in the order
    of ``vertices``, then the edges, then the triangles. Row r of ``dims``,
    ``anchors``, ``radii`` and ``interval_id`` describes ``simplices[r]``;
    every simplex carries the sphere of its interval's upper bound. Interval
    i runs from row ``lower[i]`` to row ``upper[i]``. ``simplices``, the rows
    as tuples, and ``intervals`` are built on first use, so a census that
    reads only the columns never builds them.
    """

    y: np.ndarray
    w: np.ndarray
    vertices: np.ndarray
    edges: np.ndarray
    triangles: np.ndarray
    dims: np.ndarray
    anchors: np.ndarray
    radii: np.ndarray
    interval_id: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    window: tuple[tuple[float, float], ...] | None = None

    @property
    def vertex_radius(self) -> np.ndarray:
        """Radii of the vertices, in the order of ``vertices``."""
        return self.radii[: len(self.vertices)]

    @property
    def edge_radius(self) -> np.ndarray:
        """Radii of the edges, in row order."""
        return self.radii[self.dims == 1]

    @cached_property
    def simplices(self) -> list[tuple[int, ...]]:
        """Sorted generator-index tuple of each row, built on first use."""
        out: list[tuple[int, ...]] = [(v,) for v in self.vertices.tolist()]
        out += map(tuple, self.edges.tolist())
        out += map(tuple, self.triangles.tolist())
        return out

    @cached_property
    def intervals(self) -> list[Interval]:
        """One ``Interval`` per id, members in row order, built on first use."""
        order = np.argsort(self.interval_id, kind="stable").tolist()
        stops = np.cumsum(np.bincount(self.interval_id, minlength=len(self.lower))).tolist()
        out: list[Interval] = []
        start = 0
        for lo, up, stop in zip(self.lower.tolist(), self.upper.tolist(), stops):
            out.append(
                Interval(
                    lower=self.simplices[lo],
                    upper=self.simplices[up],
                    type=IntervalType(int(self.dims[lo]), int(self.dims[up])),
                    sphere=AnchoredSphere(
                        anchor=self.anchors[up].copy(), radius=float(self.radii[up])
                    ),
                    members=tuple(self.simplices[r] for r in order[start:stop]),
                )
            )
            start = stop
        return out

    def to_dict(self) -> dict:
        """JSON-ready dump: vertices, simplices with radii/anchors, interval ids."""
        return {
            "schema_version": SCHEMA_VERSION,
            "k": int(self.y.shape[1]),
            "window": None
            if self.window is None
            else [[float(b) for b in side] for side in self.window],
            "vertices": [
                {"id": int(v), "y": [float(c) for c in self.y[v]], "w": float(self.w[v])}
                for v in self.vertices
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


def slice_cloud(cloud: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized projection of an (N, n) cloud: returns (projections, weights)."""
    cloud = np.atleast_2d(np.asarray(cloud, dtype=float))
    if not 1 <= k <= cloud.shape[1]:
        raise ValueError(f"need 1 <= k <= {cloud.shape[1]}, got k={k}")
    tails = cloud[:, k:]
    return cloud[:, :k].copy(), -np.einsum("ij,ij->i", tails, tails)


def sphere_is_empty(
    sphere: AnchoredSphere,
    cloud: np.ndarray,
    exclude: Sequence[int] = (),
) -> bool:
    """True iff no non-excluded cloud point lies strictly inside the sphere.

    Points closer to the embedded anchor than radius * (1 - 1e-9) count as
    inside; the tolerance band absorbs floating-point noise for the defining
    points, which sit exactly on the sphere.
    """
    cloud = np.atleast_2d(np.asarray(cloud, dtype=float))
    if cloud.shape[0] == 0:
        return True
    center = np.zeros(cloud.shape[1])
    center[: sphere.anchor.size] = sphere.anchor
    d2 = np.einsum("ij,ij->i", cloud - center, cloud - center)
    keep = np.ones(cloud.shape[0], dtype=bool)
    if len(exclude):
        keep[np.asarray(list(exclude), dtype=int)] = False
    threshold = (sphere.radius * (1.0 - _EMPTY_REL_TOL)) ** 2
    return bool(np.all(d2[keep] >= threshold))


def lower_hull(y: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted Delaunay mosaic of projections ``y`` (N, k) with weights ``w``:
    the lower convex hull of the lift (y, |y|^2 - w) in R^(k+1).

    Returns the surviving generators (sorted indices; those strictly above
    the lower hull have empty power cells and are submerged), the edges as
    sorted generator pairs in lexicographic order, and the downward facets,
    the (F, k+1) top simplices in Qhull's vertex order. Fewer than k + 2
    generators are too few for Qhull; they span one simplex.

    Qhull runs with ``Qbb``, which scales the lift to [0, m], m the largest
    absolute projected coordinate, before the hull is built: on a 1-D lift
    near x = 1000, where the lift is about 1e6, plain ``Qt`` dropped a
    generator whose exact cross product with its neighbours is +1.3e-6.

    Raises DegeneracyError on duplicate projections (found by comparing
    neighbours in lexicographic order), on affinely dependent or otherwise
    degenerate configurations, and MosaicError when a ridge, a k-subset of a
    facet, belongs to more than two facets (for k = 2 the ridges are the
    edges). Edges and ridges are sorted as integer keys, ``lo * N + hi`` for
    an edge and the sorted indices read as digits in base N for a ridge,
    which sort in lexicographic order and are exact while N^2 and N^k stay
    below 2^63.
    """
    n_pts, k = y.shape
    if w.shape != (n_pts,):
        raise ValueError("weights must be a vector matching the projections")
    ordered = y[np.lexsort(y.T[::-1])]
    if np.any((ordered[1:] == ordered[:-1]).all(axis=1)):
        raise DegeneracyError("duplicate projected generators")

    if n_pts > k + 1:
        try:
            hull = ConvexHull(
                np.column_stack([y, np.einsum("ij,ij->i", y, y) - w]), qhull_options="Qt Qbb"
            )
        except QhullError as exc:
            raise DegeneracyError(f"degenerate lifted configuration: {exc}") from exc
        cells = facets = np.asarray(hull.simplices[hull.equations[:, k] < 0.0], dtype=int)
        if facets.shape[0] == 0:
            raise DegeneracyError("no downward-facing hull facets")
        # the ridge opposite corner i of a sorted facet, as a key in base N
        others = np.nonzero(~np.eye(k + 1, dtype=bool))[1].reshape(k + 1, k)
        digits = n_pts ** np.arange(k - 1, -1, -1)
        ridges = np.sort(np.sort(facets, axis=1)[:, others] @ digits, axis=None)
        if np.any(ridges[2:] == ridges[:-2]):
            raise MosaicError("a ridge belongs to more than two facets")
    else:
        scale = max(1.0, float(np.max(np.ptp(y, axis=0))))
        volume = np.prod(np.linalg.svd(y[1:] - y[0], compute_uv=False))
        if volume <= 1e-12 * scale ** (n_pts - 1):
            raise DegeneracyError("the projections are affinely dependent")
        cells = np.arange(n_pts)[None, :]
        facets = cells if n_pts == k + 1 else np.empty((0, k + 1), dtype=int)

    a, b = np.triu_indices(cells.shape[1], 1)
    lo, hi = np.minimum(cells[:, a], cells[:, b]), np.maximum(cells[:, a], cells[:, b])
    keys = np.sort(lo * n_pts + hi, axis=None)
    keys = keys[np.diff(keys, prepend=-1) != 0]
    survivors = np.flatnonzero(np.bincount(cells.ravel(), minlength=n_pts))
    return survivors, np.column_stack([keys // n_pts, keys % n_pts]), facets


def dual_vertices(y: np.ndarray, w: np.ndarray, simplices: np.ndarray) -> np.ndarray:
    """Equal-power points of the (F, k+1) top simplices of a weighted
    Delaunay mosaic of projections ``y`` (N, k) with weights ``w``: the
    vertices of the power diagram, (F, k).

    Each solves the k linear equations ``2 (y_i - y_0) . x = L_i - L_0``,
    with ``L = |y|^2 - w`` the lift, for the corners i = 1..k of its simplex;
    an affinely dependent simplex raises DegeneracyError.
    """
    lifted = np.einsum("ij,ij->i", y, y) - w
    lhs = 2.0 * (y[simplices[:, 1:]] - y[simplices[:, :1]])
    rhs = lifted[simplices[:, 1:]] - lifted[simplices[:, :1]]
    try:
        return np.linalg.solve(lhs, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise DegeneracyError("a top simplex has affinely dependent generators") from exc


def radius_and_intervals(
    y: np.ndarray,
    w: np.ndarray,
    vertices: np.ndarray,
    edges: np.ndarray,
    facets: np.ndarray,
    window: tuple[tuple[float, float], ...] | None = None,
) -> Mosaic:
    """Anchored radius function and interval decomposition of a weighted
    Delaunay mosaic in R^k, for k <= 2; a larger k raises ValueError.

    ``y`` (N, k) and ``w`` (N,) are all generators, ``vertices`` the
    surviving ones, ``edges`` (E, 2) the mosaic edges and ``facets``
    (F, k+1) the top simplices, as :func:`lower_hull` returns them. For
    k = 1 the facets are the edges again and add nothing; for k = 2 they
    are the triangles, and the triangle stage needs ``edges`` as sorted rows
    in lexicographic order. Every anchor is computed here, and every
    interval is read off the signs of the barycentric coordinates of its
    upper bound's anchor, with no tolerance:

    - A triangle's anchor is its dual vertex (:func:`dual_vertices`). The
      edges opposite its negative corners join its interval, and with two
      negative corners so does the remaining vertex (a (0, 2) interval). An
      edge claimed by both of its triangles raises MosaicError.
    - An unclaimed edge (i, j) is anchored where its radical hyperplane
      crosses it, at ``y_i + s (y_j - y_i)`` with
      ``s = 1/2 + (w_i - w_j) / (2 |y_j - y_i|^2)``. It is a critical (1, 1)
      interval if ``0 < s < 1`` and otherwise a (0, 1) interval whose lower
      bound is the vertex with the positive coordinate.
    - A vertex no upper bound claims is a critical (0, 0) interval anchored
      at its own projection.

    Certificate: a vertex is claimed exactly once if an incident edge puts its
    projection outside its power cell (``s <= 0`` seen from the vertex), and
    never otherwise; any other outcome raises MosaicError. Intervals are
    listed by decreasing row of their lower bound.
    """
    k = y.shape[1]
    if k > 2:
        raise ValueError(f"the interval decomposition supports k <= 2, got k={k}")
    triangles = facets if k == 2 else np.empty((0, 3), dtype=int)
    n_v, n_e, n_t = len(vertices), len(edges), len(triangles)
    count = n_v + n_e + n_t
    scale = max(1.0, float(np.max(np.ptp(y[vertices], axis=0))))
    vert_row = np.full(len(y), -1, dtype=int)
    vert_row[vertices] = np.arange(n_v)
    dims = np.repeat([0, 1, 2], [n_v, n_e, n_t])
    upper = np.arange(count)

    # edges: the anchor is the radical hyperplane's crossing of the edge
    i, j = edges[:, 0], edges[:, 1]
    d = y[j] - y[i]
    d2 = np.einsum("ij,ij->i", d, d)
    dw = w[i] - w[j]
    s = 0.5 + dw / (2.0 * d2)
    edge_anchor = y[i] + s[:, None] * d
    edge_power = s * s * d2 - w[i]
    i_outside = dw <= -d2  # s <= 0: y_i lies outside its own cell
    j_outside = dw >= d2  # s >= 1: likewise for y_j

    free = np.ones(n_e, dtype=bool)
    tri_anchor, tri_power = np.empty((0, k)), np.empty(0)
    apex, apex_upper = np.empty(0, dtype=int), np.empty(0, dtype=int)
    if n_t:
        tri_anchor = dual_vertices(y, w, triangles)
        a, b, c = triangles[:, 0], triangles[:, 1], triangles[:, 2]
        pow_a = np.einsum("ij,ij->i", tri_anchor - y[a], tri_anchor - y[a]) - w[a]
        pow_b = np.einsum("ij,ij->i", tri_anchor - y[b], tri_anchor - y[b]) - w[b]
        pow_c = np.einsum("ij,ij->i", tri_anchor - y[c], tri_anchor - y[c]) - w[c]
        power_scale = np.maximum(np.abs(pow_a), 1e-12 * scale * scale)
        if np.max(np.abs(pow_b - pow_a) / power_scale) > 1e-6 or np.max(
            np.abs(pow_c - pow_a) / power_scale
        ) > 1e-6:
            raise MosaicError("a dual vertex fails the equal-power certificate")
        tri_power = (pow_a + pow_b + pow_c) / 3.0

        # Corner i of the triangle (i, j, k), with p = y_k - y_j and
        # q = y_i - y_j, has the dual vertex's barycentric coordinate
        #   ((|q|^2 - w_i + w_j) |p|^2 - (|p|^2 - w_k + w_j) p.q) / (2 |p x q|^2),
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

        # triangle claims: the edge opposite corner i is (j, k)
        ends = np.sort(
            np.stack([np.roll(triangles, -1, axis=1), np.roll(triangles, -2, axis=1)], axis=2),
            axis=2,
        )
        edge_keys = i * len(y) + j
        opposite = np.searchsorted(edge_keys, ends[..., 0] * len(y) + ends[..., 1])
        claimer, corner = np.nonzero(negative)
        claimed_edges = opposite[claimer, corner]
        edge_claims = np.bincount(claimed_edges, minlength=n_e)
        if np.any(edge_claims > 1):
            raise MosaicError("an edge is claimed by both of its triangles")
        tri_row = n_v + n_e + np.arange(n_t)
        upper[n_v + claimed_edges] = tri_row[claimer]
        free = edge_claims == 0
        pairs02 = np.flatnonzero(np.count_nonzero(negative, axis=1) == 2)
        apex = triangles[pairs02][~negative[pairs02]]
        apex_upper = tri_row[pairs02]

    # edge claims: an unclaimed edge with 0 < s < 1 is critical
    low_i = np.flatnonzero(free & i_outside)
    low_j = np.flatnonzero(free & j_outside)
    claimed_vertices = vert_row[np.concatenate([apex, i[low_i], j[low_j]])]
    upper[claimed_vertices] = np.concatenate([apex_upper, n_v + low_i, n_v + low_j])

    outside = np.zeros(n_v, dtype=int)
    outside[vert_row[i[i_outside]]] = 1
    outside[vert_row[j[j_outside]]] = 1
    if np.any(np.bincount(claimed_vertices, minlength=n_v) != outside):
        raise MosaicError("vertex claims disagree with the vertices outside their cells")

    anchors = np.vstack([y[vertices], edge_anchor, tri_anchor])[upper]
    powers = np.concatenate([-w[vertices], edge_power, tri_power])[upper]
    if np.min(powers) < -1e-9 * scale * scale:
        raise MosaicError("negative squared radius; weights are not slice-induced")
    radii = np.sqrt(np.maximum(powers, 0.0))

    # group rows by upper bound; list the groups by decreasing lower-bound row
    order = np.argsort(upper, kind="stable")
    starts = np.flatnonzero(np.diff(upper[order], prepend=-1))
    listing = np.argsort(-order[starts], kind="stable")
    rank = np.empty(len(starts), dtype=int)
    rank[listing] = np.arange(len(starts))
    interval_id = np.empty(count, dtype=int)
    interval_id[order] = np.repeat(rank, np.diff(starts, append=count))
    lower = order[starts[listing]]

    return Mosaic(
        y=y,
        w=w,
        vertices=vertices,
        edges=np.sort(edges, axis=1),
        triangles=np.sort(triangles, axis=1),
        dims=dims,
        anchors=anchors,
        radii=radii,
        interval_id=interval_id,
        lower=lower,
        upper=upper[lower],
        window=window,
    )
