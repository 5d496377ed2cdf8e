"""Dimension-generic geometric kernel.

The slice plane is always the span of the first k coordinate axes; general
positions are handled by rotating inputs before they get here. Provides
projections with slice weights, smallest anchored circumspheres, emptiness
tests, the interval decomposition of a weighted Delaunay mosaic into one
columnar ``Mosaic`` (shared by k = 1 and k = 2), facet-visibility interval
typing (kept as an independent oracle), and the Jacobian of the
sphere-parametrization change of variables.

The decomposition is combinatorial: a simplex's smallest anchored sphere is
anchored in the relative interior of exactly one face of the power diagram,
the simplex dual to that face is the interval's upper bound, and the signs
of the anchor's barycentric coordinates on the upper bound give the lower
bound and the type (Bauer & Edelsbrunner, "The Morse theory of Cech and
Delaunay complexes", Trans. AMS 2017). Anchors are dual vertices for
triangles and radical-hyperplane crossings for edges, all in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .constants import SCHEMA_VERSION, IntervalType
from .errors import DegeneracyError, MosaicError

__all__ = [
    "WeightedPoint",
    "AnchoredSphere",
    "Interval",
    "Mosaic",
    "project_to_slice",
    "slice_cloud",
    "smallest_anchored_circumsphere",
    "sphere_is_empty",
    "radius_and_intervals",
    "visibility_type",
    "bp_jacobian",
]

_RANK_RCOND = 1e-12


@dataclass(frozen=True)
class WeightedPoint:
    """Projection of an R^n point onto the slice plane, with its slice weight.

    The weight is minus the squared distance of the preimage to the plane, so
    it is always <= 0 for slice-induced weights.
    """

    y: np.ndarray
    w: float
    preimage: np.ndarray | None = None


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


def project_to_slice(x: Sequence[float] | np.ndarray, k: int) -> WeightedPoint:
    """Drop coordinates k+1..n of ``x`` and attach the weight -(distance to plane)^2."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("expected a single point")
    if not 1 <= k <= x.size:
        raise ValueError(f"need 1 <= k <= {x.size}, got k={k}")
    tail = x[k:]
    return WeightedPoint(y=x[:k].copy(), w=-float(tail @ tail), preimage=x.copy())


def slice_cloud(cloud: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized projection of an (N, n) cloud: returns (projections, weights)."""
    cloud = np.atleast_2d(np.asarray(cloud, dtype=float))
    if not 1 <= k <= cloud.shape[1]:
        raise ValueError(f"need 1 <= k <= {cloud.shape[1]}, got k={k}")
    tails = cloud[:, k:]
    return cloud[:, :k].copy(), -np.einsum("ij,ij->i", tails, tails)


def smallest_anchored_circumsphere(
    points: Sequence[Sequence[float]] | np.ndarray, k: int
) -> AnchoredSphere:
    """Smallest sphere through m+1 points of R^n whose center lies in the k-plane.

    The anchors of all circumscribing anchored spheres form a (k-m)-flat, cut
    out by the m linear equal-power equations; the smallest sphere's anchor is
    the orthogonal projection of the first point's slice projection onto that
    flat (the minimum of a convex quadratic).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    count, n = pts.shape
    m = count - 1
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n={n}, got k={k}")
    if m > k:
        raise ValueError(f"at most k+1={k + 1} points can lie on an anchored sphere generically")
    y = pts[:, :k]
    sq = np.einsum("ij,ij->i", pts, pts)
    if m == 0:
        anchor = y[0].copy()
    else:
        lhs = 2.0 * (y[1:] - y[0])
        rhs = (sq[1:] - sq[0]) - lhs @ y[0]
        shift, _, rank, _ = np.linalg.lstsq(lhs, rhs, rcond=_RANK_RCOND)
        if rank < m:
            raise DegeneracyError(
                "projected points are affinely dependent; no unique anchored circumsphere"
            )
        anchor = y[0] + shift
    r2 = float(np.sum((anchor - y[0]) ** 2) + (sq[0] - y[0] @ y[0]))
    return AnchoredSphere(anchor=anchor, radius=math.sqrt(max(r2, 0.0)))


def sphere_is_empty(
    sphere: AnchoredSphere,
    cloud: np.ndarray,
    exclude: Sequence[int] = (),
    rel_tol: float = 1e-9,
) -> bool:
    """True iff no non-excluded cloud point lies strictly inside the sphere.

    Points closer to the embedded anchor than radius * (1 - rel_tol) count as
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
    threshold = (sphere.radius * (1.0 - rel_tol)) ** 2
    return bool(np.all(d2[keep] >= threshold))


def radius_and_intervals(
    y: np.ndarray,
    w: np.ndarray,
    vertices: np.ndarray,
    edges: np.ndarray,
    triangles: np.ndarray | None = None,
    duals: np.ndarray | None = None,
    window: tuple[tuple[float, float], ...] | None = None,
) -> Mosaic:
    """Anchored radius function and interval decomposition of a weighted
    Delaunay mosaic in R^k.

    ``y`` (N, k) and ``w`` (N,) are all generators, ``vertices`` the
    surviving ones, ``edges`` (E, 2) the mosaic edges and, when there are
    any, ``triangles`` (T, 3) the triangles with their dual vertices
    ``duals`` (T, k); the triangle stage needs ``edges`` as sorted rows in
    lexicographic order. Every interval is read off the signs of the
    barycentric coordinates of its upper bound's anchor, with no tolerance:

    - A triangle's anchor is its dual vertex. The edges opposite its negative
      corners join its interval, and with two negative corners so does the
      remaining vertex (a (0, 2) interval). An edge claimed by both of its
      triangles raises MosaicError.
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
    n_v, n_e = len(vertices), len(edges)
    n_t = 0 if triangles is None else len(triangles)
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
    tri_anchor, tri_power = np.empty((0, y.shape[1])), np.empty(0)
    apex, apex_upper = np.empty(0, dtype=int), np.empty(0, dtype=int)
    if n_t:
        tri_anchor = duals
        a, b, c = triangles[:, 0], triangles[:, 1], triangles[:, 2]
        pow_a = np.einsum("ij,ij->i", duals - y[a], duals - y[a]) - w[a]
        pow_b = np.einsum("ij,ij->i", duals - y[b], duals - y[b]) - w[b]
        pow_c = np.einsum("ij,ij->i", duals - y[c], duals - y[c]) - w[c]
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
        triangles=np.sort(triangles, axis=1) if n_t else np.empty((0, 3), dtype=int),
        dims=dims,
        anchors=anchors,
        radii=radii,
        interval_id=interval_id,
        lower=lower,
        upper=upper[lower],
        window=window,
    )


def visibility_type(
    sphere: AnchoredSphere,
    simplex: Sequence[WeightedPoint],
    rel_tol: float = 1e-9,
    check_on_sphere: bool = True,
) -> IntervalType:
    """Interval type (ell, m) of an m-simplex on its anchored circumsphere.

    m - ell is the number of facets of the projected simplex whose supporting
    hyperplane (within the affine hull of the projections) strictly separates
    the anchor from the opposite vertex; in barycentric coordinates of the
    anchor these are exactly the negative coordinates.
    """
    proj = np.stack([np.asarray(p.y, dtype=float) for p in simplex])
    m = proj.shape[0] - 1
    anchor = np.asarray(sphere.anchor, dtype=float)
    scale = max(1.0, float(np.max(np.abs(proj - anchor))))
    if check_on_sphere:
        weights = np.array([p.w for p in simplex])
        powers = np.einsum("ij,ij->i", proj - anchor, proj - anchor) - weights
        r2 = sphere.radius**2
        if np.max(np.abs(powers - r2)) > 1e-6 * max(r2, scale**2):
            raise ValueError("simplex vertices do not lie on the given sphere")
    # coordinates centred at the first projection keep the system's entries
    # of the simplex's own size when the anchor is far away
    system = np.vstack([(proj - proj[0]).T, np.ones(m + 1)])
    target = np.append(anchor - proj[0], 1.0)
    bary, _, rank, _ = np.linalg.lstsq(system, target, rcond=_RANK_RCOND)
    if rank < m + 1:
        raise DegeneracyError("projected simplex is affinely degenerate")
    if np.max(np.abs(system @ bary - target)) > rel_tol * scale:
        raise DegeneracyError("anchor does not lie in the affine hull of the projections")
    if np.min(np.abs(bary)) < rel_tol:
        raise DegeneracyError("anchor lies on a facet hyperplane of the projected simplex")
    visible = int(np.count_nonzero(bary < 0.0))
    return IntervalType(ell=m - visible, m=m)


def bp_jacobian(r: float, u: np.ndarray, k: int, n: int | None = None) -> float:
    """Jacobian r^((n-1)(k+1)) * k! * Vol_k(u') of the map
    (y, r, u) -> (y + r u_0, ..., y + r u_k), where u' is the projection of
    the k+1 unit vectors u onto the k-plane.

    Degenerate projections give 0. For k = n this is the classical sphere
    parametrization Jacobian with the full (unprojected) simplex volume.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[0] != k + 1:
        raise ValueError(f"need k+1={k + 1} unit vectors, got {u.shape[0]}")
    if n is None:
        n = u.shape[1]
    elif n != u.shape[1]:
        raise ValueError(f"vectors live in dimension {u.shape[1]}, not n={n}")
    if k == 0:
        vol_factor = 1.0  # k! Vol_0 = 1
    else:
        proj = u[:, :k]
        vol_factor = abs(np.linalg.det(proj[1:] - proj[0]))
    return float(r ** ((n - 1) * (k + 1)) * vol_factor)
