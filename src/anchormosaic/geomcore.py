"""Dimension-generic geometric kernel.

The slice plane is always the span of the first k coordinate axes; general
positions are handled by rotating inputs before they get here. Provides
projections with slice weights, emptiness tests, the weighted Delaunay
mosaic as the lower hull of the lifted generators, listed face by face, and
its interval decomposition into one columnar ``Mosaic``, all for any k.
``slice_cloud``, ``lower_hull`` and ``radius_and_intervals``, in that
order, are the one path to a mosaic for every k; the anchors of the top
simplices are the vertices of the power diagram. Each of the three calls
its private body (``_slice_cloud`` and so on) in one line, and code that
runs on worker threads calls the bodies.

The hull is one Qhull call for k >= 2. For k = 1 it is an exact lower chain
over the generators sorted by x: vectorized passes drop every point not
strictly below the chord of its neighbours, by a float orientation filter
with a proven error bound (after Shewchuk, "Adaptive precision
floating-point arithmetic and fast robust geometric predicates", DCG 1997)
whose undecided rows are recomputed in rational arithmetic; after a fixed
number of passes, a sequential monotone-chain scan with the same predicate
bounds the worst case at O(N) tests past the passes.

The decomposition is combinatorial: a simplex's smallest anchored sphere is
anchored in the relative interior of exactly one face of the power diagram,
the simplex dual to that face is the interval's upper bound, and the signs
of the anchor's barycentric coordinates on the upper bound give the lower
bound and the type (Bauer & Edelsbrunner, "The Morse theory of Cech and
Delaunay complexes", Trans. AMS 2017). One loop applies that rule from the
top dimension down to the edges, with one equal-power corner system per
level, solved through a twice-orthogonalised Gram-Schmidt QR; a vertex is
its own anchor.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations, repeat
from typing import Iterable, Sequence

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .constants import IntervalType, _sum
from .errors import DegeneracyError, MosaicError

__all__ = [
    "AnchoredSphere",
    "Interval",
    "Mosaic",
    "slice_cloud",
    "sphere_is_empty",
    "lower_hull",
    "radius_and_intervals",
]

# relative radius band within which a point counts as on, not inside, a sphere
_EMPTY_REL_TOL = 1e-9
# the 1-D chain's float filter: relative and absolute error bound factors
_CHAIN_FILTER = 2.0**-49
_CHAIN_TINY = 2.0**-1073
# vectorized passes of the 1-D chain before one sequential scan finishes it
_CHAIN_PASSES = 16


@dataclass(frozen=True, slots=True)
class AnchoredSphere:
    """Sphere in R^n whose center (the anchor) lies in the slice plane."""

    anchor: np.ndarray
    radius: float


@dataclass(frozen=True, slots=True)
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
    generators; ``faces[m]`` (F_m, m+1) lists the m-simplices as generator
    indices sorted within each row, ``faces[0]`` the surviving generators.
    The rows are the faces level by level, m = 0 to k, each level in the
    order of ``faces[m]``. Row r of ``dims``, ``anchors``, ``radii`` and
    ``interval_id`` describes ``simplices[r]``; every simplex carries the
    sphere of its interval's upper bound. Interval i runs from row
    ``lower[i]``, its smallest row, to row ``upper[i]``, the i-th row that
    is an upper bound: ``upper`` is increasing and ``interval_id[upper[i]]``
    is i. ``simplices``, the rows as tuples, and ``intervals`` are built on
    first use, so a census that reads only the columns never builds them.

    ``intervals`` is built in one columnar pass, its records field by field
    through their slots (:func:`_records`); its sphere anchors are rows of
    one copy ``anchors[upper]``, so none shares memory with ``anchors``.
    The decomposition works face-major, and the fields keep the layout above.
    The mosaic formats no document: ``experiments`` writes every report.
    """

    y: np.ndarray
    w: np.ndarray
    faces: list[np.ndarray]
    dims: np.ndarray
    anchors: np.ndarray
    radii: np.ndarray
    interval_id: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    @property
    def vertices(self) -> np.ndarray:
        """The surviving generators, in the order of ``faces[0]``."""
        return self.faces[0][:, 0]

    @property
    def vertex_radius(self) -> np.ndarray:
        """Radii of the vertices, in the order of ``vertices``."""
        return self.radii[: len(self.faces[0])]

    @property
    def edge_radius(self) -> np.ndarray:
        """Radii of the edges, in row order: a view of their rows of ``radii``."""
        return self.radii[len(self.faces[0]) : len(self.faces[0]) + len(self.faces[1])]

    @cached_property
    def simplices(self) -> list[tuple[int, ...]]:
        """Sorted generator-index tuple of each row, built on first use."""
        return [row for face in self.faces for row in map(tuple, face.tolist())]

    @cached_property
    def intervals(self) -> list[Interval]:
        """One ``Interval`` per id, members in row order, built on first use."""
        simplices = self.simplices
        kinds = list(zip(self.dims[self.lower].tolist(), self.dims[self.upper].tolist()))
        types = {kind: IntervalType(*kind) for kind in set(kinds)}
        count = len(self.lower)
        # members: the simplices grouped by interval id, row order within a group
        order = np.argsort(self.interval_id, kind="stable").tolist()
        ranked = list(map(simplices.__getitem__, order))
        stops = np.cumsum(np.bincount(self.interval_id, minlength=count)).tolist()
        members = [tuple(ranked[start:stop]) for start, stop in zip([0, *stops[:-1]], stops)]
        spheres = _records(
            AnchoredSphere, count, self.anchors[self.upper], self.radii[self.upper].tolist()
        )
        return _records(
            Interval,
            count,
            map(simplices.__getitem__, self.lower.tolist()),
            map(simplices.__getitem__, self.upper.tolist()),
            map(types.__getitem__, kinds),
            spheres,
            members,
        )


def _records(cls: type, count: int, *columns) -> list:
    """``count`` records of the frozen slotted dataclass ``cls``, record i
    from row i of ``columns``, one column per field in field order.

    Each field is set through its slot descriptor, column by column, on
    records made by ``object.__new__``: the frozen ``__init__`` sets every
    field through ``object.__setattr__`` and costs about 2.5 times as
    much. The records equal the constructor's while ``cls`` has no
    ``__post_init__``, no field default and no field outside its slots.
    """
    records = list(map(object.__new__, repeat(cls, count)))
    for field, column in zip(fields(cls), columns, strict=True):
        deque(map(cls.__dict__[field.name].__set__, records, column), maxlen=0)
    return records


def slice_cloud(cloud: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized projection of an (N, n) cloud: returns (projections, weights)."""
    return _slice_cloud(cloud, k)


def _slice_cloud(cloud: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    cloud = np.atleast_2d(np.asarray(cloud, dtype=float))
    if not 1 <= k <= cloud.shape[1]:
        raise ValueError(f"need 1 <= k <= {cloud.shape[1]}, got k={k}")
    tails = cloud[:, k:].T
    return cloud[:, :k].copy(), -_sum(tails * tails, np.zeros(len(cloud)))


def sphere_is_empty(
    sphere: AnchoredSphere,
    cloud: np.ndarray,
    exclude: Iterable[int] = (),
) -> bool:
    """True iff no non-excluded cloud point lies strictly inside the sphere.

    Points closer to the embedded anchor than radius * (1 - 1e-9) count as
    inside; the tolerance band absorbs floating-point noise for the defining
    points, which sit exactly on the sphere. A NaN coordinate of a point not
    excluded makes the sphere not empty. ``exclude`` holds row numbers; a
    boolean ``exclude`` raises ValueError rather than being read as rows 0
    and 1, and so does a negative row rather than count from the end.

    The squared distances are a column sum: the coordinates are copied as
    one (n, N) array, the anchor is taken off its first k rows, and the
    squared rows are added; excluded points get distance infinity, and the
    nearest point is compared with the threshold.
    """
    cloud = np.asarray(cloud, dtype=float)
    if cloud.ndim != 2:
        cloud = np.atleast_2d(cloud)
    diff = cloud.T.copy()
    diff[: sphere.anchor.size] -= sphere.anchor[:, None]
    np.multiply(diff, diff, out=diff)
    d2 = _sum(diff)
    rows = list(exclude)
    if rows:
        lowest = min(rows)
        if lowest < 0:
            raise ValueError(f"exclude lists row numbers from 0, got {lowest}")
        rows = np.asarray(rows)
        if rows.dtype == bool:
            raise ValueError("exclude lists row numbers, not a boolean mask")
        d2[rows.astype(int, copy=False)] = np.inf
    threshold = (sphere.radius * (1.0 - _EMPTY_REL_TOL)) ** 2
    return bool(np.minimum.reduce(d2, initial=np.inf) >= threshold)


def lower_hull(y: np.ndarray, w: np.ndarray) -> list[np.ndarray]:
    """Weighted Delaunay mosaic of projections ``y`` (N, k) with weights ``w``:
    the lower convex hull of the lift (y, |y|^2 - w) in R^(k+1), as its faces.

    ``faces[k]`` are the cells, the downward facets, and ``faces[m]``, m < k,
    their distinct (m+1)-subsets: generator indices sorted within each row,
    the rows in lexicographic order. ``faces[0]`` holds the surviving
    generators; those on or above the lower hull without being its vertices
    have empty power cells and are submerged.

    Fewer than k + 2 generators span one cell, a top simplex only when
    there are k + 1 of them. From k + 2 on, the cells at k = 1 are the
    consecutive vertices of the exact lower chain of :func:`_lower_chain`,
    over the sort of the duplicate check: a generator is a vertex exactly
    when the rational lift of the float y and w puts it strictly below the
    chord of its neighbours, so a collinear lift keeps its two end
    generators. At k >= 2 Qhull builds the hull with ``Qt Qbb``: ``Qbb``
    first scales the lift to [0, m], m the largest absolute projected
    coordinate, so that a lift far from the origin keeps vertices that
    plain ``Qt`` drops.

    Raises DegeneracyError on duplicate projections (found by comparing
    whole rows only among generators that tie in x), on three to k + 1 affinely
    dependent generators and on degenerate configurations Qhull refuses; ValueError
    on k < 1 or a non-finite projection or weight; MosaicError when a
    ridge (in ``faces[k-1]``) belongs to more than two cells. A face below
    the top is keyed as its indices read as digits in base N, and a cell as
    its first k indices, a ridge, so every key is exact while N^k < 2^63; a
    larger N raises ValueError before any key is formed. The cells are put
    in order by one sort of their ridge keys, ties broken by the last index.
    """
    return _lower_hull(y, w)


def _lower_hull(y: np.ndarray, w: np.ndarray) -> list[np.ndarray]:
    n_pts, k = y.shape
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    if w.shape != (n_pts,):
        raise ValueError("weights must be a vector matching the projections")
    if not (np.isfinite(y).all() and np.isfinite(w).all()):
        raise ValueError("projections and weights must be finite")
    if n_pts**k >= 2**63:
        raise ValueError(
            f"faces are keyed as k = {k} digits in base N = {n_pts}, exact only while N^k < 2^63"
        )
    # duplicates tie in x, so rows are compared whole only in runs of equal x
    order = np.argsort(y[:, 0])
    tie = np.flatnonzero(np.diff(y[:, 0].take(order)) == 0.0)
    if tie.size:
        tied = y.take(order[np.union1d(tie, tie + 1)], axis=0)
        if len(np.unique(tied, axis=0)) < len(tied):
            raise DegeneracyError("duplicate projected generators")

    if n_pts <= k + 1:
        # two distinct generators are never affinely dependent, however close
        if n_pts > 2:
            scale = max(1.0, float(np.max(np.ptp(y, axis=0))))
            volume = np.prod(np.linalg.svd(y[1:] - y[0], compute_uv=False))
            if volume <= 1e-12 * scale ** (n_pts - 1):
                raise DegeneracyError("the projections are affinely dependent")
        cells = np.arange(n_pts)[None, :]
    elif k == 1:
        chain = _lower_chain(y[:, 0], w, order)
        cells = np.column_stack([chain[:-1], chain[1:]])
    else:
        try:
            hull = ConvexHull(np.column_stack([y, _sum(y.T * y.T) - w]), qhull_options="Qt Qbb")
        except QhullError as exc:
            raise DegeneracyError(f"degenerate lifted configuration: {exc}") from exc
        cells = np.asarray(hull.simplices[hull.equations[:, k] < 0.0], dtype=int)
        if cells.shape[0] == 0:
            raise DegeneracyError("no downward-facing hull facets")
    # face-major: row c of cols is corner c of every cell; a bubble sort of the
    # rows sorts the cells
    cols = cells.T.copy()
    for stop in range(len(cols) - 1, 0, -1):
        for c in range(stop):
            cols[c : c + 2] = np.minimum(cols[c], cols[c + 1]), np.maximum(cols[c], cols[c + 1])

    faces = []
    for m in range(k):
        keys = [_key([cols[c] for c in s], n_pts) for s in combinations(range(len(cols)), m + 1)]
        keys = np.sort(np.concatenate(keys or [np.empty(0, dtype=int)]))
        if m == k - 1 and np.any(keys[2:] == keys[:-2]):
            raise MosaicError("a ridge belongs to more than two facets")
        # the distinct keys, read back as their digits
        keys = np.concatenate([keys[:1], keys[1:][keys[1:] != keys[:-1]]])
        faces.append(np.column_stack(np.unravel_index(keys, (n_pts,) * (m + 1))))
    top = cols if len(cols) == k + 1 else np.empty((k + 1, 0), dtype=int)
    # a cell's first k indices are one of its ridges, and no ridge is in
    # three cells: sorted by that key, only neighbour pairs can tie, and
    # swapping a pair whose last indices descend gives lexicographic order
    ridge = _key(top[:k], n_pts)
    order = np.argsort(ridge)
    ridge, last = ridge.take(order), top[k].take(order)
    swap = np.flatnonzero((ridge[1:] == ridge[:-1]) & (last[1:] < last[:-1]))
    order[swap], order[swap + 1] = order[swap + 1], order[swap]
    faces.append(top.take(order, axis=1).T.copy())
    return faces


def _key(corners: Sequence[np.ndarray], n_pts: int) -> np.ndarray:
    """Base-N keys of faces given by m + 1 index rows ``corners`` of length
    F, corner 0 the most significant digit: exact while N^(m+1) <= 2^63."""
    return reduce(lambda key, row: key * n_pts + row, corners[1:], corners[0].astype(np.int64))


def _lower_chain(x: np.ndarray, w: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Indices of the vertices of the lower hull of the lift (x, x^2 - w),
    left to right, from ``order``, the indices sorted by x with no two equal.

    Up to ``_CHAIN_PASSES`` vectorized passes each drop every chain point
    that is not strictly below the chord of its current neighbours, which no
    hull vertex ever is; a pass that drops nothing leaves a strictly convex
    chain, the hull. A cascade, where each pass drops only the points next
    to a few hull vertices, would take O(N) passes, so after the last pass a
    monotone-chain scan with the same predicate on Python floats finishes
    the chain in O(N) tests.
    """
    chain, xs, ws = order, x[order], w[order]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_CHAIN_PASSES):
            if len(chain) < 3:
                return chain
            cross, bound = _chord_cross(xs[:-2], xs[1:-1], xs[2:], ws[:-2], ws[1:-1], ws[2:])
            keep = np.ones(len(chain), dtype=bool)
            keep[1:-1] = cross > 0.0
            for i in np.flatnonzero(~(np.abs(cross) > bound)).tolist():
                keep[i + 1] = _exact_below_chord(*xs[i : i + 3], *ws[i : i + 3])
            if keep.all():
                return chain
            chain, xs, ws = chain[keep], xs[keep], ws[keep]
    xs, ws = xs.tolist(), ws.tolist()
    hull: list[int] = []
    for c in range(len(xs)):
        while len(hull) > 1 and not _below_chord(
            xs[hull[-2]], xs[hull[-1]], xs[c], ws[hull[-2]], ws[hull[-1]], ws[c]
        ):
            hull.pop()
        hull.append(c)
    return chain[hull]


def _below_chord(xa: float, xb: float, xc: float, wa: float, wb: float, wc: float) -> bool:
    """Whether lifted point b lies strictly below the chord of a and c: the
    float filter's sign where its bound fixes it, else the exact sign."""
    cross, bound = _chord_cross(xa, xb, xc, wa, wb, wc)
    if abs(cross) > bound:
        return cross > 0.0
    return _exact_below_chord(xa, xb, xc, wa, wb, wc)


def _chord_cross(xa, xb, xc, wa, wb, wc):
    """Float ``cross`` of lifted point b against the chord of a and c,
    x_a < x_b < x_c, positive exactly when b lies strictly below the chord,
    and a bound on its rounding error; numpy arrays and Python floats alike.

    With the lift z = x^2 - w, ``cross = (x_b - x_a)(z_c - z_a) - (z_b -
    z_a)(x_c - x_a) = d_ab d_bc d_ac + d_ac w_b - d_ab w_c - d_bc w_a``, d_ab
    = x_b - x_a and so on: differences of x and the weights themselves, so
    nothing cancels the way the lift does far from the origin. Its float
    value is within 8 eps (eps = 2^-53) of the sum of its four terms'
    magnitudes, plus under 2^-1074 (d_ac + 4) from underflow; the bound is
    twice both. An overflow makes the bound infinite or the cross NaN, and
    ``abs(cross) > bound`` then fails, as it does for any sign the bound
    cannot fix.
    """
    dab, dbc, dac = xb - xa, xc - xb, xc - xa
    top = dab * dbc * dac
    cross = top + dac * wb - dab * wc - dbc * wa
    permanent = top + dac * abs(wb) + dab * abs(wc) + dbc * abs(wa)
    return cross, _CHAIN_FILTER * permanent + _CHAIN_TINY * (dac + 4.0)


def _exact_below_chord(xa, xb, xc, wa, wb, wc) -> bool:
    """The sign of :func:`_chord_cross`'s ``cross``, in rational arithmetic on
    the float inputs."""
    xa, xb, xc, wa, wb, wc = map(Fraction, (xa, xb, xc, wa, wb, wc))
    return (xb - xa) * (xc - xb) * (xc - xa) + (xc - xa) * wb - (xb - xa) * wc - (xc - xb) * wa > 0


def _corner_system(yt: np.ndarray, w: np.ndarray, corners: np.ndarray):
    """Equal-power equations ``e_c . u = b_c``, c = 1..m, for the offset u of
    a point from corner 0, face-major: row c of ``corners`` (m+1, F) is corner
    c of each simplex, ``yt`` (k, N) holds the coordinates as rows, ``e[i, c-1]
    = y_ci - y_0i`` (k, m, F) and ``b_c = (|e_c|^2 - (w_c - w_0)) / 2`` (m, F),
    with |e_c|^2 summed over i in index order."""
    ys, ws = yt.take(corners, axis=1), w.take(corners)
    e = ys[:, 1:] - ys[:, :1]
    return e, 0.5 * (_sum(e * e) - (ws[1:] - ws[:1]))


def _equal_power(e: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Offset ``u`` (k, F) in the span of the vectors ``e_c`` of ``e`` (k, m, F)
    with ``e_c . u = b_c`` (``b`` (m, F)), and its coefficients ``lam`` (m, F)
    on those vectors: ``e^T = Q R`` by classical Gram-Schmidt, each vector
    projected out twice (Giraud, Langou & Rozloznik, Comput. Math. Appl. 2005),
    so the error follows cond(e), not its square; then ``R^T z = b``, ``R lam =
    z`` and ``u = Q z``, every sum over k or m in index order. At m = 1, ``u =
    b / e`` and ``lam = u / e`` to the bit. A non-finite u or lam (dependent
    vectors, overflow) raises DegeneracyError."""
    k, m, f = e.shape
    q, r = np.empty((m, k, f)), np.zeros((m, m, f))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in range(m):
            v = e[:, j]
            # twice is enough; vector 0 has nothing to be projected out of
            for _ in range(2 if j else 0):
                c = _sum(q[:j].swapaxes(0, 1) * v[:, None])
                v = v - _sum(q[:j] * c[:, None])
                r[:j, j] += c
            r[j, j] = np.sqrt(_sum(v * v))
            q[j] = v / r[j, j]
        z = b.copy()
        for j in range(m):
            z[j] /= r[j, j]
            z[j + 1 :] -= r[j, j + 1 :] * z[j]
        lam = z.copy()
        for j in range(m - 1, -1, -1):
            lam[j] /= r[j, j]
            lam[:j] -= r[:j, j] * lam[j]
        u = _sum(q * z[:, None])
    if not (np.isfinite(u).all() and np.isfinite(lam).all()):
        raise DegeneracyError("a simplex's equal-power system has no finite solution")
    return u, lam


def _find(keys: np.ndarray, order: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Positions of the faces keyed ``wanted`` among faces with sorted base-N
    ``keys``, put in that order by ``order``; a key no face has raises MosaicError."""
    found = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    if np.any(keys.take(found) != wanted):
        raise MosaicError("a claimed face is not in the mosaic")
    return order.take(found)


def radius_and_intervals(
    y: np.ndarray,
    w: np.ndarray,
    faces: Sequence[np.ndarray],
) -> Mosaic:
    """Anchored radius function and interval decomposition of a weighted
    Delaunay mosaic in R^k, for any k.

    ``y`` (N, k) and ``w`` (N,) are all generators and ``faces[m]`` the
    m-simplices with indices sorted within each row, as :func:`lower_hull`
    gives them (a level's rows may come in any order). One rule (Bauer &
    Edelsbrunner) runs for m = k, ..., 1, with no tolerance: an m-simplex
    no higher upper bound claims is an upper bound, anchored at the
    equal-power point ``y_0 + u`` in its corners' affine hull, with
    ``e_c . u = b_c``, ``e_c = y_c - y_0``, and ``u = sum lambda_c e_c``
    from :func:`_equal_power`; relative to a corner and with differences of
    weights, nothing cancels the way differences of the lift ``|y|^2 - w``
    do far from the origin. The barycentric coordinates are
    ``(1 - sum lambda, lambda)``; the simplex claims every face left when a
    non-empty set of its negative corners is dropped, down to its lower
    bound, the face of its positive corners. A vertex nothing claims is a
    critical (0, 0) interval at its own projection, of power ``0 - w``. An
    exact zero coordinate raises DegeneracyError.

    Certificates, each raising MosaicError: every corner of every face is a
    vertex listed in ``faces[0]``; every anchor has equal power at
    its corners (``2 |e_c . u - b_c|`` within 1e-6 of the power); no simplex
    is claimed twice, or claimed but absent from ``faces``; a vertex is
    claimed exactly when an incident edge puts its projection outside its
    power cell; no squared radius is negative. At k = 1 an edge power that
    rounding puts below an endpoint's is recomputed exactly
    (:func:`_order_edge_powers`), and one still below then raises
    MosaicError. Interval i is the one whose upper bound is
    the i-th upper-bound row. No generators, with the empty faces
    :func:`lower_hull` gives them, give a ``Mosaic`` with no rows and no
    intervals.
    """
    return _radius_and_intervals(y, w, faces)


# a product that overflows is inf, quietly: the certificates decide
@np.errstate(over="ignore", invalid="ignore")
def _radius_and_intervals(y: np.ndarray, w: np.ndarray, faces: Sequence[np.ndarray]) -> Mosaic:
    n_pts, k = y.shape
    sizes = [len(face) for face in faces]
    first = np.cumsum([0, *sizes])
    count = int(first[-1])
    # face-major: yt[i] is coordinate i of every generator, cols[m][c] corner c
    yt, cols = y.T.copy(), [face.T.copy() for face in faces]
    vertices = cols[0][0]
    listed = np.zeros(n_pts, dtype=bool)
    listed[vertices] = True
    if not all(listed[col].all() for col in cols[1:]):
        raise MosaicError("a corner of a face is not a listed vertex")
    # the vertices' largest span on an axis, and 1 if that is less or there are none
    ys = yt.take(vertices, axis=1)
    span = np.max(ys, axis=1, initial=-np.inf) - np.min(ys, axis=1, initial=np.inf)
    scale = float(np.max(span, initial=1.0))
    upper = np.full(count, -1)
    anchors, powers = np.empty((count, k)), np.empty(count)
    claims = [np.empty(0, dtype=int)]
    keys = [_key(col, n_pts) for col in cols[:k]]
    orders = [np.argsort(key, kind="stable") for key in keys]
    keys = [key.take(order) for key, order in zip(keys, orders)]

    for m in range(k, 0, -1):
        rows = first[m] + np.flatnonzero(upper[first[m] : first[m + 1]] < 0)
        upper[rows] = rows
        corners = cols[m].take(rows - first[m], axis=1)
        e, b = _corner_system(yt, w, corners)
        offset, lam = _equal_power(e, b)
        origin = yt.take(corners[0], axis=1)
        anchor = origin + offset
        u = anchor - origin
        power = _sum(u * u) - w.take(corners[0])
        # corner c's power minus corner 0's is 2 (e_c . u - b_c)
        mismatch = 2.0 * np.abs(_sum(e * u[:, None]) - b)
        if np.any(mismatch > 1e-6 * np.maximum(np.abs(power), 1e-12 * scale * scale)):
            raise MosaicError("an anchor fails the equal-power certificate")
        for i in range(k):
            anchors[:, i][rows] = anchor[i]
        powers[rows] = power

        bary = np.vstack([1.0 - _sum(lam), lam])
        if np.any(bary == 0.0):
            raise DegeneracyError("an anchor lies on a facet hyperplane of its simplex")
        neg = bary < 0.0
        # a simplex claims the face of its corners ``keep`` if the others are negative
        for level in range(m):
            wanted, claimers = [], []
            for keep in combinations(range(m + 1), level + 1):
                hit = np.flatnonzero(neg[[c not in keep for c in range(m + 1)]].all(axis=0))
                wanted.append(_key([corners[c].take(hit) for c in keep], n_pts))
                claimers.append(rows.take(hit))
            claimed = first[level] + _find(keys[level], orders[level], np.concatenate(wanted))
            upper[claimed] = np.concatenate(claimers)
            claims.append(claimed)
    # a vertex is its own anchor: the m = 0 rule with an empty corner system
    rows = np.flatnonzero(upper[: first[1]] < 0)
    upper[rows] = rows
    generators = vertices.take(rows)
    anchors[rows], powers[rows] = y.take(generators, axis=0) + 0.0, 0.0 - w.take(generators)

    if np.any(np.bincount(np.concatenate(claims), minlength=count) > 1):
        raise MosaicError("a simplex is claimed by two upper bounds")
    i, j = cols[1]
    d2, dw = _sum((yt.take(j, axis=1) - yt.take(i, axis=1)) ** 2), w.take(i) - w.take(j)
    outside = np.zeros(n_pts, dtype=bool)
    outside[np.concatenate([i[dw <= -d2], j[dw >= d2]])] = True
    if np.any(outside[vertices] != (upper[: first[1]] != np.arange(first[1]))):
        raise MosaicError("vertex claims disagree with the vertices outside their cells")

    if k == 1:
        _order_edge_powers(yt[0], w, faces, upper, powers)
    anchors, powers = anchors.take(upper, axis=0), powers.take(upper)
    # a power is |u|^2 - w at a corner or -w at a vertex: never negative in
    # floating point when every weight is at most 0, as a slice's -|tail|^2 is
    if np.min(powers, initial=0.0) < 0.0:
        raise MosaicError("negative squared radius; weights are not slice-induced")
    radii = np.sqrt(powers)

    # interval i is the i-th upper bound in row order; its lower bound is its first row
    bound = upper == np.arange(count)
    interval_id = np.cumsum(bound)[upper] - 1
    lower = np.full(np.count_nonzero(bound), count)
    np.minimum.at(lower, interval_id, np.arange(count))

    return Mosaic(
        y=y,
        w=w,
        faces=list(faces),
        dims=np.repeat(np.arange(k + 1), sizes),
        anchors=anchors,
        radii=radii,
        interval_id=interval_id,
        lower=lower,
        upper=np.flatnonzero(bound),
    )


def _order_edge_powers(
    x: np.ndarray, w: np.ndarray, faces: Sequence[np.ndarray], upper: np.ndarray, powers: np.ndarray
) -> None:
    """Put every edge's power at or above its endpoints' in floating point, at
    k = 1, in place in ``powers``, the powers of the upper-bound rows.

    An exact chain keeps vertices whose power cells are narrower than the
    floats resolve, and there two powers computed from different corners can
    come out one rounding apart in the wrong order. Where an endpoint in
    another interval has the larger float power, both intervals' powers are
    recomputed in rational arithmetic and rounded once; rounding is
    monotone, so it keeps their exact order. This repeats until no pair is
    out of order. A pair still out of order once both powers are exact has
    exact powers in the wrong order, a wrong decomposition, and raises
    MosaicError.
    """
    first = len(faces[0])
    row = np.empty(len(x), dtype=int)
    row[faces[0][:, 0]] = np.arange(first)
    # edge e is row first + e and its own upper bound; ends[e] are the upper
    # bounds of its endpoints' intervals
    ends = upper[row[faces[1]]]
    exact = np.zeros(len(powers), dtype=bool)
    while True:
        out = powers[ends] > powers[first:, None]
        if not out.any():
            return
        todo = np.unique(np.concatenate([ends[out], first + np.nonzero(out)[0]]))
        for r in todo[~exact[todo]].tolist():
            if r >= first:
                i, j = faces[1][r - first].tolist()
                xi, xj, wi, wj = map(Fraction, (x[i], x[j], w[i], w[j]))
                # the offset of the equal-power point from corner i, as in _corner_system
                u = ((xj - xi) ** 2 - (wj - wi)) / (2 * (xj - xi))
                powers[r] = float(u * u - wi)
        if exact[todo].all():
            raise MosaicError("exact powers put an edge below an endpoint")
        exact[todo] = True
