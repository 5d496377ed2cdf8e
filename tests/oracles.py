"""Independent oracles that the tests check the package against, the one
invariant audit of an interval decomposition, and the random clouds and the
mosaic path the decomposition tests share."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from anchormosaic import geomcore
from anchormosaic.constants import IntervalType
from anchormosaic.errors import DegeneracyError, IterationLimitError
from anchormosaic.geomcore import AnchoredSphere, Interval, Mosaic

_RANK_RCOND = 1e-12
_MAX_GAMMA_ITER = 10_000
_MAX_BETA_ITER = 10_000
_TINY = 1e-300


@dataclass(frozen=True)
class WeightedPoint:
    """Projection of an R^n point onto the slice plane, with its slice weight.

    The weight is minus the squared distance of the R^n point to the plane,
    so it is always <= 0 for slice-induced weights.
    """

    y: np.ndarray
    w: float


def smallest_anchored_circumsphere(
    points: Sequence[Sequence[float]] | np.ndarray, k: int
) -> AnchoredSphere:
    """Smallest sphere through m+1 points of R^n whose center lies in the k-plane.

    The anchors of all circumscribing anchored spheres form a (k-m)-flat, cut
    out by the m linear equal-power equations; the smallest sphere's anchor is
    the orthogonal projection of the first point's slice projection onto that
    flat (the minimum of a convex quadratic), here from a least-squares solve
    on the R^n points rather than the package's closed forms.
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
    anchor these are exactly the negative coordinates, here from a
    least-squares solve rather than the package's sign rule.
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


def _exact_gram(y: np.ndarray, w: np.ndarray):
    """Rational ``y_0``, ``e_i = y_i - y_0`` and ``lambda`` of the Gram system
    ``(e_i . e_j) lambda = b``, ``b_i = (|e_i|^2 - w_i + w_0) / 2``, of the
    weighted points ``(y_c, w_c)``, c = 0..m, on the float inputs, solved by
    Gauss-Jordan elimination over fractions."""
    ys = [[Fraction(float(v)) for v in row] for row in np.atleast_2d(y)]
    ws = [Fraction(float(v)) for v in w]
    e = [[a - b for a, b in zip(row, ys[0])] for row in ys[1:]]

    def dot(p: list[Fraction], q: list[Fraction]) -> Fraction:
        return sum((a * b for a, b in zip(p, q)), Fraction(0))

    m = len(e)
    rows = [
        [dot(e[i], e[j]) for j in range(m)] + [(dot(e[i], e[i]) - ws[i + 1] + ws[0]) / 2]
        for i in range(m)
    ]
    for col in range(m):
        pivot = next((r for r in range(col, m) if rows[r][col] != 0), None)
        if pivot is None:
            raise DegeneracyError("the points are affinely dependent")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(m):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return ys[0], e, [rows[i][m] / rows[i][i] for i in range(m)]


def exact_anchor(y: np.ndarray, w: np.ndarray) -> list[Fraction]:
    """Equal-power point of the weighted points ``(y_c, w_c)``, c = 0..m, in
    the affine hull of the ``y_c``, in rational arithmetic on the float
    inputs: ``y_0 + sum_i lambda_i e_i``, lambda from the Gram system."""
    origin, e, lam = _exact_gram(y, w)
    return [x + sum(l * ei[d] for l, ei in zip(lam, e)) for d, x in enumerate(origin)]


def exact_barycentric(y: np.ndarray, w: np.ndarray) -> list[Fraction]:
    """Rational barycentric coordinates ``(1 - sum lambda, lambda)`` of the
    equal-power point of the weighted points ``(y_c, w_c)`` on their simplex,
    lambda from the Gram system."""
    lam = _exact_gram(y, w)[2]
    return [1 - sum(lam, Fraction(0)), *lam]


def exact_lower_chain(y: np.ndarray, w: np.ndarray) -> list[int]:
    """Indices of the generators with projections ``y`` (N, 1) and weights
    ``w`` on the lower convex hull of the lift (x, x^2 - w), left to right: a
    monotone chain whose cross products are exact in rational arithmetic on
    the float inputs. A point exactly on the chord of its neighbours is
    dropped."""
    x = [Fraction(float(v)) for v in np.asarray(y).reshape(-1)]
    lift = [xi * xi - Fraction(float(wi)) for xi, wi in zip(x, w)]
    hull: list[int] = []
    for idx in sorted(range(len(x)), key=x.__getitem__):
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (x[a] - x[o]) * (lift[idx] - lift[o]) - (lift[a] - lift[o]) * (x[idx] - x[o])
            if cross > 0:
                break
            hull.pop()
        hull.append(idx)
    return hull


def exact_lower_hull_1d(points: np.ndarray) -> list[int]:
    """:func:`exact_lower_chain` of the half-plane points (x, h) as
    ``lower_hull`` sees them: their slice projections and weights."""
    return exact_lower_chain(*geomcore.slice_cloud(points, 1))


def intervals_per_row(mosaic: Mosaic) -> list[Interval]:
    """The intervals of a mosaic, built row by row: for each interval id its
    bounds, type and sphere read off the ``lower`` and ``upper`` rows, and its
    members the rows with that id in row order; the reference for the
    columnar ``Mosaic.intervals``."""
    order = np.argsort(mosaic.interval_id, kind="stable").tolist()
    stops = np.cumsum(np.bincount(mosaic.interval_id, minlength=len(mosaic.lower))).tolist()
    out: list[Interval] = []
    start = 0
    for lo, up, stop in zip(mosaic.lower.tolist(), mosaic.upper.tolist(), stops):
        out.append(
            Interval(
                lower=mosaic.simplices[lo],
                upper=mosaic.simplices[up],
                type=IntervalType(int(mosaic.dims[lo]), int(mosaic.dims[up])),
                sphere=AnchoredSphere(
                    anchor=mosaic.anchors[up].copy(), radius=float(mosaic.radii[up])
                ),
                members=tuple(mosaic.simplices[r] for r in order[start:stop]),
            )
        )
        start = stop
    return out


def random_cloud(
    rng: np.random.Generator,
    count: int,
    k: int,
    side: float,
    height: tuple[float, float],
    tail: int = 1,
) -> np.ndarray:
    """``count`` points of R^(k + tail): k slice coordinates uniform over
    [0, side), drawn first, then ``tail`` coordinates uniform over the
    ``height`` range (low, high)."""
    return np.column_stack(
        [rng.uniform(0.0, side, (count, k)), rng.uniform(*height, (count, tail))]
    )


def build(cloud: np.ndarray, k: int) -> Mosaic:
    """The mosaic of the k-plane slice of ``cloud``: ``slice_cloud``,
    ``lower_hull`` and ``radius_and_intervals``."""
    y, w = geomcore.slice_cloud(cloud, k)
    return geomcore.radius_and_intervals(y, w, geomcore.lower_hull(y, w))


def interval_violations(
    mosaic: Mosaic, cloud: np.ndarray, interior: Sequence[tuple[float, float]]
) -> list[str]:
    """Every invariant of the interval decomposition that ``mosaic`` of
    ``cloud`` breaks, one message each, for any k; ``interior`` is one
    half-open range per slice axis. Each message starts with its kind:

    - partition: every simplex lies in exactly one interval;
    - members: an interval of type (ell, m) has 2^(m - ell) members, each
      between its lower and upper bound;
    - reconciliation: at the median interval radius and at infinity, the
      j-simplices of radius at most r0 number sum C(m - ell, m - j) over the
      intervals of type (ell, m) of radius at most r0, over the whole mosaic
      and over the simplices and intervals anchored in ``interior``;
    - monotone: no face has a larger radius than its coface;
    - emptiness: no cloud point lies inside the sphere of an interval
      anchored in ``interior``.
    """
    intervals, simplices = mosaic.intervals, mosaic.simplices
    found = []
    members = [s for iv in intervals for s in iv.members]
    if len(members) != len(simplices) or set(members) != set(simplices):
        found.append("partition: the intervals do not partition the simplices")
    for iv in intervals:
        lower, upper = set(iv.lower), set(iv.upper)
        if len(iv.members) != 2 ** (iv.type.m - iv.type.ell) or not all(
            lower <= set(s) <= upper for s in iv.members
        ):
            found.append(f"members: {iv.type} interval {iv.lower}..{iv.upper}")
    lo, hi = np.asarray(interior, dtype=float).T

    def within(anchors: np.ndarray) -> np.ndarray:
        return np.all((lo <= anchors) & (anchors < hi), axis=1)

    radius = np.array([iv.sphere.radius for iv in intervals])
    anchored = within(np.array([iv.sphere.anchor for iv in intervals]))
    for where, keep, rows in (
        ("mosaic", np.ones(len(intervals), dtype=bool), np.ones(len(simplices), dtype=bool)),
        ("interior", anchored, within(mosaic.anchors)),
    ):
        for r0 in (float(np.median(radius)), math.inf):
            census = Counter(iv.type for iv, use in zip(intervals, keep & (radius <= r0)) if use)
            for j in range(mosaic.y.shape[1] + 1):
                predicted = sum(
                    math.comb(t.m - t.ell, t.m - j) * c for t, c in census.items() if t.m >= j
                )
                if np.count_nonzero(rows & (mosaic.dims == j) & (mosaic.radii <= r0)) != predicted:
                    found.append(f"reconciliation: dimension {j} over the {where} at r0 = {r0}")
    radii, row = mosaic.radii.tolist(), {s: r for r, s in enumerate(simplices)}
    for r, s in enumerate(simplices):
        for face in combinations(s, len(s) - 1) if len(s) > 1 else ():
            if radii[row[face]] > radii[r]:
                found.append(f"monotone: {face} has a larger radius than its coface {s}")
    for iv, keep in zip(intervals, anchored):
        if keep and not geomcore.sphere_is_empty(iv.sphere, cloud, exclude=iv.upper):
            found.append(f"emptiness: the sphere of {iv.upper} is not empty")
    return found


def oracle_disagreements(mosaic: Mosaic, cloud: np.ndarray) -> list[str]:
    """Intervals of ``mosaic`` whose type differs from ``visibility_type`` of
    their upper bound's weighted projections, or whose sphere differs from
    ``smallest_anchored_circumsphere`` of the upper bound's points of
    ``cloud``: the anchor by more than 1e-8 of its size (at least 1), the
    radius by more than 1e-8 relative."""
    found = []
    for iv in mosaic.intervals:
        upper = [WeightedPoint(y=mosaic.y[v], w=float(mosaic.w[v])) for v in iv.upper]
        if visibility_type(iv.sphere, upper) != iv.type:
            found.append(f"type: {iv.type} interval {iv.lower}..{iv.upper}")
        direct = smallest_anchored_circumsphere(cloud[list(iv.upper)], mosaic.y.shape[1])
        scale = max(1.0, float(np.max(np.abs(direct.anchor))))
        if (
            np.max(np.abs(iv.sphere.anchor - direct.anchor)) > 1e-8 * scale
            or abs(iv.sphere.radius - direct.radius) > 1e-8 * direct.radius
        ):
            found.append(f"sphere: {iv.type} interval {iv.lower}..{iv.upper}")
    return found


def compensated_sum(iterable, start=0):
    """Python 3.12's builtin ``sum``, on any interpreter.

    Ints add exactly while the total is an int. Once it is a float, 0 + x0
    for a first float x0, each further float adds by Neumaier's compensated
    loop (*ZAMM* 54, 1974), an int adds plainly, and the compensation joins
    the total at the end if it is non-zero and finite. Any other item, a
    numpy scalar among them, ends the loop, and the rest add with ``+``.
    """
    items = iter(iterable)
    total = start
    if type(total) is int:
        for x in items:
            total = total + x
            if type(total) is not int:
                break
    if type(total) is float:
        c = 0.0
        for x in items:
            if type(x) is int:
                total += float(x)
                continue
            if type(x) is not float:
                total = (total + c if c and math.isfinite(c) else total) + x
                break
            t = total + x
            c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        else:
            return total + c if c and math.isfinite(c) else total
    for x in items:
        total = total + x
    return total


# Scalar incomplete Gamma and Beta functions (series and Lentz continued
# fractions), the per-element references for the vectorised scipy.special calls.


def _require_finite(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def regularized_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete Gamma function P(a, x) = gamma(a, x) / Gamma(a).

    Uses the power series for x < a + 1 and the Lentz continued fraction for
    the complementary function otherwise. P is monotone non-decreasing in x,
    with P(a, 0) = 0 and P(a, x) -> 1 as x -> inf.
    """
    _require_finite(a=a, x=x)
    if a <= 0.0:
        raise ValueError(f"shape parameter must be positive, got a={a}")
    if x < 0.0:
        raise ValueError(f"argument must be non-negative, got x={x}")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _lower_gamma_series(a, x)
    return 1.0 - _upper_gamma_cf(a, x)


def _gamma_prefactor(a: float, x: float) -> float:
    # x^a e^{-x} / Gamma(a), assembled in log space
    return math.exp(a * math.log(x) - x - math.lgamma(a))


def _lower_gamma_series(a: float, x: float) -> float:
    # P(a,x) = x^a e^{-x}/Gamma(a) * sum_{i>=0} x^i / (a (a+1) ... (a+i))
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_GAMMA_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-16:
            return total * _gamma_prefactor(a, x)
    raise IterationLimitError(
        f"incomplete Gamma series did not converge for a={a}, x={x}"
    )


def _upper_gamma_cf(a: float, x: float) -> float:
    # Q(a,x) via the standard even-odd continued fraction, modified Lentz method
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b if b != 0.0 else 1.0 / _TINY
    h = d
    for i in range(1, _MAX_GAMMA_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h * _gamma_prefactor(a, x)
    raise IterationLimitError(
        f"incomplete Gamma continued fraction did not converge for a={a}, x={x}"
    )


def beta_fn(a: float, b: float) -> float:
    """Complete Beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b)."""
    _require_finite(a=a, b=b)
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"Beta parameters must be positive, got a={a}, b={b}")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def beta_inc(t0: float, a: float, b: float) -> float:
    """Incomplete Beta integral int_0^{t0} t^(a-1) (1-t)^(b-1) dt (not regularized).

    Satisfies beta_inc(1, a, b) = beta_fn(a, b) and is monotone in t0.
    """
    _require_finite(t0=t0, a=a, b=b)
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"Beta parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= t0 <= 1.0:
        raise ValueError(f"upper limit must lie in [0, 1], got t0={t0}")
    return _regularized_beta_inc(t0, a, b) * beta_fn(a, b)


def _regularized_beta_inc(x: float, a: float, b: float) -> float:
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _beta_cf(a: float, b: float, x: float) -> float:
    # continued fraction for the regularized incomplete Beta, modified Lentz method
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_BETA_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise IterationLimitError(
        f"incomplete Beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )
