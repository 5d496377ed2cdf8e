"""Independent oracles that the tests check the package against."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from anchormosaic.constants import IntervalType
from anchormosaic.errors import DegeneracyError
from anchormosaic.geomcore import AnchoredSphere, WeightedPoint

_RANK_RCOND = 1e-12


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


def exact_lower_hull_1d(points: np.ndarray) -> list[int]:
    """Indices of the half-plane points (x, h) on the lower convex hull of the
    lift (x, x^2 + h^2), left to right: a monotone chain whose cross products
    are exact in rational arithmetic on the float inputs. A point exactly on
    the chord of its neighbours is dropped."""
    x = [Fraction(float(v)) for v in points[:, 0]]
    lift = [xi * xi + Fraction(float(h)) ** 2 for xi, h in zip(x, points[:, 1])]
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
