"""Machine-speed references for timings on a shared host.

On a host shared with other tenants, the speed of the same code drifts by up
to 2x within minutes, so raw wall times of identical work do not repeat. The
benchmark therefore times a fixed reference kernel, built from numpy, scipy
and Python alone so that no change to the package can move it, at every boundary
between timed calls, and scales each call's wall time by
``REF_SECONDS[kind] / reference time``: a normalized second is a wall-clock
second at the speed at which the kernel takes ``REF_SECONDS[kind]``.

Each workload uses the kernel whose drift tracked its own calls best among
those tried (LAPACK lstsq, pure-Python dict work, Python object churn, a
small Qhull, vectorized exp on 0.8 and 8 MB, a 1M-sample Philox draw):

``dispatch``  numpy calls on tiny arrays in a Python loop, then a vectorized
              exp on a cache-sized array: the per-interval geometry of the
              census workloads.
``stream``    ``dispatch`` plus a 1M-sample normal draw into an 8 MB buffer:
              the large-array sampling of the bp workload.
``mixed``     ``dispatch`` plus 3x3 LAPACK least squares, small-object churn
              and a 300-point convex hull: the many small mosaics of audit.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull

# Kernel durations that define a normalized second: about each kernel's time
# on an unloaded 2-core x86-64 host with numpy 2.4.
REF_SECONDS = {"dispatch": 0.002, "stream": 0.025, "mixed": 0.009}
_REPEATS = 7
_P = np.array([[0.1, 0.2], [0.5, 0.9], [0.3, 0.7]])
_V = np.linspace(-3.0, 3.0, 100_000)
# buffers are preallocated, so page faults of fresh arrays do not count
_BUF = np.empty_like(_V)
_BIG = np.empty(1_000_000)
_RNG = np.random.Generator(np.random.Philox(key=0))
_A = np.arange(9.0).reshape(3, 3) + 4.0 * np.eye(3)
_B = np.ones(3)
_HULL = np.random.default_rng(0).random((300, 3))


@dataclass(frozen=True)
class _Item:
    key: tuple
    value: float


def _dispatch() -> float:
    acc = 0.0
    for _ in range(200):
        diff = _P - _P[0]
        acc += float(np.einsum("ij,ij->i", diff, diff).max())
    np.multiply(_V, _V, out=_BUF)
    np.exp(np.negative(_BUF, out=_BUF), out=_BUF)
    return acc + float(_BUF.sum())


def _stream() -> float:
    _RNG.standard_normal(out=_BIG)
    return _dispatch() + float(_BIG[0])


def _mixed() -> float:
    acc = _dispatch()
    for _ in range(60):
        acc += float(np.linalg.lstsq(_A, _B, rcond=None)[0][0])
    items = {}
    for i in range(3000):
        item = _Item((i, i + 1), float(i))
        items[item.key] = item
    acc += sorted(items.values(), key=lambda item: -item.value)[0].value
    return acc + float(ConvexHull(_HULL).volume)


KERNELS = {"dispatch": _dispatch, "stream": _stream, "mixed": _mixed}


def reference_time(kind: str) -> float:
    """Seconds the reference kernel takes now: the median of several
    repetitions, which ignores interrupts that hit a few of them."""
    kernel = KERNELS[kind]
    times = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def normalized(wall: float, ref_before: float, ref_after: float, kind: str) -> float:
    """Wall seconds scaled to the reference speed, with the kernel timed on
    both sides of the measured interval."""
    return wall * REF_SECONDS[kind] / ((ref_before + ref_after) / 2.0)
