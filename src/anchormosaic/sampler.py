"""Seeded Poisson point-process sampling in boxes of R^n.

Counting happens in a window of the slice plane; sampling enlarges it by a
buffer in every coordinate so that the mosaic near the window is unaffected
by the truncation, up to spheres larger than the buffer. A sample is drawn
by (cfg, replicate) from a counter-based generator keyed by (seed,
replicate), so parallel replicates are reproducible regardless of
scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .constants import ball_volume

__all__ = [
    "SamplingConfig",
    "sample_poisson_box",
    "choose_buffer",
]

# radius quantile of the default buffer: an interval sphere outgrows the
# buffer with probability at most 1e-6
DEFAULT_BUFFER_QUANTILE = 1.0 - 1e-6
MAX_EXPECTED_POINTS = 1e7  # cap on the expected point count of one sample


@dataclass(frozen=True)
class SamplingConfig:
    """Poisson sampling configuration.

    ``window`` is the counting region: an axis-aligned box in the slice plane
    given as k (low, high) pairs; ``buffer`` is the margin added to every
    coordinate of the sampled box, including the n - k coordinates orthogonal
    to the slice, which are sampled in [-buffer, buffer]. An omitted buffer
    is resolved once, at construction, to the DEFAULT_BUFFER_QUANTILE radius
    quantile of ``choose_buffer``; a ``dataclasses.replace`` that changes n,
    rho or the window and wants the default again passes ``buffer=None``.
    """

    n: int
    rho: float
    window: tuple[tuple[float, float], ...]
    buffer: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"window defines k={self.k}, need 1 <= k <= n={self.n}")
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError(f"density must be positive, got {self.rho}")
        if self.buffer is None:
            object.__setattr__(self, "buffer", choose_buffer(self, DEFAULT_BUFFER_QUANTILE))
        if not self.buffer >= 0:
            raise ValueError(f"buffer must be non-negative, got {self.buffer}")
        for lo, hi in self.window:
            if not lo < hi:
                raise ValueError(f"degenerate window side ({lo}, {hi})")
        if self.n > self.k and self.buffer == 0:
            raise ValueError("a positive buffer is required when n > k")

    @property
    def k(self) -> int:
        return len(self.window)

    @property
    def window_volume(self) -> float:
        return float(np.prod([hi - lo for lo, hi in self.window]))

    def in_window(self, anchors: np.ndarray) -> np.ndarray:
        """Mask of the anchors (rows of k coordinates) in the half-open window."""
        anchors = np.atleast_2d(anchors)
        mask = np.ones(anchors.shape[0], dtype=bool)
        for axis, (lo, hi) in enumerate(self.window):
            mask &= (anchors[:, axis] >= lo) & (anchors[:, axis] < hi)
        return mask

    def box_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lows = [lo - self.buffer for lo, _ in self.window] + [-self.buffer] * (
            self.n - self.k
        )
        highs = [hi + self.buffer for _, hi in self.window] + [self.buffer] * (
            self.n - self.k
        )
        return np.asarray(lows), np.asarray(highs)


def sample_poisson_box(cfg: SamplingConfig, replicate: int = 0) -> np.ndarray:
    """Draw one Poisson(rho * vol) sample of uniform points in the buffered box.

    Deterministic given (cfg.seed, replicate); distinct replicates give
    independent streams.
    """
    return _sample_poisson_box(cfg, replicate)


def _sample_poisson_box(cfg: SamplingConfig, replicate: int) -> np.ndarray:
    lows, highs = cfg.box_bounds()
    volume = float(np.prod(highs - lows))
    mean = cfg.rho * volume
    if mean > MAX_EXPECTED_POINTS:
        raise ValueError(
            f"expected point count {mean:.3g} exceeds the cap {MAX_EXPECTED_POINTS:.3g}"
        )
    key = (int(cfg.seed) % 2**64) + ((int(replicate) % 2**64) << 64)
    rng = np.random.Generator(np.random.Philox(key=key))
    count = int(rng.poisson(mean))
    return rng.uniform(lows, highs, size=(count, cfg.n))


def choose_buffer(cfg: SamplingConfig, r_quantile: float) -> float:
    """Buffer size at which interval radii exceed the buffer with probability
    at most 1 - r_quantile.

    Uses the radius law of the largest-shape interval type: the transformed
    radius rho * nu_n * r^n is Gamma(k + 1 - k/n)-distributed, and its
    r_quantile-quantile is the inverse of the regularized lower incomplete
    Gamma function.
    """
    if not 0.0 < r_quantile < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {r_quantile}")
    x = special.gammaincinv(cfg.k + 1.0 - cfg.k / cfg.n, r_quantile)
    return float((x / (cfg.rho * ball_volume(cfg.n))) ** (1.0 / cfg.n))
