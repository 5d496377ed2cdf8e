"""Weighted Delaunay mosaics from slices of higher-dimensional Poisson processes.

Slicing a Voronoi tessellation of R^n with a k-plane induces a weighted
Voronoi tessellation of R^k; mapping each dual mosaic simplex to the radius
of its smallest empty circumsphere centered in the plane gives a generalized
discrete Morse function. This package builds these mosaics for any k,
decomposes their radius functions into intervals, evaluates the closed-form
constants behind the expected interval and simplex counts, and verifies the
predictions by seeded Monte Carlo simulation.
"""

from .constants import (
    IntervalType,
    asymptotic_limits_1d,
    expected_interval_count,
    expected_simplex_count,
    interval_constant,
    simplex_constant,
    top_simplex_constant,
)
from .geomcore import (
    AnchoredSphere,
    Interval,
    Mosaic,
    lower_hull,
    radius_and_intervals,
    sphere_is_empty,
)
from .sampler import SamplingConfig, choose_buffer, sample_poisson_box

__version__ = "0.1.0"

__all__ = [
    "IntervalType",
    "AnchoredSphere",
    "Interval",
    "Mosaic",
    "SamplingConfig",
    "asymptotic_limits_1d",
    "choose_buffer",
    "expected_interval_count",
    "expected_simplex_count",
    "interval_constant",
    "lower_hull",
    "radius_and_intervals",
    "sample_poisson_box",
    "simplex_constant",
    "sphere_is_empty",
    "top_simplex_constant",
]
