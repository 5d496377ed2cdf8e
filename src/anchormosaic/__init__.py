"""Weighted Delaunay mosaics from slices of higher-dimensional Poisson processes.

Slicing a Voronoi tessellation of R^n with a k-plane induces a weighted
Voronoi tessellation of R^k; mapping each dual mosaic simplex to the radius
of its smallest empty circumsphere centered in the plane gives a generalized
discrete Morse function. This package builds these mosaics for any k,
decomposes their radius functions into intervals, evaluates the closed-form
constants behind the expected interval and simplex counts, and verifies the
predictions by seeded Monte Carlo simulation.
"""

from .geomcore import sphere_is_empty

__version__ = "0.1.0"

__all__ = ["sphere_is_empty"]
