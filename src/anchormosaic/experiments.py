"""Monte Carlo estimation and statistical verification.

Covers: empirical interval/simplex rates against their closed-form
predictions, the Gamma law of interval radii (Kolmogorov-Smirnov), the
sphere-parametrization integral identity (a Monte Carlo right side against
the closed-form left side), the two-angle integral against its closed form,
the expected interval and simplex counts as functions of the radius
threshold against quadrature of the radius density (the Gamma lemma), on
random parameter draws, the Beta law of projected sphere points, and the
exact per-replicate reconciliation of simplex counts with interval counts.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import integrate, special, stats

from . import constants, sampler
from .errors import InsufficientSampleError
from .constants import _sum
from .geomcore import _lower_hull, _radius_and_intervals, _slice_cloud
from .geomcore import slice_cloud  # noqa: F401  (perfbench/selftest.py looks it up here)

__all__ = [
    "ReplicateRecord",
    "RateEstimate",
    "ExperimentReport",
    "run_replicate",
    "estimate_interval_rates",
    "SCHEMA_VERSION",
    "json_text",
    "report_to_json",
    "report_to_csv",
    "csv_text",
    "ks_gamma_test",
    "BPCheck",
    "verify_bp_identity",
    "AngleIntegralCheck",
    "verify_angle_integral",
    "GammaLemmaCheck",
    "verify_gamma_lemma",
    "BetaLawCheck",
    "verify_beta_projection_law",
    "ReconcileResult",
    "reconcile_simplex_counts",
]


# ---------------------------------------------------------------------------
# interval-rate estimation


@dataclass
class ReplicateRecord:
    """Raw per-replicate outcome: one row per interval and per simplex.

    An interval row holds the type (ell, m) of the interval, the radius of its
    sphere and whether its anchor lies in the window; a simplex row holds the
    dimension, radius and in-window flag of one simplex. The census counts
    are integer bins over these columns: ``interval_counts`` and
    ``simplex_counts`` each make one ``np.bincount`` over the selected rows.
    """

    replicate: int
    num_points: int
    interval_types: np.ndarray  # (I, 2) columns ell, m
    interval_radii: np.ndarray  # (I,)
    interval_in_window: np.ndarray  # (I,) bool
    simplex_dims: np.ndarray  # (S,)
    simplex_radii: np.ndarray  # (S,)
    simplex_in_window: np.ndarray  # (S,) bool

    def interval_counts(self, r0: float = math.inf) -> dict[tuple[int, int], int]:
        """In-window intervals of radius at most r0, per type present."""
        types = self.interval_types
        # one type code per row, with a base above every row's m
        base = int(types.max(initial=0)) + 1
        codes = types[:, 0] * base + types[:, 1]
        counts = np.bincount(codes[self.interval_in_window & (self.interval_radii <= r0)])
        return {divmod(code, base): int(counts[code]) for code in np.flatnonzero(counts).tolist()}

    def simplex_counts(self, r0: float = math.inf) -> dict[int, int]:
        """In-window simplices of radius at most r0, per dimension present."""
        dims = self.simplex_dims[self.simplex_in_window & (self.simplex_radii <= r0)]
        counts = np.bincount(dims)
        return {j: int(counts[j]) for j in np.flatnonzero(counts).tolist()}


@dataclass
class RateEstimate:
    """Empirical rate per unit rho^(k/n) * |R| against its prediction."""

    ell: int
    m: int
    count_mean: float
    rate: float
    se: float
    predicted: float
    z: float


@dataclass
class ExperimentReport:
    """Rates of one run over ``len(records)`` replicates sampled with ``cfg``."""

    cfg: sampler.SamplingConfig
    r0: float
    interval_rates: list[RateEstimate]
    simplex_rates: list[RateEstimate]
    records: list[ReplicateRecord] = field(repr=False, default_factory=list)
    radii_by_type: dict[tuple[int, int], np.ndarray] = field(repr=False, default_factory=dict)
    runtime: float = 0.0


def run_replicate(cfg: sampler.SamplingConfig, replicate: int) -> ReplicateRecord:
    """Sample, slice, build the mosaic, and record every interval and simplex.

    The same three steps for every sample, an empty one included: the
    slice's projections and weights, their lifted lower hull, and its
    interval decomposition. An empty sample gives a record with no rows.
    """
    return _replicate_record(cfg, replicate)


def _replicate_record(cfg: sampler.SamplingConfig, replicate: int) -> ReplicateRecord:
    points = sampler._sample_poisson_box(cfg, replicate)
    y, w = _slice_cloud(points, cfg.k)
    mosaic = _radius_and_intervals(y, w, _lower_hull(y, w))
    simplex_in_window = cfg.in_window(mosaic.anchors)
    return ReplicateRecord(
        replicate=replicate,
        num_points=len(points),
        interval_types=np.column_stack([mosaic.dims[mosaic.lower], mosaic.dims[mosaic.upper]]),
        interval_radii=mosaic.radii[mosaic.upper],
        interval_in_window=simplex_in_window[mosaic.upper],
        simplex_dims=mosaic.dims,
        simplex_radii=mosaic.radii,
        simplex_in_window=simplex_in_window,
    )


def _census_records(cfg: sampler.SamplingConfig, replicates: int) -> list[ReplicateRecord]:
    """``run_replicate(cfg, r)`` for r = 0 .. replicates - 1, in replicate order.

    At k >= 2 the replicates run on the thread pool (``_pool_map``): most of
    a planar or higher replicate is the Qhull call, which releases the GIL
    on scipy 1.17.1 (two census2d replicates: 11.4 ms pooled, 13.8 ms in
    turn, on two cores).
    At k = 1 they run in turn on the calling thread, since the exact chain
    and the decomposition hold the GIL and a pool only adds its handoffs.
    Each replicate draws from its own stream, so the bits do not depend on
    the number of workers.
    """
    record = functools.partial(_replicate_record, cfg)
    if cfg.k == 1:
        return list(map(record, range(replicates)))
    return _pool_map(record, range(replicates))


def _pool_map(fn: Callable, *args: Sequence) -> list:
    """``list(map(fn, *args))`` on a pool of ``min(len(args[0]), usable
    CPUs)`` threads, the results in argument order. An error raised by a
    call reaches the caller as it would from ``map``. ``fn`` runs on the
    workers, so it must call only private bodies, never a public function
    of the package: a wrapper on a public function then sees calls from the
    calling thread only, and the benchmark's tracer keeps one span stack
    for the whole process.
    """
    with ThreadPoolExecutor(max_workers=min(len(args[0]), _usable_cpus())) as pool:
        return list(pool.map(fn, *args))


def estimate_interval_rates(
    cfg: sampler.SamplingConfig,
    replicates: int,
    r0: float = math.inf,
    collect_radii: bool = False,
) -> ExperimentReport:
    """Empirical interval and simplex rates over independent replicates.

    Counts intervals/simplices with anchor in the window and radius at most
    r0; rates are normalized by rho^(k/n) * |R| and compared with the
    closed-form constants via z-scores. Aggregation is a deterministic fold
    in replicate order.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    threshold = float(r0)
    recommended = sampler.choose_buffer(cfg, sampler.DEFAULT_BUFFER_QUANTILE)
    if cfg.buffer < recommended:
        warnings.warn(
            f"buffer {cfg.buffer:.6g} is below the recommended {recommended:.6g}; "
            "window counts may be biased by the truncated sample",
            stacklevel=2,
        )
    area = cfg.window_volume
    # the predictions first, so that dimensions with no constants fail
    # before any replicate is sampled
    predicted = constants.expected_rates(cfg.k, cfg.n, cfg.rho, area, threshold)
    norm = cfg.rho ** (cfg.k / cfg.n) * area
    types = constants.valid_interval_types(cfg.k)

    start = time.perf_counter()
    records = _census_records(cfg, replicates)
    interval_counts = [rec.interval_counts(threshold) for rec in records]
    simplex_counts = [rec.simplex_counts(threshold) for rec in records]
    interval_rates = []
    for t, expected in zip(types, predicted):
        counts = np.array([c.get((t.ell, t.m), 0) for c in interval_counts], dtype=float)
        interval_rates.append(_rate_estimate(t.ell, t.m, counts, norm, expected))
    simplex_rates = []
    for j, expected in enumerate(predicted[len(types):]):
        counts = np.array([c.get(j, 0) for c in simplex_counts], dtype=float)
        simplex_rates.append(_rate_estimate(j, j, counts, norm, expected))

    radii_by_type: dict[tuple[int, int], np.ndarray] = {}
    if collect_radii:
        kept = [rec.interval_in_window & (rec.interval_radii <= threshold) for rec in records]
        radii = np.concatenate([rec.interval_radii[sel] for rec, sel in zip(records, kept)])
        kinds = np.concatenate([rec.interval_types[sel] for rec, sel in zip(records, kept)])
        for t in types:
            radii_by_type[(t.ell, t.m)] = radii[(kinds[:, 0] == t.ell) & (kinds[:, 1] == t.m)]

    return ExperimentReport(
        cfg=cfg,
        r0=threshold,
        interval_rates=interval_rates,
        simplex_rates=simplex_rates,
        records=records,
        radii_by_type=radii_by_type,
        runtime=time.perf_counter() - start,
    )


CSV_HEADER = "type,ell,m,count,rate,se,predicted,z"
# version of every JSON document the package writes: reports, tables, checks
SCHEMA_VERSION = 1


def json_text(kind: str, payload: dict) -> str:
    """A JSON document of ``kind``: the envelope, ``schema_version`` and
    ``kind``, and the fields of ``payload``, with sorted keys and two-space
    indent, newline-terminated; a NaN or infinite value raises ``ValueError``,
    since JSON has none."""
    document = {**payload, "schema_version": SCHEMA_VERSION, "kind": kind}
    return json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n"


def report_to_json(report: ExperimentReport) -> str:
    """Serialize a report with versioned keys; byte-stable for fixed inputs
    (volatile fields such as the runtime are omitted)."""

    def row(rate: RateEstimate) -> dict:
        return dict(dataclasses.asdict(rate), z=rate.z if math.isfinite(rate.z) else None)

    cfg = report.cfg
    payload = {
        "config": {
            "n": cfg.n,
            "k": cfg.k,
            "rho": cfg.rho,
            "window": [[lo, hi] for lo, hi in cfg.window],
            "buffer": cfg.buffer,
            "seed": cfg.seed,
            "replicates": len(report.records),
            "r0": report.r0 if math.isfinite(report.r0) else None,
        },
        "intervals": [row(r) for r in report.interval_rates],
        "simplices": [row(r) for r in report.simplex_rates],
    }
    return json_text("simulate", payload)


def csv_text(header: str, rows: Sequence[Sequence]) -> str:
    """``header`` and one line per row of cells: floats by ``repr`` (round-trip
    exact), ``""`` as an empty cell, anything else by ``str``."""
    lines = [header]
    for cells in rows:
        lines.append(",".join(
            "" if cell == "" else repr(cell) if isinstance(cell, float) else str(cell)
            for cell in cells
        ))
    return "\n".join(lines) + "\n"


def report_to_csv(report: ExperimentReport) -> str:
    """One row per interval type and simplex dimension, fixed column order."""
    return csv_text(CSV_HEADER, [
        (kind, r.ell, r.m, r.count_mean, r.rate, r.se, r.predicted, r.z)
        for kind, rates in (("interval", report.interval_rates), ("simplex", report.simplex_rates))
        for r in rates
    ])


def _rate_estimate(
    ell: int, m: int, counts: np.ndarray, norm: float, predicted: float
) -> RateEstimate:
    mean = float(np.mean(counts))
    se = float(np.std(counts, ddof=1) / math.sqrt(len(counts))) if len(counts) > 1 else 0.0
    rate = mean / norm
    se_rate = se / norm
    z = (rate - predicted) / se_rate if se_rate > 0 else math.nan
    return RateEstimate(
        ell=ell, m=m, count_mean=mean, rate=rate, se=se_rate, predicted=predicted, z=z
    )


def ks_gamma_test(radii: np.ndarray, shape: float, rate_scale: float, n: int) -> float:
    """Kolmogorov-Smirnov p-value of interval radii against their Gamma law.

    Transforms each radius r to P(shape, rate_scale * r^n), which is uniform
    on [0, 1] under the hypothesis that rate_scale * r^n is
    Gamma(shape)-distributed, then takes the one-sample KS p-value of
    :func:`_ks_uniform_pvalue`. The regularized lower incomplete Gamma
    function P is evaluated for all radii in one ``scipy.special.gammainc``
    call.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size < 100:
        raise InsufficientSampleError(f"need at least 100 radii, got {radii.size}")
    if not (math.isfinite(shape) and shape > 0.0):
        raise ValueError(f"shape parameter must be positive and finite, got {shape}")
    scaled = rate_scale * radii**n
    if not np.all(np.isfinite(scaled) & (scaled >= 0.0)):
        raise ValueError("rate_scale * r^n must be finite and non-negative for every radius")
    return _ks_uniform_pvalue(special.gammainc(shape, scaled))


def _ks_uniform_pvalue(u: np.ndarray) -> float:
    """Two-sided one-sample KS p-value of ``u``, values in [0, 1], against
    Uniform(0, 1): ``stats.kstest(u, "uniform").pvalue`` to the bit.

    With ``x`` the sorted sample of size n, ``D = max(D+, D-)``, ``D+ =
    max(i/n - x_i)`` and ``D- = max(x_i - (i-1)/n)``, i = 1..n, and the
    p-value is ``kstwo.sf(D, n)`` clipped to [0, 1], the exact distribution
    that ``kstest`` selects in its default mode. The uniform CDF is the
    identity on [0, 1], so nothing else is evaluated.
    """
    x = np.sort(u)
    n = len(x)
    d_plus = np.max(np.arange(1.0, n + 1) / n - x)
    d_minus = np.max(x - np.arange(0.0, n) / n)
    return float(np.clip(stats.kstwo.sf(max(d_plus, d_minus), n), 0.0, 1.0))


# ---------------------------------------------------------------------------
# sphere-parametrization identity


def _bump_f(x: np.ndarray) -> np.ndarray:
    # compactly supported product bump: prod_i max(0, 1 - |x_i|^2)^2
    g = np.maximum(0.0, 1.0 - _sum(np.moveaxis(x * x, 2, 0)))
    return np.prod(g * g, axis=1)


def _analytic_integral(kind: str, n: int, m: int) -> float:
    if kind == "gaussian":
        return math.pi ** (n * (m + 1) / 2.0)
    # int_{|x|<1} (1-|x|^2)^2 dx = sigma_n * B(n/2, 3) / 2, per point
    single = constants.sphere_surface(n) * float(special.beta(n / 2.0, 3.0)) / 2.0
    return single ** (m + 1)


@dataclass
class BPCheck:
    """Monte Carlo right side of the sphere-parametrization identity against
    its closed-form left side."""

    n: int
    k: int
    m: int
    test_function: str
    samples: int
    left: float
    right: float
    right_ci: tuple[float, float]
    analytic: float
    right_ess: float  # Kish effective sample size of the right side's weights
    right_nonfinite: int  # right-side weights that were not finite, counted as 0
    right_max_share: float  # the largest right-side weight over the sum of them

    @property
    def rounding_allowance(self) -> float:
        """First-order bound on the rounding of ``right`` where all weights
        are one value w, as at m = 0, in unit roundoffs u with every step
        within 4 ulps (8 u): log w's five terms and four sums, none above
        1 + |log w| at m = 0 for n - k <= 20, give 72 (1 + |log w|) and exp
        8; np.mean's pairwise sum 25 in a block of 128, 1 per halving (at
        most ceil(log2 samples)) and 1 for the division. A merge of chunk
        means stays between them. |log right| stands in for |log w|."""
        u = np.finfo(float).eps / 2.0
        log_w = abs(math.log(self.right)) if self.right > 0.0 else 0.0
        rel = 72.0 * (1.0 + log_w) + 8.0 + 26.0 + math.ceil(math.log2(self.samples))
        return abs(self.right) * rel * u

    @property
    def passed(self) -> bool:
        """The right CI, widened by ``rounding_allowance``, covers the left."""
        slack = self.rounding_allowance
        return bool(self.right_ci[0] - slack <= self.analytic <= self.right_ci[1] + slack)


# a bp chunk's record: (count, mean, M2, non-finite count, largest weight),
# with M2 the sum of squared deviations from the mean
_Record = tuple[int, float, float, int, float]


def _moments(w: np.ndarray) -> _Record:
    """The record of one chunk's weights ``w``, whose non-finite entries it
    sets to 0 in place and counts; two-pass moments, no sum of squares, so
    no cancellation.

    M2 is an ``np.add.reduce``, the pairwise sum ``np.mean`` uses, not a dot:
    a threaded BLAS dot would split the sum by thread count. The bits depend
    neither on the number of workers nor on the number of BLAS threads.
    """
    nonfinite = ~np.isfinite(w)
    w[nonfinite] = 0.0
    mean = float(np.mean(w))
    dev = w - mean
    m2 = float(np.add.reduce(np.square(dev, out=dev)))
    return w.size, mean, m2, int(np.count_nonzero(nonfinite)), float(np.max(w))


def _merge_moments(a: _Record, b: _Record) -> _Record:
    """Two chunks' records as one: the Chan-Golub-LeVeque pairwise update of
    the moments, the sum of the non-finite counts and the larger weight."""
    n_a, mean_a, m2_a, nonfinite_a, max_a = a
    n_b, mean_b, m2_b, nonfinite_b, max_b = b
    count = n_a + n_b
    delta = mean_b - mean_a
    return (
        count,
        mean_a + delta * (n_b / count),
        m2_a + m2_b + delta * delta * (n_a * n_b / count),
        nonfinite_a + nonfinite_b,
        max(max_a, max_b),
    )


_VMF_KAPPAS = tuple(4.0**j for j in range(1, 17))
# mixture weights: the uniform component, then one per kappa
_MIX_PROBS = np.array([0.5] + [0.5 / len(_VMF_KAPPAS)] * len(_VMF_KAPPAS))
# each component's concentration; the uniform component is kappa = 0
_KAPPA_LADDER = np.array((0.0,) + _VMF_KAPPAS)


def _draw_vmf(rng: np.random.Generator, comp: np.ndarray, d: int) -> tuple[np.ndarray, ...]:
    """The variates of one von Mises-Fisher draw on S^(d-1) per row, d in
    {2, 3}, with the row's kappa ``_KAPPA_LADDER[comp]``: the angle from the
    center at d = 2; the cosine's uniform xi and the azimuth phi at d = 3."""
    if d == 2:
        # numpy's vonmises returns a uniform angle for kappa < 1e-8
        return (rng.vonmises(0.0, _KAPPA_LADDER[comp]),)
    return rng.random(comp.size), rng.uniform(0.0, 2.0 * math.pi, comp.size)


def _place_vmf(
    centers: np.ndarray, comp: np.ndarray, variates: tuple[np.ndarray, ...], out: np.ndarray
) -> None:
    """Write the vMF draws of ``_draw_vmf``'s variates on S^(d-1) into
    ``out`` (rows, d): one per row, around the row's unit center c with
    kappa ``_KAPPA_LADDER[comp]``; kappa = 0 is uniform. Each d gives the
    cosine cos_t from c and terms (a_i, t_i) with unit tangents t_i at c,
    and every draw is placed in one step, a column at a time, as
    cos_t c + sum_i a_i t_i, summed in index order. Temporaries are released
    after their last use, which keeps the row step's block peak
    (``_BLOCK_ROWS``) low."""
    c0, c1 = centers[:, 0], centers[:, 1]
    if centers.shape[1] == 2:
        # the angle from c, in the one tangent (-c_1, c_0)
        (angle,) = variates
        cos_t = np.cos(angle)
        terms = [(np.sin(angle), (-c1, c0))]
    else:
        # inverse CDF in the cosine, whose kappa -> 0 limit is 2 xi - 1, and a
        # uniform azimuth in the frame t1 = c x a / |c x a|, t2 = c x t1, where
        # the axis a is e_0 unless |c_0| >= 0.9, then e_1
        xi, phi = variates
        kappa = _KAPPA_LADDER[comp]
        with np.errstate(divide="ignore", invalid="ignore"):
            cos_t = np.where(
                kappa > 0.0,
                1.0 + np.log(xi + (1.0 - xi) * np.exp(-2.0 * kappa)) / kappa,
                2.0 * xi - 1.0,
            )
        cos_t = np.clip(cos_t, -1.0, 1.0)
        del kappa
        sin_t = np.sqrt(1.0 - cos_t * cos_t)
        c2 = centers[:, 2]
        first = np.abs(c0) < 0.9
        t1 = (np.where(first, 0.0, -c2), np.where(first, c2, 0.0), np.where(first, -c1, c0))
        norm = np.sqrt(_sum(v * v for v in t1))
        t1 = tuple(v / norm for v in t1)
        del first, norm
        t2 = (c1 * t1[2] - c2 * t1[1], c2 * t1[0] - c0 * t1[2], c0 * t1[1] - c1 * t1[0])
        a1, a2 = np.cos(phi), np.sin(phi)
        a1 *= sin_t
        a2 *= sin_t
        del sin_t
        terms = [(a1, t1), (a2, t2)]
    for j in range(centers.shape[1]):
        np.multiply(cos_t, centers[:, j], out=out[:, j])
        for a, t in terms:
            out[:, j] += a * t[j]


def _log_vmf_norm(kappa: float, d: int) -> float:
    """log c_kappa, with kappa (cos - 1) + log c_kappa the log vMF density
    w.r.t. the surface measure of S^(d-1), d in {2, 3}."""
    if d == 2:
        return -np.log(2.0 * math.pi * special.i0e(kappa))
    return math.log(kappa) - math.log(2.0 * math.pi) - math.log1p(-math.exp(-2.0 * kappa))


# exp(-40) * 0.5 / 16 is about 1e-19, under half an ulp (3.5e-18 at d = 3,
# 6.9e-18 at d = 2) of the defensive term 0.5 / sigma_d that the density
# starts from; a vMF term whose exponent lies below this rounds away
_NEGLIGIBLE_EXPONENT = -40.0

# (kappa, log c_kappa) per kappa in _VMF_KAPPAS, for each d in {2, 3}
_VMF_TERMS = {d: tuple((kappa, _log_vmf_norm(kappa, d)) for kappa in _VMF_KAPPAS) for d in (2, 3)}


def _log_mixture_density(cos_angle: np.ndarray, d: int, sigma_d: float) -> np.ndarray:
    """log of the defensive vMF mixture density at cos(u_i, u_0), per row;
    ``sigma_d`` is the surface area of S^(d-1).

    The sum starts at the uniform term and adds the 16 vMF terms in kappa
    order. A term whose exponent kappa (cos - 1) + log c_kappa lies below
    ``_NEGLIGIBLE_EXPONENT`` is under half an ulp of the sum, so leaving it
    out changes no bit; each kappa is evaluated only on the rows above its
    cut in cos - 1, where its exponent reaches ``_NEGLIGIBLE_EXPONENT``. With
    the rows sorted by cosine once, those rows are a suffix. Each row's
    value does not depend on the other rows.
    """
    order = np.argsort(cos_angle)
    t = cos_angle[order] - 1.0
    dens = np.full(t.shape, _MIX_PROBS[0] / sigma_d)
    for c, (kappa, log_norm) in enumerate(_VMF_TERMS[d], start=1):
        lo = np.searchsorted(t, (_NEGLIGIBLE_EXPONENT - log_norm) / kappa)
        dens[lo:] += _MIX_PROBS[c] * np.exp(kappa * t[lo:] + log_norm)
    log_dens = np.empty_like(dens)
    log_dens[order] = np.log(dens)
    return log_dens


# a sphere point u_1..u_m of every row of a chunk: its component index, then
# its vMF variates from _draw_vmf
_SpherePoint = tuple[np.ndarray, ...]


def _draw_sphere(
    rng: np.random.Generator, size: int, m: int, d: int
) -> tuple[np.ndarray, list[_SpherePoint]]:
    """The draw step: every variate of ``size`` rows' m + 1 sphere points,
    in stream order. First the (size, d) normals whose directions are u_0,
    then per sphere point u_1..u_m each row's mixture component, stored as
    ``uint8`` and drawn from ``_MIX_PROBS``, and its ``_draw_vmf`` variates.
    The bump's r and y variates follow these in the stream (``_bp_chunk``).

    u_0 is uniform; u_1..u_m come from a half-uniform, half-vMF(u_0) mixture
    over a ladder of concentrations, which keeps the weights bounded near the
    aligned configurations where the parameter-space integrand blows up.
    Component 0 is the uniform one, kappa = 0 in ``_KAPPA_LADDER``.
    """
    raw = rng.standard_normal((size, d))
    points = []
    for _ in range(m):
        # the inverse CDF of _MIX_PROBS, whose cumulative sums 1/2 + j/32 are
        # exact binary fractions: Generator.choice's components to the bit,
        # from the same one double per row, without its bin search
        comp = np.maximum(np.floor(32.0 * rng.random(size)) - 15.0, 0.0).astype(np.uint8)
        points.append((comp, *_draw_vmf(rng, comp, d)))
    return raw, points


def _sphere_rows(
    raw: np.ndarray, points: list[_SpherePoint], rows: slice, sigma_d: float
) -> tuple[np.ndarray, np.ndarray]:
    """The sphere points of ``rows`` from ``_draw_sphere``'s variates, u
    (rows, m+1, d), and their log proposal density log q(u): u_0's uniform
    density 1 / sigma_d times each u_i's mixture density at cos(u_i, u_0)."""
    centers = raw[rows]
    count, d = centers.shape
    # column-major, so each u[:, i, j] that the row step reads or writes is
    # one contiguous column
    u = np.empty((count, len(points) + 1, d), order="F")
    u[:, 0] = centers / np.sqrt(_sum(centers.T * centers.T))[:, None]
    log_q = np.full(count, -math.log(sigma_d))
    for i, (comp, *variates) in enumerate(points, start=1):
        _place_vmf(u[:, 0], comp[rows], tuple(v[rows] for v in variates), u[:, i])
        log_q += _log_mixture_density(_sum(u[:, i].T * u[:, 0].T), d, sigma_d)
    return u, log_q


def _log_simplex_volume(u: np.ndarray) -> np.ndarray:
    """log m! Vol_m(u'), per row: ``u`` (N, m+1, d) holds each row's m + 1
    unit vectors and u' is their first m coordinates, so m! Vol_m(u') is
    |det(u'_i - u'_0)| (1 for m = 0), written out for m = 1 and m = 2. A
    degenerate u' gives -inf.
    """
    m = u.shape[1] - 1
    if m == 1:
        vol = np.abs(u[:, 1, 0] - u[:, 0, 0])
    elif m == 2:
        a, b = u[:, 1, 0] - u[:, 0, 0], u[:, 1, 1] - u[:, 0, 1]
        c, d = u[:, 2, 0] - u[:, 0, 0], u[:, 2, 1] - u[:, 0, 1]
        vol = np.abs(a * d - b * c)
    else:
        vol = np.abs(np.linalg.det(u[:, 1:, :m] - u[:, :1, :m]))
    with np.errstate(divide="ignore"):
        return np.log(vol)


def _centroid_spread(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = sum_i u_i[:m] and delta = sum_i |u_i - (s / (m + 1), 0)|^2 per
    row of ``u`` (N, m+1, d), each row's m + 1 unit vectors.

    delta = (m + 1) - |s|^2 / (m + 1) cancels as the points close up. Its
    error is at most (m + 1)(3m + 17) u, u the unit roundoff: (3m + 1)(m + 1) u
    from rounding s, |s|^2 <= (m + 1)^2 and the division, and 16 u per point
    for the sampler's |u_i|^2 - 1. A row where that bound exceeds sqrt(u)
    delta, half of delta's digits, is recomputed without cancellation. At
    m = 0, delta is 1 exactly.
    """
    m = u.shape[1] - 1
    s = _sum(u[:, :, :m].swapaxes(0, 1))
    delta = (m + 1) - _sum(s.T * s.T, np.zeros(len(u))) / (m + 1)
    low = np.flatnonzero(delta < (m + 1) * (3 * m + 17) * math.sqrt(np.finfo(float).eps / 2))
    dev = u[low]
    dev[:, :, :m] -= s[low, None, :] / (m + 1)
    delta[low] = _sum(_sum((dev * dev).T))
    return s, delta


# rows per block of a bp chunk's row step. A row's weight does not depend
# on the other rows, so the block size changes no bit. A block's tracemalloc
# peak is 161 bytes a row for the (3,2,2) Gaussian, 2.6 MB a block, and at
# most 440 (7.2 MB), for the (3,3,3) bump
_BLOCK_ROWS = 2**14


def _row_weights(
    raw: np.ndarray,
    points: list[_SpherePoint],
    rows: slice,
    n: int,
    k: int,
    sigma_d: float,
    grass: float,
    bump_draws: tuple[np.ndarray, np.ndarray] | None,
) -> np.ndarray:
    """The row step: the weights at ``rows`` of ``_draw_sphere``'s variates,
    the Gaussian's if ``bump_draws`` is None, else the bump's.

    sum_i |x_i|^2 = delta r^2 + (m + 1) |y + r s / (m + 1)|^2, so the
    Gaussian's r and y integrals are int r^alpha e^(-delta r^2) dr =
    Gamma(a_r) / (2 delta^a_r) and (pi / (m + 1))^(k/2); a row with
    delta = 0 has coincident points and gets a non-finite weight.

    The bump draws r and y from the conditionals of exp(-lam sum_i |x_i|^2),
    whose second moment per point, n / (2 lam), is the bump's n / (n + 6):
    ``bump_draws`` holds every row's standard-Gamma(a_r) variate, which
    divided by lam delta is r^2 = g, and the k normals z that give y. Its
    weight is the Gaussian one times lam^-(a_r + k/2) f(x) exp(lam sum_i
    |x_i|^2), and exp(lam delta g + |z|^2 / 2) is exp(lam sum_i |x_i|^2).
    Each row's m-plane is the span of the first m slice axes, so point i
    sits at r (u_i[:m], 0, u_i[m:]) + (y, 0).
    """
    m = len(points)
    a_r = (n * (m + 1) - k) / 2.0
    u, log_q = _sphere_rows(raw, points, rows, sigma_d)
    s, delta = _centroid_spread(u)
    # a bump row with delta = 0 has g = inf and u_i = u_0, so r u_i[m:] may be nan
    with np.errstate(divide="ignore", invalid="ignore"):
        log_w = (
            (k - m + 1) * _log_simplex_volume(u)
            - log_q
            + math.log(grass)
            + (math.lgamma(a_r) - math.log(2.0) - a_r * np.log(delta))
            + k / 2.0 * math.log(math.pi / (m + 1))
        )
        if bump_draws is None:
            return np.exp(log_w)
        lam = (n + 6) / 2.0
        gam, z = (v[rows] for v in bump_draws)
        # numpy's gamma(a_r, scale) is scale * standard_gamma(a_r), row by row
        g = gam * (1.0 / (lam * delta))
        r = np.sqrt(g)
        y = z / math.sqrt(2.0 * lam * (m + 1))
        y[:, :m] -= (r / (m + 1))[:, None] * s
        x = np.zeros((len(u), m + 1, n))
        x[:, :, :m] = r[:, None, None] * u[:, :, :m]
        x[:, :, k:] = r[:, None, None] * u[:, :, m:]
        x[:, :, :k] += y[:, None, :]
        fx = _bump_f(x)
        log_w = log_w - (a_r + k / 2.0) * math.log(lam) + lam * delta * g
        log_w = log_w + 0.5 * _sum(z.T * z.T)
        return np.where(fx > 0, fx * np.exp(log_w), 0.0)


def _usable_cpus() -> int:
    """CPUs this process may run on; all of them where the platform cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_stream(seed: int, index: int) -> np.random.Generator:
    """Chunk ``index``'s own stream: the seed's Philox stream jumped ``index``
    times, so chunk 0 draws the key's own stream. Philox is counter-based,
    so the streams do not overlap."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(index))


def _bp_chunk(
    seed: int,
    index: int,
    size: int,
    n: int,
    k: int,
    m: int,
    bump: bool,
    sigma_d: float,
    grass: float,
) -> _Record:
    """The record (``_moments``) of the right-side weights of bp chunk
    ``index``'s ``size`` rows. Every variate is drawn whole from the chunk's
    stream (``_chunk_stream``), in stream order: the sphere's
    (``_draw_sphere``), then for the bump each row's standard-Gamma(a_r)
    variate and k normals. The rows are then weighed in blocks of
    ``_BLOCK_ROWS`` (``_row_weights``) into one weight array."""
    rng = _chunk_stream(seed, index)
    raw, points = _draw_sphere(rng, size, m, m + n - k)
    a_r = (n * (m + 1) - k) / 2.0
    bump_draws = (rng.standard_gamma(a_r, size), rng.standard_normal((size, k))) if bump else None
    w = np.empty(size)
    for lo in range(0, size, _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        w[rows] = _row_weights(raw, points, rows, n, k, sigma_d, grass, bump_draws)
    return _moments(w)


def _chunked_record(samples: int, chunk: int, record: Callable[[int, int], _Record]) -> _Record:
    """The merged record of ``samples`` rows in chunks of ``chunk`` rows:
    ``record(index, size)`` gives chunk ``index``'s record, drawn from the
    chunk's own stream (``_chunk_stream``). The chunks run on the thread
    pool (``_pool_map``), one task each, and their records are folded in
    chunk order (``_merge_moments``), so the bits do not depend on the
    number of workers.
    """
    sizes = [min(chunk, samples - lo) for lo in range(0, samples, chunk)]
    records = _pool_map(record, range(len(sizes)), sizes)
    return functools.reduce(_merge_moments, records, (0, 0.0, 0.0, 0, 0.0))


def verify_bp_identity(
    n: int,
    k: int,
    m: int,
    test_function: str = "gaussian",
    samples: int = 10**6,
    seed: int = 0,
    chunk: int = 200_000,
) -> BPCheck:
    """Estimate the right side of the sphere-parametrization identity.

    Left: the integral of f over (R^n)^(m+1), a product of one-point
    integrals that ``_analytic_integral`` gives in closed form for both test
    functions, so that side is exact and draws nothing.
    Right: an integral over (y, P, r, u) with the Jacobian
    r^alpha [m! Vol_m(u')]^(k-m+1), u drawn from a defensive sphere mixture
    (which keeps the weights bounded). The slice's rotations leave the
    weight's law unchanged, so P is the fixed span of the first m slice
    axes and the Grassmannian enters only as its volume ``grass`` (1 for
    m = k). The Gaussian integrates r and y in closed form and draws nothing
    more; only the bump draws them, from the generalized-Gamma and Gaussian
    conditionals given u, as standard-Gamma and normal variates drawn after
    the sphere's and scaled in the row step.

    The rows are drawn in chunks of ``chunk`` rows. Chunk i draws from its
    own stream, ``Philox(key=seed).jumped(i)``, so chunk 0 draws the key's
    own stream and a one-chunk run is the serial run. Each chunk is one
    task, ``_bp_chunk``, on a thread pool of ``min(chunks, usable CPUs)``
    workers: it draws the chunk's variates whole, in stream order, weighs
    its rows in blocks of ``_BLOCK_ROWS`` with the one row step of both test
    functions, and gives the chunk's record, its weights' moments,
    non-finite count and largest weight. The records are merged in chunk
    order (``_chunked_record``), so the output bits do not depend on the
    number of workers. Up to m = 2 the row step calls no BLAS, so they do
    not depend on the number of BLAS threads either. ``sigma_d`` and
    ``grass`` are computed here once, so that a worker calls no public
    function of the package.

    The right CI is a 95% normal interval whose variance comes from
    per-chunk two-pass moments merged with the Chan-Golub-LeVeque update, so
    it does not cancel when the weights are nearly constant (the m = 0
    Gaussian weights are constant and give a zero-width CI). The verdict
    ``BPCheck.passed`` is "the right CI, widened by a rounding allowance,
    covers the exact left value". The right side's weight health is its
    Kish effective sample size, its count of non-finite weights and the
    largest weight's share of the weights' sum.
    """
    if not 0 <= m <= k <= n:
        raise ValueError(f"need 0 <= m <= k <= n, got ({n}, {k}, {m})")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if chunk < 1:
        raise ValueError(f"chunk must be at least 1, got {chunk}")
    d = m + n - k
    if d < 2 or (m >= 1 and d > 3):
        raise ValueError(f"sphere dimension d = m+n-k = {d} is outside the supported range")
    if test_function not in ("gaussian", "bump"):
        raise ValueError(f"unknown test function {test_function!r}")
    bump = test_function == "bump"
    analytic = _analytic_integral(test_function, n, m)
    grass = constants.grassmannian_volume(m, k)
    sigma_d = constants.sphere_surface(d)

    chunk_record = functools.partial(_bp_chunk, seed, n=n, k=k, m=m, bump=bump,
                                     sigma_d=sigma_d, grass=grass)
    _, right, right_m2, right_nonfinite, right_max = _chunked_record(samples, chunk, chunk_record)
    half = 1.96 * math.sqrt(right_m2 / samples / samples)
    right_ci = (right - half, right + half)
    # Kish effective sample size (sum w)^2 / sum w^2 = n mean^2 / (mean^2 + M2 / n)
    mean_sq = right * right
    right_ess = samples / (1.0 + right_m2 / samples / mean_sq) if mean_sq > 0.0 else 0.0
    right_sum = right * samples
    right_max_share = right_max / right_sum if right_sum > 0.0 else 0.0
    return BPCheck(
        n=n, k=k, m=m, test_function=test_function, samples=samples, left=analytic,
        right=right, right_ci=right_ci, analytic=analytic, right_ess=right_ess,
        right_nonfinite=right_nonfinite, right_max_share=right_max_share,
    )


# ---------------------------------------------------------------------------
# further identity checks


@dataclass
class AngleIntegralCheck:
    n: int
    quadrature: float
    closed_form: float
    abs_error: float

    @property
    def passed(self) -> bool:
        return self.abs_error <= 1e-8


def verify_angle_integral(n: int) -> AngleIntegralCheck:
    """Adaptive quadrature of the two-angle integral against its closed form.

    The integral of (sin a sin b)^(n-2) |cos b - cos a| over [0, pi/2)^2; the
    absolute value is removed by splitting along the diagonal.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")

    def integrand(b: float, a: float) -> float:
        return (math.sin(a) * math.sin(b)) ** (n - 2) * (math.cos(b) - math.cos(a))

    half, _ = integrate.dblquad(integrand, 0.0, math.pi / 2.0, 0.0, lambda a: a,
                                epsabs=1e-12, epsrel=1e-12)
    quadrature = 2.0 * half
    closed = math.sqrt(math.pi) / (n - 1.0) * constants.angle_bracket(n)
    return AngleIntegralCheck(
        n=n, quadrature=quadrature, closed_form=closed, abs_error=abs(quadrature - closed)
    )


@dataclass
class GammaLemmaCheck:
    draws: int
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


def _radius_share(shape: float, n: int, c: float, r0: float) -> float:
    """Quadrature of the radius density n c^s/Gamma(s) exp(-c t^n) t^(ns-1) over [0, r0]."""
    # QUADPACK's QAWS takes the endpoint factor t^(ns - 1) as its weight
    integral, _ = integrate.quad(
        lambda t: math.exp(-c * t**n), 0.0, r0, weight="alg", wvar=(n * shape - 1.0, 0.0),
        epsabs=0.0, epsrel=1e-12, limit=200,
    )
    return n * math.exp(shape * math.log(c) - math.lgamma(shape)) * integral


def verify_gamma_lemma(draws: int = 100, seed: int = 0) -> GammaLemmaCheck:
    """Check the census's expectations against quadrature of the radius density.

    Each draw takes n in 2..8, k in {1, 2} below n, an interval type, a
    simplex dimension j, a density, an area and an r0 with rho nu_n r0^n up
    to 3 s + 1 for the type's Gamma shape s. ``expected_interval_count`` and
    ``expected_simplex_count``, whose Gamma fraction is the Gamma lemma, must
    match their constants times the quadrature to 1e-9 relative.
    """
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    rng = _chunk_stream(seed, 0)
    worst = 0.0
    for _ in range(draws):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(n - 1, 2) + 1))
        types = constants.valid_interval_types(k)
        t = types[int(rng.integers(len(types)))]
        j = int(rng.integers(k + 1))
        rho = float(rng.uniform(0.2, 3.0))
        area = float(rng.uniform(0.5, 2.0))
        c = rho * constants.ball_volume(n)
        r0 = (float(rng.uniform(0.05, 3.0 * (t.m + 1.0 - k / n) + 1.0)) / c) ** (1.0 / n)
        share = [_radius_share(m + 1.0 - k / n, n, c, r0) for m in range(k + 1)]
        terms = (math.comb(m - ell, m - j) * constants.interval_constant((ell, m), k, n) * share[m]
                 for m in range(j, k + 1) for ell in range(j + 1))
        simplex = _sum(terms, 0)
        for expected, direct in [
            (constants.expected_interval_count(t, k, n, rho, area, r0),
             constants.interval_constant(t, k, n) * share[t.m]),
            (constants.expected_simplex_count(j, k, n, rho, area, r0), simplex),
        ]:
            worst = max(worst, abs(expected / (direct * rho ** (k / n) * area) - 1.0))
    return GammaLemmaCheck(draws=draws, max_rel_error=worst, tolerance=1e-9)


@dataclass
class BetaLawCheck:
    n: int
    k: int
    samples: int
    p_half_dims: float  # Beta(k/2, (n-k)/2): the chi-square-derived parameters
    p_fraction_dims: float  # Beta(k/n, (n-k)/n): rejected by the data

    @property
    def passed(self) -> bool:
        return self.p_half_dims > 0.01 and self.p_fraction_dims < 0.01


def verify_beta_projection_law(
    n: int, k: int, samples: int = 20_000, seed: int = 0
) -> BetaLawCheck:
    """Law of the squared norm of a projected uniform sphere point.

    Writing r^2 = X / (X + Y) with chi-square X, Y of k and n-k degrees of
    freedom gives Beta(k/2, (n-k)/2); the sampling test confirms those
    parameters and rejects the Beta(k/n, (n-k)/n) alternative. At n = 2 the
    two laws coincide, so no sample can tell them apart and n = 2 is refused.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if n == 2:
        raise ValueError(
            "n = 2 cannot be checked: Beta(k/2, (n-k)/2) and the alternative "
            "Beta(k/n, (n-k)/n) are the same Beta(1/2, 1/2)"
        )
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    x = _chunk_stream(seed, 0).standard_normal((samples, n))
    x /= np.sqrt(_sum(x.T * x.T))[:, None]
    head = x[:, :k].T
    r2 = _sum(head * head)

    return BetaLawCheck(
        n=n,
        k=k,
        samples=samples,
        p_half_dims=_ks_uniform_pvalue(special.betainc(k / 2.0, (n - k) / 2.0, r2)),
        p_fraction_dims=_ks_uniform_pvalue(special.betainc(k / n, (n - k) / n, r2)),
    )


# ---------------------------------------------------------------------------
# exact count reconciliation


@dataclass
class ReconcileResult:
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def reconcile_simplex_counts(report: ExperimentReport) -> ReconcileResult:
    """Exact per-replicate audit of the census: at each threshold r0, for every j,
    simplex_counts(r0)[j] = sum of binom(m - ell, m - j) interval_counts(r0)[ell, m].
    The thresholds are 1/4, 1/2 and 1 times the largest interval radius (1 when
    there is none) and infinity. A failure message pinpoints the replicate."""
    rmax = max(
        (float(np.max(r.interval_radii)) for r in report.records if len(r.interval_radii)),
        default=1.0,
    )
    thresholds = (0.25 * rmax, 0.5 * rmax, rmax, math.inf)
    failures = []
    for rec in report.records:
        for r0 in thresholds:
            intervals, simplices = rec.interval_counts(r0), rec.simplex_counts(r0)
            for j in range(report.cfg.k + 1):
                got = simplices.get(j, 0)
                terms = (math.comb(m - ell, m - j) * count
                         for (ell, m), count in intervals.items() if m >= j)
                predicted = _sum(terms, 0)
                if got != predicted:
                    failures.append(
                        f"replicate {rec.replicate}, r0={r0}: dimension {j} has "
                        f"{got} simplices but intervals predict {predicted}"
                    )
    return ReconcileResult(failures=failures)
