"""Monte Carlo estimation and statistical verification.

Covers: empirical interval/simplex rates against their closed-form
predictions, the Gamma law of interval radii (Kolmogorov-Smirnov), the
sphere-parametrization integral identity checked from both sides, the
two-angle integral against its closed form, the power-exponential integral
identity on random parameter draws, the Beta law of projected sphere points,
and the exact per-replicate reconciliation of simplex counts with interval
counts.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import integrate, special, stats

from . import constants, sampler, specfun
from .constants import SCHEMA_VERSION, DimensionConfig
from .errors import InsufficientSampleError
from .geomcore import lower_hull, radius_and_intervals, slice_cloud

__all__ = [
    "ReplicateRecord",
    "RateEstimate",
    "ExperimentReport",
    "run_replicate",
    "estimate_interval_rates",
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
        types = self.interval_types[self.interval_in_window & (self.interval_radii <= r0)]
        if len(types) == 0:
            return {}
        base = int(types.max()) + 1
        counts = np.bincount(types[:, 0] * base + types[:, 1])
        return {divmod(code, base): int(counts[code]) for code in np.flatnonzero(counts).tolist()}

    def simplex_counts(self, r0: float = math.inf) -> dict[int, int]:
        """In-window simplices of radius at most r0, per dimension present."""
        dims = self.simplex_dims[self.simplex_in_window & (self.simplex_radii <= r0)]
        counts = np.bincount(dims)
        return {j: int(counts[j]) for j in np.flatnonzero(counts).tolist()}


@dataclass
class RateEstimate:
    """Empirical rate per unit rho^(k/n) * |R| against its prediction."""

    label: str
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


def _window_mask(anchors: np.ndarray, window: tuple[tuple[float, float], ...]) -> np.ndarray:
    anchors = np.atleast_2d(anchors)
    mask = np.ones(anchors.shape[0], dtype=bool)
    for axis, (lo, hi) in enumerate(window):
        mask &= (anchors[:, axis] >= lo) & (anchors[:, axis] < hi)
    return mask


def run_replicate(cfg: sampler.SamplingConfig, replicate: int) -> ReplicateRecord:
    """Sample, slice, build the mosaic, and record every interval and simplex.

    The same three steps for every k: the slice's projections and weights,
    their lifted lower hull, and its interval decomposition. Only an empty
    sample gives an empty record.
    """
    points = sampler.sample_poisson_box(dataclasses.replace(cfg, replicate_index=replicate))
    if len(points) == 0:
        return _empty_record(replicate, 0)
    y, w = slice_cloud(points, cfg.k)
    mosaic = radius_and_intervals(y, w, lower_hull(y, w), window=cfg.window)
    simplex_in_window = _window_mask(mosaic.anchors, cfg.window)
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


def _empty_record(replicate: int, num_points: int) -> ReplicateRecord:
    return ReplicateRecord(
        replicate=replicate,
        num_points=num_points,
        interval_types=np.empty((0, 2), dtype=int),
        interval_radii=np.empty(0),
        interval_in_window=np.empty(0, dtype=bool),
        simplex_dims=np.empty(0, dtype=int),
        simplex_radii=np.empty(0),
        simplex_in_window=np.empty(0, dtype=bool),
    )


def estimate_interval_rates(
    cfg: sampler.SamplingConfig,
    replicates: int,
    r0: float | None = None,
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
    threshold = math.inf if r0 is None else float(r0)
    recommended = sampler.choose_buffer(cfg, sampler.DEFAULT_BUFFER_QUANTILE)
    if cfg.buffer < recommended:
        warnings.warn(
            f"buffer {cfg.buffer:.3g} is below the recommended {recommended:.3g}; "
            "window counts may be biased by the truncated sample",
            stacklevel=2,
        )
    dim_cfg = DimensionConfig(n=cfg.n, k=cfg.k, rho=cfg.rho)
    area = cfg.window_volume
    norm = cfg.rho ** (cfg.k / cfg.n) * area
    # the predictions first, so that dimensions with no constants fail
    # before any replicate is sampled
    types = constants.valid_interval_types(cfg.k)
    interval_predicted = [
        constants.expected_interval_count(t, dim_cfg, area, threshold) / norm for t in types
    ]
    simplex_predicted = [
        constants.expected_simplex_count(j, dim_cfg, area, threshold) / norm
        for j in range(cfg.k + 1)
    ]

    start = time.perf_counter()
    records = [run_replicate(cfg, rep) for rep in range(replicates)]
    interval_counts = [rec.interval_counts(threshold) for rec in records]
    simplex_counts = [rec.simplex_counts(threshold) for rec in records]
    interval_rates = []
    for t, predicted in zip(types, interval_predicted):
        counts = np.array([c.get((t.ell, t.m), 0) for c in interval_counts], dtype=float)
        interval_rates.append(_rate_estimate(f"interval({t.ell},{t.m})", t.ell, t.m, counts, norm, predicted))
    simplex_rates = []
    for j, predicted in enumerate(simplex_predicted):
        counts = np.array([c.get(j, 0) for c in simplex_counts], dtype=float)
        simplex_rates.append(_rate_estimate(f"simplex-{j}", j, j, counts, norm, predicted))

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


def json_text(payload: dict) -> str:
    """A JSON document with sorted keys and two-space indent, newline-terminated."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def report_to_json(report: ExperimentReport) -> str:
    """Serialize a report with versioned keys; byte-stable for fixed inputs
    (volatile fields such as the runtime are omitted)."""

    def row(rate: RateEstimate) -> dict:
        fields = dataclasses.asdict(rate)
        del fields["label"]
        fields["z"] = rate.z if math.isfinite(rate.z) else None
        return fields

    cfg = report.cfg
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "simulate",
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
    return json_text(payload)


def csv_text(rows: Sequence[Sequence]) -> str:
    """CSV_HEADER and one line per row of cells: floats by ``repr`` (round-trip
    exact), ``""`` as an empty cell, anything else by ``str``."""
    lines = [CSV_HEADER]
    for cells in rows:
        lines.append(",".join(
            "" if cell == "" else repr(cell) if isinstance(cell, float) else str(cell)
            for cell in cells
        ))
    return "\n".join(lines) + "\n"


def report_to_csv(report: ExperimentReport) -> str:
    """One row per interval type and simplex dimension, fixed column order."""
    return csv_text([
        (kind, r.ell, r.m, r.count_mean, r.rate, r.se, r.predicted, r.z)
        for kind, rates in (("interval", report.interval_rates), ("simplex", report.simplex_rates))
        for r in rates
    ])


def _rate_estimate(
    label: str, ell: int, m: int, counts: np.ndarray, norm: float, predicted: float
) -> RateEstimate:
    mean = float(np.mean(counts))
    se = float(np.std(counts, ddof=1) / math.sqrt(len(counts))) if len(counts) > 1 else 0.0
    rate = mean / norm
    se_rate = se / norm
    z = (rate - predicted) / se_rate if se_rate > 0 else math.nan
    return RateEstimate(
        label=label, ell=ell, m=m, count_mean=mean, rate=rate, se=se_rate,
        predicted=predicted, z=z,
    )


def ks_gamma_test(radii: np.ndarray, shape: float, rate_scale: float, n: int) -> float:
    """Kolmogorov-Smirnov p-value of interval radii against their Gamma law.

    Transforms each radius r to P(shape, rate_scale * r^n), which is uniform
    on [0, 1] under the hypothesis that rate_scale * r^n is
    Gamma(shape)-distributed, then applies a one-sample KS test. The
    regularized lower incomplete Gamma function P is evaluated for all radii
    in one ``scipy.special.gammainc`` call.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size < 100:
        raise InsufficientSampleError(f"need at least 100 radii, got {radii.size}")
    if not (math.isfinite(shape) and shape > 0.0):
        raise ValueError(f"shape parameter must be positive and finite, got {shape}")
    scaled = rate_scale * radii**n
    if not np.all(np.isfinite(scaled) & (scaled >= 0.0)):
        raise ValueError("rate_scale * r^n must be finite and non-negative for every radius")
    transformed = special.gammainc(shape, scaled)
    return float(stats.kstest(transformed, "uniform").pvalue)


# ---------------------------------------------------------------------------
# sphere-parametrization identity


def _bump_f(x: np.ndarray) -> np.ndarray:
    # compactly supported product bump: prod_i max(0, 1 - |x_i|^2)^2
    g = np.maximum(0.0, 1.0 - np.einsum("cij,cij->ci", x, x))
    return np.prod(g * g, axis=1)


def _analytic_integral(kind: str, n: int, m: int) -> float:
    if kind == "gaussian":
        return math.pi ** (n * (m + 1) / 2.0)
    # int_{|x|<1} (1-|x|^2)^2 dx = sigma_n * B(n/2, 3) / 2, per point
    single = constants.sphere_surface(n) * special.beta(n / 2.0, 3.0) / 2.0
    return single ** (m + 1)


@dataclass
class BPCheck:
    """Two-sided estimate of the sphere-parametrization identity."""

    n: int
    k: int
    m: int
    test_function: str
    samples: int
    left: float
    left_ci: tuple[float, float]
    right: float
    right_ci: tuple[float, float]
    analytic: float
    right_ess: float  # Kish effective sample size of the right side's weights
    right_nonfinite: int  # right-side weights that were not finite, counted as 0
    right_max_share: float  # the largest right-side weight over the sum of them

    @property
    def overlap(self) -> bool:
        lo = max(self.left_ci[0], self.right_ci[0])
        hi = min(self.left_ci[1], self.right_ci[1])
        return lo <= hi

    @property
    def right_covers_analytic(self) -> bool:
        return self.right_ci[0] <= self.analytic <= self.right_ci[1]


# (count, mean, M2), with M2 the sum of squared deviations from the mean
_Moments = tuple[int, float, float]


def _moments(vals: np.ndarray) -> _Moments:
    """Two-pass moments of one chunk; no sum of squares, so no cancellation."""
    mean = float(np.mean(vals))
    dev = vals - mean
    return vals.size, mean, float(np.dot(dev, dev))


def _merge_moments(a: _Moments, b: _Moments) -> _Moments:
    """Chan-Golub-LeVeque pairwise update of two chunks' moments."""
    n_a, mean_a, m2_a = a
    n_b, mean_b, m2_b = b
    count = n_a + n_b
    delta = mean_b - mean_a
    return (
        count,
        mean_a + delta * (n_b / count),
        m2_a + m2_b + delta * delta * (n_a * n_b / count),
    )


def _mean_ci(moments: _Moments) -> tuple[float, tuple[float, float]]:
    """Mean and 95% normal interval from merged moments."""
    count, mean, m2 = moments
    half = 1.96 * math.sqrt(m2 / count / count)
    return mean, (mean - half, mean + half)


_VMF_KAPPAS = tuple(4.0**j for j in range(1, 17))
# mixture weights: the uniform component, then one per kappa
_MIX_PROBS = np.array([0.5] + [0.5 / len(_VMF_KAPPAS)] * len(_VMF_KAPPAS))
# each component's concentration; the uniform component is kappa = 0
_KAPPA_LADDER = np.array((0.0,) + _VMF_KAPPAS)


def _sample_vmf(rng: np.random.Generator, centers: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """von Mises-Fisher draws on S^(d-1), d in {2, 3}: one per row, around the
    row's unit center with the row's own kappa; kappa = 0 draws uniformly."""
    count, d = centers.shape
    draws = np.empty((count, d))
    c0, c1 = centers[:, 0], centers[:, 1]
    if d == 2:
        # the angle from the center; numpy's vonmises returns a uniform angle
        # for kappa < 1e-8
        angle = rng.vonmises(0.0, kappa)
        cos_a, sin_a = np.cos(angle), np.sin(angle)
        draws[:, 0] = cos_a * c0 - sin_a * c1
        draws[:, 1] = sin_a * c0 + cos_a * c1
        return draws
    # inverse CDF in the cosine, whose kappa -> 0 limit is 2 xi - 1, and a
    # uniform azimuth in the frame t1 = c x a / |c x a|, t2 = c x t1, where
    # the axis a is e_0 unless |c_0| >= 0.9, then e_1
    xi = rng.random(count)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_t = np.where(
            kappa > 0.0,
            1.0 + np.log(xi + (1.0 - xi) * np.exp(-2.0 * kappa)) / kappa,
            2.0 * xi - 1.0,
        )
    cos_t = np.clip(cos_t, -1.0, 1.0)
    sin_t = np.sqrt(1.0 - cos_t * cos_t)
    phi = rng.uniform(0.0, 2.0 * math.pi, count)
    p, q = sin_t * np.cos(phi), sin_t * np.sin(phi)
    c2 = centers[:, 2]
    first = np.abs(c0) < 0.9
    t1 = (np.where(first, 0.0, -c2), np.where(first, c2, 0.0), np.where(first, -c1, c0))
    norm = np.sqrt(t1[0] * t1[0] + t1[1] * t1[1] + t1[2] * t1[2])
    t1 = tuple(v / norm for v in t1)
    t2 = (c1 * t1[2] - c2 * t1[1], c2 * t1[0] - c0 * t1[2], c0 * t1[1] - c1 * t1[0])
    for j, c in enumerate((c0, c1, c2)):
        draws[:, j] = cos_t * c + p * t1[j] + q * t2[j]
    return draws


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


def _log_mixture_density(cos_angle: np.ndarray, d: int) -> np.ndarray:
    """log of the defensive vMF mixture density at cos(u_i, u_0), per row.

    The sum starts at the uniform term and adds the 16 vMF terms in kappa
    order. A term whose exponent kappa (cos - 1) + log c_kappa lies below
    ``_NEGLIGIBLE_EXPONENT`` is under half an ulp of the sum, so leaving it
    out changes no bit; each kappa is evaluated only on the rows above its
    cut. With the rows sorted by cosine once, those rows are a suffix.
    """
    order = np.argsort(cos_angle)
    t = cos_angle[order] - 1.0
    dens = np.full(t.shape, _MIX_PROBS[0] / constants.sphere_surface(d))
    for c, kappa in enumerate(_VMF_KAPPAS, start=1):
        log_norm = _log_vmf_norm(kappa, d)
        lo = np.searchsorted(t, (_NEGLIGIBLE_EXPONENT - log_norm) / kappa)
        dens[lo:] += _MIX_PROBS[c] * np.exp(kappa * t[lo:] + log_norm)
    log_dens = np.empty_like(dens)
    log_dens[order] = np.log(dens)
    return log_dens


def _sphere_mixture(
    rng: np.random.Generator, chunk: int, m: int, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample m+1 sphere points per row and return them with log q(u).

    u_0 is uniform; u_1..u_m come from a half-uniform, half-vMF(u_0) mixture
    over a ladder of concentrations, which keeps the weights bounded near the
    aligned configurations where the parameter-space integrand blows up.

    Each sphere point is one pass: every row draws its component, then one
    vMF draw with that component's kappa from ``_KAPPA_LADDER``, where
    kappa = 0 is the uniform component.
    """
    u = np.empty((chunk, m + 1, d))
    raw = rng.standard_normal((chunk, d))
    u[:, 0] = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    log_q = np.full(chunk, -math.log(constants.sphere_surface(d)))
    for i in range(1, m + 1):
        kappa = _KAPPA_LADDER[rng.choice(len(_KAPPA_LADDER), size=chunk, p=_MIX_PROBS)]
        draw = _sample_vmf(rng, u[:, 0], kappa)
        u[:, i] = draw
        log_q += _log_mixture_density(np.einsum("cj,cj->c", draw, u[:, 0]), d)
    return u, log_q


def _log_sphere_jacobian(r: np.ndarray, u: np.ndarray, k: int, n: int) -> np.ndarray:
    """log of the sphere-parametrization Jacobian r^alpha [m! Vol_m(u')]^(k-m+1),
    alpha = n(m+1) - (k+1), of the map (y, r, u) -> (y + r u_0, ..., y + r u_m),
    per row.

    ``r`` is (N,) and ``u`` (N, m+1, d) holds each row's m + 1 unit vectors,
    with d = m + n - k; u' is their first m coordinates, so m! Vol_m(u') is
    |det(u'_i - u'_0)| (1 for m = 0), written out for m = 1 and m = 2. A
    degenerate u' gives -inf. For m = k = n this is the classical
    sphere-parametrization Jacobian with the full simplex volume.
    """
    m = u.shape[1] - 1
    e = u[:, 1:, :m] - u[:, :1, :m]
    if m == 1:
        vol = np.abs(e[:, 0, 0])
    elif m == 2:
        vol = np.abs(e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0])
    else:
        vol = np.abs(np.linalg.det(e))  # m! * Vol_m(u')
    with np.errstate(divide="ignore"):
        return (n * (m + 1) - (k + 1)) * np.log(r) + (k - m + 1) * np.log(vol)


def verify_bp_identity(
    n: int,
    k: int,
    m: int,
    test_function: str = "gaussian",
    samples: int = 10**6,
    seed: int = 0,
    chunk: int = 200_000,
) -> BPCheck:
    """Estimate both sides of the sphere-parametrization identity.

    Left: Monte Carlo over (R^n)^(m+1), importance-sampled by the product
    Gaussian. For the Gaussian test function f/q is the constant
    pi^(n(m+1)/2), so that side is the exact value and draws nothing.
    Right: Monte Carlo over (y, P, r, u) with the Jacobian
    r^alpha [m! Vol_m(u')]^(k-m+1); y and r are drawn from the exact Gaussian
    and generalized-Gamma conditionals given u (which keeps the weights
    bounded), P from the invariant Grassmannian measure, and u from a
    defensive sphere mixture. For m = k the Grassmannian integral is dropped.

    Each side's CI is a 95% normal interval whose variance comes from
    per-chunk two-pass moments merged with the Chan-Golub-LeVeque update, so
    it does not cancel when the weights are nearly constant. A side with
    constant weights (the Gaussian left side, the m = 0 right side) reports a
    zero-width CI; then ``BPCheck.overlap`` reduces to "the right CI covers
    the exact left value". The right side's weight health is its Kish
    effective sample size, its count of non-finite weights and the largest
    weight's share of the weights' sum.
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
    alpha = n * (m + 1) - (k + 1)
    a_r = (alpha + 1) / 2.0
    grass = constants.grassmannian_volume(m, k) if m < k else 1.0
    sd_y = 1.0 / math.sqrt(2.0 * (m + 1))

    analytic = _analytic_integral(test_function, n, m)
    rng = np.random.Generator(np.random.Philox(key=seed))
    # the Gaussian's left-side weight f/q is the constant pi^(n(m+1)/2), so
    # that side is exact and draws nothing
    left_mom = (0, 0.0, 0.0) if bump else (samples, analytic, 0.0)
    right_mom = (0, 0.0, 0.0)
    right_nonfinite = 0
    right_max = 0.0
    done = 0
    while done < samples:
        size = min(chunk, samples - done)
        done += size

        if bump:
            # left side: x ~ product Gaussian with density exp(-|x|^2) / pi^(n/2)
            x = rng.standard_normal((size, m + 1, n))
            x /= math.sqrt(2.0)
            log_q = -np.einsum("cij,cij->c", x, x) - (n * (m + 1) / 2.0) * math.log(math.pi)
            left_mom = _merge_moments(left_mom, _moments(_bump_f(x) * np.exp(-log_q)))

        # right side
        u_small, log_qu = _sphere_mixture(rng, size, m, d)
        if m < k:
            # an orthonormal k x m frame of a uniform m-plane in R^k
            frames = rng.standard_normal((size, k, m))
            if m == 1:
                frames /= np.linalg.norm(frames, axis=1, keepdims=True)
            else:
                frames, _ = np.linalg.qr(frames)
            u_first_k = np.einsum("cij,ckj->cki", frames, u_small[:, :, :m])
            u_full = np.concatenate([u_first_k, u_small[:, :, m:]], axis=2)
        else:
            u_full = u_small

        # sum over the m + 1 points, added in order like a reduction over axis 1
        s_k = u_full[:, 0, :k].copy()
        for i in range(1, m + 1):
            s_k += u_full[:, i, :k]
        delta = np.maximum((m + 1) - np.einsum("cj,cj->c", s_k, s_k) / (m + 1), 1e-12)
        g = rng.gamma(a_r, 1.0 / delta)
        r = np.sqrt(g)
        log_qr = (
            math.log(2.0)
            + a_r * np.log(delta)
            + alpha * np.log(r)
            - delta * g
            - math.lgamma(a_r)
        )
        z = rng.standard_normal((size, k))
        y = sd_y * z - (r / (m + 1))[:, None] * s_k
        log_qy = -k / 2.0 * math.log(2.0 * math.pi * sd_y**2) - 0.5 * np.einsum("cj,cj->c", z, z)

        with np.errstate(invalid="ignore"):
            log_w = (
                _log_sphere_jacobian(r, u_small, k, n)
                - log_qu
                - log_qr
                - log_qy
                + math.log(grass)
            )
            if bump:
                x_right = r[:, None, None] * u_full
                x_right[:, :, :k] += y[:, None, :]
                fx = _bump_f(x_right)
                w = np.where(fx > 0, fx * np.exp(log_w), 0.0)
            else:
                # sum_i |r u_i + (y, 0)|^2 with |u_i| = 1
                yy = np.einsum("cj,cj->c", y, y)
                ys = np.einsum("cj,cj->c", y, s_k)
                w = np.exp(log_w - ((m + 1) * (r * r + yy) + 2.0 * r * ys))
        finite = np.isfinite(w)
        right_nonfinite += size - int(np.count_nonzero(finite))
        w = np.where(finite, w, 0.0)
        right_max = max(right_max, float(np.max(w)))
        right_mom = _merge_moments(right_mom, _moments(w))

    left, left_ci = _mean_ci(left_mom)
    right, right_ci = _mean_ci(right_mom)
    # Kish effective sample size (sum w)^2 / sum w^2 = n mean^2 / (mean^2 + M2 / n)
    _, _, right_m2 = right_mom
    mean_sq = right * right
    right_ess = samples / (1.0 + right_m2 / samples / mean_sq) if mean_sq > 0.0 else 0.0
    right_sum = right * samples
    right_max_share = right_max / right_sum if right_sum > 0.0 else 0.0
    return BPCheck(
        n=n,
        k=k,
        m=m,
        test_function=test_function,
        samples=samples,
        left=left,
        left_ci=left_ci,
        right=right,
        right_ci=right_ci,
        analytic=analytic,
        right_ess=right_ess,
        right_nonfinite=right_nonfinite,
        right_max_share=right_max_share,
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


def verify_gamma_lemma(draws: int = 100, seed: int = 0) -> GammaLemmaCheck:
    """Check the power-exponential integral closed form against adaptive
    quadrature on random parameter draws, to 1e-9 relative."""
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    worst = 0.0
    for _ in range(draws):
        p = float(rng.uniform(0.3, 3.0))
        shape = float(rng.uniform(0.3, 4.0))
        j = shape * p
        c = float(rng.uniform(0.2, 3.0))
        t0 = float(rng.uniform(0.1, 2.5))
        closed = specfun.power_exp_integral(j, p, c, t0)
        # QUADPACK's QAWS takes the endpoint singularity t^(j-1) as its weight
        direct, _ = integrate.quad(
            lambda t: math.exp(-c * t**p), 0.0, t0, weight="alg", wvar=(j - 1.0, 0.0),
            epsabs=1e-13, epsrel=1e-12, limit=200,
        )
        worst = max(worst, abs(closed - direct) / abs(direct))
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
    parameters and rejects the Beta(k/n, (n-k)/n) alternative.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    x = rng.standard_normal((samples, n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    r2 = np.einsum("ij,ij->i", x[:, :k], x[:, :k])

    def ks_pvalue(a: float, b: float) -> float:
        return float(stats.kstest(special.betainc(a, b, r2), "uniform").pvalue)

    return BetaLawCheck(
        n=n,
        k=k,
        samples=samples,
        p_half_dims=ks_pvalue(k / 2.0, (n - k) / 2.0),
        p_fraction_dims=ks_pvalue(k / n, (n - k) / n),
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
    """Exact per-replicate audit: for every j and every radius threshold, the
    number of j-simplices equals sum over types of binom(m - ell, m - j) times
    the interval count. The thresholds are 1/4, 1/2 and 1 times the largest
    interval radius (1 when there is none) and infinity. A failure message
    pinpoints the replicate."""
    rmax = max(
        (float(np.max(r.interval_radii)) for r in report.records if len(r.interval_radii)),
        default=1.0,
    )
    thresholds = (0.25 * rmax, 0.5 * rmax, rmax, math.inf)
    failures = []
    for rec in report.records:
        for r0 in thresholds:
            iv = rec.interval_counts(r0)
            sx = rec.simplex_counts(r0)
            for j in range(report.cfg.k + 1):
                predicted = sum(
                    math.comb(m - ell, m - j) * count
                    for (ell, m), count in iv.items()
                    if m >= j
                )
                got = sx.get(j, 0)
                if got != predicted:
                    failures.append(
                        f"replicate {rec.replicate}, r0={r0}: dimension {j} has "
                        f"{got} simplices but intervals predict {predicted}"
                    )
    return ReconcileResult(failures=failures)
