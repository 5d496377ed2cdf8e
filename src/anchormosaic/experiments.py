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

import numpy as np
from scipy import integrate, special, stats

from . import constants, mosaic1d, mosaic2d, sampler, specfun
from .constants import SCHEMA_VERSION, DimensionConfig
from .errors import InsufficientSampleError
from .geomcore import slice_cloud

__all__ = [
    "ReplicateRecord",
    "RateEstimate",
    "ExperimentReport",
    "run_replicate",
    "estimate_interval_rates",
    "report_to_json",
    "report_to_csv",
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
    n: int
    k: int
    rho: float
    window: tuple[tuple[float, float], ...]
    buffer: float
    seed: int
    replicates: int
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
    """Sample, slice, build the mosaic, and record every interval and simplex."""
    points = sampler.sample_poisson_box(dataclasses.replace(cfg, replicate_index=replicate))
    if cfg.k == 1:
        if len(points) == 0:
            return _empty_record(replicate, 0)
        hull = mosaic1d.build_1d(mosaic1d.rotate_to_halfplane(points), window=cfg.window[0])
        mosaic = mosaic1d.radius_and_intervals_1d(hull)
    elif cfg.k == 2:
        if len(points) < 3:
            return _empty_record(replicate, len(points))
        y, w = slice_cloud(points, 2)
        tri = mosaic2d.regular_triangulation(y, w, preimages=points)
        mosaic = mosaic2d.radius_and_intervals_2d(tri, mosaic2d.power_dual(tri), window=cfg.window)
    else:
        raise ValueError(f"mosaic construction supports k in {{1, 2}}, got k={cfg.k}")
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
    recommended = sampler.choose_buffer(cfg, 1.0 - 1e-6)
    if cfg.buffer < recommended:
        warnings.warn(
            f"buffer {cfg.buffer:.3g} is below the recommended {recommended:.3g}; "
            "window counts may be biased by the truncated sample",
            stacklevel=2,
        )
    start = time.perf_counter()
    records = [run_replicate(cfg, rep) for rep in range(replicates)]

    dim_cfg = DimensionConfig(n=cfg.n, k=cfg.k, rho=cfg.rho)
    area = cfg.window_volume
    norm = cfg.rho ** (cfg.k / cfg.n) * area

    interval_counts = [rec.interval_counts(threshold) for rec in records]
    simplex_counts = [rec.simplex_counts(threshold) for rec in records]
    interval_rates = []
    for t in constants.valid_interval_types(cfg.k):
        counts = np.array([c.get((t.ell, t.m), 0) for c in interval_counts], dtype=float)
        predicted = constants.expected_interval_count(t, dim_cfg, area, threshold) / norm
        interval_rates.append(_rate_estimate(f"interval({t.ell},{t.m})", t.ell, t.m, counts, norm, predicted))
    simplex_rates = []
    for j in range(cfg.k + 1):
        counts = np.array([c.get(j, 0) for c in simplex_counts], dtype=float)
        predicted = constants.expected_simplex_count(j, dim_cfg, area, threshold) / norm
        simplex_rates.append(_rate_estimate(f"simplex-{j}", j, j, counts, norm, predicted))

    radii_by_type: dict[tuple[int, int], np.ndarray] = {}
    if collect_radii:
        for t in constants.valid_interval_types(cfg.k):
            chunks = []
            for rec in records:
                sel = (
                    rec.interval_in_window
                    & (rec.interval_radii <= threshold)
                    & (rec.interval_types[:, 0] == t.ell)
                    & (rec.interval_types[:, 1] == t.m)
                )
                chunks.append(rec.interval_radii[sel])
            radii_by_type[(t.ell, t.m)] = np.concatenate(chunks) if chunks else np.empty(0)

    return ExperimentReport(
        n=cfg.n,
        k=cfg.k,
        rho=cfg.rho,
        window=cfg.window,
        buffer=cfg.buffer,
        seed=cfg.seed,
        replicates=replicates,
        r0=threshold,
        interval_rates=interval_rates,
        simplex_rates=simplex_rates,
        records=records,
        radii_by_type=radii_by_type,
        runtime=time.perf_counter() - start,
    )


CSV_HEADER = "type,ell,m,count,rate,se,predicted,z"


def report_to_json(report: ExperimentReport) -> str:
    """Serialize a report with versioned keys; byte-stable for fixed inputs
    (volatile fields such as the runtime are omitted)."""

    def row(rate: RateEstimate) -> dict:
        return {
            "ell": rate.ell,
            "m": rate.m,
            "count_mean": rate.count_mean,
            "rate": rate.rate,
            "se": rate.se,
            "predicted": rate.predicted,
            "z": rate.z if math.isfinite(rate.z) else None,
        }

    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "simulate",
        "config": {
            "n": report.n,
            "k": report.k,
            "rho": report.rho,
            "window": [[lo, hi] for lo, hi in report.window],
            "buffer": report.buffer,
            "seed": report.seed,
            "replicates": report.replicates,
            "r0": report.r0 if math.isfinite(report.r0) else None,
        },
        "intervals": [row(r) for r in report.interval_rates],
        "simplices": [row(r) for r in report.simplex_rates],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def report_to_csv(report: ExperimentReport) -> str:
    """One row per interval type and simplex dimension, fixed column order."""
    lines = [CSV_HEADER]
    for kind, rates in (("interval", report.interval_rates), ("simplex", report.simplex_rates)):
        for r in rates:
            lines.append(
                f"{kind},{r.ell},{r.m},{r.count_mean!r},{r.rate!r},{r.se!r},"
                f"{r.predicted!r},{r.z!r}"
            )
    return "\n".join(lines) + "\n"


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


def _gaussian_f(x: np.ndarray) -> np.ndarray:
    # product Gaussian exp(-sum |x_i|^2) over the point tuple
    return np.exp(-np.einsum("cij,cij->c", x, x))


def _bump_f(x: np.ndarray) -> np.ndarray:
    # compactly supported product bump: prod_i max(0, 1 - |x_i|^2)^2
    g = np.maximum(0.0, 1.0 - np.einsum("cij,cij->ci", x, x))
    return np.prod(g * g, axis=1)


def _analytic_integral(kind: str, n: int, m: int) -> float:
    if kind == "gaussian":
        return math.pi ** (n * (m + 1) / 2.0)
    # int_{|x|<1} (1-|x|^2)^2 dx = sigma_n * B(n/2, 3) / 2, per point
    single = constants.sphere_surface(n) * specfun.beta_fn(n / 2.0, 3.0) / 2.0
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


def _sample_vmf(rng: np.random.Generator, centers: np.ndarray, kappa: float, d: int) -> np.ndarray:
    """von Mises-Fisher draws on S^(d-1) around per-row centers, d in {2, 3}."""
    count = centers.shape[0]
    if d == 2:
        theta = np.arctan2(centers[:, 1], centers[:, 0])
        angles = rng.vonmises(theta, kappa)
        return np.column_stack([np.cos(angles), np.sin(angles)])
    # d == 3: inverse-CDF in the cosine, uniform azimuth around the center
    xi = rng.random(count)
    with np.errstate(over="ignore"):
        cos_t = 1.0 + np.log(xi + (1.0 - xi) * np.exp(-2.0 * kappa)) / kappa
    cos_t = np.clip(cos_t, -1.0, 1.0)
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t**2))
    phi = rng.uniform(0.0, 2.0 * math.pi, count)
    tangent = np.column_stack([np.cos(phi), np.sin(phi)])
    # orthonormal frame per center
    helper = np.where(
        (np.abs(centers[:, :1]) < 0.9), np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 1.0, 0.0]])
    )
    t1 = np.cross(centers, helper)
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    t2 = np.cross(centers, t1)
    return (
        cos_t[:, None] * centers
        + (sin_t * tangent[:, 0])[:, None] * t1
        + (sin_t * tangent[:, 1])[:, None] * t2
    )


def _log_vmf_pdf(cos_angle: np.ndarray, kappa: float, d: int) -> np.ndarray:
    """log density w.r.t. the surface measure of S^(d-1), d in {2, 3}."""
    if d == 2:
        return kappa * (cos_angle - 1.0) - np.log(2.0 * math.pi * special.i0e(kappa))
    log_norm = (
        math.log(kappa) - math.log(2.0 * math.pi) - math.log1p(-math.exp(-2.0 * kappa))
    )
    return kappa * (cos_angle - 1.0) + log_norm


def _sphere_mixture(
    rng: np.random.Generator, chunk: int, m: int, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample m+1 sphere points per row and return them with log q(u).

    u_0 is uniform; u_1..u_m come from a half-uniform, half-vMF(u_0) mixture
    over a ladder of concentrations, which keeps the weights bounded near the
    aligned configurations where the parameter-space integrand blows up.
    """
    sigma_d = constants.sphere_surface(d)
    u = np.empty((chunk, m + 1, d))
    raw = rng.standard_normal((chunk, d))
    u[:, 0] = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    log_q = np.full(chunk, -math.log(sigma_d))
    if m == 0:
        return u, log_q
    n_comp = len(_VMF_KAPPAS)
    probs = np.array([0.5] + [0.5 / n_comp] * n_comp)
    for i in range(1, m + 1):
        comp = rng.choice(n_comp + 1, size=chunk, p=probs)
        draw = rng.standard_normal((chunk, d))
        draw /= np.linalg.norm(draw, axis=1, keepdims=True)
        for c, kappa in enumerate(_VMF_KAPPAS, start=1):
            sel = comp == c
            if np.any(sel):
                draw[sel] = _sample_vmf(rng, u[sel, 0], kappa, d)
        u[:, i] = draw
        cos_angle = np.einsum("cj,cj->c", draw, u[:, 0])
        dens = probs[0] / sigma_d * np.ones(chunk)
        for c, kappa in enumerate(_VMF_KAPPAS, start=1):
            dens += probs[c] * np.exp(_log_vmf_pdf(cos_angle, kappa, d))
        log_q += np.log(dens)
    return u, log_q


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

    Left: plain Monte Carlo over (R^n)^(m+1), importance-sampled by the
    product Gaussian. Right: Monte Carlo over (y, P, r, u) with the Jacobian
    r^alpha [m! Vol_m(u')]^(k-m+1); y and r are drawn from the exact Gaussian
    and generalized-Gamma conditionals given u (which keeps the weights
    bounded), P from the invariant Grassmannian measure, and u from a
    defensive sphere mixture. For m = k the Grassmannian integral is dropped.

    Each side's CI is a 95% normal interval whose variance comes from
    per-chunk two-pass moments merged with the Chan-Golub-LeVeque update, so
    it does not cancel when the weights are nearly constant. A side with
    constant weights (the Gaussian left side, the m = 0 right side) reports a
    zero-width CI; then ``BPCheck.overlap`` reduces to "the right CI covers
    the exact left value".
    """
    if not 0 <= m <= k <= n:
        raise ValueError(f"need 0 <= m <= k <= n, got ({n}, {k}, {m})")
    d = m + n - k
    if d < 2 or (m >= 1 and d > 3):
        raise ValueError(f"sphere dimension d = m+n-k = {d} is outside the supported range")
    if test_function not in ("gaussian", "bump"):
        raise ValueError(f"unknown test function {test_function!r}")
    f = _gaussian_f if test_function == "gaussian" else _bump_f
    alpha = n * (m + 1) - (k + 1)
    a_r = (alpha + 1) / 2.0
    grass = constants.grassmannian_volume(m, k) if m < k else 1.0
    log_m_factorial = math.lgamma(m + 1)
    sd_y = 1.0 / math.sqrt(2.0 * (m + 1))

    rng = np.random.Generator(np.random.Philox(key=seed))
    left_mom = right_mom = (0, 0.0, 0.0)
    done = 0
    while done < samples:
        size = min(chunk, samples - done)
        done += size

        # left side: x ~ product Gaussian with density exp(-|x|^2) / pi^(n/2)
        x = rng.standard_normal((size, m + 1, n)) / math.sqrt(2.0)
        log_q = -np.einsum("cij,cij->c", x, x) - (n * (m + 1) / 2.0) * math.log(math.pi)
        vals = f(x) * np.exp(-log_q)
        left_mom = _merge_moments(left_mom, _moments(vals))

        # right side
        u_small, log_qu = _sphere_mixture(rng, size, m, d)
        if m < k:
            frames = rng.standard_normal((size, k, m))
            frames, _ = np.linalg.qr(frames)
            u_first_k = np.einsum("cij,ckj->cki", frames, u_small[:, :, :m])
        else:
            u_first_k = u_small[:, :, :k]
        u_full = np.concatenate([u_first_k, u_small[:, :, m:]], axis=2)

        s_k = u_full[:, :, :k].sum(axis=1)
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
        mean_y = -(r / (m + 1))[:, None] * s_k
        y = mean_y + sd_y * rng.standard_normal((size, k))
        log_qy = (
            -k / 2.0 * math.log(2.0 * math.pi * sd_y**2)
            - np.einsum("cj,cj->c", y - mean_y, y - mean_y) / (2.0 * sd_y**2)
        )

        x_right = r[:, None, None] * u_full
        x_right[:, :, :k] += y[:, None, :]
        if m == 0:
            log_vol_pow = 0.0
        else:
            proj = u_small[:, :, :m]
            vol = np.abs(np.linalg.det(proj[:, 1:] - proj[:, :1]))  # m! * Vol_m(u')
            with np.errstate(divide="ignore"):
                log_vol_pow = (k - m + 1) * np.where(vol > 0, np.log(np.maximum(vol, 1e-300)), -np.inf)
        fx = f(x_right)
        with np.errstate(invalid="ignore"):
            log_w = (
                alpha * np.log(r)
                + log_vol_pow
                - log_qu
                - log_qr
                - log_qy
                + math.log(grass)
            )
            if test_function == "gaussian":
                log_w -= np.einsum("cij,cij->c", x_right, x_right)
                w = np.exp(log_w)
            else:
                w = np.where(fx > 0, fx * np.exp(log_w), 0.0)
        w = np.where(np.isfinite(w), w, 0.0)
        right_mom = _merge_moments(right_mom, _moments(w))

    left, left_ci = _mean_ci(left_mom)
    right, right_ci = _mean_ci(right_mom)
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
        analytic=_analytic_integral(test_function, n, m),
    )


# ---------------------------------------------------------------------------
# further identity checks


@dataclass
class AngleIntegralCheck:
    n: int
    quadrature: float
    closed_form: float

    @property
    def abs_error(self) -> float:
        return abs(self.quadrature - self.closed_form)


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
    closed = (
        math.sqrt(math.pi)
        / (n - 1.0)
        * (
            2.0 * math.exp(math.lgamma(n - 1.0) - math.lgamma(n - 0.5))
            - math.exp(math.lgamma((n - 1.0) / 2.0) - math.lgamma(n / 2.0))
        )
    )
    return AngleIntegralCheck(n=n, quadrature=2.0 * half, closed_form=closed)


@dataclass
class GammaLemmaCheck:
    draws: int
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


def verify_gamma_lemma(
    draws: int = 100, seed: int = 0, tolerance: float = 1e-9
) -> GammaLemmaCheck:
    """Check the power-exponential integral closed form against adaptive
    quadrature on random parameter draws."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    worst = 0.0
    for _ in range(draws):
        p = float(rng.uniform(0.3, 3.0))
        shape = float(rng.uniform(0.3, 4.0))
        j = shape * p
        c = float(rng.uniform(0.2, 3.0))
        t0 = float(rng.uniform(0.1, 2.5))
        closed = specfun.power_exp_integral(j, p, c, t0)
        direct, _ = integrate.quad(
            lambda t: t ** (j - 1.0) * math.exp(-c * t**p), 0.0, t0,
            epsabs=1e-13, epsrel=1e-12, limit=200,
        )
        worst = max(worst, abs(closed - direct) / abs(direct))
    return GammaLemmaCheck(draws=draws, max_rel_error=worst, tolerance=tolerance)


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
    rng = np.random.Generator(np.random.Philox(key=seed))
    x = rng.standard_normal((samples, n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    r2 = np.einsum("ij,ij->i", x[:, :k], x[:, :k])

    def ks_pvalue(a: float, b: float) -> float:
        norm = specfun.beta_fn(a, b)
        u = np.array([specfun.beta_inc(t, a, b) / norm for t in r2])
        return float(stats.kstest(u, "uniform").pvalue)

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
    thresholds: list[float]
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def reconcile_simplex_counts(
    report: ExperimentReport, thresholds: tuple[float, ...] | None = None
) -> ReconcileResult:
    """Exact per-replicate audit: for every j and every radius threshold, the
    number of j-simplices equals sum over types of binom(m - ell, m - j) times
    the interval count. A failure message pinpoints the replicate."""
    if thresholds is None:
        finite = report.records and any(len(r.interval_radii) for r in report.records)
        rmax = (
            max(float(np.max(r.interval_radii)) for r in report.records if len(r.interval_radii))
            if finite
            else 1.0
        )
        thresholds = (0.25 * rmax, 0.5 * rmax, rmax, math.inf)
    failures = []
    for rec in report.records:
        for r0 in thresholds:
            iv = rec.interval_counts(r0)
            sx = rec.simplex_counts(r0)
            for j in range(report.k + 1):
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
    return ReconcileResult(thresholds=list(thresholds), failures=failures)
