"""The four benchmark workloads: inputs from a seed, the timed call, and the
correctness gates that run on its output outside the timed section.

Every call into the package goes through a module attribute
(``experiments.estimate_interval_rates``), so the tracer sees it. Calls are
short (about 0.5-3 s) so that the speed reference sampled between calls
tracks the host; a unit is the group of calls a run always completes whole.

census2d  criterion-7 configuration: n=3, k=2, window [0,20]^2, buffer
          choose_buffer(1 - 1e-6) ~ 1.61, ~1,700 points per replicate,
          2 replicates per call, 5 calls per unit.
census1d  criterion-6 configuration plus the Gamma-law KS test of the (0,0)
          radii: n=2, k=1, window [0,1000], buffer ~ 2.21, ~4,400 points per
          replicate, 4 replicates per call, 5 per unit.
bp        criterion-9 triples of the sphere-parametrization identity, Gaussian
          test function, 10^6 samples at chunk 200000; one triple per call,
          the four triples per unit.
audit     criterion-10 style: alternating 1-D and 2-D clouds of 10-500 points,
          built, decomposed and emptiness-checked; 10 per call, 4 per unit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
from scipy import stats

from anchormosaic import constants, errors, experiments, geomcore, mosaic1d, mosaic2d, sampler

# Errors the package raises on purpose; anything else is a crash of the benchmark.
TYPED_ERRORS = (
    errors.ConvergenceError,
    errors.DegeneracyError,
    errors.InsufficientSampleError,
    errors.IterationLimitError,
    errors.MosaicError,
)
# Correctness gates, each with a false-alarm probability of about 1e-6: the
# pooled census rates against their closed forms (two-sided Student t), the
# bp right side against the analytic value, and the KS p-value of the radii.
GATE_ALPHA = 1e-6
BP_SE_BOUND = 5.0
KS_P_MIN = 1e-6
BUFFER_QUANTILE = 1.0 - 1e-6
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
BP_TRIPLES = ((2, 1, 1), (3, 2, 2), (3, 2, 1), (2, 2, 2))
BP_TARGET_REL_HALFWIDTH = 1e-3


def derive_seed(seed: int, index: int) -> int:
    """Seed of input ``index`` of a run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def bare(exc: Exception) -> Exception:
    """A typed error a call raised, without the traceback and chained errors
    whose frames would keep the failed call's arrays alive."""
    exc.__traceback__ = exc.__context__ = exc.__cause__ = None
    return exc


def short_hash(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Outcome:
    """Verdict on one timed call: operations attempted and failed (``errors``
    of the failed ones raised a typed package error, the rest gave a wrong
    result), work done without failure (the throughput unit), a digest of
    what the program computed, and the call's normalized seconds (filled in
    by the runner)."""

    ops: int
    failed: int
    work: float
    digest: list[str]
    detail: dict = field(default_factory=dict)
    errors: int = 0
    seconds: float = 0.0


class Workload:
    """Hooks a workload may leave out: a gate over the whole run's outcomes,
    and extra metrics printed from them."""

    def final_check(self, outcomes: list[Outcome]) -> bool:
        return True

    def summary(self, outcomes: list[Outcome]) -> dict:
        return {}


@dataclass
class Census(Workload):
    """``estimate_interval_rates(cfg, R)`` plus ``report_to_json``, and on
    census1d the KS test of the (0,0) radii. One operation is one replicate."""

    n: int
    window: tuple[tuple[float, float], ...]
    replicates: int
    ks_test: bool = False
    work_name: ClassVar[str] = "replicates_per_s"
    unit_calls: ClassVar[int] = 5
    reference: ClassVar[str] = "dispatch"

    def prepare(self, seed: int) -> None:
        probe = sampler.SamplingConfig(n=self.n, rho=1.0, window=self.window, buffer=1.0)
        self.base = dataclasses.replace(probe, buffer=sampler.choose_buffer(probe, BUFFER_QUANTILE))
        self.seed = seed

    def inputs(self, index: int) -> sampler.SamplingConfig:
        return dataclasses.replace(self.base, seed=derive_seed(self.seed, index))

    def run(self, cfg: sampler.SamplingConfig):
        try:
            report = experiments.estimate_interval_rates(
                cfg, self.replicates, collect_radii=self.ks_test
            )
            text = experiments.report_to_json(report)
            p_value = None
            if self.ks_test:
                p_value = experiments.ks_gamma_test(
                    report.radii_by_type[(0, 0)],
                    1.0 - cfg.k / cfg.n,
                    cfg.rho * constants.ball_volume(cfg.n),
                    cfg.n,
                )
        except TYPED_ERRORS as exc:
            return bare(exc)
        return report, text, p_value

    def check(self, cfg: sampler.SamplingConfig, out) -> Outcome:
        reps = self.replicates
        if isinstance(out, Exception):
            return Outcome(reps, reps, 0, [type(out).__name__], errors=reps)
        report, text, p_value = out
        rates = report.interval_rates + report.simplex_rates
        norm = cfg.rho ** (cfg.k / cfg.n) * cfg.window_volume
        counts, digest = [], []
        for rec in report.records:
            intervals, simplices = rec.interval_counts(), rec.simplex_counts()
            counts.append(
                [intervals.get((r.ell, r.m), 0) for r in report.interval_rates]
                + [simplices.get(r.ell, 0) for r in report.simplex_rates]
            )
            digest.append(short_hash({
                "points": rec.num_points,
                "intervals": sorted([list(t), c] for t, c in intervals.items()),
                "simplices": sorted(simplices.items()),
            }))
        payload = json.loads(text)
        ok = (
            len(report.records) == reps
            and experiments.reconcile_simplex_counts(report).ok
            and [row["rate"] for row in payload["intervals"] + payload["simplices"]]
            == [r.rate for r in rates]
            and payload["config"]["seed"] == cfg.seed
        )
        if self.ks_test:
            ok = ok and p_value > KS_P_MIN
            digest.append(repr(p_value))
        detail = {"counts": counts, "expected": [r.predicted * norm for r in rates]}
        return Outcome(reps, 0 if ok else reps, reps if ok else 0, digest, detail)

    def final_check(self, outcomes: list[Outcome]) -> bool:
        """Every interval and simplex count, pooled over the run's replicates,
        within the two-sided 1 - GATE_ALPHA Student-t bound of its closed form."""
        done = [o for o in outcomes if "counts" in o.detail]
        rows = np.array([row for o in done for row in o.detail["counts"]], dtype=float)
        if len(rows) < 2:
            return not done
        expected = np.array(done[0].detail["expected"])
        se = rows.std(axis=0, ddof=1) / math.sqrt(len(rows))
        bound = stats.t.ppf(1.0 - GATE_ALPHA / 2.0, len(rows) - 1)
        return bool(np.all(np.abs(rows.mean(axis=0) - expected) <= bound * se))


def triple_label(triple: tuple[int, int, int]) -> str:
    return "_".join(str(v) for v in triple)


def bp_metrics(outcomes: list[Outcome]) -> dict:
    """Per bp triple, the median normalized seconds and the median relative 95%
    half-width of its passing calls, and ``time_to_precision_s``: the seconds
    the triples need to reach the target half-width, the sum over triples of
    seconds * (half-width / target)^2. Zero where a triple has no passing
    call (``time_to_precision_s`` too), so other workloads read zeros."""
    out, ttp, complete = {}, 0.0, True
    for triple in BP_TRIPLES:
        label = triple_label(triple)
        mine = [o for o in outcomes if o.detail.get("triple") == label and not o.failed]
        complete = complete and bool(mine)
        wall = statistics.median(o.seconds for o in mine) if mine else 0.0
        halfwidth = statistics.median(o.detail["rel_halfwidth"] for o in mine) if mine else 0.0
        ttp += wall * (halfwidth / BP_TARGET_REL_HALFWIDTH) ** 2
        out[f"experiments.verify_bp_identity.{label}.s"] = (wall, "s")
        out[f"experiments.bp.rel_halfwidth.{label}"] = (halfwidth, "ratio")
    out["experiments.bp.time_to_precision_s"] = (ttp if complete else 0.0, "s")
    return out


class BP(Workload):
    """One criterion-9 ``verify_bp_identity`` triple per call; call i runs
    triple i mod 4 with the seed of pass i // 4. One operation is one triple;
    throughput counts samples."""

    samples = 10**6
    chunk = 200_000
    work_name = "samples_per_s"
    unit_calls = len(BP_TRIPLES)
    reference = "stream"

    def prepare(self, seed: int) -> None:
        self.seed = seed

    def inputs(self, index: int) -> tuple[tuple[int, int, int], int]:
        return BP_TRIPLES[index % len(BP_TRIPLES)], derive_seed(self.seed, index // len(BP_TRIPLES))

    def run(self, inp):
        (n, k, m), seed = inp
        try:
            return experiments.verify_bp_identity(
                n, k, m, test_function="gaussian", samples=self.samples, seed=seed,
                chunk=self.chunk,
            )
        except TYPED_ERRORS as exc:
            return bare(exc)

    def check(self, inp, out) -> Outcome:
        if isinstance(out, Exception):
            return Outcome(1, 1, 0, [type(out).__name__], errors=1)
        se = (out.right_ci[1] - out.right_ci[0]) / (2.0 * 1.96)
        ok = (
            (out.n, out.k, out.m) == inp[0]
            and math.isfinite(out.right)
            and se > 0.0
            and abs(out.right - out.analytic) <= BP_SE_BOUND * se
        )
        halfwidth = (out.right_ci[1] - out.right_ci[0]) / 2.0 / abs(out.right)
        detail = {"triple": triple_label(inp[0]), "rel_halfwidth": halfwidth}
        digest = [repr((out.left, out.right, out.right_ci))]
        return Outcome(1, 0 if ok else 1, self.samples if ok else 0, digest, detail)

    def summary(self, outcomes: list[Outcome]) -> dict:
        return {"time_to_precision_s": bp_metrics(outcomes)["experiments.bp.time_to_precision_s"]}


@dataclass
class AuditInput:
    dim: int
    cloud: np.ndarray
    interior: tuple[tuple[float, float], ...]  # anchors in this box get emptiness-checked


class Audit(Workload):
    """Small mosaics built, decomposed and emptiness-checked, alternating 1-D
    and 2-D, ``batch`` per call. One operation is one mosaic."""

    batch = 10
    work_name = "mosaics_per_s"
    unit_calls = 4
    reference = "mixed"

    def prepare(self, seed: int) -> None:
        self.seed = seed

    def instance(self, index: int) -> AuditInput:
        # Sizes follow a golden-ratio sequence over 10..500, shared by each
        # 1-D/2-D pair and restarted every unit, so every unit audits the same
        # spread of sizes and its throughput does not swing with the seed or
        # the unit; the seed places the points.
        pair = (index // 2) % (self.batch * self.unit_calls // 2)
        size = 10 + int(491 * (pair * GOLDEN % 1.0))
        rng = np.random.default_rng([self.seed, index])
        if index % 2 == 0:
            span = max(size / 1.27, 4.0)
            cloud = np.column_stack([rng.uniform(0, span, size), rng.uniform(-2.5, 2.5, size)])
            return AuditInput(1, cloud, ((0.15 * span, 0.85 * span),))
        side = max(math.sqrt(size / 1.46), 2.0)
        cloud = np.column_stack([rng.uniform(0, side, (size, 2)), rng.uniform(-1.5, 1.5, size)])
        margin = 0.22 * side
        return AuditInput(2, cloud, ((margin, side - margin),) * 2)

    def inputs(self, index: int) -> list[AuditInput]:
        return [self.instance(index * self.batch + j) for j in range(self.batch)]

    def run(self, batch: list[AuditInput]):
        return [self._audit(inp) for inp in batch]

    def _audit(self, inp: AuditInput):
        try:
            if inp.dim == 1:
                half = mosaic1d.rotate_to_halfplane(inp.cloud)
                mosaic = mosaic1d.build_1d(half, window=inp.interior[0])
                mosaic = mosaic1d.radius_and_intervals_1d(mosaic)
            else:
                y, w = geomcore.slice_cloud(inp.cloud, 2)
                tri = mosaic2d.regular_triangulation(y, w, preimages=inp.cloud)
                mosaic = mosaic2d.radius_and_intervals_2d(tri, mosaic2d.power_dual(tri))
            empty = [
                geomcore.sphere_is_empty(iv.sphere, inp.cloud, exclude=iv.upper)
                for iv in mosaic.intervals
                if all(lo <= a < hi for a, (lo, hi) in zip(iv.sphere.anchor, inp.interior))
            ]
        except TYPED_ERRORS as exc:
            return bare(exc)
        return mosaic, empty

    def check(self, batch: list[AuditInput], outs) -> Outcome:
        failed = sum(self._violations(inp, out) > 0 for inp, out in zip(batch, outs))
        digest = [
            type(out).__name__ if isinstance(out, Exception) else short_hash({
                "dim": inp.dim,
                "size": len(inp.cloud),
                "types": sorted([[iv.type.ell, iv.type.m], len(iv.members)] for iv in out[0].intervals),
            })
            for inp, out in zip(batch, outs)
        ]
        errors = sum(isinstance(out, Exception) for out in outs)
        return Outcome(len(batch), failed, len(batch) - failed, digest, errors=errors)

    @staticmethod
    def _violations(inp: AuditInput, out) -> int:
        """Partition, member-count, reconciliation and emptiness violations."""
        if isinstance(out, Exception):
            return 1
        mosaic, empty = out
        if inp.dim == 1:
            verts = [int(v) for v in mosaic.vertices]
            simplices = [(v,) for v in verts] + [tuple(sorted(e)) for e in zip(verts, verts[1:])]
            sx_dims = np.array([len(s) - 1 for s in simplices])
            sx_radii = np.concatenate([mosaic.vertex_radius, mosaic.edge_radius])
        else:
            simplices, sx_dims, sx_radii = mosaic.simplices, mosaic.dims, mosaic.radii
        violations = sum(not e for e in empty)
        members = [s for iv in mosaic.intervals for s in iv.members]
        violations += len(members) != len(set(members)) or set(members) != set(simplices)
        violations += sum(
            len(iv.members) != 2 ** (iv.type.m - iv.type.ell) for iv in mosaic.intervals
        )
        radii = np.array([iv.sphere.radius for iv in mosaic.intervals])
        for r0 in (float(np.median(radii)), math.inf):
            census: dict[tuple[int, int], int] = {}
            for iv, r in zip(mosaic.intervals, radii):
                if r <= r0:
                    census[(iv.type.ell, iv.type.m)] = census.get((iv.type.ell, iv.type.m), 0) + 1
            for j in range(inp.dim + 1):
                predicted = sum(
                    math.comb(m - ell, m - j) * c for (ell, m), c in census.items() if m >= j
                )
                violations += int(np.sum((sx_dims == j) & (sx_radii <= r0))) != predicted
        return int(violations)


WORKLOADS = {
    "census2d": lambda: Census(n=3, window=((0.0, 20.0), (0.0, 20.0)), replicates=2),
    "census1d": lambda: Census(n=2, window=((0.0, 1000.0),), replicates=4, ks_test=True),
    "bp": BP,
    "audit": Audit,
}
