"""Per-layer tracing of the anchormosaic package from outside it.

The tracer wraps every public function of the layer modules at each module
attribute that holds it, so a function imported by name into another module
(``experiments.slice_cloud`` is ``geomcore.slice_cloud``) is traced where its
callers look it up. Each call records a span: name, start, end, the span that
caused it, and its self time (duration minus the time covered by its child
spans). Leaving the ``with`` block restores every original attribute.

Counts that explain the census (points sampled, generators surviving the
lifted hull, simplices, intervals, windowed intervals) are read off the
wrapped calls' results, where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

PACKAGE = "anchormosaic"
LAYERS = ("sampler", "geomcore", "mosaic1d", "mosaic2d", "constants", "specfun", "experiments")

# Functions whose self time is a per-layer metric, and those whose call count is.
SELF_TIMED = (
    "mosaic2d.radius_and_intervals_2d",
    "mosaic2d.regular_triangulation",
    "mosaic2d.power_dual",
    "mosaic1d.rotate_to_halfplane",
    "mosaic1d.build_1d",
    "mosaic1d.radius_and_intervals_1d",
    "geomcore.visibility_type",
    "geomcore.slice_cloud",
    "geomcore.sphere_is_empty",
    "sampler.sample_poisson_box",
    "sampler.choose_buffer",
    "specfun.regularized_lower_gamma",
    "experiments.estimate_interval_rates",
    "experiments.run_replicate",
    "experiments.ks_gamma_test",
    "experiments.report_to_json",
)
CALL_COUNTED = (
    "geomcore.visibility_type",
    "geomcore.sphere_is_empty",
    "sampler.sample_poisson_box",
    "specfun.regularized_lower_gamma",
)
EXPECTED_COUNTS = ("constants.expected_interval_count", "constants.expected_simplex_count")


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the causing span in Tracer.spans, -1 at top level
    self_s: float


def _count_points(tracer: "Tracer", result) -> None:
    tracer.counts["sampler.points"] += len(result)


def _count_triangulation(tracer: "Tracer", result) -> None:
    tracer.counts["mosaic2d.submitted"] += len(result.y)
    tracer.counts["mosaic2d.survivors"] += len(result.vertices)


def _count_mosaic2d(tracer: "Tracer", result) -> None:
    tracer.counts["mosaic2d.simplices"] += len(result.simplices)
    tracer.counts["mosaic2d.intervals"] += len(result.intervals)


def _count_mosaic1d(tracer: "Tracer", result) -> None:
    tracer.counts["mosaic1d.submitted"] += len(result.points)
    tracer.counts["mosaic1d.survivors"] += len(result.vertices)


def _count_replicate(tracer: "Tracer", result) -> None:
    tracer.counts["experiments.intervals"] += len(result.interval_in_window)
    tracer.counts["experiments.in_window"] += int(result.interval_in_window.sum())


OBSERVERS = {
    "sampler.sample_poisson_box": _count_points,
    "mosaic2d.regular_triangulation": _count_triangulation,
    "mosaic2d.radius_and_intervals_2d": _count_mosaic2d,
    "mosaic1d.build_1d": _count_mosaic1d,
    "experiments.run_replicate": _count_replicate,
}


class Tracer:
    """Context manager that traces the public functions of the package's layers."""

    def __init__(self) -> None:
        self.modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.wrapped: dict[str, object] = {}
        self._stack: list[list] = []  # [span index, start, child time]
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        owners = [
            module
            for name, module in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for module in self.modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if isinstance(fn, type) or getattr(fn, "__module__", None) != module.__name__:
                    continue  # classes and re-exports of other modules' names
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn)
                self.wrapped[name] = wrapper
                for owner in owners:
                    for key in [k for k, v in vars(owner).items() if v is fn]:
                        self._patches.append((owner, key, fn))
                        setattr(owner, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                spans[index] = Span(
                    name, frame[1], end, parent[0] if parent else -1, duration - frame[2]
                )
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def by_name(self) -> dict[str, tuple[int, float, list[float]]]:
        """Per function: call count, total self time and the call durations."""
        calls: Counter = Counter()
        self_s: defaultdict[str, float] = defaultdict(float)
        durations: defaultdict[str, list[float]] = defaultdict(list)
        for span in self.spans:
            calls[span.name] += 1
            self_s[span.name] += span.self_s
            durations[span.name].append(span.end - span.start)
        return {name: (calls[name], self_s[name], durations[name]) for name in calls}

    def total_self_s(self) -> float:
        return sum(span.self_s for span in self.spans)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, units: int, scale: float) -> dict:
    """Per-layer metrics per unit of traced work, as {name: (value, unit)}.

    ``units`` is the number of identical traced units the tracer saw; counts
    and times are divided by it, so counts of one seed repeat exactly. Span
    times are multiplied by ``scale``, normalized over wall seconds of the
    traced calls.
    """
    stats = tracer.by_name()

    def calls(name: str) -> float:
        return stats.get(name, (0, 0.0, []))[0] / units

    def self_s(name: str) -> float:
        return stats.get(name, (0, 0.0, []))[1] * scale / units

    out: dict[str, tuple[float, str]] = {}
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = (self_s(name), "s")
    for name in CALL_COUNTED:
        out[f"{name}.calls"] = (calls(name), "count")
    out["constants.expected_counts.calls"] = (sum(calls(n) for n in EXPECTED_COUNTS), "count")
    out["constants.expected_counts.self_s"] = (sum(self_s(n) for n in EXPECTED_COUNTS), "s")

    c = tracer.counts
    out["sampler.points"] = (c["sampler.points"] / units, "count")
    out["mosaic2d.simplices"] = (c["mosaic2d.simplices"] / units, "count")
    out["mosaic2d.intervals"] = (c["mosaic2d.intervals"] / units, "count")
    out["mosaic2d.survivor_ratio"] = (_ratio(c["mosaic2d.survivors"], c["mosaic2d.submitted"]), "ratio")
    out["mosaic1d.survivor_ratio"] = (_ratio(c["mosaic1d.survivors"], c["mosaic1d.submitted"]), "ratio")
    out["experiments.in_window_ratio"] = (
        _ratio(c["experiments.in_window"], c["experiments.intervals"]),
        "ratio",
    )
    # the first unit's replicates, so that the sample count repeats exactly
    durations = stats.get("experiments.run_replicate", (0, 0.0, []))[2]
    replicate_ms = [1e3 * scale * d for d in durations[: len(durations) // units]]
    out["experiments.run_replicate.ms_p50"] = (
        statistics.median(replicate_ms) if replicate_ms else 0.0,
        "ms",
    )
    out["experiments.run_replicate.samples"] = (len(replicate_ms), "count")
    return out
