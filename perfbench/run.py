"""Benchmark of the anchormosaic package: four workloads, end-to-end metrics
with tracing off and per-layer metrics from a separate traced run.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload census2d --seed 0 --seconds 20 --trace 0

Run all four, each in its own process, and print every metric by name:

    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout this file lives in; the
run fails, printing no result, when it is not there. BLAS and OpenMP threads
are capped at the number of usable cores before numpy is imported. Timings
are normalized by a machine-speed reference (see ``speed.py``). A run does a
fixed amount of work for its seed and ``--seconds`` (see ``UNIT_SECONDS``), so
two runs with one seed attempt the same operations and fail the same ones.

Lines before the result start with ``#``: the stamp (nproc, the Python, numpy
and scipy versions, the thread settings); the digest, per call a hash of what
the program computed, the same for two runs with one seed over the calls both
made; and the workload's figures by name (its throughput as
``replicates_per_s``, ``samples_per_s`` or ``mosaics_per_s``, raw wall-clock
figures, ``error_rate``). ``correct`` is false when an output is wrong; a
typed package error counts in ``failed`` only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("census2d", "census1d", "bp", "audit")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
SETUP_TIMEOUT_S = 60.0  # per probe, from spawn to exit
# Wall seconds of one unit of calls on an unloaded 2-core x86-64 host. A run
# does a fixed number of units, about ``--seconds`` of work at that speed, so
# the operations it attempts (and any that fail) depend on the seed alone.
UNIT_SECONDS = {"census2d": 6.7, "census1d": 6.4, "bp": 8.2, "audit": 3.0}
# A run stops early, after whole units, once its timed wall time passes this
# share of ``--seconds`` (at most MAX_TIMED_S), so a slowed host cannot push
# it past its time limit.
SLOW_HOST_FACTOR = 3.0
MAX_TIMED_S = 120.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> None:
    """Cap BLAS and OpenMP threads at nproc; must run before numpy is imported."""
    cap = nproc()
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cap:
            os.environ[var] = str(cap)


def load_package():
    """Import anchormosaic (and its CLI, whose import cost is set-up) from the
    checkout's ``src/``; raise ImportError if it is missing or another copy wins."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import anchormosaic
    import anchormosaic.cli  # noqa: F401
    import anchormosaic.experiments  # noqa: F401

    origin = Path(anchormosaic.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"anchormosaic imported from {origin}, not from {src}")
    return anchormosaic


def stamp(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **{var.lower(): os.environ[var] for var in THREAD_VARS},
    }


def first_line(proc, timeout: float) -> tuple[str, float]:
    """The first line ``proc`` prints and the ``perf_counter`` time it arrived,
    or ("", time) if none arrives within ``timeout``; then ``proc`` is killed."""
    got = []
    reader = threading.Thread(target=lambda: got.append((proc.stdout.readline(), time.perf_counter())))
    reader.start()
    reader.join(timeout)
    if reader.is_alive():
        proc.kill()  # closes its end of the pipe, which ends the read
        reader.join()
    return got[0]


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(wall, normalized) seconds from spawning a fresh process to its first
    timed operation, once per probe; each probe imports the package and
    prepares the workload. Set-up is mostly file loading, which tracked the
    memory-bound ``stream`` reference best, so that kernel normalizes it."""
    import speed

    times = []
    ref = speed.reference_time("stream")
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line, ready = first_line(proc, SETUP_TIMEOUT_S)
            proc.communicate(timeout=max(start + SETUP_TIMEOUT_S - time.perf_counter(), 0.0))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        wall = ready - start
        ref_after = speed.reference_time("stream")
        times.append((wall, speed.normalized(wall, ref, ref_after, "stream")))
        ref = ref_after
    return times


def time_calls(wl, inputs: list) -> list[tuple[float, float, object]]:
    """Run each input once as one timed call; time the speed reference at every
    boundary between calls. Returns (wall, normalized seconds, output) per call."""
    import speed

    timed = []
    ref = speed.reference_time(wl.reference)
    for inp in inputs:
        start = time.perf_counter()
        out = wl.run(inp)
        wall = time.perf_counter() - start
        ref_after = speed.reference_time(wl.reference)
        timed.append((wall, speed.normalized(wall, ref, ref_after, wl.reference), out))
        ref = ref_after
    return timed


def run_unit(wl, inputs: list, tracer=None):
    """One unit of calls, then the check of each output outside the timed section."""
    with tracer if tracer is not None else contextlib.nullcontext():
        timed = time_calls(wl, inputs)
    outcomes = []
    for inp, (_, norm, out) in zip(inputs, timed):
        outcome = wl.check(inp, out)
        outcome.seconds = norm
        outcomes.append(outcome)
    return outcomes, sum(t[0] for t in timed), sum(t[1] for t in timed)


def unit_count(workload: str, seconds: float) -> int:
    """Units of calls in a run: about ``seconds`` of work at nominal speed."""
    return max(1, round(seconds / UNIT_SECONDS[workload]))


def time_cap(seconds: float) -> float:
    return min(SLOW_HOST_FACTOR * seconds, MAX_TIMED_S)


def untraced_loop(wl, workload: str, seconds: float):
    """A fixed number of units of fresh inputs (see ``unit_count``)."""
    outcomes, wall, norm = [], 0.0, 0.0
    for unit in range(unit_count(workload, seconds)):
        if wall > time_cap(seconds):
            break
        inputs = [wl.inputs(unit * wl.unit_calls + j) for j in range(wl.unit_calls)]
        unit_outcomes, unit_wall, unit_norm = run_unit(wl, inputs)
        outcomes += unit_outcomes
        wall += unit_wall
        norm += unit_norm
    return outcomes, wall, norm


def traced_loop(wl, workload: str, seconds: float):
    """Repeat the first unit of inputs a fixed number of times, each time
    untraced and then traced, about ``seconds`` of work in all. Counts per
    unit repeat exactly for a seed; the untraced passes give the tracing
    overhead."""
    from tracer import Tracer

    inputs = [wl.inputs(j) for j in range(wl.unit_calls)]
    tracer = Tracer()
    passes = []  # (traced, outcomes, wall, normalized)
    for _ in range(max(1, unit_count(workload, seconds) // 2)):
        if sum(p[2] for p in passes) > time_cap(seconds):
            break
        for traced in (False, True):
            passes.append((traced, *run_unit(wl, inputs, tracer if traced else None)))
    return tracer, passes


def traced_metrics(tracer, passes) -> dict:
    """Per-layer metrics of a traced run, per unit: the tracer's, the bp
    figures of the traced passes' outcomes, the traced time and the tracing
    overhead (traced over untraced normalized time, minus 1)."""
    import workloads
    from tracer import layer_metrics

    traced = [p for p in passes if p[0]]
    traced_wall = sum(p[2] for p in traced)
    traced_norm = sum(p[3] for p in traced)
    untraced_norm = sum(p[3] for p in passes if not p[0])
    return {
        **layer_metrics(tracer, len(traced), traced_norm / traced_wall),
        **workloads.bp_metrics([o for p in traced for o in p[1]]),
        "trace.wall_s": (traced_norm / len(traced), "s"),
        "trace.overhead_ratio": (traced_norm / untraced_norm - 1.0, "ratio"),
    }


def run_workload(args) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    print("# stamp " + json.dumps(stamp(args), sort_keys=True), flush=True)
    metrics: dict[str, tuple[float, str]] = {}
    named: dict[str, tuple[float, str]] = {}
    if args.trace:
        wl.prepare(args.seed)
        tracer, passes = traced_loop(wl, args.workload, args.seconds)
        outcomes = [o for p in passes for o in p[1]]
        metrics = traced_metrics(tracer, passes)
        # the gates see one pass; tracing must not change results, and nested
        # self times must fit in the traced wall time
        digests = {tuple(d for o in p[1] for d in o.digest) for p in passes}
        traced_wall = sum(p[2] for p in passes if p[0])
        checks_ok = (
            wl.final_check(passes[0][1])
            and len(digests) == 1
            and tracer.total_self_s() <= traced_wall * (1.0 + 1e-9)
        )
    else:
        setup = measure_setup(args.workload, args.seed)
        wl.prepare(args.seed)
        outcomes, wall, norm = untraced_loop(wl, args.workload, args.seconds)
        # throughput of the calls that did work over the whole run; failed
        # operations are counted in ``failed``, and a call cut short by an
        # error has no meaningful time
        done = [o for o in outcomes if o.work]
        work = sum(o.work for o in done)
        metrics["ops_per_s"] = (work / sum(o.seconds for o in done) if done else 0.0, "1/s")
        metrics["setup_s"] = (statistics.median(norm_s for _, norm_s in setup), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        checks_ok = wl.final_check(outcomes)
        named = {
            wl.work_name: metrics["ops_per_s"],
            f"{wl.work_name}_wall": (work / wall, "1/s"),
            "setup_wall_s": (statistics.median(wall_s for wall_s, _ in setup), "s"),
            "host_slowdown": (wall / norm, "ratio"),
            **wl.summary(outcomes),
        }

    attempted = sum(o.ops for o in outcomes)
    failed = attempted if not checks_ok else sum(o.failed for o in outcomes)
    wrong = sum(o.failed - o.errors for o in outcomes)
    named["error_rate"] = (failed / attempted, "ratio")
    print("# digest " + json.dumps([o.digest for o in outcomes]), flush=True)
    for name, (value, unit) in named.items():
        print(f"# {args.workload} {name} {value!r} {unit}", flush=True)
    result = {
        "correct": checks_ok and wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process; relay its lines and print a summary."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"# {name} failed with exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        for line in lines[:-1]:
            if not line.startswith("# digest"):
                print(line)
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        for metric, entry in res["metrics"].items():
            print(f"{name:9s} {metric:45s} {entry['value']:.6g} {entry['unit']}")
        print(f"{name:9s} {'correct':45s} {res['correct']} ({res['failed']}/{res['attempted']} failed)")
    if status:
        return status
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{m}": e for name, r in results.items() for m, e in r["metrics"].items()},
    }))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_threads()
    if args.workload == "all":
        return run_all(args)
    try:
        load_package()
    except ImportError as exc:
        print(f"cannot import anchormosaic from the checkout: {exc}", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
