"""Self-test of the benchmark's tracer, on the first call of each workload.

    python3 perfbench/selftest.py

Checks that the wrappers sit at the module attributes callers look up and are
restored afterwards, that each workload records calls in every layer function
it should reach and none in the layers it bypasses, that self times nest
inside the traced wall time, and that the per-layer metric names are the ones
BENCHMARK.json lists. Also checks that a set-up probe that never answers is
killed at its deadline.
"""

import json
import subprocess
import sys
import time
import unittest

import run

run.cap_threads()
run.load_package()

import anchormosaic  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from anchormosaic import constants, experiments, geomcore, sampler  # noqa: E402

CENSUS = {
    "sampler.sample_poisson_box",
    "sampler.choose_buffer",
    "specfun.regularized_lower_gamma",
    "constants.expected_interval_count",
    "constants.expected_simplex_count",
    "experiments.estimate_interval_rates",
    "experiments.run_replicate",
    "experiments.report_to_json",
    "geomcore.visibility_type",
}
PLANAR = {"mosaic2d.regular_triangulation", "mosaic2d.power_dual", "mosaic2d.radius_and_intervals_2d"}
LINEAR = {"mosaic1d.rotate_to_halfplane", "mosaic1d.build_1d", "mosaic1d.radius_and_intervals_1d"}
HITS = {
    "census2d": CENSUS | PLANAR | {"geomcore.slice_cloud"},
    "census1d": CENSUS | LINEAR | {"experiments.ks_gamma_test"},
    "bp": {"experiments.verify_bp_identity"},
    "audit": PLANAR | LINEAR | {"geomcore.slice_cloud", "geomcore.visibility_type", "geomcore.sphere_is_empty"},
}
MISSES = {
    "census2d": LINEAR | {"geomcore.sphere_is_empty", "experiments.verify_bp_identity"},
    "census1d": PLANAR | {"geomcore.slice_cloud", "geomcore.sphere_is_empty"},
    "bp": CENSUS | PLANAR | LINEAR | {"geomcore.slice_cloud", "geomcore.sphere_is_empty"},
    "audit": CENSUS - {"geomcore.visibility_type"},
}


def traced_call(name: str, seed: int = 0):
    """The tracer and wall time of the first call of a workload."""
    wl = workloads.WORKLOADS[name]()
    wl.prepare(seed)
    inp = wl.inputs(0)
    t = tracer.Tracer()
    start = time.perf_counter()
    with t:
        wl.run(inp)
    return t, time.perf_counter() - start


class TracerTest(unittest.TestCase):
    def test_wrappers_sit_where_callers_look_and_are_restored(self):
        originals = {
            "slice_cloud": geomcore.slice_cloud,
            "run_replicate": experiments.run_replicate,
            "ball_volume": constants.ball_volume,
            "sphere_is_empty": geomcore.sphere_is_empty,
        }
        t = tracer.Tracer()
        with self.assertRaises(KeyError):
            with t:
                wrapped = t.wrapped
                self.assertIs(geomcore.slice_cloud, wrapped["geomcore.slice_cloud"])
                self.assertIs(experiments.slice_cloud, wrapped["geomcore.slice_cloud"])
                self.assertIs(experiments.run_replicate, wrapped["experiments.run_replicate"])
                self.assertIs(sampler.ball_volume, wrapped["constants.ball_volume"])
                self.assertIs(anchormosaic.sphere_is_empty, wrapped["geomcore.sphere_is_empty"])
                raise KeyError("leave the block by an exception")
        self.assertIs(geomcore.slice_cloud, originals["slice_cloud"])
        self.assertIs(experiments.slice_cloud, originals["slice_cloud"])
        self.assertIs(experiments.run_replicate, originals["run_replicate"])
        self.assertIs(sampler.ball_volume, originals["ball_volume"])
        self.assertIs(anchormosaic.sphere_is_empty, originals["sphere_is_empty"])
        leftovers = {id(w) for w in t.wrapped.values()}
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("anchormosaic"):
                for key, value in vars(module).items():
                    self.assertNotIn(id(value), leftovers, f"{module_name}.{key} still wrapped")

    def test_each_workload_reaches_its_layers_and_bypasses_the_rest(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                t, wall = traced_call(name)
                called = set(t.by_name())
                self.assertEqual(HITS[name] - called, set())
                self.assertEqual(MISSES[name] & called, set())
                self.assertLessEqual(t.total_self_s(), wall)
                for index, span in enumerate(t.spans):
                    self.assertGreaterEqual(span.self_s, -1e-9)
                    self.assertLess(span.parent, index)

    def test_counts_repeat_for_a_seed(self):
        first = tracer.layer_metrics(traced_call("census2d", seed=5)[0], 1, 1.0)
        second = tracer.layer_metrics(traced_call("census2d", seed=5)[0], 1, 1.0)
        for metric in ("geomcore.visibility_type.calls", "sampler.points", "mosaic2d.simplices"):
            self.assertGreater(first[metric][0], 0)
            self.assertEqual(first[metric], second[metric])

    def test_metric_names_match_benchmark_json(self):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            spec = json.load(handle)
        passes = [(False, [], 1.0, 1.0), (True, [], 1.0, 1.0)]
        metrics = run.traced_metrics(tracer.Tracer(), passes)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]],
            [(name, unit) for name, (_, unit) in metrics.items()],
        )

    def test_silent_probe_is_killed_at_its_deadline(self):
        proc = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"], stdout=subprocess.PIPE, text=True
        )
        start = time.perf_counter()
        line, _ = run.first_line(proc, 0.5)
        self.assertEqual(line, "")
        self.assertLess(time.perf_counter() - start, 10.0)
        self.assertIsNotNone(proc.wait(timeout=10.0))
        proc.stdout.close()


if __name__ == "__main__":
    unittest.main()
