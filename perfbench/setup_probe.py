"""One set-up of a workload in a fresh process: import the package and prepare
the workload's inputs, then print ``ready``. ``run.py`` times this from spawn
to ``ready`` and reports the median over several probes as ``setup_s``.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

import run

if __name__ == "__main__":
    run.cap_threads()
    run.load_package()
    import workloads

    workloads.WORKLOADS[sys.argv[1]]().prepare(int(sys.argv[2]))
    print("ready", flush=True)
