"""Every demo runs end to end, each in its own interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo,expected",
    [
        ("01_constants_tables.py", "r0 =  inf: criticals"),
        ("02_one_dimensional_mosaic.py", "critical intervals"),
        ("03_planar_mosaic.py", "empty-circumsphere check: 0 violations"),
        ("04_monte_carlo_rates.py", "reconciliation exact: True"),
        ("05_identity_checks.py", "CI overlap: True"),
    ],
)
def test_demo_runs(demo, expected):
    assert expected in run_demo(demo)


def test_monte_carlo_demo_stdout_repeats():
    # its wall-clock runtime goes to stderr, so two runs print the same stdout
    assert run_demo("04_monte_carlo_rates.py") == run_demo("04_monte_carlo_rates.py")


def run_demo(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout
