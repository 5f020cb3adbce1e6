"""Shared fixtures and the acceptance reporting hook."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import copysampler
from copysampler import ConcentricCirclesOracle, HalfspaceOracle
from copysampler.core import RandomSource

# Collected by tests/test_acceptance.py and printed after the run so the
# per-criterion verdict lines survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line("  " + line)


@pytest.fixture
def rng():
    return RandomSource(20240117)


@pytest.fixture
def halfspace():
    return HalfspaceOracle(w=(1.0, 0.0), c=0.5)


@pytest.fixture
def circles():
    return ConcentricCirclesOracle(center=(0.5, 0.5), radii=[0.25])


@pytest.fixture
def probe_grid():
    g = np.linspace(0.01, 0.99, 40)
    xx, yy = np.meshgrid(g, g)
    return np.column_stack([xx.ravel(), yy.ravel()])


def circle_distances(oracle, X):
    """Distance of each row of X to the nearest ring of a ConcentricCirclesOracle."""
    r = np.linalg.norm(np.atleast_2d(X) - oracle.center, axis=1)
    return np.abs(r[:, None] - oracle.radii).min(axis=1)


def peak_rss_growth_mb(setup, statement):
    """Peak RSS growth, in MiB, over `statement` run after `setup` in a fresh process."""
    code = (
        "import resource\n"
        f"{setup}\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        f"{statement}\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print((after - before) / 1024)\n"
    )
    src = str(Path(copysampler.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return float(done.stdout.split()[-1])
