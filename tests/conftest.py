"""Shared pytest hooks and settings for the suite.

The acceptance tests emit one ``criterion NN: PASS/FAIL`` line each; pytest
captures the stdout of passing tests, so this hook echoes the collected
lines in the terminal summary where a plain ``pytest`` run shows them.

Every Hypothesis test runs under one profile: derandomized, with no example
database and no deadline, so each run draws the same examples; a test's
``@settings`` sets only its ``max_examples``.

The report header names the numerical stack the run used: the numpy and
scipy versions with each one's BLAS, the BLAS and OpenMP thread variables and
the usable CPU count.  The ``reproduce`` seed gate and the byte-identity tests
read exact bits, and those depend on that stack (README, "Reference datasets").
"""
import os

import numpy
import scipy
from hypothesis import settings

from helpers import usable_cpus

#: environment variables that set the BLAS and OpenMP thread counts
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

settings.register_profile("steerkit", deadline=None, derandomize=True, database=None)
settings.load_profile("steerkit")

acceptance_lines: list[str] = []


def pytest_report_header(config):
    lines = []
    for module in (numpy, scipy):
        blas = module.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        lines.append(
            f"{module.__name__} {module.__version__}, BLAS {blas.get('name')} {blas.get('version')}"
        )
    threads = ", ".join(f"{name}={os.environ.get(name, 'unset')}" for name in THREAD_VARIABLES)
    lines.append(f"{threads}; usable CPUs: {usable_cpus()}")
    return lines


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(set(acceptance_lines)):
        terminalreporter.line(line)
