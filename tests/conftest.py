"""Shared pytest hooks and settings for the suite.

The acceptance tests emit one ``criterion NN: PASS/FAIL`` line each; pytest
captures the stdout of passing tests, so this hook echoes the collected
lines in the terminal summary where a plain ``pytest`` run shows them.

Every Hypothesis test runs under one profile: derandomized, with no example
database and no deadline, so each run draws the same examples; a test's
``@settings`` sets only its ``max_examples``.
"""
from hypothesis import settings

settings.register_profile("steerkit", deadline=None, derandomize=True, database=None)
settings.load_profile("steerkit")

acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(set(acceptance_lines)):
        terminalreporter.line(line)
