"""Shared fixtures, the Hypothesis home and the acceptance-criterion
summary printer."""

import re
import tempfile

import pytest
from hypothesis import configuration as hypothesis_configuration

from discordkit import BlochParams

# Reference states used across modules: a uniform-c state with only the
# second marginal polarized, and an in-plane-correlation state.
REF_STATE_A = BlochParams([0, 0, 0], [0.1, 0.2, 0.2], [0.3, 0.3, 0.3])
REF_STATE_B = BlochParams([0.1, 0.2, 0], [0, 0, 0], [0.3, 0.3, 0])


@pytest.fixture
def ref_state_a():
    return REF_STATE_A


@pytest.fixture
def ref_state_b():
    return REF_STATE_B


_HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    # Hypothesis caches the literals of local modules on disk even without
    # an example database; a temporary home keeps that cache out of the tree.
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.stash[_HYPOTHESIS_HOME] = home
    hypothesis_configuration.set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    config.stash[_HYPOTHESIS_HOME].cleanup()


_ACCEPTANCE_RESULTS: dict[str, list[str]] = {}
_CRITERION_PATTERN = re.compile(r"test_acceptance\.py::test_c(\d{2})")


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = _CRITERION_PATTERN.search(report.nodeid)
    if match:
        _ACCEPTANCE_RESULTS.setdefault(match.group(1), []).append(report.outcome)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE_RESULTS):
        outcomes = _ACCEPTANCE_RESULTS[num]
        verdict = "PASS" if all(o == "passed" for o in outcomes) else "FAIL"
        terminalreporter.write_line(f"criterion {num}: {verdict}")
