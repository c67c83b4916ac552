import importlib.util
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from coexlink.dist import CoexistenceScenario, ConstantOnTime, ExponentialIdle, ExponentialOnTime
from coexlink.presets import IDLE_MIXTURES, exponential_scenario, preset_scenario

# The property tests draw the same examples on every run (each test keeps its
# own max_examples) and write no example database into the checkout.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# Seed shared by the statistical tests.  KS/chi-square/3-sigma checks are
# exact-tolerance assertions on a fixed stream, so any seed that is not a
# ~2-sigma outlier works; this one was verified to have comfortable margin
# on every scenario.
SUITE_SEED = 20260815

ALL_PRESET_NAMES = sorted(IDLE_MIXTURES) + ["exp_alpha_0.0361", "exp_alpha_0.1575"]

_PACKET_RATE = 1.0 / 1.984e-3

# Scenarios beyond the presets, 4 us bits and 1.984 ms packets throughout:
# the benchmark's saturated channel (374 us frames, 42 us idle gaps, g ~ 0.98)
# and exponential busy periods (374 us and 2 ms means), idle gaps far shorter
# than the packet (0.1 ns, g -> 1) after constant and after exponential busy
# periods, and busy periods shorter than one bit, so every bit slot starts a
# new busy period.
EXTRA_SCENARIOS = {
    "saturated": CoexistenceScenario(ConstantOnTime(374e-6), ExponentialIdle(1.0 / 42e-6),
                                     _PACKET_RATE),
    "exp_busy": CoexistenceScenario(ExponentialOnTime(1.0 / 374e-6),
                                    ExponentialIdle(1.0 / 2e-3), _PACKET_RATE),
    "g_to_1": CoexistenceScenario(ConstantOnTime(374e-6), ExponentialIdle(1e10), _PACKET_RATE),
    "exp_busy_g_to_1": CoexistenceScenario(ExponentialOnTime(1.0 / 374e-6), ExponentialIdle(1e10),
                                           _PACKET_RATE),
    "busy_below_bit": CoexistenceScenario(ConstantOnTime(2.5e-6), ExponentialIdle(1.0 / 40e-6),
                                          _PACKET_RATE),
}


def scenario_named(name: str) -> CoexistenceScenario:
    """A preset or one of EXTRA_SCENARIOS."""
    return EXTRA_SCENARIOS[name] if name in EXTRA_SCENARIOS else preset_scenario(name)


@lru_cache(maxsize=None)
def fit_tables_script():
    """scripts/fit_tables.py, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "fit_tables.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

_acceptance_lines: list[tuple[int, str, bool, str]] = []


def record_criterion(number: int, title: str, passed: bool, detail: str) -> None:
    _acceptance_lines.append((number, title, passed, detail))


@pytest.fixture
def scenario_exp_0p1575():
    return exponential_scenario(0.1575)


@pytest.fixture
def scenario_exp_0p0361():
    return exponential_scenario(0.0361)


@pytest.fixture(params=ALL_PRESET_NAMES)
def any_scenario(request):
    return preset_scenario(request.param)


@pytest.fixture
def rng():
    return np.random.default_rng(SUITE_SEED)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for number, title, passed, detail in sorted(_acceptance_lines):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number} [{status}] {title}: {detail}")
