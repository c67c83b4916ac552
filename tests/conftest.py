import importlib.util
import math
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from coexlink.dist import (CoexistenceScenario, ConstantOnTime, ExponentialIdle,
                           ExponentialOnTime, HyperexponentialIdle)
from coexlink.per import Modulation
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


def log_uniform(low, high):
    """Floats spread evenly in log between ``low`` and ``high``."""
    return st.floats(min_value=math.log(low), max_value=math.log(high)).map(math.exp)


@st.composite
def per_links(draw):
    """A generated link: exponential or 1-4-phase hyperexponential idle gaps
    (means 0.1-100 ms), constant or exponential busy periods of 0.1-1000
    bits, packets of 1-3000 bits of 1-100 us, a modulation with coeff 0.3-2
    and gain 0.5-4, snr 0-30 dB, two INRs in -30..40 dB, noise_bits None or
    0-2000 and ell_max 1-3000."""
    bit_time = draw(log_uniform(1e-6, 1e-4))
    phases = draw(st.integers(0, 4))
    if phases:
        raw = draw(st.lists(st.floats(0.01, 1.0), min_size=phases, max_size=phases))
        means = draw(st.lists(log_uniform(1e-4, 0.1), min_size=phases, max_size=phases))
        idle = HyperexponentialIdle(tuple(w / math.fsum(raw) for w in raw), tuple(means))
    else:
        idle = ExponentialIdle(1.0 / draw(log_uniform(1e-4, 0.1)))
    busy_time = draw(log_uniform(0.1, 1000.0)) * bit_time
    busy = ConstantOnTime(busy_time) if draw(st.booleans()) else ExponentialOnTime(1.0 / busy_time)
    packet_time = draw(log_uniform(1.0, 3000.0)) * bit_time
    scenario = CoexistenceScenario(busy, idle, 1.0 / packet_time, bit_time)
    modulation = Modulation(draw(st.floats(0.3, 2.0)), draw(st.floats(0.5, 4.0)))
    snr = 10.0 ** (draw(st.floats(0.0, 30.0)) / 10.0)
    inr = 10.0 ** (np.array(draw(st.lists(st.floats(-30.0, 40.0), min_size=2, max_size=2)))
                   / 10.0)
    noise_bits = draw(st.none() | st.integers(0, 2000))
    return scenario, modulation, snr, inr, noise_bits, draw(st.integers(1, 3000))


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
