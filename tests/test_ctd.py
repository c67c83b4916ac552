import dataclasses
import hashlib
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import coexlink.ctd as ctd
from coexlink.ctd import (
    coverage_point,
    ctd_curve,
    ctd_mixture,
    ctd_off_start,
    ctd_on_start,
    default_grid,
    slot_tail,
)
from coexlink.dist import (
    CoexistenceScenario,
    ConstantOnTime,
    ExponentialIdle,
    ExponentialOnTime,
    HyperexponentialIdle,
    activity_factor,
)
from coexlink.per import resolve_ell_max
from coexlink.presets import preset_names, preset_scenario
from coexlink.renewal import CountKind, RenewalPmfSpec, pmf

from conftest import ALL_PRESET_NAMES, EXTRA_SCENARIOS, scenario_named
from oracles import (
    coverage_point_bisect,
    gamma_lower_reg,
    pmf_tail_index,
    slot_tail_per_slot,
)

PACKET_RATE = 1.0 / 1.984e-3


# -- series oracle ------------------------------------------------------------
# The CDFs as the geometric series over n-fold on-time convolutions that the
# closed forms in coexlink.ctd sum exactly, truncated after the n whose
# renewal tail drops below epsilon.


def on_time_sum_cdf(busy, n: int, x, residual: bool = False):
    """CDF of n full on-times, or of one stationary residual plus n-1 full ones."""
    x = np.asarray(x, dtype=float)
    if n == 0:
        return (x >= 0.0).astype(float)
    if isinstance(busy, ExponentialOnTime):
        # Erlang-n; memoryless, so the residual variant is the same law.
        # np.maximum also maps x <= 0 to P(n, 0) = 0, the correct CDF value.
        return gamma_lower_reg(float(n), np.maximum(busy.rate * x, 0.0))
    if residual:
        # Uniform(0, d) residual: the CDF ramps across [(n-1)*d, n*d].
        lo = (n - 1) * busy.duration
        return np.clip((x - lo) / busy.duration, 0.0, 1.0)
    return (x >= n * busy.duration).astype(float)


def _series_sum(scenario, x, epsilon: float, residual: bool) -> np.ndarray:
    """sum_{n=1..N} (1-g) g^(n-1) * CDF_n(x), with g^N <= epsilon."""
    s = scenario.packet_rate
    g = scenario.idle.laplace(s)
    spec = RenewalPmfSpec(scenario.idle, s, 0.0, CountKind.ORDINARY)
    acc = np.zeros_like(x)
    weight = 1.0 - g
    for n in range(1, pmf_tail_index(spec, epsilon) + 2):
        acc += weight * on_time_sum_cdf(scenario.busy, n, x, residual)
        weight *= g
    return acc


def series_off_start(scenario, x, epsilon: float = 1e-15):
    xa = np.asarray(x, dtype=float)
    xc = np.maximum(xa, 0.0)
    g_res = scenario.idle.residual_laplace(scenario.packet_rate)
    damp = np.exp(-scenario.packet_rate * xc)
    vals = 1.0 - damp * g_res * (1.0 - _series_sum(scenario, xc, epsilon, residual=False))
    return np.clip(np.where(xa < 0.0, 0.0, vals), 0.0, 1.0)


def series_on_start(scenario, x, epsilon: float = 1e-15):
    xa = np.asarray(x, dtype=float)
    xc = np.maximum(xa, 0.0)
    damp = np.exp(-scenario.packet_rate * xc)
    vals = (1.0 - damp) + damp * _series_sum(scenario, xc, epsilon, residual=True)
    return np.clip(np.where(xa < 0.0, 0.0, vals), 0.0, 1.0)


def _mean_above(curve_fn, scenario):
    """integral of (1 - CDF) via a fine trapezoid; jump error ~ grid step."""
    x_hi = 35.0 / scenario.packet_rate
    x = np.linspace(0.0, x_hi, 200_001)
    y = 1.0 - curve_fn(scenario, x)
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


class TestAtoms:
    def test_on_start_has_no_mass_at_zero(self, any_scenario):
        assert float(ctd_on_start(any_scenario, 0.0)) == 0.0

    def test_off_start_atom_is_residual_idle_transform(self, any_scenario):
        # no collision exactly when the packet ends inside the opening
        # residual idle gap: P = 1 - E[exp(-rate * residual)]
        g_res = any_scenario.idle.residual_laplace(any_scenario.packet_rate)
        assert float(ctd_off_start(any_scenario, 0.0)) == pytest.approx(
            1.0 - g_res, rel=1e-12
        )

    def test_mixture_atom(self, any_scenario):
        alpha = activity_factor(any_scenario)
        g_res = any_scenario.idle.residual_laplace(any_scenario.packet_rate)
        assert float(ctd_mixture(any_scenario, 0.0)) == pytest.approx(
            (1.0 - alpha) * (1.0 - g_res), rel=1e-12
        )

    def test_frozen_exponential_atoms(self, scenario_exp_0p1575, scenario_exp_0p0361):
        # frozen from rate / (rate + idle_rate) by hand for the two stock
        # exponential setups
        assert float(ctd_off_start(scenario_exp_0p1575, 0.0)) == pytest.approx(
            0.5020834163247421, abs=1e-14
        )
        assert float(ctd_mixture(scenario_exp_0p1575, 0.0)) == pytest.approx(
            0.4230052782535952, abs=1e-14
        )
        assert float(ctd_mixture(scenario_exp_0p0361, 0.0)) == pytest.approx(
            0.8041372683577054, abs=1e-14
        )


class TestShape:
    def test_zero_left_of_origin(self, any_scenario):
        x = np.array([-1.0, -1e-9, 0.0])
        assert np.all(ctd_off_start(any_scenario, x)[:2] == 0.0)
        assert np.all(ctd_on_start(any_scenario, x)[:2] == 0.0)
        assert np.all(ctd_mixture(any_scenario, x)[:2] == 0.0)

    def test_monotone_and_bounded(self, any_scenario):
        grid = default_grid(any_scenario, points=400)
        for fn in (ctd_off_start, ctd_on_start, ctd_mixture):
            vals = fn(any_scenario, grid)
            assert np.all((vals >= 0.0) & (vals <= 1.0))
            assert np.all(np.diff(vals) >= -1e-12)

    def test_busy_start_collides_more(self, any_scenario):
        # an opening busy burst can only add collision time, so the
        # busy-start CDF sits below the idle-start one everywhere
        grid = default_grid(any_scenario, points=400)
        low = ctd_on_start(any_scenario, grid)
        high = ctd_off_start(any_scenario, grid)
        assert np.all(low <= high + 1e-9)

    def test_truncation_error_bounded_by_epsilon(self, any_scenario):
        # the closed forms sum the whole series; cutting it where the renewal
        # tail drops below epsilon moves the CDF by at most epsilon
        grid = default_grid(any_scenario, points=200)
        for epsilon in (1e-6, 1e-12):
            for fn, oracle in ((ctd_off_start, series_off_start),
                               (ctd_on_start, series_on_start)):
                gap = np.max(np.abs(fn(any_scenario, grid) - oracle(any_scenario, grid, epsilon)))
                assert gap <= epsilon


class TestMeanOracles:
    """First-moment identities that do not depend on the series construction."""

    def test_stationary_mean_is_activity_over_rate(self, any_scenario):
        # stationary busy fraction alpha makes E[collision] = alpha * E[packet]
        expected = activity_factor(any_scenario) / any_scenario.packet_rate
        measured = _mean_above(ctd_mixture, any_scenario)
        assert measured == pytest.approx(expected, rel=2e-3)

    def test_two_state_markov_closed_forms(self):
        # with exponential busy AND idle the interferer is a two-state Markov
        # chain: P(busy at t | busy at 0) = a + (1-a) e^{-(mu+rho) t}, so the
        # conditional means integrate in closed form against e^{-rate t}.
        mu, rho, rate = 2500.0, 500.0, 504.0
        sc = CoexistenceScenario(
            busy=ExponentialOnTime(rate=mu),
            idle=ExponentialIdle(rate=rho),
            packet_rate=rate,
        )
        a = activity_factor(sc)
        assert a == pytest.approx(rho / (mu + rho), rel=1e-14)
        on_mean = a / rate + (1.0 - a) / (rate + mu + rho)
        off_mean = a / rate - a / (rate + mu + rho)
        assert _mean_above(ctd_on_start, sc) == pytest.approx(on_mean, rel=1e-6)
        assert _mean_above(ctd_off_start, sc) == pytest.approx(off_mean, rel=1e-6)


def test_constant_busy_jumps_match_renewal_pmf(any_scenario):
    # with a fixed busy duration the idle-start CDF jumps at every multiple
    # of it; the jump is the chance of completing exactly n gaps in the
    # window shrunk by the busy budget n * duration.
    if not isinstance(any_scenario.busy, ConstantOnTime):
        pytest.skip("needs a constant busy duration")
    t_w = any_scenario.busy.duration
    s = any_scenario.packet_rate
    delta = 1e-12
    for n in (1, 2, 3):
        left = float(ctd_off_start(any_scenario, n * t_w - delta))
        right = float(ctd_off_start(any_scenario, n * t_w + delta))
        expected = pmf(RenewalPmfSpec(any_scenario.idle, s, n * t_w, CountKind.EQUILIBRIUM), n)
        assert right - left == pytest.approx(expected, rel=1e-6)


class TestCoveragePoint:
    def test_brackets_target(self):
        # the point meets the target and the float just below it does not;
        # it need not be the smallest float that meets it (see coverage_point)
        for name in ALL_PRESET_NAMES:
            scenario = scenario_named(name)
            for coverage in (1e-4, 1e-6, 1e-9):
                x = coverage_point(scenario, coverage=coverage)
                assert float(ctd_mixture(scenario, x)) >= 1.0 - coverage, (name, coverage)
                below = np.nextafter(x, 0.0)
                assert float(ctd_mixture(scenario, below)) < 1.0 - coverage, (name, coverage)

    def test_degenerate_when_atom_covers(self, scenario_exp_0p0361):
        # mixture atom at 0 is ~0.804, so 30% coverage is met instantly
        assert coverage_point(scenario_exp_0p0361, coverage=0.3) == 0.0

    def test_rejects_bad_coverage(self, scenario_exp_0p1575):
        with pytest.raises(ValueError):
            coverage_point(scenario_exp_0p1575, coverage=0.0)

    @pytest.mark.parametrize("name", ALL_PRESET_NAMES + ["saturated", "exp_busy"])
    def test_few_cdf_evaluations(self, name, monkeypatch):
        # one CDF call at 0, then one per ten bisection steps (~60 to reach
        # adjacent floats), where plain bisection made 81 scalar calls
        calls = []

        def counted(scenario, x):
            calls.append(np.size(x))
            return ctd_mixture(scenario, x)

        monkeypatch.setattr(ctd, "ctd_mixture", counted)
        for coverage in (1e-4, 1e-9):
            calls.clear()
            coverage_point(scenario_named(name), coverage)
            assert len(calls) <= 10


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(ALL_PRESET_NAMES + ["saturated", "exp_busy"]),
    log_coverage=st.floats(min_value=math.log(1e-9), max_value=math.log(0.5)),
)
def test_coverage_point_is_the_bisection_crossing(name, log_coverage):
    sc = scenario_named(name)
    coverage = math.exp(log_coverage)
    target = 1.0 - coverage
    x = coverage_point(sc, coverage)
    assert float(ctd_mixture(sc, x)) >= target
    if x > 0.0:
        assert float(ctd_mixture(sc, np.nextafter(x, 0.0))) < target
    assert x == pytest.approx(coverage_point_bisect(sc, coverage), rel=1e-11, abs=0.0)


@pytest.mark.parametrize("name", ALL_PRESET_NAMES + sorted(EXTRA_SCENARIOS))
def test_slot_tail_is_one_minus_cdf_on_the_slot_grid(name):
    # the runs must start exactly where the CDF jumps, including slots that
    # sit on a multiple of the busy time (1309, 1683, 2618 on alpha_ge_0.5)
    sc = scenario_named(name)
    slots = np.arange(3000)
    tail = slot_tail(sc, slots.size)
    run = np.searchsorted(tail.starts, slots, side="right") - 1
    values = np.exp(tail.log_decay * slots) * (
        tail.heads[run] - tail.slopes[run] * (slots - tail.starts[run]))
    np.testing.assert_allclose(values, 1.0 - ctd_mixture(sc, slots * sc.bit_time),
                               rtol=0.0, atol=1e-15)
    assert np.array_equal(tail.at(slots), values)
    if isinstance(sc.busy, ExponentialOnTime):
        assert tail.starts.tolist() == [0]


@pytest.mark.parametrize("name", ALL_PRESET_NAMES + sorted(EXTRA_SCENARIOS))
@pytest.mark.parametrize("bit_time", [None, 1e-9])
def test_slot_tail_runs_equal_the_per_slot_oracle(name, bit_time):
    # runs found from the busy-period boundaries must start at the slots where
    # the per-slot jump count changes, with the same heads and slopes, to the
    # last bit; several boundaries share a slot on busy_below_bit, and at
    # 1 ns bits the boundaries lie 374,000 slots apart (2,500 on busy_below_bit)
    sc = scenario_named(name)
    counts = [0, 1, 2, 94, 3000]
    if bit_time is None:
        counts.append(resolve_ell_max(sc, 1e-6) + 1)
    else:
        sc = dataclasses.replace(sc, bit_time=bit_time)
        counts.append(1_000_001)
    for slots in counts:
        tail, oracle = slot_tail(sc, slots), slot_tail_per_slot(sc, slots)
        for field in ("starts", "heads", "slopes"):
            got, want = getattr(tail, field), getattr(oracle, field)
            assert got.dtype == want.dtype and np.array_equal(got, want), (slots, field)
        assert tail.log_decay == oracle.log_decay


# sha256 of both conditional CDFs and their mixture on the first 3000 bit
# slots and on the default grid, then of the coverage points at 1e-4, 1e-6
# and 1e-9, recorded while each start state had its own jump count
# (exp_busy_g_to_1 while each busy law had its own mixture code): the shared
# evaluation must reproduce every float.
@pytest.mark.parametrize("name,expected", [
    ("alpha_0.1_0.3", "1422319ff1f3a054d99044c100405cd6e1288514f781ca1bdd4a86634275018c"),
    ("alpha_0.3_0.5", "2115104466035347741e16208e11471f201f5ef9a1ded40626207fa90500e6e9"),
    ("alpha_ge_0.5", "fe55ae38a4bfd99465dc749f5976bbf7a3ca9182fc499c0691be9c4b5bc2e7c0"),
    ("alpha_lt_0.1", "e78f3a54db36d4e380432328ffa474f4f6141fca05e8ce9c566487dfc3375a61"),
    ("exp_alpha_0.0361", "47558f391292c6218d9021b5b253c1a59fd8fbf102d567220d3d8af6acafbbd6"),
    ("exp_alpha_0.1575", "c1431bde1f4fa2060cc08b75cb46bed4f1893d9a7be2a5948391ecdc029be3c1"),
    ("busy_below_bit", "265b50f39264120680e9c6969c8a26d2c633097fff2d762a93620c46ee329db1"),
    ("exp_busy", "ede35707702f4a4950916c36f3ad5c13df9d8e5bdb4b6c440f53c1d128b74e74"),
    ("exp_busy_g_to_1", "554489dbd9251c1383fa63b48626083657446aed86cbfd85fee2ba8f6d83c5d1"),
    ("g_to_1", "987a35a026511aee273bb9c864075f2b348accbbfcd2c9dbc6c94d800881ec6f"),
    ("saturated", "2b256674a9efcd6a1a308e28cf2b3436178e7d8429a1eb5972730e33bc519385"),
])
def test_cdf_floats_frozen(name, expected):
    sc = scenario_named(name)
    h = hashlib.sha256()
    for grid in (np.arange(3000) * sc.bit_time, default_grid(sc)):
        for fn in (ctd_off_start, ctd_on_start, ctd_mixture):
            h.update(np.asarray(fn(sc, grid), dtype="<f8").tobytes())
    points = [coverage_point(sc, coverage) for coverage in (1e-4, 1e-6, 1e-9)]
    h.update(np.array(points, dtype="<f8").tobytes())
    assert h.hexdigest() == expected


class TestCurve:
    def test_default_grid_span(self, scenario_exp_0p1575):
        grid = default_grid(scenario_exp_0p1575, points=128)
        assert grid.size == 128
        assert grid[0] == 0.0
        assert grid[-1] <= 8.0 * scenario_exp_0p1575.packet_mean + 1e-15

    def test_default_grid_needs_two_points(self, scenario_exp_0p1575):
        with pytest.raises(ValueError, match="at least 2 points"):
            default_grid(scenario_exp_0p1575, points=1)

    def test_default_grid_spans_a_packet_mean_when_the_atom_covers(self):
        # at alpha 1e-5 the atom at 0 is 0.99994 >= 1 - 1e-4, so the coverage
        # point is 0.0 and the grid falls back to one packet mean, 1.984 ms
        scenario = preset_scenario("exp_alpha_0.00001")
        assert coverage_point(scenario) == 0.0
        grid = default_grid(scenario, points=5)
        assert grid.tolist() == np.linspace(0.0, 1.984e-3, 5).tolist()

    def test_curve_consistency(self, scenario_exp_0p1575):
        curve = ctd_curve(scenario_exp_0p1575, points=64)
        np.testing.assert_allclose(
            curve.omega,
            curve.alpha * curve.omega1 + (1.0 - curve.alpha) * curve.omega0,
            atol=1e-15,
        )
        np.testing.assert_allclose(
            curve.omega, ctd_mixture(scenario_exp_0p1575, curve.grid), atol=1e-12
        )

    def test_curve_input_validation(self, scenario_exp_0p1575):
        with pytest.raises(ValueError):
            ctd_curve(scenario_exp_0p1575, grid=np.array([0.0, -1.0]))
        with pytest.raises(ValueError):
            ctd_curve(scenario_exp_0p1575, grid=np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            ctd_curve(scenario_exp_0p1575, grid=np.array([0.0, np.inf]))
        with pytest.raises(ValueError):
            ctd_curve(scenario_exp_0p1575, grid=np.zeros((2, 2)))

    def test_clamp_diagnostic(self, caplog, monkeypatch):
        # `ctd._start_cdfs` logs at DEBUG when a CDF leaves [0, 1] by more
        # than `ctd._CLAMP_SLACK` before its clamp: on no preset does one, and
        # turning the log on leaves every curve as it was, bit for bit
        quiet = {name: ctd_curve(preset_scenario(name)) for name in preset_names()}
        with caplog.at_level(logging.DEBUG, logger="coexlink.ctd"):
            for name, expected in quiet.items():
                curve = ctd_curve(preset_scenario(name))
                for column in ("omega0", "omega1", "omega"):
                    assert (getattr(curve, column).tobytes()
                            == getattr(expected, column).tobytes()), (name, column)
        assert caplog.records == []

        # with a negative slack every evaluation logs, once, its overshoot:
        # how far the CDFs reach past 1 or below 0, and 0 when they stay inside
        monkeypatch.setattr(ctd, "_CLAMP_SLACK", -1.0)
        with caplog.at_level(logging.DEBUG, logger="coexlink.ctd"):
            curve = ctd_curve(preset_scenario("alpha_ge_0.5"), grid=[1e-3, 1.0])
        values = np.concatenate([curve.omega0, curve.omega1])
        overshoot = max(values.max() - 1.0, -values.min(), 0.0)
        (record,) = caplog.records
        assert record.args == (overshoot,)
        assert record.getMessage() == (
            f"collision-time CDF exceeded [0,1] by {overshoot:.3e} before clamping")


class TestSeriesOracle:
    """Closed forms against the truncated series at epsilon = 1e-15."""

    @pytest.mark.parametrize("name", ALL_PRESET_NAMES + ["saturated", "exp_busy"])
    @pytest.mark.parametrize("fn, oracle", [(ctd_off_start, series_off_start),
                                            (ctd_on_start, series_on_start)],
                             ids=["off_start", "on_start"])
    def test_closed_form_matches_series(self, name, fn, oracle):
        sc = scenario_named(name)
        # the slot grid of the PER weights puts points exactly on multiples
        # of the busy duration (slots 1309, 1683, 2618 on alpha_ge_0.5),
        # where the jump must fall on the same side as in the series
        grids = (np.linspace(0.0, 8.0 * sc.packet_mean, 4001),
                 np.arange(3000) * sc.bit_time)
        for x in grids:
            np.testing.assert_allclose(fn(sc, x), oracle(sc, x), rtol=0.0, atol=1e-14)

    def test_sum_cdf_is_step(self):
        d = ConstantOnTime(2.0)
        x = np.array([-1.0, 0.0, 3.9, 4.0, 4.1])
        np.testing.assert_array_equal(on_time_sum_cdf(d, 2, x), [0.0, 0.0, 0.0, 1.0, 1.0])
        # zero periods: degenerate at 0
        np.testing.assert_array_equal(on_time_sum_cdf(d, 0, x), [0.0, 1.0, 1.0, 1.0, 1.0])

    def test_residual_sum_cdf_ramps(self):
        d = ConstantOnTime(2.0)
        x = np.array([-1.0, 2.0, 2.5, 3.0, 4.0, 5.0])
        np.testing.assert_allclose(
            on_time_sum_cdf(d, 2, x, residual=True), [0.0, 0.0, 0.25, 0.5, 1.0, 1.0]
        )

    def test_single_period_cdf(self):
        d = ExponentialOnTime(rate=500.0)
        x = np.array([-1e-3, 0.0, 1e-3, 5e-3])
        np.testing.assert_allclose(
            on_time_sum_cdf(d, 1, x), np.maximum(1.0 - np.exp(-500.0 * x), 0.0), rtol=1e-12
        )

    def test_erlang_cdf_against_series(self):
        # P(Erlang(n, r) <= x) = 1 - e^{-rx} sum_{k<n} (rx)^k / k!
        d = ExponentialOnTime(rate=2.0)
        n, x = 4, 1.7
        rx = d.rate * x
        tail = math.exp(-rx) * math.fsum(rx**k / math.factorial(k) for k in range(n))
        assert float(on_time_sum_cdf(d, n, x)) == pytest.approx(1.0 - tail, rel=1e-12)

    def test_memoryless_residual(self):
        d = ExponentialOnTime(rate=123.0)
        x = np.linspace(0, 0.05, 40)
        np.testing.assert_array_equal(
            on_time_sum_cdf(d, 3, x, residual=True), on_time_sum_cdf(d, 3, x)
        )


class TestIdleGapsFarShorterThanPacket:
    """g -> 1: 374 us busy periods, 0.1 ns idle gaps, g = 1 - 5.04e-8.

    The truncated series would need ~7e8 terms here.
    """

    @pytest.mark.parametrize("busy", [ConstantOnTime(374e-6), ExponentialOnTime(1.0 / 374e-6)],
                             ids=["constant", "exponential"])
    def test_curve_is_a_cdf_with_the_stationary_mean(self, busy):
        sc = CoexistenceScenario(busy, ExponentialIdle(1e10), PACKET_RATE)
        assert 1.0 - sc.idle.laplace(sc.packet_rate) == pytest.approx(5.04e-8, rel=1e-3)
        curve = ctd_curve(sc, points=512)
        for vals in (curve.omega0, curve.omega1, curve.omega):
            assert np.all((vals >= 0.0) & (vals <= 1.0))
            assert np.all(np.diff(vals) >= 0.0)
        expected = activity_factor(sc) / sc.packet_rate
        assert _mean_above(ctd_mixture, sc) == pytest.approx(expected, rel=1e-6)

    def test_exponential_busy_mean_at_full_precision(self):
        # 0.1 ps busy and idle periods, 1 - g = 5.04e-11: the collision time
        # decays at rate + r*(1 - g) with r*(1 - g) ~ rate, so 1 - g formed by
        # subtraction (relative error ~1e-16/(1 - g)) would move the mean by
        # ~1e-6 relative.  1 - CDF is a sum of two exponentials, which quad
        # integrates to ~1e-15.
        sc = CoexistenceScenario(ExponentialOnTime(1e13), ExponentialIdle(1e13), PACKET_RATE)
        assert sc.idle.one_minus_laplace(sc.packet_rate) == pytest.approx(5.04e-11, rel=1e-3)
        measured, _ = integrate.quad(lambda x: 1.0 - float(ctd_mixture(sc, x)), 0.0, np.inf,
                                     epsabs=0.0, epsrel=1e-13, limit=200)
        expected = activity_factor(sc) / sc.packet_rate
        assert measured == pytest.approx(expected, rel=1e-12, abs=0.0)


@settings(max_examples=40, deadline=None)
@given(
    busy_mean=st.floats(min_value=1e-5, max_value=5e-3),
    idle_mean=st.floats(min_value=1e-4, max_value=5e-2),
    x_lo=st.floats(min_value=0.0, max_value=5e-3),
    x_step=st.floats(min_value=0.0, max_value=5e-3),
)
def test_cdf_monotone_property(busy_mean, idle_mean, x_lo, x_step):
    sc = CoexistenceScenario(
        busy=ConstantOnTime(busy_mean),
        idle=ExponentialIdle(rate=1.0 / idle_mean),
        packet_rate=504.0,
    )
    lo = float(ctd_mixture(sc, x_lo))
    hi = float(ctd_mixture(sc, x_lo + x_step))
    assert 0.0 <= lo <= hi + 1e-12
    assert hi <= 1.0


def _log_uniform(low, high):
    return st.floats(min_value=math.log(low), max_value=math.log(high)).map(math.exp)


@st.composite
def start_state_cases(draw):
    """A generated scenario and CDF probes: constant or exponential busy
    times of 1 us to 10 ms, exponential or 1-4-phase hyperexponential idle
    gaps with means of 100 ns to 100 ms, packets of 0.1 to 10 ms, and probes
    below 0, at 0, across ten packets, and on busy multiples and one ulp
    either side of them."""
    busy_time = draw(_log_uniform(1e-6, 1e-2))
    busy = ConstantOnTime(busy_time) if draw(st.booleans()) else ExponentialOnTime(1.0 / busy_time)
    phases = draw(st.integers(0, 4))
    if phases:
        raw = draw(st.lists(st.floats(0.01, 1.0), min_size=phases, max_size=phases))
        means = draw(st.lists(_log_uniform(1e-7, 0.1), min_size=phases, max_size=phases))
        idle = HyperexponentialIdle(tuple(w / math.fsum(raw) for w in raw), tuple(means))
    else:
        idle = ExponentialIdle(1.0 / draw(_log_uniform(1e-7, 0.1)))
    packet_time = draw(_log_uniform(1e-4, 1e-2))
    scenario = CoexistenceScenario(busy, idle, 1.0 / packet_time)
    multiples = busy_time * np.array(draw(st.lists(st.integers(0, 50), min_size=1, max_size=6)),
                                     dtype=float)
    spread = packet_time * np.array(draw(st.lists(st.floats(-1.0, 10.0), min_size=1,
                                                  max_size=6)))
    probes = np.concatenate([[-busy_time, -0.0, 0.0, 5e-324], spread, multiples,
                             np.nextafter(multiples, -np.inf), np.nextafter(multiples, np.inf)])
    return scenario, probes


@settings(max_examples=150, deadline=None)
@given(case=start_state_cases())
def test_start_states_equal_the_two_row_reference(case):
    # each start state forms only its own row, the mixture both, and every
    # float is the one the two rows formed together give
    scenario, probes = case
    alpha = activity_factor(scenario)
    for x in (probes, float(probes[-1])):
        off, on = ctd._start_cdfs(scenario, x)
        for got, want in ((ctd_off_start(scenario, x), off), (ctd_on_start(scenario, x), on),
                          (ctd_mixture(scenario, x), alpha * on + (1.0 - alpha) * off)):
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)
            assert np.all((got >= 0.0) & (got <= 1.0))
