import dataclasses
import math
import time
import tracemalloc
import warnings
from functools import lru_cache
from itertools import combinations_with_replacement, cycle

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import integrate, special

from coexlink import per as per_module
from coexlink.ctd import SlotTail, ctd_mixture, slot_tail
from coexlink.dist import CoexistenceScenario, ConstantOnTime, ExponentialIdle
from coexlink.per import (
    ELL_SWITCH,
    HYBRID_BLOCK,
    QN_COEFFS,
    FloatRangeError,
    GumbelDomainError,
    Modulation,
    NumericsWarning,
    PerCurve,
    PerMethod,
    ber_awgn,
    per_curve,
    resolve_ell_max,
    success_prob,
)
from coexlink.per import (
    _clamped,
    _failing_band,
    _failure_table,
    _gumbel_gamma_failures,
    _per_hybrid,
    _per_quadrature,
    _ratio_sums,
)
from coexlink.presets import preset_names, preset_scenario
from coexlink.scenario import JobParams, db_to_ratio
from conftest import (ALL_PRESET_NAMES, EXTRA_SCENARIOS, fit_tables_script, per_links,
                      scenario_named)
from oracles import (
    closed_form_table,
    closed_form_table_kv,
    gumbel_gamma_kve,
    gumbel_gamma_match,
    gumbel_gamma_one_call,
    gumbel_gamma_success,
    mixture_tail_mp,
    per_horner,
    per_hybrid_one_table,
    resolve_ell_max_bisect,
    slot_increments,
    slot_tail_per_slot,
    slot_weights,
    success_prob_adaptive,
)

BPSK = Modulation()
QUAD, HYBRID = PerMethod.QUADRATURE, PerMethod.HYBRID

# Criterion 4's grid (tests/test_acceptance.py).
CRITERION_4_SNR = [10.0 ** (db / 10.0) for db in np.arange(0.0, 30.1, 5.0)]
CRITERION_4_INR = [10.0 ** (db / 10.0) for db in np.arange(-10.0, 20.1, 5.0)]


# -- test-only oracles: the scalar routes the batched evaluation replaced ----

@lru_cache(maxsize=None)
def _qn_partitions(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-order expansion table for the closed form.

    Expanding (sum_j b_j x^j)^r over multisets of r coefficient picks gives,
    for each multiset, the total polynomial degree f and the multinomial
    weight times the coefficient product.  Returns (f values, weights).
    """
    degs = []
    weights = []
    for combo in combinations_with_replacement(range(len(QN_COEFFS)), r):
        counts = [0] * len(QN_COEFFS)
        for j in combo:
            counts[j] += 1
        mult = math.factorial(r)
        coeff = 1.0
        for j, kj in enumerate(counts):
            if kj:
                mult //= math.factorial(kj)
                coeff *= QN_COEFFS[j] ** kj
        degs.append(sum(j * kj for j, kj in enumerate(counts)))
        weights.append(mult * coeff)
    return np.asarray(degs), np.asarray(weights, dtype=float)


def closed_form_multiset(modulation: Modulation, snr: float, mean_inr: float,
                         bits: int) -> float:
    """The closed form expanded term by term over coefficient multisets.

    Every multiset of every binomial order is its own Bessel term and all of
    them go into one exact sum, clamped to [0, 1] as the route is.  The
    Bessel value depends only on the order and the degree, so it is looked
    up per degree.
    """
    if snr == 0.0:
        return (1.0 - 0.5 * modulation.coeff) ** bits
    coeff, gain = modulation.coeff, modulation.gain
    base = gain * snr
    pieces = [np.asarray([1.0])]
    for r in range(1, bits + 1):
        degs, weights = _qn_partitions(r)
        delta = (2.0 - degs) / 4.0
        arg = math.sqrt(2.0 * r * base / mean_inr)
        bessel = special.kv((2.0 - np.arange(7 * r + 1)) / 2.0, arg)[degs]
        terms = (
            math.comb(bits, r)
            * (-coeff) ** r
            * weights
            * 2.0 ** (1.0 - delta)
            * (r * base * mean_inr) ** delta
            * base ** (1.0 - 2.0 * delta)
            * bessel
            / mean_inr
        )
        pieces.append(terms)
    return min(max(math.fsum(np.concatenate(pieces).tolist()), 0.0), 1.0)


def per_at(scenario, modulation: Modulation, snr: float, mean_inr: float,
           method: PerMethod, **kwargs) -> float:
    """PER at one mean INR: a one-point `per_curve`."""
    curve = per_curve(scenario, modulation, snr, [mean_inr], [method], **kwargs)
    return float(curve.values[method.value][0])


def per_quadrature_adaptive(modulation: Modulation, snr: float, mean_inr: float,
                            noise_bits: int | None, increments: np.ndarray) -> float:
    """PER as one adaptive quadrature over the fading, g = u / (1 - u).

    The slot polynomial is summed as sum_l poly_l * q^l by powers rather
    than by Horner's rule, which keeps this scalar integrand fast.
    """
    weights = slot_weights(modulation, snr, noise_bits, np.arange(increments.size))
    poly = increments if weights is None else increments * weights
    powers = np.arange(poly.size, dtype=float)
    coeff, gain = modulation.coeff, modulation.gain
    base = gain * snr

    def integrand(u: float) -> float:
        if u >= 1.0:
            return 0.0
        g = u / (1.0 - u)
        if g == 0.0:
            qfun = 0.0 if snr > 0.0 else 0.5
        else:
            qfun = 0.5 * math.erfc(math.sqrt(base / g) / math.sqrt(2.0))
        expo = -g / mean_inr
        fade = math.exp(expo) if expo > -745.0 else 0.0
        poly_q = float(poly @ (1.0 - coeff * qfun) ** powers)
        return poly_q * fade / mean_inr / (1.0 - u) ** 2

    success, _ = integrate.quad(integrand, 0.0, 1.0, limit=400, epsabs=1e-12, epsrel=1e-10)
    return 1.0 - success


class TestModulation:
    def test_defaults_are_bpsk(self):
        assert BPSK.coeff == 1.0
        assert BPSK.gain == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Modulation(coeff=0.0)
        with pytest.raises(ValueError):
            Modulation(coeff=2.5)
        with pytest.raises(ValueError):
            Modulation(gain=-1.0)

    def test_ber_awgn_frozen_point(self):
        # Q(sqrt(2 * 10^0.909)), frozen from the tail-probability definition
        assert float(ber_awgn(BPSK, 10**0.909)) == pytest.approx(
            2.820938254161439e-05, rel=1e-12
        )

    def test_ber_awgn_zero_snr(self):
        assert float(ber_awgn(BPSK, 0.0)) == pytest.approx(0.5)
        assert float(ber_awgn(Modulation(coeff=2.0), 0.0)) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            ber_awgn(BPSK, -1.0)


class TestSuccessProbRoutes:
    def test_zero_bits_always_succeed(self):
        for method in PerMethod:
            assert success_prob(BPSK, 10.0, 1.0, 0, method) == 1.0

    def test_quadrature_frozen_points(self):
        # frozen from this quadrature at tight tolerances; guards regressions
        assert success_prob(BPSK, 10.0, 1.0, 1, QUAD) == pytest.approx(
            0.9991041185830453, rel=1e-10
        )
        assert success_prob(BPSK, 10.0, 10.0, 4, QUAD) == pytest.approx(
            0.7801486355661746, rel=1e-10
        )

    def test_zero_snr_closed_forms(self):
        # ber is exactly coeff/2 whatever the fading does; the hybrid takes
        # windows up to ELL_SWITCH from the closed form
        for bits in (1, 3, ELL_SWITCH):
            exact = (1.0 - 0.5 * BPSK.coeff) ** bits
            assert success_prob(BPSK, 0.0, 1.0, bits, HYBRID) == exact
            assert success_prob(BPSK, 0.0, 1.0, bits, QUAD) == pytest.approx(
                exact, rel=1e-9
            )

    @pytest.mark.parametrize("snr", [0.5, 10.0, 31.6])
    @pytest.mark.parametrize("mean_inr", [0.1, 1.0, 10.0])
    def test_closed_form_tracks_quadrature(self, snr, mean_inr):
        # fit-limited agreement; the underlying fit is good to ~1e-5
        windows = np.arange(1, ELL_SWITCH + 1)
        table = closed_form_table(BPSK, snr, np.array([mean_inr]), windows)
        for bits, c in zip(windows.tolist(), table[0].tolist()):
            q = success_prob_adaptive(BPSK, snr, mean_inr, bits)
            assert c == pytest.approx(q, abs=2e-5)

    def test_closed_form_matches_multiset_oracle(self):
        # polynomial powers of the fit against the multiset expansion
        worst = 0.0
        windows = np.arange(1, ELL_SWITCH + 1)
        for snr in CRITERION_4_SNR:
            table = closed_form_table(BPSK, snr, np.array(CRITERION_4_INR), windows)
            for inr, row in zip(CRITERION_4_INR, table.tolist()):
                for bits, fast in zip(windows.tolist(), row):
                    worst = max(worst, abs(fast - closed_form_multiset(BPSK, snr, inr, bits)))
        assert worst <= 1e-12

    def test_quadrature_matches_adaptive_oracle(self):
        # fixed nodes against adaptive quadrature: criterion 4's grid plus the
        # other cases of this class, SNR 0, and windows up to the largest
        # preset ell_max (2687 on alpha_ge_0.5)
        cases = [(snr, inr) for snr in CRITERION_4_SNR for inr in CRITERION_4_INR]
        cases += [(snr, inr) for snr in (0.0, 0.5, 31.6, 100.0) for inr in (0.1, 1.0, 10.0)]
        worst = 0.0
        for modulation in (BPSK, Modulation(coeff=2.0, gain=1.0)):
            for snr, inr in cases:
                for bits in (1, 2, 3, 4, 8, 12, 16, 32, 64, 128, 256, 561, 1403, 2687):
                    fixed = success_prob(modulation, snr, inr, bits, QUAD)
                    oracle = success_prob_adaptive(modulation, snr, inr, bits)
                    worst = max(worst, abs(fixed - oracle))
        assert worst <= 1e-12

    @pytest.mark.parametrize("bits", [16, 64, 256])
    @pytest.mark.parametrize("snr,mean_inr", [(10.0, 1.0), (10.0, 10.0)])
    def test_gumbel_tracks_quadrature(self, bits, snr, mean_inr):
        q = success_prob_adaptive(BPSK, snr, mean_inr, bits)
        g = success_prob(BPSK, snr, mean_inr, bits, HYBRID)
        assert g == pytest.approx(q, rel=0.05)

    def test_gumbel_domain_guard(self):
        # a hybrid window past ELL_SWITCH needs the gumbel part from slot
        # ELL_SWITCH + 1 = 9 on, so 9 * coeff > 2; the closed form has no limit
        weak = Modulation(coeff=0.2)
        for bits in (ELL_SWITCH + 1, 12):
            with pytest.raises(GumbelDomainError, match="quadrature"):
                success_prob(weak, 10.0, 1.0, bits, HYBRID)
        assert 0.0 < success_prob(weak, 10.0, 1.0, ELL_SWITCH, HYBRID) < 1.0
        assert 0.0 < success_prob(Modulation(coeff=2.0), 10.0, 1.0, ELL_SWITCH + 1, HYBRID) < 1.0

    def test_gumbel_zero_snr_limit(self):
        assert success_prob(BPSK, 0.0, 1.0, 16, HYBRID) == 0.0

    def test_hybrid_dispatch(self):
        # the closed form up to ELL_SWITCH bits, the gumbel match beyond
        args = (BPSK, 10.0, 2.0)
        for bits in (1, 5, ELL_SWITCH):
            closed = closed_form_table(BPSK, 10.0, np.array([2.0]), np.array([bits]))
            assert success_prob(*args, bits, HYBRID) == closed[0, 0]
        for bits in (ELL_SWITCH + 1, 64):
            gumbel = gumbel_gamma_success(BPSK, 10.0, np.array([2.0]), np.array([bits]))
            assert success_prob(*args, bits, HYBRID) == gumbel[0, 0]

    def test_quadrature_monotone(self):
        # success falls with window length and interference, rises with snr
        vals = [success_prob(BPSK, 10.0, 1.0, b, QUAD) for b in (1, 4, 16, 64)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        by_inr = [success_prob(BPSK, 10.0, i, 8, QUAD) for i in (0.1, 1.0, 10.0)]
        assert all(a > b for a, b in zip(by_inr, by_inr[1:]))
        by_snr = [success_prob(BPSK, s, 1.0, 8, QUAD) for s in (1.0, 10.0, 100.0)]
        assert all(a < b for a, b in zip(by_snr, by_snr[1:]))

    def test_link_validation(self):
        for method in PerMethod:
            with pytest.raises(ValueError):
                success_prob(BPSK, -1.0, 1.0, 4, method)
            with pytest.raises(ValueError):
                success_prob(BPSK, 1.0, 0.0, 4, method)
            with pytest.raises(ValueError):
                success_prob(BPSK, 1.0, 1.0, -2, method)

    @pytest.mark.parametrize("method", list(PerMethod))
    @pytest.mark.parametrize("bits", [3.0, 2.5, np.float64(4.0), True, "4"])
    def test_bits_must_be_integers(self, method, bits):
        with pytest.raises(ValueError, match="bits must be an integer"):
            success_prob(BPSK, 10.0, 1.0, bits, method)

    @pytest.mark.parametrize("method", list(PerMethod))
    def test_method_by_value(self, method):
        # a route given by name runs that route, not the default
        for bits in (1, 40):
            assert success_prob(BPSK, 10.0, 1.0, bits, method.value) == (
                success_prob(BPSK, 10.0, 1.0, bits, method)
            )

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="'qn' is not a valid PerMethod"):
            success_prob(BPSK, 10.0, 1.0, 40, "qn")

    @pytest.mark.parametrize("method", list(PerMethod))
    def test_numpy_integer_bits(self, method):
        for bits in (0, 4, 12):
            assert success_prob(BPSK, 10.0, 1.0, np.int64(bits), method) == (
                success_prob(BPSK, 10.0, 1.0, bits, method)
            )


@pytest.fixture(scope="module")
def per_setup():
    return preset_scenario("alpha_0.3_0.5"), BPSK


class TestPacketErrorRate:
    def test_result_shape(self, per_setup):
        scenario, mod = per_setup
        curve = per_curve(scenario, mod, 10.0, [3.16], [PerMethod.QUADRATURE])
        assert isinstance(curve, PerCurve)
        assert 0.0 <= curve.values["quadrature"][0] <= 1.0
        assert 0.0 <= curve.tail_mass <= 1e-6
        assert curve.ell_max == resolve_ell_max(scenario, 1e-6)

    def test_quadrature_equals_slotwise_sum(self, per_setup):
        # swapping the fading integral and the slot sum must be exact
        scenario, mod = per_setup
        combined = per_at(scenario, mod, 10.0, 3.16, PerMethod.QUADRATURE, ell_max=6)
        grid = np.arange(7) * scenario.bit_time
        increments = np.diff(ctd_mixture(scenario, grid), prepend=0.0)
        direct = math.fsum(
            increments[ell] * success_prob(mod, 10.0, 3.16, ell, QUAD)
            for ell in range(7)
        )
        assert combined == pytest.approx(1.0 - direct, abs=1e-8)

    def test_hybrid_close_to_quadrature(self, per_setup):
        scenario, mod = per_setup
        quad = per_at(scenario, mod, 10.0, 3.16, PerMethod.QUADRATURE)
        hybrid = per_at(scenario, mod, 10.0, 3.16, PerMethod.HYBRID)
        assert hybrid == pytest.approx(quad, abs=0.02)

    def test_truncation_counts_as_errors(self, per_setup):
        scenario, mod = per_setup
        coarse = per_curve(scenario, mod, 10.0, [3.16], [PerMethod.QUADRATURE], ell_max=2)
        fine = per_curve(scenario, mod, 10.0, [3.16], [PerMethod.QUADRATURE], tail_cut=1e-9)
        assert coarse.values["quadrature"][0] >= fine.values["quadrature"][0]
        assert coarse.tail_mass > fine.tail_mass

    def test_gumbel_route_needs_viable_first_slot(self, per_setup):
        # the hybrid's first gumbel slot, ELL_SWITCH + 1 = 9, needs 9 * coeff > 2
        scenario, _ = per_setup
        link = (scenario, Modulation(coeff=0.2), 10.0, 3.16)
        with pytest.raises(GumbelDomainError, match="quadrature"):
            per_at(*link, PerMethod.HYBRID, ell_max=16)
        assert 0.0 <= per_at(*link, PerMethod.QUADRATURE, ell_max=16) <= 1.0

    def test_noise_bits_zero_is_interference_limited(self, per_setup):
        scenario, mod = per_setup
        for method in (PerMethod.QUADRATURE, PerMethod.HYBRID):
            assert per_at(scenario, mod, 10.0, 3.16, method) == per_at(
                scenario, mod, 10.0, 3.16, method, noise_bits=0
            )

    def test_noise_bits_single_slot_identity(self, per_setup):
        # hand-assembled two-term expansion for a one-slot resolution
        scenario, mod = per_setup
        n_bits = 496
        per = per_at(scenario, mod, 10.0, 3.16, PerMethod.HYBRID, ell_max=1, noise_bits=n_bits)
        clear = 1.0 - float(ber_awgn(mod, 10.0))
        cdf = ctd_mixture(scenario, np.arange(2) * scenario.bit_time)
        expected = 1.0 - (
            cdf[0] * clear**n_bits
            + (cdf[1] - cdf[0])
            * success_prob(mod, 10.0, 3.16, 1, HYBRID)
            * clear ** (n_bits - 1)
        )
        assert per == pytest.approx(expected, abs=1e-14)

    def test_noise_bits_add_errors(self, per_setup):
        scenario, mod = per_setup
        assert (
            per_at(scenario, mod, 2.0, 3.16, PerMethod.QUADRATURE, noise_bits=496)
            > per_at(scenario, mod, 2.0, 3.16, PerMethod.QUADRATURE)
        )

    def test_spec_validation(self, per_setup):
        scenario, mod = per_setup
        for snr, inr, kwargs, message in [
            (-1.0, 3.16, {}, "snr must be finite and nonnegative"),
            (math.nan, 3.16, {}, "snr must be finite and nonnegative"),
            (math.inf, 3.16, {}, "snr must be finite and nonnegative"),
            (10.0, 3.16, {"tail_cut": 0.0}, "tail_cut must lie in"),
            (10.0, 3.16, {"tail_cut": 1.0}, "tail_cut must lie in"),
            (10.0, 3.16, {"ell_max": 0}, "ell_max must be an integer >= 1"),
            (10.0, 3.16, {"noise_bits": -1}, "noise_bits must be an integer >= 0"),
            (10.0, 0.0, {}, "finite and positive"),
        ]:
            with pytest.raises(ValueError, match=message):
                per_at(scenario, mod, snr, inr, PerMethod.QUADRATURE, **kwargs)

    @pytest.mark.parametrize("field,value", [
        ("noise_bits", 2.5), ("noise_bits", 496.0), ("noise_bits", True),
        ("ell_max", 5.5), ("ell_max", 12.0), ("ell_max", np.float64(12.0)), ("ell_max", True),
    ])
    def test_counts_must_be_integers(self, per_setup, field, value):
        # a float count would split a busy-period run or the slot grid
        scenario, mod = per_setup
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            per_curve(scenario, mod, 10.0, [1.0, 10.0], [QUAD], **{field: value})

    def test_numpy_integer_counts(self, per_setup):
        scenario, mod = per_setup
        methods = [QUAD, HYBRID]
        plain = per_curve(scenario, mod, 10.0, [1.0, 10.0], methods, ell_max=12, noise_bits=496)
        numpy = per_curve(scenario, mod, 10.0, [1.0, 10.0], methods,
                          ell_max=np.int64(12), noise_bits=np.int32(496))
        assert type(numpy.ell_max) is int and numpy.ell_max == 12
        assert numpy.tail_mass == plain.tail_mass
        for method in methods:
            assert np.array_equal(numpy.values[method.value], plain.values[method.value])


class TestPerCurve:
    def test_sweep_layout(self, per_setup):
        scenario, mod = per_setup
        inr = 10 ** (np.array([-5.0, 0.0, 5.0, 10.0]) / 10.0)
        curve = per_curve(
            scenario, mod, 10.0,
            inr,
            methods=(PerMethod.QUADRATURE, PerMethod.HYBRID),
        )
        assert set(curve.values) == {"quadrature", "hybrid"}
        for row in curve.values.values():
            assert row.shape == inr.shape
            assert np.all((row >= 0.0) & (row <= 1.0))
        # more interference, more loss
        assert np.all(np.diff(curve.values["quadrature"]) > 0.0)

    def test_methods_by_value(self, per_setup):
        scenario, mod = per_setup
        inr = [0.3, 1.0, 10.0]
        by_member = per_curve(scenario, mod, 10.0, inr, list(PerMethod))
        by_value = per_curve(scenario, mod, 10.0, inr, [m.value for m in PerMethod])
        assert set(by_value.values) == {m.value for m in PerMethod}
        for method in PerMethod:
            assert by_value.values[method.value].tolist() == (
                by_member.values[method.value].tolist())

    @pytest.mark.parametrize("methods,message", [
        ([], "at least one"),
        (["qn"], "'qn' is not a valid PerMethod"),
        ([PerMethod.HYBRID, "gumbel"], "'gumbel' is not a valid PerMethod"),
    ])
    def test_rejects_bad_methods(self, per_setup, methods, message):
        scenario, mod = per_setup
        with pytest.raises(ValueError, match=message):
            per_curve(scenario, mod, 10.0, [1.0], methods)

    def test_rejects_empty_grid(self, per_setup):
        scenario, mod = per_setup
        with pytest.raises(ValueError):
            per_curve(scenario, mod, 10.0, [])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_any_invalid_inr(self, per_setup, bad):
        scenario, mod = per_setup
        with pytest.raises(ValueError, match="finite and positive"):
            per_curve(scenario, mod, 10.0, [1.0, bad, 10.0])

    @pytest.mark.parametrize("ell_max,noise_bits", [(None, None), (12, 496)])
    def test_rows_equal_point_evaluations(self, per_setup, ell_max, noise_bits):
        scenario, mod = per_setup
        inr = 10 ** (np.arange(-10.0, 30.1, 2.5) / 10.0)
        methods = [PerMethod.QUADRATURE, PerMethod.HYBRID]
        curve = per_curve(scenario, mod, 10.0, inr, methods,
                          ell_max=ell_max, noise_bits=noise_bits)
        for method in methods:
            points = [
                per_at(scenario, mod, 10.0, float(i), method, ell_max=ell_max,
                       noise_bits=noise_bits)
                for i in inr
            ]
            assert curve.values[method.value].tolist() == points
        # slot ELL_SWITCH + 1 = 9 is outside the gumbel domain when 9 * coeff <= 2
        weak = Modulation(coeff=0.2)
        with pytest.raises(GumbelDomainError):
            per_curve(scenario, weak, 10.0, inr, [PerMethod.HYBRID], ell_max=ell_max)
        with pytest.raises(GumbelDomainError):
            per_at(scenario, weak, 10.0, 1.0, PerMethod.HYBRID, ell_max=ell_max)


@pytest.mark.parametrize("name", preset_names())
def test_batched_quadrature_matches_adaptive_oracle(name):
    scenario = preset_scenario(name)
    inr = 10 ** (np.arange(-30.0, 40.1, 2.5) / 10.0)
    increments = slot_increments(scenario, resolve_ell_max(scenario, 1e-6))
    worst = 0.0
    for snr in (1.0, 10.0, 1000.0):
        for noise_bits in (None, 496):
            curve = per_curve(scenario, BPSK, snr, inr, [PerMethod.QUADRATURE],
                              noise_bits=noise_bits)
            for i, value in zip(inr, curve.values["quadrature"]):
                oracle = per_quadrature_adaptive(BPSK, snr, float(i), noise_bits, increments)
                worst = max(worst, abs(value - oracle))
    assert worst <= 1e-12


PIECE_SCENARIOS = ALL_PRESET_NAMES + sorted(EXTRA_SCENARIOS)
# -30..40 dB; 30 dB SNR at -30 dB INR puts the ratio y of the busy-period
# sums within ~2e-3 of 1
PIECE_INR = 10 ** (np.arange(-30.0, 40.1, 5.0) / 10.0)


@pytest.mark.parametrize("name", PIECE_SCENARIOS)
def test_quadrature_matches_horner_oracle(name):
    # one term per busy period (summation by parts) against one Horner step
    # per slot, on the same nodes and slots
    scenario = scenario_named(name)
    natural = resolve_ell_max(scenario, 1e-6)
    cases = [(snr, noise_bits, None) for snr in (1.0, 10.0, 1000.0) for noise_bits in (None, 496)]
    cases += [(10.0, noise_bits, ell_max) for noise_bits in (None, 496)
              for ell_max in (5, 561, natural + 1)]
    worst = 0.0
    for snr, noise_bits, ell_max in cases:
        curve = per_curve(scenario, BPSK, snr, PIECE_INR, [PerMethod.QUADRATURE],
                          ell_max=ell_max, noise_bits=noise_bits)
        assert curve.ell_max == (ell_max or natural)
        oracle = per_horner(scenario, BPSK, snr, PIECE_INR, ell_max=ell_max, noise_bits=noise_bits)
        worst = max(worst, float(np.max(np.abs(curve.values["quadrature"] - oracle))))
    assert worst <= 1e-12


@settings(max_examples=150, deadline=None)
@given(link=per_links())
def test_quadrature_matches_horner_oracle_on_generated_links(link):
    # the busy-period runs and the summation by parts against the per-slot
    # tail and one Horner step per slot, away from the presets' 4 us bits
    scenario, modulation, snr, inr, noise_bits, ell_max = link
    tail, oracle = slot_tail(scenario, ell_max + 1), slot_tail_per_slot(scenario, ell_max + 1)
    for field in ("starts", "heads", "slopes"):
        assert np.array_equal(getattr(tail, field), getattr(oracle, field)), field
    assert tail.log_decay == oracle.log_decay
    curve = per_curve(scenario, modulation, snr, inr, [QUAD], ell_max=ell_max,
                      noise_bits=noise_bits)
    horner = per_horner(scenario, modulation, snr, inr, ell_max=ell_max, noise_bits=noise_bits)
    assert float(np.max(np.abs(curve.values["quadrature"] - horner))) <= 1e-12


BAND_MODULATIONS = [Modulation(1.0, 2.0), Modulation(2.0, 1.0), Modulation(0.5, 1.0)]
# the mixed sweep, one row whose bits never fail at snr >= 1 (no failing
# node) and rows at the ends of the float range
BAND_INR = [PIECE_INR, np.array([1e-30]), np.array([1e-30, 1e30])]


def _band_cases(scenario):
    """(modulation, snr, noise_bits, inr, tail, ell_max, tail_mass) of the
    band tests.  The noise bit counts take turns, so each meets every
    modulation and snr."""
    natural = resolve_ell_max(scenario, 1e-6)
    links = [(mod, snr, inr) for mod in BAND_MODULATIONS
             for snr in (0.0, 1e-3, 1.0, 10.0, 1e3, 1e15) for inr in BAND_INR]
    noise = cycle([None, 0, 3, 496, 10000])
    cases = [(mod, snr, next(noise), inr, natural) for mod, snr, inr in links]
    modulations = cycle(BAND_MODULATIONS)
    cases += [(next(modulations), 10.0, noise_bits, PIECE_INR, ell_max)
              for noise_bits in (None, 496) for ell_max in (1, 7, 5000)]
    for mod, snr, noise_bits, inr, ell_max in cases:
        tail = slot_tail(scenario, ell_max + 1)
        yield mod, snr, noise_bits, inr, tail, ell_max, float(tail.at(ell_max))


@pytest.mark.parametrize("name", PIECE_SCENARIOS)
def test_quadrature_band_matches_the_full_grid_bitwise(name, monkeypatch):
    # the failing band plus one all-zero node, that node's value standing
    # for the skipped ones, reproduces every node's PER bit for bit; the
    # full grid is the same body with the band forced to start at node 0
    # (at snr 0 no node is skipped)
    def full_grid(mod, snr, inr):
        return 0, per_module._bit_failure(mod, snr, inr)

    leads = set()
    for case in _band_cases(scenario_named(name)):
        mod, snr, noise_bits, inr, _, ell_max, _ = case
        band = _per_quadrature(*case)
        with monkeypatch.context() as patch:
            patch.setattr(per_module, "_failing_band", full_grid)
            full = _per_quadrature(*case)
        assert band.shape == (inr.size, per_module._FADE_WEIGHTS.size)
        assert band.tolist() == full.tolist(), (mod, snr, noise_bits, inr, ell_max)
        leads.add(_failing_band(mod, snr, inr)[0])
    nodes = per_module._FADE_WEIGHTS.size
    assert {0, nodes - 1} <= leads and len(leads) > 2


@pytest.mark.parametrize("name", PIECE_SCENARIOS)
def test_quadrature_sum_is_within_1e_15_of_the_correctly_rounded_sum(name):
    # the precision contract of the final fading sum: one numpy pairwise sum
    # of nonnegative weighted per-node values stays within a few ulps of
    # their correctly rounded sum (math.fsum over every node)
    scenario = scenario_named(name)
    weights = per_module._FADE_WEIGHTS
    for case in _band_cases(scenario):
        mod, snr, noise_bits, inr, _, ell_max, _ = case
        per = per_curve(scenario, mod, snr, inr, [QUAD], ell_max=ell_max,
                        noise_bits=noise_bits).values["quadrature"]
        nodes = _per_quadrature(*case)
        exact = np.array([math.fsum(row) for row in (nodes * weights).tolist()])
        np.testing.assert_allclose(per, exact, rtol=1e-15, atol=0.0,
                                   err_msg=str((mod, snr, noise_bits, inr, ell_max)))


def test_quadrature_window_sum_is_within_1e_15_of_the_correctly_rounded_sum():
    weights = per_module._FADE_WEIGHTS
    for mod in BAND_MODULATIONS:
        for snr in [0.0] + CRITERION_4_SNR:
            for inr in CRITERION_4_INR + [1e-30]:
                q = 1.0 - per_module._bit_failure(mod, snr, np.array([inr]))[0]
                for bits in (1, 16, 32, 64, 128, 2687):
                    exact = math.fsum((q**bits * weights).tolist())
                    assert success_prob(mod, snr, inr, bits, QUAD) == pytest.approx(
                        exact, rel=1e-15, abs=0.0), (mod, snr, inr, bits)


@pytest.mark.parametrize("name", PIECE_SCENARIOS)
def test_quadrature_alone_skips_the_increments(name, monkeypatch):
    # a quadrature-only sweep reads the slot tail at the last slot alone (the
    # tail mass); the hybrid route also reads every slot 0..ell_max once for
    # its increments, at most HYBRID_BLOCK slots per read, and must leave the
    # tail mass, slot count and quadrature PER unchanged.  The ell_max search
    # bisects a tail of its own; its reads are counted apart and bounded by
    # one scalar read per halving of its bracket plus the bracket's own.
    scenario = scenario_named(name)
    reads, search_reads, searching = [], [], []
    read, search = SlotTail.at, per_module.resolve_ell_max

    def counted(tail, slots):
        (search_reads if searching else reads).append(np.atleast_1d(slots).tolist())
        return read(tail, slots)

    def flagged(*args):
        searching.append(True)
        try:
            return search(*args)
        finally:
            searching.pop()

    monkeypatch.setattr(SlotTail, "at", counted)
    monkeypatch.setattr(per_module, "resolve_ell_max", flagged)
    top = math.ceil(-math.log(1e-6) / (scenario.packet_rate * scenario.bit_time))
    for ell_max, noise_bits in ((None, None), (None, 496), (5, None), (561, 496),
                                (2 * HYBRID_BLOCK, 2 * HYBRID_BLOCK)):
        reads.clear()
        search_reads.clear()
        alone = per_curve(scenario, BPSK, 10.0, PIECE_INR, [PerMethod.QUADRATURE],
                          ell_max=ell_max, noise_bits=noise_bits)
        assert reads == [[alone.ell_max]]
        if ell_max is None:
            assert all(len(slots) == 1 for slots in search_reads)
            assert 1 <= len(search_reads) <= math.ceil(math.log2(top)) + 1
        else:
            assert search_reads == []
        reads.clear()
        both = per_curve(scenario, BPSK, 10.0, PIECE_INR,
                         [PerMethod.HYBRID, PerMethod.QUADRATURE],
                         ell_max=ell_max, noise_bits=noise_bits)
        assert reads[0] == [alone.ell_max]
        assert sum(reads[1:], []) == list(range(alone.ell_max + 1))
        assert max(len(block) for block in reads[1:]) <= HYBRID_BLOCK
        assert (alone.tail_mass, alone.ell_max) == (both.tail_mass, both.ell_max)
        assert np.array_equal(alone.values["quadrature"], both.values["quadrature"])
        single = per_curve(scenario, BPSK, 10.0, [1.0], [PerMethod.QUADRATURE],
                           ell_max=ell_max, noise_bits=noise_bits)
        assert (single.tail_mass, single.ell_max) == (alone.tail_mass, alone.ell_max)


# ell_max spanning four blocks, the last one partial; 2 * HYBRID_BLOCK noise
# bits put the last AWGN-weighted slot at the end of the second block
@pytest.mark.parametrize("name", ALL_PRESET_NAMES + ["busy_below_bit"])
def test_hybrid_blocks_match_the_one_table_sum(name):
    # one numpy row sum per block, added into one float per INR, regroups
    # the fsum of each whole INR row: a few roundings per block, within
    # 1e-15 of the PER
    scenario = scenario_named(name)
    inr = 10.0 ** (np.linspace(-10.0, 30.0, 9) / 10.0)
    ell_max = 3 * HYBRID_BLOCK + 5
    tail = slot_tail(scenario, ell_max + 1)
    for snr in (1.0, 10.0, 1000.0):
        for noise_bits in (None, 496, 2 * HYBRID_BLOCK):
            blocks = _per_hybrid(BPSK, snr, noise_bits, inr, tail, ell_max)
            oracle = per_hybrid_one_table(BPSK, snr, noise_bits, inr, tail, ell_max)
            np.testing.assert_allclose(blocks, oracle, rtol=0.0, atol=1e-15)
            curve = per_curve(scenario, BPSK, snr, inr, [HYBRID], ell_max=ell_max,
                              noise_bits=noise_bits)
            assert np.array_equal(curve.values["hybrid"], np.clip(blocks, 0.0, 1.0))


def test_hybrid_per_keeps_its_digits_near_1e_6():
    # 1 - sum(success x increment) kept about 10 digits of a PER near 1e-6
    # (9.980494440897658e-07 for 9.980494440992702e-07 at INR 0.1); the sum
    # of failure x increment plus the ignored tail keeps them all
    scenario = preset_scenario("alpha_ge_0.5")
    inr = np.array([0.1, 1.0])
    for noise_bits in (None, 496):
        curve = per_curve(scenario, BPSK, 100.0, inr, [HYBRID], noise_bits=noise_bits)
        tail = slot_tail(scenario, curve.ell_max + 1)
        exact = per_hybrid_one_table(BPSK, 100.0, noise_bits, inr, tail, curve.ell_max)
        assert np.all((curve.values["hybrid"] > 9e-7) & (curve.values["hybrid"] < 1.1e-6))
        np.testing.assert_allclose(curve.values["hybrid"], exact, rtol=1e-14, atol=0.0)
        # no window can fail at INR 0.1, so the PER is the ignored tail
        assert curve.values["hybrid"][0] == pytest.approx(curve.tail_mass, rel=1e-15, abs=0.0)


def test_sweep_memory_does_not_grow_with_the_slots():
    # both routes at 400 ns bits (26,864 slots on alpha_ge_0.5, 14,025 on
    # exp_alpha_0.1575) and quadrature alone at 1 ns bits (2,244,000 slots on
    # alpha_lt_0.1) hold INR x (nodes + HYBRID_BLOCK) floats and the busy
    # periods' runs; on these cases one success table of every slot traced
    # 11.0 and 5.7 MiB, and the per-slot tail 70.6 MiB
    inr = 10.0 ** (np.linspace(-10.0, 30.0, 5) / 10.0)
    cases = [("alpha_ge_0.5", 400e-9, [QUAD, HYBRID]),
             ("exp_alpha_0.1575", 400e-9, [QUAD, HYBRID]),
             ("alpha_lt_0.1", 1e-9, [QUAD])]
    for name, bit_time, methods in cases:
        scenario = dataclasses.replace(preset_scenario(name), bit_time=bit_time)
        # a first short sweep, so that one-off allocations of first calls are not traced
        per_curve(scenario, BPSK, 10.0, inr[:1], methods, ell_max=20)
        tracemalloc.start()
        try:
            per_curve(scenario, BPSK, 10.0, inr, methods)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, (name, peak)


def test_per_sweep_memory_holds_the_failing_band():
    # both routes on the benchmark's per_sweep links (17 INRs, SNR 10 dB):
    # the quadrature's INR x node arrays span the failing band (300 of 877
    # nodes here) instead of every node; summed on every node these sweeps
    # traced 1.94-2.28 MiB, on the band 0.95-1.28 MiB (with the hybrid's
    # five INR x block arrays held across its blocks and the low-order
    # log K's recurrence rows)
    inr = 10.0 ** (np.arange(-10.0, 30.1, 2.5) / 10.0)
    for name in ("alpha_lt_0.1", "exp_alpha_0.1575", "alpha_ge_0.5"):
        scenario = preset_scenario(name)
        # a first short sweep, so that one-off allocations of first calls are not traced
        per_curve(scenario, BPSK, 10.0, inr[:1], [QUAD, HYBRID], ell_max=20)
        tracemalloc.start()
        try:
            per_curve(scenario, BPSK, 10.0, inr, [QUAD, HYBRID])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**20, (name, peak)


@pytest.mark.parametrize("name", PIECE_SCENARIOS)
@pytest.mark.parametrize("tail_cut", [1e-6, 1e-9])
def test_tail_mass_against_extended_precision(name, tail_cut):
    # the ignored tail is read from the slot tail, not formed as 1 - F, so it
    # keeps full relative precision where F is within 1e-9 of 1
    pytest.importorskip("mpmath")
    scenario = scenario_named(name)
    curve = per_curve(scenario, BPSK, 10.0, [1.0], [PerMethod.QUADRATURE], tail_cut=tail_cut)
    exact = float(mixture_tail_mp(scenario, curve.ell_max))
    assert curve.tail_mass == pytest.approx(exact, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("modulation,snr,inr", [
    (Modulation(coeff=2.0), 0.0, 1.0),      # every bit fails: q = clear = 0
    (Modulation(coeff=2.0), 1e-40, 1.0),    # clear rounds to 0, q does not
    (Modulation(coeff=1.9, gain=1.0), 0.5, 0.01),
    (BPSK, 1e15, 0.1),
    (BPSK, 10.0, 1e40),
])
@pytest.mark.parametrize("noise_bits", [None, 496])
def test_quadrature_extreme_links_match_horner_oracle(per_setup, modulation, snr, inr,
                                                      noise_bits):
    scenario, _ = per_setup
    per = per_at(scenario, modulation, snr, inr, PerMethod.QUADRATURE, noise_bits=noise_bits)
    oracle = per_horner(scenario, modulation, snr, [inr], noise_bits=noise_bits)
    assert per == pytest.approx(float(oracle[0]), abs=1e-12)


def _ratio_sums_mp(rho: float, n: int) -> tuple[float, float]:
    """(sum_(j<n) y^j, sum_(j<n) j y^j), y = e^rho, by their closed forms in
    50-digit mpmath."""
    import mpmath

    with mpmath.workdps(50):
        if rho == 0.0:
            return float(n), float(mpmath.mpf(n) * (n - 1) / 2)
        y = mpmath.exp(mpmath.mpf(rho))
        s0 = (1 - y**n) / (1 - y)
        s1 = y * (1 - n * y ** (n - 1) + (n - 1) * y**n) / (1 - y) ** 2
        return float(s0), float(s1)


@pytest.mark.parametrize("rho", [0.0, -1e-12, -1e-7, -1e-6, -1e-4, -0.002, -0.5, -30.0, -1000.0])
@pytest.mark.parametrize("n", [1, 2, 93, 94, 1000, 300_000, 5_000_000])
def test_ratio_sums_against_direct_sums(rho, n):
    # the closed forms near y = 1 (n*|rho| above the series cut, e.g.
    # rho = -1e-6 at n = 3e5) need 1 - y and 1 - y^n from expm1
    # s1 meets the head term of a run through slope <= head/(n-1), so an
    # error below eps*n*s0 is round-off of the run's sum
    s0, s1, y_n = _ratio_sums(np.array([rho]), -np.expm1(np.array([rho])), n)
    exact = [_ratio_sums_mp(rho, n)]
    if n <= 300_000:
        terms = np.exp(rho * np.arange(n))
        exact.append((math.fsum(terms.tolist()), math.fsum((terms * np.arange(n)).tolist())))
    for exact_s0, exact_s1 in exact:
        assert s0[0] == pytest.approx(exact_s0, rel=1e-13)
        assert s1[0] == pytest.approx(exact_s1, rel=1e-13, abs=1e-15 * n * exact_s0)
    assert y_n[0] == pytest.approx(math.exp(rho * n), rel=1e-13, abs=1e-300)


def test_quadrature_sweep_with_short_busy_periods_at_10_ps_bits():
    # 50 us busy periods at 10 ps bits are 5e6 slots per run, which take
    # the series branch of `_ratio_sums` at the deepest fades; its power
    # sums must not cost one float per slot (38 s for this sweep)
    base = preset_scenario("alpha_ge_0.5")
    scenario = CoexistenceScenario(ConstantOnTime(50e-6), base.idle, base.packet_rate,
                                   bit_time=10e-12)
    inr = 10.0 ** (np.arange(-10.0, 30.01, 2.5) / 10.0)
    start = time.perf_counter()
    curve = per_curve(scenario, BPSK, 10.0, inr, [QUAD])
    elapsed = time.perf_counter() - start
    per = curve.values["quadrature"]
    assert curve.ell_max > 2e8
    assert elapsed < 2.0
    assert np.all((per > 0.0) & (per < 1.0)) and np.all(np.diff(per) > 0.0)


@pytest.mark.parametrize("name", PIECE_SCENARIOS)
def test_resolve_ell_max_matches_bisection_oracle(name):
    scenario = scenario_named(name)
    for tail_cut in (1e-3, 1e-4, 1e-6, 1e-9):
        assert resolve_ell_max(scenario, tail_cut) == resolve_ell_max_bisect(scenario, tail_cut)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(link=per_links(), log_cut=st.floats(-9.0, -1.0))
def test_resolve_ell_max_against_the_40_digit_tail_on_generated_links(link, log_cut):
    # the first slot whose tail is at most the cut, judged by the tail in
    # 40-digit arithmetic; away from the presets the bisection oracle can
    # land one slot high (a CDF jump on a slot boundary)
    scenario = link[0]
    cut = 10.0**log_cut
    ell = resolve_ell_max(scenario, cut)
    if isinstance(scenario.busy, ConstantOnTime):
        # `mixture_tail_mp` counts the busy periods before the slot one by one
        assume(ell * scenario.bit_time / scenario.busy.duration < 1e4)
    assert mixture_tail_mp(scenario, ell) <= cut
    if ell > 1:
        assert cut < mixture_tail_mp(scenario, ell - 1)


# bit times 1 ns to 1 ms around the 4 us of the presets; cuts 0.5 to 1e-15
ELL_BIT_TIMES = [1e-9, 40e-9, 1e-6, 4e-6, 100e-6, 1e-3]
ELL_TAIL_CUTS = [0.5] + [10.0**-k for k in range(1, 16)]


@pytest.mark.parametrize("name", PIECE_SCENARIOS)
def test_resolve_ell_max_is_the_first_slot_under_the_cut(name):
    # the tail a sweep reads its tail mass from meets the cut at ell_max and
    # not one slot before it, so tail_mass <= tail_cut holds by construction
    for bit_time in ELL_BIT_TIMES:
        scenario = dataclasses.replace(scenario_named(name), bit_time=bit_time)
        for tail_cut in ELL_TAIL_CUTS:
            ell = resolve_ell_max(scenario, tail_cut)
            tail = slot_tail(scenario, ell + 1)
            assert tail.at(ell) <= tail_cut, (bit_time, tail_cut)
            if ell > 1:
                assert tail.at(ell - 1) > tail_cut, (bit_time, tail_cut)


# The cases where the search on the slot tail and the coverage bisection it
# replaced disagree, with the bisection's ell_max and its tail mass.  At
# tail_cut 1e-12 the bisection decided on 1 - F formed by a subtraction and
# stopped where the tail still lay 1.7e-6 to 8.9e-5 relative above the cut;
# on busy_below_bit ceil(8e-05 / 4e-8) evaluates to 2001 although slot 2000
# already meets the cut.
#   exp_alpha_0.0361  1 ns  1e-12  5060505   1.0000159601865262e-12
#   exp_alpha_0.0361 40 ns  1e-12  126513    1.0000016845388016e-12
#   exp_busy          1 ns  1e-12  14667800  1.0000887511799018e-12
#   exp_busy         40 ns  1e-12  366695    1.0000887511799018e-12
#   g_to_1            1 ns  1e-12  54819880  1.0000258250716866e-12
#   g_to_1           40 ns  1e-12  1370497   1.0000258250716866e-12
#   saturated         1 ns  1e-12  49336812  1.0000737942242465e-12
#   saturated        40 ns  1e-12  1233421   1.000058257691643e-12
#   busy_below_bit   40 ns  0.5    2001      0.4976387115935571
@pytest.mark.parametrize("name,bit_time,tail_cut,ell_max,tail_mass", [
    ("exp_alpha_0.0361", 1e-9, 1e-12, 5060522, 9.999997811310957e-13),
    ("exp_alpha_0.0361", 40e-9, 1e-12, 126514, 9.999636169207294e-13),
    ("exp_busy", 1e-9, 1e-12, 14667849, 9.999982785567718e-13),
    ("exp_busy", 40e-9, 1e-12, 366697, 9.999410450017717e-13),
    ("g_to_1", 1e-9, 1e-12, 54819932, 9.999996150538728e-13),
    ("g_to_1", 40e-9, 1e-12, 1370499, 9.99985502251892e-13),
    ("saturated", 1e-9, 1e-12, 49336945, 9.999999978259793e-13),
    ("saturated", 40e-9, 1e-12, 1233424, 9.99991675262773e-13),
    ("busy_below_bit", 40e-9, 0.5, 2000, 0.49765817677638885),
])
def test_resolve_ell_max_where_the_bisection_erred(name, bit_time, tail_cut, ell_max,
                                                     tail_mass):
    scenario = dataclasses.replace(scenario_named(name), bit_time=bit_time)
    assert resolve_ell_max(scenario, tail_cut) == ell_max
    tail = slot_tail(scenario, ell_max + 1)
    assert tail.at(ell_max) == pytest.approx(tail_mass, rel=1e-12, abs=0.0)
    assert tail.at(ell_max) <= tail_cut < tail.at(ell_max - 1)


@pytest.mark.parametrize("tail_cut", [0.0, 1.0, -1e-6, 1.5, math.inf, math.nan])
def test_resolve_ell_max_rejects_cuts_outside_the_unit_interval(tail_cut):
    scenario = preset_scenario("alpha_lt_0.1")
    with pytest.raises(ValueError, match="tail_cut must lie in"):
        resolve_ell_max(scenario, tail_cut)
    with pytest.raises(ValueError, match="tail_cut must lie in"):
        per_curve(scenario, BPSK, 10.0, [1.0], [QUAD], tail_cut=tail_cut)


def test_resolve_ell_max_extends_a_short_bracket():
    # idle gaps of 1e-20 s leave g == 1 in floats, so the slot tail is
    # e^(-rate*x) itself and its bracket slot meets the cut only in reals: at
    # a cut one ulp under the tail at slot 288 the bracket is slot 288, which
    # misses it, and must be extended
    scenario = CoexistenceScenario(ConstantOnTime(374e-6), ExponentialIdle(1e20),
                                   1.0 / 1.984e-3)
    tail_cut = 0.559537258311838
    bracket = math.ceil(-math.log(tail_cut) / (scenario.packet_rate * scenario.bit_time))
    assert slot_tail(scenario, bracket + 1).at(bracket) > tail_cut
    ell = resolve_ell_max(scenario, tail_cut)
    tail = slot_tail(scenario, ell + 1)
    assert tail.at(ell) <= tail_cut < tail.at(ell - 1)


@pytest.mark.parametrize("snr,inr", [(1e15, [0.1, 1.0]), (1e-40, [0.1, 1.0]), (10.0, [1e40])])
def test_closed_form_overflow_raises(per_setup, snr, inr):
    # the order-r Bessel terms leave the float range (inf * 0); quadrature
    # still covers the link
    scenario, mod = per_setup
    with pytest.raises(FloatRangeError, match="quadrature"):
        per_curve(scenario, mod, snr, inr, [PerMethod.HYBRID], ell_max=12)
    with pytest.raises(FloatRangeError):
        success_prob(mod, snr, inr[0], ELL_SWITCH, HYBRID)
    quad = per_curve(scenario, mod, snr, inr, [PerMethod.QUADRATURE]).values["quadrature"]
    assert np.all(np.isfinite(quad))


GUMBEL_MODULATIONS = [Modulation(1.0, 2.0), Modulation(2.0, 1.0), Modulation(0.5, 2.0),
                      Modulation(1.0, 0.5)]


# -- the closed form against the one-kv-call-per-order body it replaced

@pytest.mark.parametrize("modulation", GUMBEL_MODULATIONS)
@pytest.mark.parametrize("snr_db", [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0])
def test_closed_form_matches_kv_oracle(modulation, snr_db):
    # measured 9.7e-14 up to ELL_SWITCH bits
    snr = 10.0 ** (snr_db / 10.0)
    inr = 10.0 ** (np.arange(-10.0, 40.1, 2.5) / 10.0)
    table = closed_form_table(modulation, snr, inr, np.arange(ELL_SWITCH + 1))
    oracle = closed_form_table_kv(modulation, snr, inr, ELL_SWITCH)
    np.testing.assert_allclose(table, oracle, rtol=0.0, atol=2e-13)


def test_closed_form_reads_only_the_requested_windows():
    inr = 10.0 ** (np.arange(-10.0, 40.1, 10.0) / 10.0)
    full = closed_form_table(BPSK, 10.0, inr, np.arange(ELL_SWITCH + 1))
    for windows in ([0], [3], [2, 5, ELL_SWITCH]):
        np.testing.assert_array_equal(closed_form_table(BPSK, 10.0, inr, windows),
                                      full[:, windows])


# -- success_prob evaluates its window alone, as the PER sweep's table has it

@pytest.mark.parametrize("modulation", [BPSK, Modulation(2.0, 1.0)])
@pytest.mark.parametrize("snr", [1.0, 10.0, 1000.0])
def test_success_prob_matches_the_sweep_table(modulation, snr):
    inr = 10.0 ** (np.arange(-10.0, 40.1, 10.0) / 10.0)
    table = 1.0 - _failure_table(modulation, snr, inr, np.arange(2688))
    for bits in (1, 8, 9, 12, 16, 561, 2687):
        single = [success_prob(modulation, snr, g, bits, HYBRID) for g in inr]
        np.testing.assert_allclose(single, table[:, bits], rtol=0.0, atol=1e-15)


# -- the Gumbel/Gamma part against the bodies it replaced

def test_gamma_shape_rises_with_the_window():
    # so `_gumbel_gamma_failures` cuts ascending windows into a low-order block
    # and a Debye block at one column
    for modulation in GUMBEL_MODULATIONS:
        shape, _ = gumbel_gamma_match(modulation, np.arange(ELL_SWITCH + 1, 100_001))
        assert np.all(np.diff(shape) > 0.0)


@pytest.mark.parametrize("modulation", GUMBEL_MODULATIONS)
def test_gumbel_blocks_match_one_log_bessel_k_call(modulation):
    inr = 10.0 ** (np.arange(-10.0, 40.1, 5.0) / 10.0)
    bits = np.arange(ELL_SWITCH + 1, 3000)
    for snr_db in (0.0, 10.0, 20.0, 30.0):
        snr = 10.0 ** (snr_db / 10.0)
        np.testing.assert_allclose(gumbel_gamma_success(modulation, snr, inr, bits),
                                   gumbel_gamma_one_call(modulation, snr, inr, bits),
                                   rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("modulation", GUMBEL_MODULATIONS)
@pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0, 30.0])
def test_gumbel_success_matches_kve_oracle(modulation, snr_db):
    snr = 10.0 ** (snr_db / 10.0)
    inr = 10.0 ** (np.arange(-30.0, 40.1, 5.0) / 10.0)
    bits = np.unique(np.geomspace(ELL_SWITCH + 1, 30000, 200).astype(int))
    np.testing.assert_allclose(gumbel_gamma_success(modulation, snr, inr, bits),
                               gumbel_gamma_kve(modulation, snr, inr, bits),
                               rtol=0.0, atol=5e-13)


@pytest.mark.parametrize("name", ALL_PRESET_NAMES)
def test_per_curve_hybrid_matches_kve_oracle(name, monkeypatch):
    # the oracle is the Gumbel body as it was before the Debye split, one
    # log_bessel_k call over every window, on the route's own kernels: the
    # kernels against scipy's kve and gammaln are held at the table by
    # test_gumbel_success_matches_kve_oracle, and moving the PER by up to
    # 1.9e-15 (measured) they would hide the sweep's assembly here
    scenario = preset_scenario(name)
    inr = 10.0 ** (np.linspace(-10.0, 30.0, 17) / 10.0)
    for snr_db in (0.0, 10.0, 30.0):
        snr = 10.0 ** (snr_db / 10.0)
        hybrid = per_curve(scenario, BPSK, snr, inr).values["hybrid"]
        with monkeypatch.context() as patch:
            patch.setattr(per_module, "_gumbel_gamma_failures",
                          lambda *args: 1.0 - gumbel_gamma_one_call(*args[:4]))
            oracle = per_curve(scenario, BPSK, snr, inr).values["hybrid"]
        np.testing.assert_allclose(hybrid, oracle, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("inr_db", [30.0, 40.0])
def test_gumbel_extreme_window_matches_mpmath(inr_db):
    # at 1e7 bits (shape 128.6) K_shape(2 sqrt(z)) overflows a double; the
    # z/shape stand-in the kve body used there was 2.6e-9 (3.6e-5 relative)
    # off at 30 dB.  log K is ~800 here and cancels against the other terms
    # of log(1 - success), so 1e-13 is about one ulp of those terms; the
    # log-space route was measured 4.4e-14 and 5.0e-14 off.
    import mpmath

    bits = np.array([1e7])
    shape, theta = gumbel_gamma_match(BPSK, bits)
    inr = 10.0 ** (inr_db / 10.0)
    with mpmath.workdps(60):
        nu = mpmath.mpf(shape[0])
        z = mpmath.mpf(1.0 / (inr * theta[0]))
        expected = 1 - 2 * z ** (nu / 2) * mpmath.besselk(nu, 2 * mpmath.sqrt(z)) / mpmath.gamma(nu)
    got = gumbel_gamma_success(BPSK, 1.0, np.array([inr]), bits)[0, 0]
    assert got == pytest.approx(float(expected), rel=0.0, abs=1e-13)


def test_gumbel_failures_keep_relative_precision():
    # each failure is exp of its log, not 1 - success, so small ones keep
    # their digits (SNR 20 dB, INR 0 dB: failures 4.7e-9 to 1.4e-6)
    import mpmath

    bits = np.array([16.0, 64.0, 561.0, 2687.0])
    shape, theta = gumbel_gamma_match(BPSK, bits)
    got = _gumbel_gamma_failures(BPSK, 100.0, np.array([1.0]), bits)[0]
    with mpmath.workdps(60):
        expected = []
        for nu, th in zip(shape, theta):
            nu, z = mpmath.mpf(nu), 100 / mpmath.mpf(th)
            expected.append(float(2 * z ** (nu / 2) * mpmath.besselk(nu, 2 * mpmath.sqrt(z))
                                  / mpmath.gamma(nu)))
    assert np.all(got < 1e-5)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


def test_gumbel_overflow_raises():
    # below the Debye orders kve still overflows at a vanishing argument
    with pytest.raises(FloatRangeError, match="quadrature"):
        gumbel_gamma_success(BPSK, 1e-30, np.array([1.0, 1e30]), np.array([ELL_SWITCH + 1, 200]))


def test_fit_qn_table_script_matches_frozen_coefficients():
    # scripts/fit_tables.py refits QN_COEFFS by lstsq; LAPACK builds differ by ~1e-15
    script = fit_tables_script()
    assert script.qn_drift(script.fit_qn()) <= script.QN_DRIFT


def test_clamp_beyond_the_slack_warns_and_clips():
    # the closed form's failures and every route's PER pass through one
    # clamp; past 1e-4 outside [0, 1] it names the quantity, at the caller
    values = np.array([-2e-4, 0.5, 1.0 + 2e-4])
    with pytest.warns(NumericsWarning, match=r"^PER array\(.+\) clamped to \[0, 1\]$") as record:
        clamped = _clamped(values, "PER", stacklevel=1)
    assert clamped.tolist() == [0.0, 0.5, 1.0]
    assert len(record) == 1 and record[0].filename == __file__
    assert repr(values[[0, 2]]) in str(record[0].message)


def test_clamp_within_the_slack_is_silent():
    values = np.array([-1e-4, -1e-9, 0.25, 1.0 + 1e-9, 1.0 + 1e-4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clamped = _clamped(values, "closed-form failure probabilities", stacklevel=1)
    assert clamped.tolist() == [0.0, 0.0, 0.25, 1.0, 1.0]


# The CLI's default sweep: SNR 10 dB, mean INR -10..30 dB in 2.5 dB steps.
CLI_JOB = JobParams()
CLI_SNR = db_to_ratio(CLI_JOB.snr_db, "job.snr_db")
CLI_INR = 10.0 ** (CLI_JOB.inr_grid_db() / 10.0)


@pytest.mark.parametrize("name", ALL_PRESET_NAMES)
@pytest.mark.parametrize("scale", [4.0**-5, 4.0, 4.0**10])
def test_per_reads_snr_and_inr_through_their_ratio(name, scale):
    # Without noise bits, SNR and mean INR scaled by one power of 4 give the
    # same PER bitwise on both routes: every float ratio and product scales
    # exactly, as do the closed form's powers (r base INR)^delta and
    # base^(1 - 2 delta) with delta in quarters.  AWGN errors on the
    # non-colliding bits depend on the SNR alone, so noise bits break it.
    scenario = preset_scenario(name)
    methods = [QUAD, HYBRID]
    for noise_bits in (None, 496):
        base = per_curve(scenario, BPSK, CLI_SNR, CLI_INR, methods, noise_bits=noise_bits)
        scaled = per_curve(scenario, BPSK, scale * CLI_SNR, scale * CLI_INR, methods,
                           noise_bits=noise_bits)
        for method in methods:
            same = np.array_equal(base.values[method.value], scaled.values[method.value])
            assert same == (noise_bits is None), (method, noise_bits)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(link=per_links())
def test_quadrature_reads_snr_and_inr_through_their_ratio_on_generated_links(link):
    # the same invariance away from the presets, without noise bits: SNR and
    # mean INR scaled by 4^k, k in -3..3, give the quadrature PER bit for bit
    scenario, modulation, snr, inr, _, ell_max = link
    base = per_curve(scenario, modulation, snr, inr, [QUAD], ell_max=ell_max)
    for k in range(-3, 4):
        scaled = per_curve(scenario, modulation, 4.0**k * snr, 4.0**k * inr, [QUAD],
                           ell_max=ell_max)
        assert scaled.values["quadrature"].tolist() == base.values["quadrature"].tolist(), k


@pytest.mark.parametrize("method", [QUAD, HYBRID])
def test_success_prob_reads_snr_and_inr_through_their_ratio(method):
    for inr in CLI_INR:
        for bits in (1, 16, 128, 2000):
            assert success_prob(BPSK, CLI_SNR, inr, bits, method) == success_prob(
                BPSK, 4.0 * CLI_SNR, 4.0 * inr, bits, method)


@pytest.mark.parametrize("modulation,snr", [(BPSK, 10.0**0.25), (Modulation(0.5, 1.0), 10.0)])
def test_both_routes_weigh_noise_bits_by_one_awgn_factor(modulation, snr):
    # the hybrid's slot weights take the quadrature's log clear, on
    # np.log1p; at these links math.log1p of -ber rounds to the next float
    # (glibc), so weights from it would differ in the last bit
    clear_fail = float(ber_awgn(modulation, snr))
    log_clear = float(np.log1p(-clear_fail))
    windows = np.arange(0, 600, 7)
    weights = per_module._slot_log_weights(modulation, snr, 496, windows)
    assert np.array_equal(weights, np.maximum(496 - windows, 0) * log_clear)
    assert per_module._awgn_clear(modulation, snr) == (clear_fail, log_clear)
