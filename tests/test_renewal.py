import math

import pytest
from hypothesis import given, settings, strategies as st

from coexlink.dist import ExponentialIdle, HyperexponentialIdle
from coexlink.renewal import CountKind, RenewalPmfSpec, pmf
from oracles import pmf_tail_index

MIXTURE = HyperexponentialIdle(weights=(0.3, 0.7), means=(2e-3, 2e-4))


def pmf_equilibrium(idle, packet_rate: float, offset: float, n: int) -> float:
    return pmf(RenewalPmfSpec(idle, packet_rate, offset, CountKind.EQUILIBRIUM), n)


def pmf_ordinary(idle, packet_rate: float, offset: float, n: int) -> float:
    return pmf(RenewalPmfSpec(idle, packet_rate, offset, CountKind.ORDINARY), n)


def spec_for(kind, idle=MIXTURE, rate=504.0, offset=374e-6):
    return RenewalPmfSpec(idle=idle, packet_rate=rate, offset=offset, kind=kind)


def test_zero_offset_equilibrium_closed_form():
    s = 504.0
    idle = MIXTURE
    g = idle.laplace(s)
    g_res = idle.residual_laplace(s)
    assert pmf_equilibrium(idle, s, 0.0, 0) == pytest.approx(1.0 - g_res, rel=1e-14)
    for n in (1, 2, 5):
        expected = g_res * (1.0 - g) * g ** (n - 1)
        assert pmf_equilibrium(idle, s, 0.0, n) == pytest.approx(expected, rel=1e-14)


def test_zero_offset_ordinary_closed_form():
    s = 504.0
    g = MIXTURE.laplace(s)
    assert pmf_ordinary(MIXTURE, s, 0.0, 0) == pytest.approx(1.0 - g, rel=1e-14)
    for n in (1, 3):
        assert pmf_ordinary(MIXTURE, s, 0.0, n) == pytest.approx(
            (1.0 - g) * g**n, rel=1e-14
        )


def test_conventions_coincide_for_exponential_idle():
    # memoryless gaps cannot tell a residual from a full draw; the two code
    # paths multiply the same factors in different order, hence the ulp slack
    idle = ExponentialIdle(rate=499.85)
    for n in range(6):
        assert pmf_equilibrium(idle, 504.0, 374e-6, n) == pytest.approx(
            pmf_ordinary(idle, 504.0, 374e-6, n), rel=1e-14
        )


def test_positive_counts_keep_precision_as_g_tends_to_one():
    # 0.1 ps idle gaps: g = 1 - 5.04e-11, and p(1) = (1 - g) * g carries the
    # relative precision of 1 - g
    idle = ExponentialIdle(rate=1e13)
    s = 504.0
    one_minus_g = s / (s + 1e13)
    for kind in CountKind:
        spec = RenewalPmfSpec(idle, s, 0.0, kind)
        assert pmf(spec, 1) == pytest.approx(one_minus_g * idle.laplace(s), rel=1e-14, abs=0.0)


def test_offset_damps_positive_counts():
    free = spec_for(CountKind.EQUILIBRIUM, offset=0.0)
    budgeted = spec_for(CountKind.EQUILIBRIUM, offset=2e-3)
    damp = math.exp(-504.0 * 2e-3)
    for n in (1, 2, 4):
        assert pmf(budgeted, n) == pytest.approx(damp * pmf(free, n), rel=1e-12)
    # the removed mass lands on n = 0
    assert pmf(budgeted, 0) > pmf(free, 0)


@pytest.mark.parametrize("kind", list(CountKind))
def test_normalization(kind):
    spec = spec_for(kind)
    n_max = pmf_tail_index(spec, 1e-15)
    total = math.fsum(pmf(spec, n) for n in range(n_max + 1))
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", list(CountKind))
@pytest.mark.parametrize("epsilon", [1e-3, 1e-6, 1e-9, 1e-12])
def test_tail_index_against_brute_force(kind, epsilon):
    spec = spec_for(kind)
    n_max = pmf_tail_index(spec, epsilon)
    # brute force: accumulate until the remainder drops under epsilon
    remaining = 1.0
    n = 0
    while remaining > epsilon:
        remaining -= pmf(spec, n)
        n += 1
    brute = n - 1
    assert n_max == brute
    tail = 1.0 - math.fsum(pmf(spec, n) for n in range(n_max + 1))
    assert tail <= epsilon + 1e-15
    if n_max > 0:
        shorter = 1.0 - math.fsum(pmf(spec, n) for n in range(n_max))
        assert shorter > epsilon


def test_tail_index_at_g_near_one():
    # 0.1 ns idle gaps under a 1.984 ms packet: g = 1 - 5.04e-8, so the index
    # runs to 1.37e8 at epsilon 1e-3; the tail head * g^n it leaves must meet
    # epsilon and one term fewer must not, checked in 40-digit arithmetic
    mpmath = pytest.importorskip("mpmath")
    rate, idle_rate = 1.0 / 1.984e-3, 1e10
    with mpmath.workdps(40):
        # exponential idle gaps: the residual transform is g itself
        g = mpmath.mpf(idle_rate) / (mpmath.mpf(rate) + mpmath.mpf(idle_rate))
        for kind in CountKind:
            for offset in (0.0, 374e-6):
                spec = RenewalPmfSpec(ExponentialIdle(idle_rate), rate, offset, kind)
                head = g * mpmath.exp(-mpmath.mpf(rate) * mpmath.mpf(offset))
                for epsilon in (1e-3, 1e-6, 1e-300):
                    n = pmf_tail_index(spec, epsilon)
                    assert n > 1e8
                    assert head * g**n <= epsilon < head * g ** (n - 1)


def test_input_validation():
    with pytest.raises(ValueError):
        spec_for(CountKind.ORDINARY, rate=-1.0)
    with pytest.raises(ValueError):
        spec_for(CountKind.ORDINARY, offset=-1e-9)
    with pytest.raises(TypeError):
        RenewalPmfSpec(MIXTURE, 504.0, 0.0, "equilibrium")
    with pytest.raises(ValueError):
        pmf(spec_for(CountKind.ORDINARY), -1)
    with pytest.raises(ValueError):
        pmf_tail_index(spec_for(CountKind.ORDINARY), 1.5)


@settings(max_examples=60)
@given(
    rate=st.floats(min_value=1.0, max_value=1e4),
    idle_mean=st.floats(min_value=1e-5, max_value=1.0),
    offset=st.floats(min_value=0.0, max_value=1e-2),
    kind=st.sampled_from(list(CountKind)),
)
def test_pmf_is_a_probability_vector(rate, idle_mean, offset, kind):
    spec = RenewalPmfSpec(ExponentialIdle(rate=1.0 / idle_mean), rate, offset, kind)
    values = [pmf(spec, n) for n in range(51)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert math.fsum(values) <= 1.0 + 1e-12
    # geometric decay after the first positive term
    positives = values[1:]
    for a, b in zip(positives, positives[1:]):
        assert b <= a + 1e-15
