import math

import pytest
from hypothesis import given, settings, strategies as st

from coexlink.dist import ExponentialIdle, HyperexponentialIdle
from coexlink.renewal import pmf
from conftest import log_uniform
from oracles import idle_transforms_mp, pmf_tail_index

MIXTURE = HyperexponentialIdle(weights=(0.3, 0.7), means=(2e-3, 2e-4))
# Both conventions, under the test ids the suite has printed since the
# convention was an enum.
CONVENTIONS = pytest.mark.parametrize("equilibrium", [True, False],
                                      ids=["CountKind.EQUILIBRIUM", "CountKind.ORDINARY"])


def pmf_equilibrium(idle, packet_rate: float, offset: float, n: int) -> float:
    return pmf(idle, packet_rate, offset, n + 1)[0][n]


def pmf_ordinary(idle, packet_rate: float, offset: float, n: int) -> float:
    return pmf(idle, packet_rate, offset, n + 1)[1][n]


def mixture_pmf(equilibrium: bool, size: int, offset: float = 374e-6):
    """One convention's PMF of MIXTURE at 504 /s, counts 0..size - 1."""
    return pmf(MIXTURE, 504.0, offset, size)[0 if equilibrium else 1]


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
    for probs in pmf(idle, s, 0.0, 2):
        assert probs[1] == pytest.approx(one_minus_g * idle.laplace(s), rel=1e-14, abs=0.0)


def test_offset_damps_positive_counts():
    free = mixture_pmf(True, 5, offset=0.0)
    budgeted = mixture_pmf(True, 5, offset=2e-3)
    damp = math.exp(-504.0 * 2e-3)
    for n in (1, 2, 4):
        assert budgeted[n] == pytest.approx(damp * free[n], rel=1e-12)
    # the removed mass lands on n = 0
    assert budgeted[0] > free[0]


@CONVENTIONS
def test_normalization(equilibrium):
    n_max = pmf_tail_index(MIXTURE, 504.0, 374e-6, equilibrium, 1e-15)
    total = math.fsum(mixture_pmf(equilibrium, n_max + 1))
    assert total == pytest.approx(1.0, abs=1e-12)


@CONVENTIONS
@pytest.mark.parametrize("epsilon", [1e-3, 1e-6, 1e-9, 1e-12])
def test_tail_index_against_brute_force(equilibrium, epsilon):
    n_max = pmf_tail_index(MIXTURE, 504.0, 374e-6, equilibrium, epsilon)
    # brute force: accumulate until the remainder drops under epsilon; g is
    # about 0.79, so 1,000 counts leave far less than the smallest epsilon
    probs = mixture_pmf(equilibrium, 1000)
    remaining = 1.0
    n = 0
    while remaining > epsilon:
        remaining -= probs[n]
        n += 1
    brute = n - 1
    assert n_max == brute
    tail = 1.0 - math.fsum(probs[:n_max + 1])
    assert tail <= epsilon + 1e-15
    if n_max > 0:
        shorter = 1.0 - math.fsum(probs[:n_max])
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
        for equilibrium in (True, False):
            for offset in (0.0, 374e-6):
                head = g * mpmath.exp(-mpmath.mpf(rate) * mpmath.mpf(offset))
                for epsilon in (1e-3, 1e-6, 1e-300):
                    n = pmf_tail_index(ExponentialIdle(idle_rate), rate, offset, equilibrium,
                                       epsilon)
                    assert n > 1e8
                    assert head * g**n <= epsilon < head * g ** (n - 1)


def test_input_validation():
    with pytest.raises(ValueError):
        pmf(MIXTURE, -1.0, 374e-6, 5)
    with pytest.raises(ValueError):
        pmf(MIXTURE, 504.0, -1e-9, 5)
    for size in (0, -1, 2.0, True):
        with pytest.raises(ValueError, match=f"size must be an integer >= 1, got {size!r}"):
            pmf(MIXTURE, 504.0, 374e-6, size)
    with pytest.raises(ValueError):
        pmf_tail_index(MIXTURE, 504.0, 374e-6, False, 1.5)


@settings(max_examples=60)
@given(
    rate=st.floats(min_value=1.0, max_value=1e4),
    idle_mean=st.floats(min_value=1e-5, max_value=1.0),
    offset=st.floats(min_value=0.0, max_value=1e-2),
    equilibrium=st.booleans(),
)
def test_pmf_is_a_probability_vector(rate, idle_mean, offset, equilibrium):
    values = pmf(ExponentialIdle(rate=1.0 / idle_mean), rate, offset, 51)[0 if equilibrium else 1]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert math.fsum(values) <= 1.0 + 1e-12
    # geometric decay after the first positive term
    positives = values[1:]
    for a, b in zip(positives, positives[1:]):
        assert b <= a + 1e-15


@st.composite
def idle_links(draw):
    """An exponential or 2-4-phase hyperexponential idle law (weights from
    the simplex, means 1 us-1 s), a packet rate of 1-1e6 /s, an offset of 0
    or 1 us-10 ms and a PMF size of 1-200."""
    phases = draw(st.sampled_from([1, 2, 3, 4]))
    means = draw(st.lists(log_uniform(1e-6, 1.0), min_size=phases, max_size=phases))
    if phases == 1:
        idle = ExponentialIdle(1.0 / means[0])
    else:
        raw = draw(st.lists(st.floats(0.01, 1.0), min_size=phases, max_size=phases))
        idle = HyperexponentialIdle(tuple(w / math.fsum(raw) for w in raw), tuple(means))
    offset = draw(st.just(0.0) | log_uniform(1e-6, 1e-2))
    return idle, draw(log_uniform(1.0, 1e6)), offset, draw(st.integers(1, 200))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=idle_links())
def test_pmf_against_40_digit_reference_on_generated_laws(case):
    # g, 1 - g and gR in 40 digits from the law's float parameters
    # (`oracles.idle_transforms_mp`); n = 0 is the subtraction 1 - gR*d and is
    # held in absolute terms.  Measured worst over these examples and 600
    # random draws: 3.5e-14 relative for n >= 1, 2.9e-16 absolute at n = 0.
    # Entries within a factor 10 of the 1e-300 floor are not judged.
    mpmath = pytest.importorskip("mpmath")
    idle, rate, offset, size = case
    got = pmf(idle, rate, offset, size)
    with mpmath.workdps(40):
        s = mpmath.mpf(rate)
        _, g, g_comp, g_res = idle_transforms_mp(idle, s)
        damp = mpmath.exp(-s * mpmath.mpf(offset))
        heads = (g_res * damp, g * damp)
        firsts = (damp * g_res * g_comp, damp * g_comp * g)
        for probs, head, first in zip(got, heads, firsts):
            assert abs(float(probs[0]) - (1 - head)) <= 4.4e-16
            ref = []  # the 40-digit entries n >= 1, each rounded once to a float
            for _ in range(1, size):
                ref.append(float(first))
                first *= g
            for n, (value, exact) in enumerate(zip(probs[1:].tolist(), ref), start=1):
                if exact < 1e-301:
                    assert value == 0.0, n
                elif exact >= 1e-299:
                    assert abs(value - exact) <= 1e-13 * exact, n
