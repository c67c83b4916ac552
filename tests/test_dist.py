from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coexlink.dist import (
    CoexistenceScenario,
    ConstantOnTime,
    ExponentialIdle,
    ExponentialOnTime,
    HyperexponentialIdle,
    activity_factor,
)


class TestConstantOnTime:
    def test_mean(self):
        assert ConstantOnTime(3.5e-4).mean == 3.5e-4

    def test_residual_is_uniform(self, rng):
        d = ConstantOnTime(2.0)
        samples = d.residual_sample(rng, 200_000)
        assert np.all((samples >= 0) & (samples <= 2.0))
        assert np.mean(samples) == pytest.approx(1.0, abs=0.01)
        assert np.var(samples) == pytest.approx(4.0 / 12.0, rel=0.02)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ConstantOnTime(0.0)


class TestExponentialOnTime:
    def test_sample_mean(self, rng):
        d = ExponentialOnTime(rate=500.0)
        samples = d.sample(rng, 200_000)
        assert np.mean(samples) == pytest.approx(d.mean, rel=0.01)


class TestIdleModels:
    def test_exponential_laplace(self):
        d = ExponentialIdle(rate=500.0)
        assert d.laplace(0.0) == pytest.approx(1.0)
        assert d.laplace(500.0) == pytest.approx(0.5)
        assert d.residual_laplace(250.0) == d.laplace(250.0)
        with pytest.raises(ValueError):
            d.laplace(-1.0)

    def test_hyperexponential_mean_and_laplace(self):
        d = HyperexponentialIdle(weights=(0.25, 0.75), means=(4.0, 0.4))
        assert d.mean == pytest.approx(0.25 * 4.0 + 0.75 * 0.4)
        s = 1.3
        expected = 0.25 / (1 + s * 4.0) + 0.75 / (1 + s * 0.4)
        assert d.laplace(s) == pytest.approx(expected, rel=1e-14)

    def test_hyperexponential_weight_validation(self):
        with pytest.raises(ValueError):
            HyperexponentialIdle(weights=(0.5, 0.4), means=(1.0, 2.0))
        with pytest.raises(ValueError):
            HyperexponentialIdle(weights=(0.5, 0.5), means=(1.0,))
        with pytest.raises(ValueError):
            HyperexponentialIdle(weights=(1.5, -0.5), means=(1.0, 2.0))

    def test_laplace_transform_agrees_with_sampling(self, rng):
        d = HyperexponentialIdle(weights=(0.3, 0.7), means=(2e-3, 2e-4))
        s = 800.0
        samples = d.sample(rng, 400_000)
        assert np.mean(np.exp(-s * samples)) == pytest.approx(d.laplace(s), abs=2e-3)

    def test_residual_sample_matches_residual_laplace(self, rng):
        d = HyperexponentialIdle(weights=(0.3, 0.7), means=(2e-3, 2e-4))
        s = 800.0
        samples = d.residual_sample(rng, 400_000)
        assert np.mean(np.exp(-s * samples)) == pytest.approx(
            d.residual_laplace(s), abs=2e-3
        )


# residual transform must equal (1 - laplace(s)) / (s * mean) for any renewal
# interval law; both idle models implement it in closed form instead.
@given(
    # s * mean >= 1e-4 keeps the (1 - laplace) difference in the identity
    # route away from catastrophic cancellation; the closed form itself has
    # no such limit
    s=st.floats(min_value=10.0, max_value=1e5),
    w0=st.floats(min_value=0.05, max_value=0.95),
    m0=st.floats(min_value=1e-5, max_value=1.0),
    m1=st.floats(min_value=1e-5, max_value=1.0),
)
def test_residual_laplace_identity(s, w0, m0, m1):
    d = HyperexponentialIdle(weights=(w0, 1.0 - w0), means=(m0, m1))
    via_identity = (1.0 - d.laplace(s)) / (s * d.mean)
    assert d.residual_laplace(s) == pytest.approx(via_identity, rel=1e-9)


@pytest.mark.parametrize(
    "idle",
    [ExponentialIdle(rate=1e13), ExponentialIdle(rate=500.0),
     HyperexponentialIdle(weights=(0.3, 0.7), means=(2e-13, 5e-14)),
     HyperexponentialIdle(weights=(0.3, 0.7), means=(2e-3, 2e-4))],
    ids=["exp_0.1ps", "exp_2ms", "mix_ps", "mix_ms"],
)
def test_one_minus_laplace_full_precision(idle):
    # exact rational 1 - L(s) of the float parameters; the ps laws have
    # 1 - L(s) ~ 5e-11 at the packet rate, where 1 - laplace(s) would keep
    # only ~6 significant digits
    s = 504.0
    if isinstance(idle, ExponentialIdle):
        phases = [(Fraction(1), Fraction(1) / Fraction(idle.rate))]
    else:
        phases = [(Fraction(w), Fraction(m)) for w, m in zip(idle.weights, idle.means)]
    exact = sum(w * Fraction(s) * m / (1 + Fraction(s) * m) for w, m in phases)
    assert idle.one_minus_laplace(s) == pytest.approx(float(exact), rel=1e-15, abs=0.0)
    assert idle.one_minus_laplace(s) == pytest.approx(1.0 - idle.laplace(s), abs=1e-15)
    assert idle.one_minus_laplace(0.0) == 0.0
    with pytest.raises(ValueError):
        idle.one_minus_laplace(-1.0)


@given(st.floats(min_value=0.0, max_value=1e6))
def test_laplace_bounded(s):
    d = ExponentialIdle(rate=500.0)
    assert 0.0 < d.laplace(s) <= 1.0


class TestScenario:
    def test_packet_mean(self):
        sc = CoexistenceScenario(
            busy=ConstantOnTime(374e-6),
            idle=ExponentialIdle(rate=500.0),
            packet_rate=504.0,
        )
        assert sc.packet_mean == pytest.approx(1.0 / 504.0)
        assert sc.bit_time == 4e-6

    def test_activity_factor(self):
        sc = CoexistenceScenario(
            busy=ConstantOnTime(1e-3),
            idle=ExponentialIdle(rate=1000.0),
            packet_rate=504.0,
        )
        assert activity_factor(sc) == pytest.approx(0.5)

    def test_rejects_wrong_model_kind(self):
        with pytest.raises(TypeError):
            CoexistenceScenario(
                busy=ExponentialIdle(rate=1.0),  # idle model in busy slot
                idle=ExponentialIdle(rate=1.0),
                packet_rate=1.0,
            )
        with pytest.raises(ValueError):
            CoexistenceScenario(
                busy=ConstantOnTime(1e-3),
                idle=ExponentialIdle(rate=1.0),
                packet_rate=-2.0,
            )
