import pytest

from coexlink.dist import ExponentialIdle, HyperexponentialIdle, activity_factor
from coexlink.presets import (
    DEFAULT_BUSY_TIME,
    EXPONENTIAL_ALPHAS,
    IDLE_MIXTURES,
    describe_presets,
    exponential_scenario,
    preset_names,
    preset_scenario,
)
from oracles import matched_exponential

# activity factors implied by the bundled mixtures with the stock busy time,
# frozen from busy / (busy + idle_mean)
MIXTURE_ALPHAS = {
    "alpha_lt_0.1": 0.0194,
    "alpha_0.1_0.3": 0.0592,
    "alpha_0.3_0.5": 0.1435,
    "alpha_ge_0.5": 0.2808,
}


def test_exponential_scenario_hits_requested_alpha():
    for alpha in EXPONENTIAL_ALPHAS:
        sc = exponential_scenario(alpha)
        assert activity_factor(sc) == pytest.approx(alpha, rel=1e-12)
        assert isinstance(sc.idle, ExponentialIdle)
        assert sc.busy.duration == DEFAULT_BUSY_TIME


def test_exponential_scenario_rejects_bad_alpha():
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            exponential_scenario(bad)


def test_mixture_alphas_frozen():
    for name, expected in MIXTURE_ALPHAS.items():
        sc = preset_scenario(name)
        assert isinstance(sc.idle, HyperexponentialIdle)
        assert activity_factor(sc) == pytest.approx(expected, abs=5e-5)


def test_mixture_band_membership():
    # each mixture's implied activity factor is small; with the stock busy
    # time they sit well under the nominal band labels, which classify the
    # source traffic rather than this reduced setup
    alphas = [activity_factor(preset_scenario(n)) for n in sorted(IDLE_MIXTURES)]
    assert all(0.0 < a < 0.5 for a in alphas)


def test_preset_scenario_exponential_names():
    sc = preset_scenario("exp_alpha_0.1575")
    assert activity_factor(sc) == pytest.approx(0.1575, rel=1e-12)


def test_preset_scenario_unknown_name():
    with pytest.raises(KeyError):
        preset_scenario("alpha_lots")
    with pytest.raises(KeyError):
        preset_scenario("exp_alpha_x")
    with pytest.raises(ValueError):
        preset_scenario("exp_alpha_2.0")


def test_preset_names_cover_everything():
    names = preset_names()
    assert set(IDLE_MIXTURES) < set(names)
    assert "exp_alpha_0.1575" in names
    for name in names:
        preset_scenario(name)


def test_matched_exponential_keeps_mean():
    sc = preset_scenario("alpha_ge_0.5")
    matched = matched_exponential(sc)
    assert isinstance(matched.idle, ExponentialIdle)
    assert matched.idle.mean == pytest.approx(sc.idle.mean, rel=1e-12)
    assert activity_factor(matched) == pytest.approx(activity_factor(sc), rel=1e-12)
    assert matched.busy is sc.busy


def test_describe_presets_rows():
    rows = describe_presets()
    assert len(rows) == len(preset_names())
    by_name = {row["name"]: row for row in rows}
    row = by_name["alpha_0.3_0.5"]
    assert row["idle_model"] == "HyperexponentialIdle"
    assert row["alpha"] == pytest.approx(MIXTURE_ALPHAS["alpha_0.3_0.5"], abs=5e-5)
    assert row["busy_time_s"] == DEFAULT_BUSY_TIME
