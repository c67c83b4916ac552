"""Bundled reference scenarios.

The hyperexponential idle mixtures are three-phase fits to measured 2.4 GHz
channel activity, grouped by the observed activity-factor band.  Phase means
are interpreted in seconds (magnitudes 0.4 ms - 40 ms, consistent with
second-scale spectrum traces); the activity factor implied by each mixture is
recomputed from these values, so downstream math is unit-consistent either
way.  `describe_presets` carries this assumption into CLI output.
"""

from __future__ import annotations

from .dist import (
    DEFAULT_BIT_TIME,
    ConstantOnTime,
    CoexistenceScenario,
    ExponentialIdle,
    HyperexponentialIdle,
    activity_factor,
)

DEFAULT_BUSY_TIME = 374e-6
DEFAULT_PACKET_MEAN = 1.984e-3

IDLE_MIXTURES: dict[str, HyperexponentialIdle] = {
    "alpha_lt_0.1": HyperexponentialIdle(
        weights=(0.328, 0.356, 0.316),
        means=(0.040380, 0.01174, 0.00468),
    ),
    "alpha_0.1_0.3": HyperexponentialIdle(
        weights=(0.093, 0.577, 0.330),
        means=(0.022490, 0.006445, 0.000388),
    ),
    "alpha_0.3_0.5": HyperexponentialIdle(
        weights=(0.037, 0.467, 0.496),
        means=(0.012690, 0.003289, 0.000457),
    ),
    "alpha_ge_0.5": HyperexponentialIdle(
        weights=(0.012, 0.176, 0.812),
        means=(0.014890, 0.002606, 0.000395),
    ),
}

# Exponential-idle reference points used throughout the validation runs.
EXPONENTIAL_ALPHAS = (0.0361, 0.1575)


def exponential_scenario(alpha: float) -> CoexistenceScenario:
    """Constant busy time plus the exponential idle law matching ``alpha``."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    idle_mean = DEFAULT_BUSY_TIME * (1.0 - alpha) / alpha
    return CoexistenceScenario(
        busy=ConstantOnTime(DEFAULT_BUSY_TIME),
        idle=ExponentialIdle(1.0 / idle_mean),
        packet_rate=1.0 / DEFAULT_PACKET_MEAN,
        bit_time=DEFAULT_BIT_TIME,
    )


def preset_scenario(name: str) -> CoexistenceScenario:
    """Scenario for a named idle mixture, or exp_alpha_<value> for exponential idle."""
    if name in IDLE_MIXTURES:
        return CoexistenceScenario(
            busy=ConstantOnTime(DEFAULT_BUSY_TIME),
            idle=IDLE_MIXTURES[name],
            packet_rate=1.0 / DEFAULT_PACKET_MEAN,
            bit_time=DEFAULT_BIT_TIME,
        )
    if name.startswith("exp_alpha_"):
        try:
            alpha = float(name.removeprefix("exp_alpha_"))
        except ValueError:
            raise KeyError(f"malformed exponential preset name: {name!r}") from None
        try:
            return exponential_scenario(alpha)
        except ValueError as exc:
            raise type(exc)(f"preset {name!r}: {exc}") from exc
    raise KeyError(
        f"unknown preset {name!r}; choose one of {sorted(IDLE_MIXTURES)} "
        "or exp_alpha_<value>"
    )


def preset_names() -> list[str]:
    return sorted(IDLE_MIXTURES) + [f"exp_alpha_{a}" for a in EXPONENTIAL_ALPHAS]


def describe_presets() -> list[dict]:
    """One row per preset: name, model, implied activity factor, idle mean."""
    rows = []
    for name in preset_names():
        scenario = preset_scenario(name)
        rows.append(
            {
                "name": name,
                "idle_model": type(scenario.idle).__name__,
                "alpha": activity_factor(scenario),
                "idle_mean_s": scenario.idle.mean,
                "busy_time_s": scenario.busy.mean,
            }
        )
    return rows
