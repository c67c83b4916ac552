"""Collision-time and packet-error-rate models for a link sharing its channel
with alternating busy/idle interference, plus the Monte Carlo oracle that
validates them."""

from .ctd import CtdCurve, ctd_curve, ctd_mixture, ctd_off_start, ctd_on_start
from .dist import (
    CoexistenceScenario,
    ConstantOnTime,
    ExponentialIdle,
    ExponentialOnTime,
    HyperexponentialIdle,
    activity_factor,
)
from .per import (
    GumbelDomainError,
    Modulation,
    PerMethod,
    per_curve,
    success_prob,
)
from .presets import exponential_scenario, preset_names, preset_scenario
from .renewal import CountKind, RenewalPmfSpec, pmf
from .scenario import ScenarioDoc, ScenarioFormatError, parse_scenario_file, parse_scenario_text
from .simcore import EmpiricalCdf, McConfig, TrialBatch, run_trials
from .validation import ValidationReport, validate_scenario

__version__ = "0.1.0"

__all__ = [
    "CtdCurve",
    "ctd_curve",
    "ctd_mixture",
    "ctd_off_start",
    "ctd_on_start",
    "CoexistenceScenario",
    "ConstantOnTime",
    "ExponentialIdle",
    "ExponentialOnTime",
    "HyperexponentialIdle",
    "activity_factor",
    "GumbelDomainError",
    "Modulation",
    "PerMethod",
    "per_curve",
    "success_prob",
    "exponential_scenario",
    "preset_names",
    "preset_scenario",
    "CountKind",
    "RenewalPmfSpec",
    "pmf",
    "ScenarioDoc",
    "ScenarioFormatError",
    "parse_scenario_file",
    "parse_scenario_text",
    "EmpiricalCdf",
    "McConfig",
    "TrialBatch",
    "run_trials",
    "ValidationReport",
    "validate_scenario",
    "__version__",
]
