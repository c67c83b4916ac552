"""Monte Carlo vs analytic cross-checks, packaged for the CLI and the tests.

A validation run simulates one scenario, then compares

  * the joint empirical collision-time CDF against the analytic mixture (KS),
  * the two start-state conditional CDFs against their analytic curves (KS),
  * the empirical renewal-count histograms against the closed-form PMFs
    (Pearson chi-square, both counting conventions).

Tolerances are stated at the reference trial count and widened with
1/sqrt(trials) when a run is smaller, so quick runs stay meaningful.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import renewal, simcore
from .ctd import ctd_mixture, ctd_off_start, ctd_on_start
from .dist import CoexistenceScenario, activity_factor


@dataclass(frozen=True)
class Tolerances:
    ks_joint: float = 0.005
    ks_conditional: float = 0.01
    chi2_pvalue_min: float = 1e-3
    reference_trials: int = 1_000_000


@dataclass
class ValidationReport:
    alpha: float
    trials: int
    seed: int
    ks_joint: float
    ks_off: float
    ks_on: float
    ks_joint_limit: float
    ks_conditional_limit: float
    chi2: dict[str, dict[str, float]] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        payload = {
            "alpha": self.alpha,
            "trials": self.trials,
            "seed": self.seed,
            "ks": {
                "joint": self.ks_joint,
                "off_start": self.ks_off,
                "on_start": self.ks_on,
                "joint_limit": self.ks_joint_limit,
                "conditional_limit": self.ks_conditional_limit,
            },
            "chi2": self.chi2,
            "passed": self.passed,
            "failures": self.failures,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def chi_square_counts(observed: np.ndarray, expected_pmf, trials: int,
                      min_expected: float = 5.0) -> dict[str, float]:
    """Pearson test of an observed count histogram against an analytic PMF.

    ``observed`` holds per-count totals; ``expected_pmf`` maps n to its
    probability.  Bins with expected count below ``min_expected`` are pooled
    into the tail, which also absorbs the PMF mass beyond the histogram.
    """
    top = observed.size
    probs = np.asarray([expected_pmf(n) for n in range(top)], dtype=float)
    tail_prob = max(1.0 - probs.sum(), 0.0)
    obs = list(observed.astype(float))
    exp = list(probs * trials)
    obs.append(0.0)
    exp.append(tail_prob * trials)
    # Pool from the high end until every kept bin is well populated.
    while len(obs) > 2 and exp[-1] < min_expected:
        exp[-2] += exp[-1]
        obs[-2] += obs[-1]
        del obs[-1], exp[-1]
    obs_arr = np.asarray(obs)
    exp_arr = np.asarray(exp)
    keep = exp_arr > 0.0
    obs_arr, exp_arr = obs_arr[keep], exp_arr[keep]
    stat = float(np.sum((obs_arr - exp_arr) ** 2 / exp_arr))
    dof = max(obs_arr.size - 1, 1)
    return {
        "statistic": stat,
        "dof": float(dof),
        "pvalue": float(special.chdtrc(dof, stat)),
        "bins": float(obs_arr.size),
    }


def validate_scenario(scenario: CoexistenceScenario, trials: int, seed: int,
                      tolerances: Tolerances = Tolerances(),
                      mixture_cdf=None) -> ValidationReport:
    """Full MC-vs-analytic comparison for one scenario.

    ``mixture_cdf`` substitutes the analytic joint CDF (negative-control
    hook for the test suite); conditionals always use the analytic curves.
    A run in which no trial starts idle, or none starts busy, is a ValueError.

    Both renewal-count conventions walk ``seed + 1``, so the equilibrium and
    ordinary counts come from the same packet windows and their chi-squares
    are correlated, not two independent tests, and a run at ``seed + 1``
    walks its collisions on this run's count stream; the fix is one
    `SeedSequence` child per test.
    """
    config = simcore.McConfig(trials=trials, seed=seed)
    batch = simcore.run_trials(scenario, config)
    started_busy = int(np.count_nonzero(batch.initial_on))
    for state, count in (("idle", trials - started_busy), ("busy", started_busy)):
        if count == 0:
            raise ValueError(
                f"no trial started {state} at activity factor "
                f"{activity_factor(scenario):.6g} in {trials} trials, so its conditional "
                "CDF cannot be checked; raise --trials"
            )
    joint = simcore.EmpiricalCdf.from_samples(batch.collision_time)
    off_cdf, on_cdf = simcore.split_by_start(batch)

    if mixture_cdf is None:
        mixture_cdf = lambda x: ctd_mixture(scenario, x)  # noqa: E731

    widen = math.sqrt(max(tolerances.reference_trials / trials, 1.0))
    ks_joint_limit = tolerances.ks_joint * widen
    ks_conditional_limit = tolerances.ks_conditional * widen

    report = ValidationReport(
        alpha=activity_factor(scenario),
        trials=trials,
        seed=seed,
        ks_joint=joint.ks_distance(mixture_cdf),
        ks_off=off_cdf.ks_distance(lambda x: ctd_off_start(scenario, x)),
        ks_on=on_cdf.ks_distance(lambda x: ctd_on_start(scenario, x)),
        ks_joint_limit=ks_joint_limit,
        ks_conditional_limit=ks_conditional_limit,
    )

    if report.ks_joint > ks_joint_limit:
        report.failures.append(
            f"joint KS {report.ks_joint:.5f} exceeds {ks_joint_limit:.5f}"
        )
    if report.ks_off > ks_conditional_limit:
        report.failures.append(
            f"off-start KS {report.ks_off:.5f} exceeds {ks_conditional_limit:.5f}"
        )
    if report.ks_on > ks_conditional_limit:
        report.failures.append(
            f"on-start KS {report.ks_on:.5f} exceeds {ks_conditional_limit:.5f}"
        )

    for label, equilibrium, kind in (
        ("equilibrium", True, renewal.CountKind.EQUILIBRIUM),
        ("ordinary", False, renewal.CountKind.ORDINARY),
    ):
        observed = simcore.empirical_renewal_counts(
            scenario, simcore.McConfig(trials=trials, seed=seed + 1), equilibrium=equilibrium
        )
        spec = renewal.RenewalPmfSpec(scenario.idle, scenario.packet_rate, 0.0, kind)
        cell = chi_square_counts(observed, lambda n: renewal.pmf(spec, n), trials)
        report.chi2[label] = cell
        if cell["pvalue"] < tolerances.chi2_pvalue_min:
            report.failures.append(
                f"{label} count chi-square p={cell['pvalue']:.2e} "
                f"below {tolerances.chi2_pvalue_min:.0e}"
            )
    return report
