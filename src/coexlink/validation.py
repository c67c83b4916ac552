"""Monte Carlo vs analytic cross-checks, packaged for the CLI and the tests.

A validation run simulates one scenario, then compares

  * the joint empirical collision-time CDF against the analytic mixture (KS),
  * the two start-state conditional CDFs against their analytic curves (KS),
  * the empirical renewal-count histograms against the closed-form PMFs
    (Pearson chi-square, both counting conventions).

The limits are module constants, stated at ``REFERENCE_TRIALS`` and widened
with 1/sqrt(trials) when a run is smaller, so quick runs stay meaningful.

`validate_scenario` returns a `ValidationReport` whose fields are the JSON
report's keys: each KS distance and limit is one entry of ``report.ks`` and
each chi-square cell one entry of ``report.chi2``, so a new number in the
report is one new entry.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import renewal, simcore
from .ctd import ctd_mixture, ctd_off_start, ctd_on_start
from .dist import CoexistenceScenario, activity_factor


# Limits at REFERENCE_TRIALS; a smaller run widens the KS limits by
# sqrt(REFERENCE_TRIALS / trials).
KS_JOINT = 0.005
KS_CONDITIONAL = 0.01
CHI2_PVALUE_MIN = 1e-3
REFERENCE_TRIALS = 1_000_000
# Chi-square bins are pooled until each expects at least this many counts.
MIN_EXPECTED = 5.0


@dataclass
class ValidationReport:
    """One run's checks, held as the JSON report prints them.

    ``ks`` maps ``joint``, ``off_start`` and ``on_start`` to their KS
    distances and ``joint_limit`` and ``conditional_limit`` to the limits
    they are held to; ``chi2`` maps ``equilibrium`` and ``ordinary`` to the
    cells of `chi_square_counts`; ``failures`` lists each check that failed.
    `to_json` writes these fields under their own names, plus ``passed``.
    """

    alpha: float
    trials: int
    seed: int
    ks: dict[str, float] = field(default_factory=dict)
    chi2: dict[str, dict[str, float]] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "passed": self.passed}, indent=2, sort_keys=True)


def _chi2_sf(dof: int, statistic: float) -> float:
    """P(chi-square with ``dof`` degrees of freedom > ``statistic``), dof >= 1.

    With h = statistic/2, an even dof 2m gives the Poisson sum
    e^-h sum_(j<m) h^j / j! (A&S 26.4.4), and an odd dof 2m + 1 gives
    erfc(sqrt(h)) + e^-h sum_(j<m) h^(j+1/2) / Gamma(j + 3/2) (A&S 26.4.5).
    Each term is formed as exp(a log h - h - lgamma(a + 1)), so h^a / a!
    never overflows before e^-h damps it: any dof and any finite statistic
    give a value in [0, 1].  On dof 1-59 and statistics 1e-3 to 400 the
    value is within 1e-13 relative of Cephes' ``chdtrc`` wherever that
    exceeds 1e-300 (measured 4.8e-14).  Beyond that range both carry the
    rounding of the exponent, which grows with its size: against 40-digit
    mpmath this sum kept 9.3e-14 up to statistic 1585 on dof 1-59, 1.5e-13
    on dof 60-400 and 4.6e-12 on dof 1000-10000, where ``chdtrc`` itself
    was off by 1.1e-13, 1.9e-13 and 7.9e-12.

    Raises:
        ValueError: if the statistic is NaN or negative.
    """
    if not statistic >= 0.0:
        raise ValueError(f"chi-square statistic must be >= 0, got {statistic!r}")
    if statistic == math.inf:
        return 0.0
    half = 0.5 * statistic
    if half == 0.0:  # also the least subnormal, where 1 - p rounds to 1
        return 1.0
    log_half = math.log(half)
    odd = dof % 2
    total = math.erfc(math.sqrt(half)) if odd else 0.0
    for j in range(dof // 2):
        a = j + 0.5 * odd
        total += math.exp(a * log_half - half - math.lgamma(a + 1.0))
    return min(total, 1.0)


def chi_square_counts(observed: np.ndarray, expected_pmf, trials: int) -> dict[str, float]:
    """Pearson test of an observed count histogram against an analytic PMF.

    ``observed`` holds per-count totals; ``expected_pmf`` maps n to its
    probability.  A last bin holds the PMF mass beyond the histogram.  Bins
    are pooled from the high end so that every bin expects at least
    ``MIN_EXPECTED`` counts: a bin closes once it does, and a short
    remainder at the low end joins the bin above it.  The p-value is the
    chi-square tail at the integer dof, in closed form (`_chi2_sf`,
    Abramowitz & Stegun 26.4.4 and 26.4.5).
    """
    top = observed.size
    probs = np.asarray([expected_pmf(n) for n in range(top)], dtype=float)
    tail_prob = max(1.0 - probs.sum(), 0.0)
    obs = observed.astype(float).tolist() + [0.0]
    exp = (probs * trials).tolist() + [tail_prob * trials]
    # Scan from the high end, closing a bin once it is well populated.
    pooled = []
    acc_obs = acc_exp = 0.0
    for o, e in zip(reversed(obs), reversed(exp)):
        acc_obs += o
        acc_exp += e
        if acc_exp >= MIN_EXPECTED:
            pooled.append((acc_obs, acc_exp))
            acc_obs = acc_exp = 0.0
    if pooled:  # the remainder at the low end joins the bin above it
        o, e = pooled.pop()
        acc_obs += o
        acc_exp += e
    pooled.append((acc_obs, acc_exp))
    obs_arr, exp_arr = np.array(pooled[::-1]).T
    stat = float(np.sum((obs_arr - exp_arr) ** 2 / exp_arr))
    dof = max(obs_arr.size - 1, 1)
    return {
        "statistic": stat,
        "dof": float(dof),
        "pvalue": _chi2_sf(dof, stat),
        "bins": float(obs_arr.size),
    }


def validate_scenario(scenario: CoexistenceScenario, trials: int, seed: int) -> ValidationReport:
    """Full MC-vs-analytic comparison for one scenario.

    The joint sample is checked against `ctd.ctd_mixture` and each start
    state's sample against its own analytic curve.  A run in which no trial
    starts idle, or none starts busy, is a ValueError.

    The stages run one after another and hold only their own arrays.  The
    collision walk fills the batch, 9 bytes per trial, one chunk at a time
    (`simcore.run_trials`).  The two conditional samples are copied out of it
    and sorted in place, 8 bytes per trial, and each is checked against its
    own start state's CDF alone (`ctd.ctd_off_start`, `ctd.ctd_on_start`);
    once they are freed the batch's own collision times are sorted in place
    as the joint sample.  Each KS pass adds a mask and the bounds of its
    sample's uniques, up to 9 bytes per value, and one block of probes at a
    time (`simcore.KS_BLOCK`).  So the walk's chunk sets the traced peak at
    200k trials, 6.4-6.8 MiB on the seven benchmarked laws, and the KS passes
    set it from 1M trials on, 18-22 bytes per trial.  All of it is released
    before the renewal-count walk (`simcore.empirical_renewal_counts`), which
    gives both conventions' histograms at once and holds one chunk's windows
    and first gaps, then each convention's live trials: 2.5-3.5 MiB traced
    per 131,072-trial chunk for an exponential idle law, which walks once,
    and 5.3 MiB for a hyperexponential one.

    Both renewal-count conventions walk ``seed + 1`` and share its packet
    windows and first-gap draws, so their chi-squares are correlated, not
    two independent tests, and a run at ``seed + 1`` walks its collisions on
    this run's count stream; one `SeedSequence` child per test would make
    them independent and walk each convention on its own.  The count walk
    takes a step per completed idle gap, so it slows like 1/(1 - g) as the
    idle gaps become far shorter than the packet.
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
    report = ValidationReport(alpha=activity_factor(scenario), trials=trials, seed=seed)
    ks = report.ks
    off_cdf, on_cdf = simcore.split_by_start(batch)
    ks["off_start"] = off_cdf.ks_distance(lambda x: ctd_off_start(scenario, x))
    ks["on_start"] = on_cdf.ks_distance(lambda x: ctd_on_start(scenario, x))
    del off_cdf, on_cdf
    # The batch is this run's own, so its collision times become the joint
    # sample, sorted in place.
    joint = simcore.EmpiricalCdf.sorted_in_place(batch.collision_time)
    del batch
    ks["joint"] = joint.ks_distance(lambda x: ctd_mixture(scenario, x))
    # Nothing below reads the walk: free it before the count walks allocate.
    del joint

    widen = math.sqrt(max(REFERENCE_TRIALS / trials, 1.0))
    ks["joint_limit"] = KS_JOINT * widen
    ks["conditional_limit"] = KS_CONDITIONAL * widen
    for label, key, limit_key in (("joint", "joint", "joint_limit"),
                                  ("off-start", "off_start", "conditional_limit"),
                                  ("on-start", "on_start", "conditional_limit")):
        if ks[key] > ks[limit_key]:
            report.failures.append(f"{label} KS {ks[key]:.5f} exceeds {ks[limit_key]:.5f}")

    counts = simcore.empirical_renewal_counts(
        scenario, simcore.McConfig(trials=trials, seed=seed + 1))
    for label, observed, kind in zip(
        ("equilibrium", "ordinary"), counts,
        (renewal.CountKind.EQUILIBRIUM, renewal.CountKind.ORDINARY),
    ):
        spec = renewal.RenewalPmfSpec(scenario.idle, scenario.packet_rate, 0.0, kind)
        cell = chi_square_counts(observed, lambda n: renewal.pmf(spec, n), trials)
        report.chi2[label] = cell
        if cell["pvalue"] < CHI2_PVALUE_MIN:
            report.failures.append(
                f"{label} count chi-square p={cell['pvalue']:.2e} "
                f"below {CHI2_PVALUE_MIN:.0e}"
            )
    return report
