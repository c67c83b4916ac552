import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import coexlink
from coexlink.ctd import ctd_mixture
from coexlink.presets import preset_scenario
from coexlink.renewal import CountKind, RenewalPmfSpec, pmf
from coexlink.validation import Tolerances, chi_square_counts, validate_scenario
from conftest import SUITE_SEED


class TestChiSquareCounts:
    def test_matching_pmf_is_plausible(self, rng):
        # draw from an honest geometric and test it against itself
        p = 0.4
        draws = rng.geometric(p, 50_000) - 1  # support 0, 1, ...
        observed = np.bincount(draws)
        cell = chi_square_counts(observed, lambda n: p * (1 - p) ** n, 50_000)
        assert cell["pvalue"] > 1e-3
        assert cell["bins"] >= 3

    def test_wrong_pmf_is_rejected(self, rng):
        draws = rng.geometric(0.4, 50_000) - 1
        observed = np.bincount(draws)
        cell = chi_square_counts(observed, lambda n: 0.5 * 0.5**n, 50_000)
        assert cell["pvalue"] < 1e-6

    def test_pvalue_is_the_chi2_survival_function(self, rng):
        draws = rng.geometric(0.4, 5_000) - 1
        cell = chi_square_counts(np.bincount(draws), lambda n: 0.4 * 0.6**n, 5_000)
        assert cell["pvalue"] == float(stats.chi2.sf(cell["statistic"], cell["dof"]))

    def test_sparse_bins_are_pooled(self):
        observed = np.array([900, 90, 9, 1, 0, 0])
        cell = chi_square_counts(
            observed, lambda n: 0.9 * 0.1**n, 1000, min_expected=5.0
        )
        # expected counts fall below 5 from n = 3 on; those plus the
        # off-histogram tail must be merged
        assert cell["bins"] <= 4.0
        assert cell["pvalue"] > 1e-3


class TestValidateScenario:
    def test_passes_on_honest_model(self, scenario_exp_0p1575):
        report = validate_scenario(scenario_exp_0p1575, trials=100_000, seed=SUITE_SEED)
        assert report.passed, report.failures
        assert report.alpha == pytest.approx(0.1575, rel=1e-12)
        assert report.trials == 100_000
        assert report.ks_joint < report.ks_joint_limit
        assert set(report.chi2) == {"equilibrium", "ordinary"}

    def test_negative_control_fails(self, scenario_exp_0p1575):
        # feeding a deliberately shifted joint CDF must trip the KS gate;
        # this proves the harness can actually fail
        def shifted(x):
            return ctd_mixture(scenario_exp_0p1575, np.asarray(x) - 2e-4)

        report = validate_scenario(
            scenario_exp_0p1575, trials=100_000, seed=SUITE_SEED, mixture_cdf=shifted
        )
        assert not report.passed
        assert any("joint KS" in f for f in report.failures)

    def test_limits_widen_for_small_runs(self, scenario_exp_0p1575):
        tight = validate_scenario(scenario_exp_0p1575, trials=400_000, seed=SUITE_SEED)
        loose = validate_scenario(scenario_exp_0p1575, trials=25_000, seed=SUITE_SEED)
        assert loose.ks_joint_limit == pytest.approx(4.0 * tight.ks_joint_limit)
        assert loose.passed, loose.failures

    def test_report_json_round_trip(self, scenario_exp_0p1575):
        report = validate_scenario(scenario_exp_0p1575, trials=50_000, seed=SUITE_SEED)
        payload = json.loads(report.to_json())
        assert payload["passed"] is report.passed
        assert payload["ks"]["joint"] == report.ks_joint
        assert payload["trials"] == 50_000
        assert "equilibrium" in payload["chi2"]

    def test_custom_tolerances_gate(self, scenario_exp_0p1575):
        # an absurdly tight joint limit must fail even an honest model
        tolerances = Tolerances(ks_joint=1e-6, reference_trials=50_000)
        report = validate_scenario(
            scenario_exp_0p1575, trials=50_000, seed=SUITE_SEED, tolerances=tolerances
        )
        assert not report.passed

    def test_empty_start_state_names_the_remedy(self):
        # at alpha 1e-5, 10^4 trials almost surely hold no busy start, and a
        # start state without samples has no empirical CDF to compare
        with pytest.raises(ValueError) as info:
            validate_scenario(preset_scenario("exp_alpha_0.00001"), trials=10_000, seed=1)
        message = str(info.value)
        assert "no trial started busy" in message
        assert "activity factor 1e-05" in message
        assert "10000 trials" in message
        assert "raise --trials" in message

    # sha256 of the JSON report, recorded while the walk still gathered from
    # full-size arrays and drew phases with `rng.choice`: a faster walk or KS
    # must leave every digit of every statistic as it was.
    @pytest.mark.parametrize("name,seed,expected", [
        ("alpha_ge_0.5", 11, "d9c1bdcda781015501eb0a97803067c35bb60c143b76a0590333e7e80a8e12af"),
        ("alpha_ge_0.5", 12, "2aa258c97a2c44dcdd36c79e81c3757d5219ec8d369b86e878cf1231426f957b"),
        ("exp_alpha_0.1575", 11,
         "35ab7cb81e76d8dbc53245daaffdf24634a414cfa630db3c0972349950d08a60"),
        ("exp_alpha_0.1575", 12,
         "26eac2284e25e2140c7ec8216d8ba7416f8bbf8e1bae6c5f8df8a325ff1146a1"),
    ])
    def test_report_frozen(self, name, seed, expected):
        report = validate_scenario(preset_scenario(name), trials=20_000, seed=seed)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == expected


def test_renewal_chi2_catches_wrong_convention(scenario_exp_0p1575, rng):
    # sanity for the helper wiring: ordinary counts tested against the
    # equilibrium PMF of a mixture scenario must be distinguishable
    from coexlink.simcore import McConfig, empirical_renewal_counts

    scenario = preset_scenario("alpha_ge_0.5")
    observed = empirical_renewal_counts(
        scenario, McConfig(trials=200_000, seed=SUITE_SEED), equilibrium=False
    )
    wrong = RenewalPmfSpec(
        scenario.idle, scenario.packet_rate, 0.0, CountKind.EQUILIBRIUM
    )
    cell = chi_square_counts(observed, lambda n: pmf(wrong, n), 200_000)
    assert cell["pvalue"] < 1e-6


def _loaded_after_cli_import(modules: list[str]) -> list[str]:
    """Which of ``modules`` a fresh interpreter has loaded after ``import coexlink.cli``."""
    env = dict(os.environ, PYTHONPATH=str(Path(coexlink.__file__).resolve().parents[1]))
    probe = f"import sys, coexlink.cli; print([m for m in {modules!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return ast.literal_eval(out.stdout.strip())


def test_cli_import_leaves_scipy_stats_unloaded():
    assert _loaded_after_cli_import(["scipy.stats"]) == []


def test_cli_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate would also load scipy.optimize and scipy.sparse
    assert _loaded_after_cli_import(["scipy.integrate", "scipy.optimize", "scipy.sparse"]) == []


def test_no_module_imports_scipy_integrate():
    # the adaptive quadratures are test oracles (tests/oracles.py), never runtime code
    offenders = []
    for path in sorted(Path(coexlink.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            offenders += [f"{path.name}: {n}" for n in names
                          if n == "scipy.integrate" or n.startswith("scipy.integrate.")]
    assert offenders == []
