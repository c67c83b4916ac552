import ast
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

import coexlink
from coexlink.ctd import ctd_mixture
from coexlink.presets import preset_scenario
from coexlink.renewal import CountKind, RenewalPmfSpec, pmf
from coexlink.validation import CHI2_PVALUE_MIN, _chi2_sf, chi_square_counts, validate_scenario
from conftest import SUITE_SEED, scenario_named


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
        expected = float(stats.chi2.sf(cell["statistic"], cell["dof"]))
        assert abs(cell["pvalue"] - expected) <= 1e-13 * expected

    def test_sparse_bins_are_pooled(self):
        observed = np.array([900, 90, 9, 1, 0, 0])
        cell = chi_square_counts(observed, lambda n: 0.9 * 0.1**n, 1000)
        # expected counts fall below 5 from n = 3 on; those plus the
        # off-histogram tail must be merged
        assert cell["bins"] <= 4.0
        assert cell["pvalue"] > 1e-3


class TestChiSquareTail:
    def test_within_chdtrc_on_the_validation_range(self):
        # measured 4.8e-14 relative; 5389 of the 11918 points are bitwise
        stats_grid = np.logspace(-3, np.log10(400.0), 202)
        for dof in range(1, 60):
            got = np.array([_chi2_sf(dof, float(x)) for x in stats_grid])
            expected = special.chdtrc(dof, stats_grid)
            assert np.all(expected > 1e-300)
            assert np.all(np.abs(got - expected) <= 1e-13 * expected), dof

    @pytest.mark.parametrize("dof", [1, 2, 3, 4, 59, 10_000])
    def test_zero_statistic_gives_one(self, dof):
        assert _chi2_sf(dof, 0.0) == 1.0
        assert _chi2_sf(dof, 5e-324) == 1.0

    @pytest.mark.parametrize("dof", [1, 2, 3, 4, 59, 10_000])
    def test_infinite_statistic_fails_the_test(self, dof):
        assert _chi2_sf(dof, float("inf")) == 0.0 < CHI2_PVALUE_MIN

    @pytest.mark.parametrize("statistic", [float("nan"), -1.0, float("-inf")])
    def test_nan_or_negative_statistic_is_named(self, statistic):
        with pytest.raises(ValueError,
                           match=f"chi-square statistic must be >= 0, got {statistic!r}"):
            _chi2_sf(3, statistic)

    @pytest.mark.parametrize("dof", [1, 2, 3, 58, 59, 60, 999, 1000, 9999, 10_000])
    def test_extreme_inputs_stay_in_the_unit_interval(self, dof):
        # h^a / a! alone would overflow long before these; RuntimeWarnings are
        # errors under the suite's filter
        for x in [1e-323, 1e-300, 1e-3, 1.0, float(dof), 1e3, 1e4, 1e5, 1e300, 1.7976931348623157e308]:
            p = _chi2_sf(dof, x)
            assert 0.0 <= p <= 1.0, (x, p)

    @pytest.mark.parametrize("dof", [58, 59, 60])
    def test_small_statistics_do_not_round_above_one(self, dof):
        # near x = 0 the terms add up to 1 + 1 ulp at 200-300 of these points
        assert max(_chi2_sf(dof, float(x)) for x in np.logspace(-6, 1, 1000)) == 1.0


def _digest_at_chdtrc(report) -> str:
    """sha256 of the JSON report with each chi-square p-value put back to
    scipy's chdtrc, once it is checked within 1e-13 relative of it.  The
    digests were recorded when the p-values came from chdtrc; the substitution
    keeps every KS and chi-square statistic, dof and bin count pinned bitwise."""
    for cell in report.chi2.values():
        expected = float(special.chdtrc(cell["dof"], cell["statistic"]))
        assert abs(cell["pvalue"] - expected) <= 1e-13 * expected, cell
        cell["pvalue"] = expected
    return hashlib.sha256(report.to_json().encode()).hexdigest()


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

    @pytest.mark.parametrize("start", ["off", "on"])
    def test_negative_control_fails_each_conditional(self, scenario_exp_0p1575, monkeypatch,
                                                     start):
        # a shifted idle-start or busy-start CDF trips its own KS gate alone
        from coexlink import validation

        exact = getattr(validation, f"ctd_{start}_start")
        monkeypatch.setattr(validation, f"ctd_{start}_start",
                            lambda scenario, x: exact(scenario, np.asarray(x) - 2e-4))
        report = validate_scenario(scenario_exp_0p1575, trials=100_000, seed=SUITE_SEED)
        ks = report.ks_off if start == "off" else report.ks_on
        assert report.failures == [
            f"{start}-start KS {ks:.5f} exceeds {report.ks_conditional_limit:.5f}"
        ]

    def test_negative_control_fails_the_count_chi_square(self, scenario_exp_0p1575,
                                                          monkeypatch):
        # moving 3% of the zero-count mass into the tail trips both
        # renewal-count chi-squares and nothing else
        import coexlink.renewal

        exact = coexlink.renewal.pmf
        monkeypatch.setattr(coexlink.renewal, "pmf",
                            lambda spec, n: 0.97 * exact(spec, n) if n == 0 else exact(spec, n))
        report = validate_scenario(scenario_exp_0p1575, trials=100_000, seed=SUITE_SEED)
        assert [f.split(" p=")[0] for f in report.failures] == [
            "equilibrium count chi-square", "ordinary count chi-square"]
        assert report.failures[0] == (f"equilibrium count chi-square p="
                                      f"{report.chi2['equilibrium']['pvalue']:.2e} below 1e-03")

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
        assert _digest_at_chdtrc(report) == expected

    # The same at 200k trials, recorded before the KS passes walked their
    # uniques in blocks: the joint pass of alpha_ge_0.5 then spans 11 blocks
    # of `simcore.KS_BLOCK`, where 20k trials span one or two.
    @pytest.mark.parametrize("name,seed,expected", [
        ("alpha_ge_0.5", 11, "18ddc6df06e831715b9dd4f333d2ad9b6a85c755702b08dfb2dc43fdcaf16678"),
        ("exp_busy", 11, "4b9497520913e75aac723371ca933553bde3200dd6457f02a56d1792288c6aca"),
    ])
    def test_report_frozen_at_200k_trials(self, name, seed, expected):
        report = validate_scenario(scenario_named(name), trials=200_000, seed=seed)
        assert _digest_at_chdtrc(report) == expected

    @pytest.mark.parametrize("name", ["alpha_ge_0.5", "exp_busy"])
    def test_traced_peak_is_bounded(self, name):
        # The KS passes probe one block at a time and the collision batch is
        # released before the count walks, so the walk's own chunk sets the
        # peak, about 9-9.5 MiB.
        scenario = scenario_named(name)
        tracemalloc.start()
        try:
            validate_scenario(scenario, trials=200_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20, f"{peak / 2**20:.2f} MiB"

    def test_float_trials_name_the_field(self, scenario_exp_0p1575):
        with pytest.raises(ValueError, match="trials must be an integer >= 1, got 200000.0"):
            validate_scenario(scenario_exp_0p1575, 2e5, 1)


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


def _package_imports(package_dir: Path) -> list[tuple[str, str]]:
    """(file, dotted name) of every import in the package's modules, at any
    depth of the syntax tree; ``from a import b`` gives ``a.b``."""
    found = []
    for path in sorted(package_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                found += [(path.name, f"{node.module}.{alias.name}") for alias in node.names]
    return found


def test_no_module_imports_scipy_integrate():
    # the adaptive quadratures are test oracles (tests/oracles.py), never runtime code
    offenders = [f"{f}: {n}" for f, n in _package_imports(Path(coexlink.__file__).parent)
                 if n == "scipy.integrate" or n.startswith("scipy.integrate.")]
    assert offenders == []


def test_no_module_imports_scipy():
    # scipy is a test-only dependency: the special functions are coexlink.specfun's
    # numpy kernels and the chi-square tail is validation._chi2_sf
    offenders = [f"{f}: {n}" for f, n in _package_imports(Path(coexlink.__file__).parent)
                 if n.split(".")[0] == "scipy"]
    assert offenders == []
