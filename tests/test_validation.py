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
from coexlink.renewal import pmf
from coexlink.validation import (
    CHI2_PVALUE_MIN,
    MIN_EXPECTED,
    _chi2_sf,
    chi_square_counts,
    validate_scenario,
)
from conftest import SUITE_SEED, scenario_named


def geometric_pmf(first: float, ratio: float, size: int) -> np.ndarray:
    """first * ratio**n for n = 0..size - 1, each power a Python float power."""
    return np.array([first * ratio**n for n in range(size)])


class TestChiSquareCounts:
    def test_matching_pmf_is_plausible(self, rng):
        # draw from an honest geometric and test it against itself
        p = 0.4
        draws = rng.geometric(p, 50_000) - 1  # support 0, 1, ...
        observed = np.bincount(draws)
        cell = chi_square_counts(observed, geometric_pmf(p, 1 - p, observed.size), 50_000)
        assert cell["pvalue"] > 1e-3
        assert cell["bins"] >= 3

    def test_wrong_pmf_is_rejected(self, rng):
        draws = rng.geometric(0.4, 50_000) - 1
        observed = np.bincount(draws)
        cell = chi_square_counts(observed, geometric_pmf(0.5, 0.5, observed.size), 50_000)
        assert cell["pvalue"] < 1e-6

    def test_pvalue_is_the_chi2_survival_function(self, rng):
        draws = rng.geometric(0.4, 5_000) - 1
        observed = np.bincount(draws)
        cell = chi_square_counts(observed, geometric_pmf(0.4, 0.6, observed.size), 5_000)
        expected = float(stats.chi2.sf(cell["statistic"], cell["dof"]))
        assert abs(cell["pvalue"] - expected) <= 1e-13 * expected

    def test_sparse_bins_are_pooled(self):
        observed = np.array([900, 90, 9, 1, 0, 0])
        cell = chi_square_counts(observed, geometric_pmf(0.9, 0.1, observed.size), 1000)
        # expected counts fall below 5 from n = 3 on; those plus the
        # off-histogram tail must be merged
        assert cell["bins"] <= 4.0
        assert cell["pvalue"] > 1e-3

    def test_every_bin_meets_the_floor_on_a_slow_geometric(self):
        # ratio 0.999: the tail beyond 3,000 counts alone expects ~497, while
        # every bin from n = 693 on expects fewer than 5; pooling from the
        # top only until the last bin is populated kept all 3,001 bins
        ratio, trials = 0.999, 10_000
        probs = (1.0 - ratio) * ratio ** np.arange(3000)
        observed = np.random.default_rng(7).multinomial(trials, np.append(probs, 0.0) / probs.sum())
        cell = chi_square_counts(observed[:-1], geometric_pmf(1.0 - ratio, ratio, 3000), trials)
        assert cell["bins"] <= trials / MIN_EXPECTED
        assert cell["dof"] == cell["bins"] - 1.0

    def test_a_steep_geometric_keeps_its_floats(self):
        # every bin already expects MIN_EXPECTED once the tail is pooled, so
        # the cell is bit for bit the one recorded before the pooling held
        # every bin to the floor
        draws = np.random.default_rng(7).geometric(0.6, 50_000) - 1
        observed = np.bincount(draws)
        cell = chi_square_counts(observed, geometric_pmf(0.6, 0.4, observed.size), 50_000)
        assert cell == {"statistic": 11.326583854169925, "dof": 10.0,
                        "pvalue": 0.33264653808130273, "bins": 11.0}


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


def _frozen_reports(rows) -> list:
    """Cases of (name, seed, digest) rows, each with the id name-seed."""
    return [pytest.param(name, seed, digest, id=f"{name}-{seed}") for name, seed, digest in rows]


def _traced_peak(scenario, trials: int) -> int:
    """Peak bytes that tracemalloc traced over one validation run at seed 1."""
    tracemalloc.start()
    try:
        validate_scenario(scenario, trials=trials, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestValidateScenario:
    def test_passes_on_honest_model(self, scenario_exp_0p1575):
        report = validate_scenario(scenario_exp_0p1575, trials=100_000, seed=SUITE_SEED)
        assert report.passed, report.failures
        assert report.alpha == pytest.approx(0.1575, rel=1e-12)
        assert report.trials == 100_000
        assert report.ks["joint"] < report.ks["joint_limit"]
        assert set(report.chi2) == {"equilibrium", "ordinary"}

    def test_negative_control_fails(self, scenario_exp_0p1575, monkeypatch):
        # feeding a deliberately shifted joint CDF must trip the KS gate;
        # this proves the harness can actually fail
        from coexlink import validation

        monkeypatch.setattr(validation, "ctd_mixture",
                            lambda scenario, x: ctd_mixture(scenario, np.asarray(x) - 2e-4))
        report = validate_scenario(scenario_exp_0p1575, trials=100_000, seed=SUITE_SEED)
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
        ks = report.ks[f"{start}_start"]
        assert report.failures == [
            f"{start}-start KS {ks:.5f} exceeds {report.ks['conditional_limit']:.5f}"
        ]

    def test_negative_control_fails_the_count_chi_square(self, scenario_exp_0p1575,
                                                          monkeypatch):
        # moving 3% of the zero-count mass into the tail trips both
        # renewal-count chi-squares and nothing else
        import coexlink.renewal

        exact = coexlink.renewal.pmf

        def shifted(*args):
            pmfs = exact(*args)
            for probs in pmfs:
                probs[0] *= 0.97
            return pmfs

        monkeypatch.setattr(coexlink.renewal, "pmf", shifted)
        report = validate_scenario(scenario_exp_0p1575, trials=100_000, seed=SUITE_SEED)
        assert [f.split(" p=")[0] for f in report.failures] == [
            "equilibrium count chi-square", "ordinary count chi-square"]
        assert report.failures[0] == (f"equilibrium count chi-square p="
                                      f"{report.chi2['equilibrium']['pvalue']:.2e} below 1e-03")

    def test_one_pmf_evaluation_per_run(self, scenario_exp_0p1575, monkeypatch):
        # both conventions' PMFs come from one call at the longer histogram's
        # length, not one call per histogram bin
        import coexlink.renewal

        expected = validate_scenario(scenario_exp_0p1575, trials=100_000, seed=SUITE_SEED)
        exact = coexlink.renewal.pmf
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return exact(*args, **kwargs)

        monkeypatch.setattr(coexlink.renewal, "pmf", counted)
        report = validate_scenario(scenario_exp_0p1575, trials=100_000, seed=SUITE_SEED)
        assert len(calls) == 1
        assert report.to_json() == expected.to_json()

    def test_nan_joint_reference_is_a_numerical_failure(self, scenario_exp_0p1575,
                                                         monkeypatch):
        # a NaN CDF once read as a perfect fit, joint KS 0.0
        from coexlink import validation

        monkeypatch.setattr(validation, "ctd_mixture",
                            lambda scenario, x: np.full(np.shape(x), np.nan))
        with pytest.raises(FloatingPointError, match="reference CDF is NaN or infinite"):
            validate_scenario(scenario_exp_0p1575, trials=20_000, seed=SUITE_SEED)

    def test_limits_widen_for_small_runs(self, scenario_exp_0p1575):
        tight = validate_scenario(scenario_exp_0p1575, trials=400_000, seed=SUITE_SEED)
        loose = validate_scenario(scenario_exp_0p1575, trials=25_000, seed=SUITE_SEED)
        assert loose.ks["joint_limit"] == pytest.approx(4.0 * tight.ks["joint_limit"])
        assert loose.passed, loose.failures

    def test_report_json_round_trip(self, scenario_exp_0p1575):
        report = validate_scenario(scenario_exp_0p1575, trials=50_000, seed=SUITE_SEED)
        payload = json.loads(report.to_json())
        assert payload["passed"] is report.passed
        assert payload["ks"] == report.ks
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
    # must leave every digit of every statistic as it was.  The rows after
    # the first four, one per other law the benchmark validates, were
    # recorded while each chunk still returned its own batch and the KS
    # passes sorted copies of the sample.  The alpha_ge_0.5 rows and
    # alpha_0.3_0.5 were re-recorded when the chi-square pooling began to
    # hold every bin to MIN_EXPECTED, and every row when both renewal-count
    # conventions came to read one walk's full gaps; each time the reports
    # moved inside ``chi2`` alone.  The ids name the scenario and the seed,
    # so a re-recorded digest renames no case.
    @pytest.mark.parametrize("name,seed,expected", _frozen_reports([
        ("alpha_ge_0.5", 11, "9c0d5f7e0788260a25a7f439862be14267efe9e804c292627f4c9d5d90c9d24c"),
        ("alpha_ge_0.5", 12, "54b97b30d94caf6e9157c7edfe24f1dad6a8b1d339ba138e565889427611d9cc"),
        ("exp_alpha_0.1575", 11,
         "82e672e859eb21527e2cf086f7e4f58d2b4851072132351a555b07b163aca803"),
        ("exp_alpha_0.1575", 12,
         "5618a14075e254f1df44590fdcc2488f9b1840da02cb3a08062dbfe502505a92"),
        ("alpha_lt_0.1", 11, "bc3e12ee85ec5dd1816788b5e5a2076984f122db6a78d5c881920cec430daf32"),
        ("alpha_0.1_0.3", 11, "8d8c7bcf5ab1e4f295cec0cada9968d6f7623367b72a032a553cb4e67694b5c9"),
        ("alpha_0.3_0.5", 11, "d6f477feae948dbb513aea8c43e3722d9218cd391cdd77626e30c4bd8e2f80d4"),
        ("exp_alpha_0.0361", 11,
         "bd2c48998bef71defa67893e7af321431963ca4c637c8f96565c53df1d679a80"),
        ("exp_busy", 11, "e6f4c1e67adf1b0498de3af0604f5de0ac66403cf125046973179aebcbde1795"),
    ]))
    def test_report_frozen(self, name, seed, expected):
        report = validate_scenario(scenario_named(name), trials=20_000, seed=seed)
        assert _digest_at_chdtrc(report) == expected

    # The same at 200k trials, recorded before the KS passes walked their
    # uniques in blocks: the joint pass of alpha_ge_0.5 then spans 11 blocks
    # of `simcore.KS_BLOCK`, where 20k trials span one or two.  Both rows
    # were re-recorded with the 20k rows above, when the count walk changed.
    @pytest.mark.parametrize("name,seed,expected", _frozen_reports([
        ("alpha_ge_0.5", 11, "f95ac638f05699920203edad18f1d054cc09087b9cae1257d97f0cf54808dc44"),
        ("exp_busy", 11, "d1ae5de79c2d00863bfadf84645ddd871d7f57de3be2aa0138153c04ed444374"),
    ]))
    def test_report_frozen_at_200k_trials(self, name, seed, expected):
        report = validate_scenario(scenario_named(name), trials=200_000, seed=seed)
        assert _digest_at_chdtrc(report) == expected

    @pytest.mark.parametrize("name", ["alpha_ge_0.5", "exp_busy"])
    def test_traced_peak_is_bounded(self, name):
        # At 200k trials the walk's 131,072-trial chunk sets the peak: its
        # live trials' arrays, written into the batch's own slices, beside
        # the 1.7 MiB batch, 6.6-7.4 MiB in all.  The KS passes probe one
        # block at a time, and the count walk starts after the batch is freed.
        peak = _traced_peak(scenario_named(name), 200_000)
        assert peak <= 8 * 2**20, f"{peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("name", ["alpha_ge_0.5", "exp_busy"])
    def test_traced_peak_per_trial_is_bounded(self, name):
        # At 1M trials the KS passes set the peak: the 9 bytes per trial of
        # the batch, the conditional samples' 8, sorted in place, and the
        # bounds of the uniques of one sample, 21-22 bytes per trial in all.
        trials = 1_000_000
        peak = _traced_peak(scenario_named(name), trials)
        assert peak <= 24 * trials, f"{peak / trials:.1f} bytes per trial"

    def test_float_trials_name_the_field(self, scenario_exp_0p1575):
        with pytest.raises(ValueError, match="trials must be an integer >= 1, got 200000.0"):
            validate_scenario(scenario_exp_0p1575, 2e5, 1)


def test_renewal_chi2_catches_wrong_convention(scenario_exp_0p1575, rng):
    # sanity for the helper wiring: ordinary counts tested against the
    # equilibrium PMF of a mixture scenario must be distinguishable
    from coexlink.simcore import McConfig, empirical_renewal_counts

    scenario = preset_scenario("alpha_ge_0.5")
    _, observed = empirical_renewal_counts(scenario, McConfig(trials=200_000, seed=SUITE_SEED))
    wrong, _ = pmf(scenario.idle, scenario.packet_rate, 0.0, observed.size)
    cell = chi_square_counts(observed, wrong, 200_000)
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
