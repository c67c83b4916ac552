import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import coexlink.cli as cli
from coexlink.per import PerMethod
from coexlink.scenario import (MAX_GRID_POINTS, MAX_INR_POINTS, MAX_TRIALS, JobParams,
                               ScenarioFormatError)
from coexlink.validation import ValidationReport

SCENARIO_TEXT = textwrap.dedent(
    """
    interferer:
      busy: {kind: constant, duration: "374 us"}
      idle: {kind: exponential, mean: "2.0006 ms"}
    link:
      packet_mean: "1.984 ms"
      bit_time: "4 us"
    job:
      trials: 20000
      seed: 20260815
      grid_points: 64
      snr_db: 10.0
      inr_start_db: -5.0
      inr_stop_db: 15.0
      inr_step_db: 5.0
    """
)


LINK_TEXT = textwrap.dedent(
    """
    interferer:
      busy: {kind: constant, duration: "374 us"}
      idle: {kind: exponential, mean: "2 ms"}
    link:
      packet_mean: "1.984 ms"
      bit_time: "4 us"
    """
)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(SCENARIO_TEXT)
    return str(path)


def read_csv(path):
    header = {}
    rows = []
    columns = None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                header[key.strip()] = value.strip()
            elif columns is None:
                columns = line.split(",")
            elif line:
                rows.append([float(v) for v in line.split(",")])
    return header, columns, rows


class TestPresetsCommand:
    def test_lists_all(self, runner):
        result = runner.invoke(cli.main, ["presets"])
        assert result.exit_code == 0
        for name in ("alpha_lt_0.1", "alpha_ge_0.5", "exp_alpha_0.1575"):
            assert name in result.output

    def test_explain_flag(self, runner):
        result = runner.invoke(cli.main, ["presets", "--explain"])
        assert result.exit_code == 0
        assert "seconds" in result.output
        assert "374 us" in result.output


class TestCtdCommand:
    def test_preset_run(self, runner, tmp_path):
        out = tmp_path / "ctd.csv"
        result = runner.invoke(
            cli.main,
            ["ctd", "--preset", "exp_alpha_0.1575", "-o", str(out), "--grid", "32"],
        )
        assert result.exit_code == 0, result.output
        summary = json.loads(result.output)
        assert summary["alpha"] == pytest.approx(0.1575, rel=1e-9)
        assert summary["no_collision_prob"] == pytest.approx(0.4230052782535952, abs=1e-9)
        assert summary["points"] == 32
        header, columns, rows = read_csv(out)
        assert columns == ["x_seconds", "omega0", "omega1", "omega"]
        assert len(rows) == 32
        assert header["generator"] == "coexlink ctd"
        assert len(header["config_sha256"]) == 16
        assert list(header) == ["generator", "config_sha256", "alpha", "points"]
        # monotone CDF column
        omega = [r[3] for r in rows]
        assert all(a <= b + 1e-12 for a, b in zip(omega, omega[1:]))

    def test_scenario_file_run(self, runner, scenario_file, tmp_path):
        out = tmp_path / "ctd.csv"
        result = runner.invoke(cli.main, ["ctd", scenario_file, "-o", str(out)])
        assert result.exit_code == 0, result.output
        summary = json.loads(result.output)
        assert summary["points"] == 64  # from the job section
        _, _, rows = read_csv(out)
        assert len(rows) == 64

    def test_byte_identical_reruns(self, runner, tmp_path):
        args = ["ctd", "--preset", "alpha_0.3_0.5", "--grid", "16"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert runner.invoke(cli.main, args + ["-o", str(a)]).exit_code == 0
        assert runner.invoke(cli.main, args + ["-o", str(b)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_both_sources(self, runner, scenario_file, tmp_path):
        out = tmp_path / "ctd.csv"
        result = runner.invoke(
            cli.main,
            ["ctd", scenario_file, "--preset", "alpha_lt_0.1", "-o", str(out)],
        )
        assert result.exit_code == cli.EXIT_CONFIG
        assert "config error" in result.output
        assert not out.exists()

    def test_rejects_a_grid_over_the_point_limit(self, runner, tmp_path):
        # 1e11 points once died allocating 745 GiB in np.linspace (exit 1)
        out = tmp_path / "ctd.csv"
        result = runner.invoke(cli.main, ["ctd", "--preset", "alpha_lt_0.1", "-o", str(out),
                                          "--grid", "100000000000"])
        assert result.exit_code == cli.EXIT_CONFIG, result.output
        assert "'--grid'" in result.output and str(MAX_GRID_POINTS) in result.output
        assert not out.exists()
        path = tmp_path / "fine.yaml"
        path.write_text(LINK_TEXT + "job: {grid_points: 100000000000}\n")
        result = runner.invoke(cli.main, ["ctd", str(path), "-o", str(out)])
        assert result.exit_code == cli.EXIT_CONFIG, result.output
        assert f"job.grid_points must be <= {MAX_GRID_POINTS}" in result.output
        assert not out.exists()
        # the limit itself passes, from either source
        assert JobParams(grid_points=MAX_GRID_POINTS).grid_points == MAX_GRID_POINTS
        (option,) = [p for p in cli.cmd_ctd.params if p.name == "grid_points"]
        assert option.type.convert(MAX_GRID_POINTS, option, None) == MAX_GRID_POINTS

    def test_rejects_missing_source(self, runner, tmp_path):
        result = runner.invoke(cli.main, ["ctd", "-o", str(tmp_path / "x.csv")])
        assert result.exit_code == cli.EXIT_CONFIG

    def test_rejects_unknown_preset(self, runner, tmp_path):
        result = runner.invoke(
            cli.main, ["ctd", "--preset", "alpha_wat", "-o", str(tmp_path / "x.csv")]
        )
        assert result.exit_code == cli.EXIT_CONFIG
        assert "unknown preset" in result.output

    def test_rejects_bad_epsilon(self, runner, tmp_path):
        out = tmp_path / "x.csv"
        result = runner.invoke(
            cli.main,
            ["ctd", "--preset", "alpha_lt_0.1", "-o", str(out), "--epsilon", "1e-3"],
        )
        assert result.exit_code == cli.EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("busy", ['{kind: constant, duration: "374 us"}',
                                      '{kind: exponential, mean: "374 us"}'],
                             ids=["constant", "exponential"])
    def test_idle_gaps_far_shorter_than_packet(self, runner, tmp_path, busy):
        # idle-gap transform g = 1 - 5.04e-8 at the packet rate
        path = tmp_path / "scenario.yaml"
        path.write_text(
            f'interferer:\n  busy: {busy}\n  idle: {{kind: exponential, mean: "0.1 ns"}}\n'
            'link:\n  packet_mean: "1.984 ms"\n  bit_time: "4 us"\n'
        )
        out = tmp_path / "ctd.csv"
        result = runner.invoke(cli.main, ["ctd", str(path), "-o", str(out)])
        assert result.exit_code == 0, result.output
        _, _, rows = read_csv(out)
        assert len(rows) == 512
        for column in (1, 2, 3):
            values = [r[column] for r in rows]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert all(a <= b for a, b in zip(values, values[1:]))


class TestValidateCommand:
    def test_passing_run_with_report(self, runner, scenario_file, tmp_path):
        report_path = tmp_path / "report.json"
        result = runner.invoke(
            cli.main, ["validate", scenario_file, "-o", str(report_path)]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["passed"] is True
        assert payload["trials"] == 20000
        assert report_path.read_text().strip() == result.output.strip()

    def test_trials_floor(self, runner, scenario_file):
        result = runner.invoke(
            cli.main, ["validate", scenario_file, "--trials", "500"]
        )
        assert result.exit_code == cli.EXIT_CONFIG
        assert "at least 10000" in result.output

    def test_rejects_trials_over_the_limit(self, runner, tmp_path, monkeypatch):
        # 1e11 trials once walked for 26 s and died allocating (exit 1); the
        # limit is checked before any walk starts
        def no_walk(*args, **kwargs):
            raise AssertionError("the walk started")

        monkeypatch.setattr(cli, "validate_scenario", no_walk)
        result = runner.invoke(cli.main, ["validate", "--preset", "alpha_lt_0.1",
                                          "--trials", str(MAX_TRIALS + 1)])
        assert result.exit_code == cli.EXIT_CONFIG, result.output
        assert "'--trials'" in result.output and str(MAX_TRIALS) in result.output
        path = tmp_path / "many.yaml"
        path.write_text(LINK_TEXT + f"job: {{trials: {MAX_TRIALS + 1}}}\n")
        result = runner.invoke(cli.main, ["validate", str(path)])
        assert result.exit_code == cli.EXIT_CONFIG, result.output
        assert f"job.trials must be <= {MAX_TRIALS}" in result.output
        # the limit itself passes, from either source
        assert JobParams(trials=MAX_TRIALS).trials == MAX_TRIALS
        (option,) = [p for p in cli.cmd_validate.params if p.name == "trials"]
        assert option.type.convert(MAX_TRIALS, option, None) == MAX_TRIALS

    def test_rejects_negative_seed(self, runner, scenario_file):
        result = runner.invoke(cli.main, ["validate", scenario_file, "--seed", "-1"])
        assert result.exit_code == cli.EXIT_CONFIG
        assert "config error: seed must be an integer >= 0, got -1" in result.output

    def test_nan_reference_cdf_is_a_numerical_failure(self, runner, monkeypatch):
        # a NaN conditional CDF once read as KS 0.0 and the run passed
        from coexlink import validation

        monkeypatch.setattr(validation, "ctd_off_start",
                            lambda scenario, x: np.full(np.shape(x), np.nan))
        result = runner.invoke(cli.main, ["validate", "--preset", "exp_alpha_0.1575",
                                          "--trials", "10000"])
        assert result.exit_code == cli.EXIT_NUMERIC, result.output
        assert "numerical failure: reference CDF is NaN or infinite" in result.output

    def test_failure_exit_code(self, runner, scenario_file, monkeypatch):
        failing = ValidationReport(
            alpha=0.1, trials=20000, seed=1,
            ks={"joint": 0.5, "off_start": 0.5, "on_start": 0.5,
                "joint_limit": 0.005, "conditional_limit": 0.01},
            failures=["joint KS 0.50000 exceeds 0.00500"],
        )
        monkeypatch.setattr(cli, "validate_scenario", lambda *a, **k: failing)
        result = runner.invoke(cli.main, ["validate", scenario_file])
        assert result.exit_code == cli.EXIT_VALIDATION
        assert json.loads(result.output)["passed"] is False


class TestPerCommand:
    def test_hybrid_sweep(self, runner, scenario_file, tmp_path):
        out = tmp_path / "per.csv"
        result = runner.invoke(
            cli.main, ["per", scenario_file, "-o", str(out), "--method", "hybrid"]
        )
        assert result.exit_code == 0, result.output
        summary = json.loads(result.output)
        assert summary["points"] == 5  # -5 to 15 dB in 5 dB steps
        assert summary["max_gap_vs_quadrature"] < 0.02
        header, columns, rows = read_csv(out)
        assert columns == ["gamma_i_bar_db", "per_quadrature", "per_hybrid", "tail_mass"]
        assert len(rows) == 5
        per_q = [r[1] for r in rows]
        assert all(0.0 <= v <= 1.0 for v in per_q)
        assert all(a < b for a, b in zip(per_q, per_q[1:]))  # rises with INR
        assert header["method"] == "hybrid"
        assert list(header) == ["generator", "config_sha256", "alpha", "snr_db",
                                "method", "ell_max"]

    def test_quadrature_only_columns(self, runner, scenario_file, tmp_path):
        out = tmp_path / "per.csv"
        result = runner.invoke(
            cli.main, ["per", scenario_file, "-o", str(out), "--method", "quadrature"]
        )
        assert result.exit_code == 0, result.output
        assert "max_gap_vs_quadrature" not in json.loads(result.output)
        _, columns, _ = read_csv(out)
        assert columns == ["gamma_i_bar_db", "per_quadrature", "tail_mass"]

    def test_qn_needs_slot_cap(self, runner, scenario_file, tmp_path):
        # the closed form (qn) is only the hybrid's head up to ELL_SWITCH
        # bits, not a PER method, with or without a slot cap
        out = tmp_path / "per.csv"
        for extra in ([], ["--ell-max", "12"]):
            result = runner.invoke(
                cli.main,
                ["per", scenario_file, "-o", str(out), "--method", "qn", *extra],
            )
            assert result.exit_code == cli.EXIT_CONFIG
            assert not out.exists()
        assert "'qn' is not one of" in runner.invoke(
            cli.main, ["per", scenario_file, "-o", str(out), "--method", "qn"]
        ).output

    def test_gumbel_first_slot_guard(self, runner, scenario_file, tmp_path):
        # the gumbel route cannot cover slot 1 (needs bits * coeff > 2 with
        # coeff <= 2), so it is not a PER method: rejected as configuration
        out = tmp_path / "per.csv"
        result = runner.invoke(
            cli.main, ["per", scenario_file, "-o", str(out), "--method", "gumbel"]
        )
        assert result.exit_code == cli.EXIT_CONFIG
        assert "'gumbel' is not one of" in result.output
        assert not out.exists()

    def test_hybrid_gumbel_domain_is_a_config_error(self, runner, tmp_path):
        # the hybrid's first gumbel slot, 9, needs 9 * coeff > 2
        path = tmp_path / "weak.yaml"
        path.write_text(SCENARIO_TEXT + "modulation: {coeff: 0.2}\n")
        out = tmp_path / "per.csv"
        result = runner.invoke(cli.main, ["per", str(path), "-o", str(out)])
        assert result.exit_code == cli.EXIT_CONFIG
        assert "config error" in result.output
        assert "quadrature" in result.output
        assert not out.exists()
        result = runner.invoke(
            cli.main, ["per", str(path), "-o", str(out), "--method", "quadrature"]
        )
        assert result.exit_code == 0, result.output

    def test_rejects_epsilon(self, runner, scenario_file, tmp_path):
        out = tmp_path / "per.csv"
        result = runner.invoke(
            cli.main, ["per", scenario_file, "-o", str(out), "--epsilon", "1e-9"]
        )
        assert result.exit_code == cli.EXIT_CONFIG
        assert not out.exists()

    def test_rejects_ell_max(self, runner, scenario_file, tmp_path):
        # per_curve still takes ell_max; the CLI resolves it from the tail cut
        out = tmp_path / "per.csv"
        result = runner.invoke(
            cli.main, ["per", scenario_file, "-o", str(out), "--ell-max", "12"]
        )
        assert result.exit_code == cli.EXIT_CONFIG
        assert "No such option" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("job", ["{snr_db: 150}", "{snr_db: -400}",
                                     "{inr_start_db: 400, inr_stop_db: 400}",
                                     "{snr_db: -300, inr_start_db: 3000, inr_stop_db: 3000}"])
    def test_closed_form_overflow_is_a_numerical_failure(self, runner, tmp_path, job):
        # the hybrid's closed-form terms overflow to inf * 0 on these links; on
        # the last its Bessel K arguments underflow to 0
        path = tmp_path / "extreme.yaml"
        path.write_text(LINK_TEXT + f"job: {job}\n")
        out = tmp_path / "per.csv"
        result = runner.invoke(cli.main, ["per", str(path), "-o", str(out)])
        assert result.exit_code == cli.EXIT_NUMERIC
        assert "numerical failure" in result.output and "--method quadrature" in result.output
        assert not out.exists()
        result = runner.invoke(
            cli.main, ["per", str(path), "-o", str(out), "--method", "quadrature"]
        )
        assert result.exit_code == 0, result.output
        _, _, rows = read_csv(out)
        assert rows and all(math.isfinite(v) for row in rows for v in row)

    def test_rejects_an_inr_sweep_over_the_point_limit(self, runner, tmp_path):
        # 1e-12 dB steps over 40 dB once died allocating 291 TiB (exit 1)
        path = tmp_path / "fine.yaml"
        path.write_text(LINK_TEXT + "job: {inr_step_db: 1.0e-12}\n")
        out = tmp_path / "per.csv"
        result = runner.invoke(cli.main, ["per", str(path), "-o", str(out)])
        assert result.exit_code == cli.EXIT_CONFIG, result.output
        assert "job.inr_step_db" in result.output and f"more than {MAX_INR_POINTS}" in result.output
        assert not out.exists()
        # the limit itself passes, counted as the sweep's grid counts it
        for step in (0.01, 10.0 / 1000.4):
            job = JobParams(inr_start_db=0.0, inr_stop_db=10.0, inr_step_db=step)
            assert job.inr_points == job.inr_grid_db().size == MAX_INR_POINTS
        with pytest.raises(ScenarioFormatError, match="sweeps 1002 INR points"):
            JobParams(inr_start_db=0.0, inr_stop_db=10.0, inr_step_db=10.0 / 1000.6)
        with pytest.raises(ScenarioFormatError, match="sweeps inf INR points"):
            JobParams(inr_start_db=0.0, inr_stop_db=10.0, inr_step_db=1e-320)

    def test_method_choices_are_the_per_methods(self):
        # job.method rejects every other value (tests/test_scenario.py)
        (option,) = [p for p in cli.cmd_per.params if p.name == "method"]
        values = [m.value for m in PerMethod]
        assert list(option.type.choices) == values
        for value in values:
            assert JobParams(method=value).method == value


# sha256 of the column and data lines of `coexlink per --preset <name> --method
# <method> --snr-db <0|10|30>` (the header comments carry the config hash):
# a faster PER must write every digit as before.
FROZEN_PER_CSV = {
    ("alpha_0.1_0.3", "hybrid"): (
        "232163fa93e60b3f28a7be50d9350bf065cf9725e970f01ff6b4763c39c56071",
        "dabc73aa462698a4576ac4560d9ebfe1d52eff7a29a17d9c3d18af90cab0a9ad",
        "caa56fd5544f3bdb841005cd428122e25d943f6d0ef6fb8272b0cdacc41ec9a3",
    ),
    ("alpha_0.1_0.3", "quadrature"): (
        "3f26a2be140dafb689da7b297ac78649b415ab3e202d2994c59116cd6531be58",
        "7a5cec0cf1a6209a08cf43294d2b87e76d9a28a79cfe35392bb6c16c43aa67d6",
        "2375ed6fac16653d917891d49bcb069bdccab11a40b03531793271fdfc0453c2",
    ),
    ("alpha_0.3_0.5", "hybrid"): (
        "879a6600f99a1446bdb51ff63f88f5b7c1d95b18eed09220dbc3a8d64244c308",
        "5619540d0043bc92ff18707c5d638e7e0a063f7f2377dfcffd8d1fec0dbead6e",
        "fd450913d33a8139317b203426aef48482741c313be5e99a71ed97417dcf08ea",
    ),
    ("alpha_0.3_0.5", "quadrature"): (
        "9778c69d00cad7aa36becc8c6e7d5e0d29670590394a3d58056bf2b89a109362",
        "342a6c1f142b71b14273d429c225b8f499911822102bcaf17e757b0af22abffb",
        "d68c3a7ea57898c0eb6d449175f3e3eb7bcfbef8e8f8f3515da70f25bec3ddf8",
    ),
    ("alpha_ge_0.5", "hybrid"): (
        "44f6636a476309af7dfc3f744956ded9d0a6e21a849e1a74bdf73bf4cbed6631",
        "9676a9dcbd115ea119e80bec636844023adda70dba817d7b9046800fd45b3ce2",
        "68422f534b0550827d44cc02bbc9e70cb409dd6e108cba04ece1f3beeb9d6fa3",
    ),
    ("alpha_ge_0.5", "quadrature"): (
        "a8e1d7a84543f2eda5987edef8ee644436b8e6d7daa1c464984f018cbde9cb7a",
        "8ae1fff0c00f8743073bfce8cc021759bd84ffd887856af2d3f25ea0a5699e5c",
        "edb81ea2e880b0fe91304f7738803d14b126751e20dd853dceb459ba4edcc3ac",
    ),
    ("alpha_lt_0.1", "hybrid"): (
        "c8b1269b1e657e161890f1dba0d0f76ce8d206abb5cec59a9f59106c348b882d",
        "d6ab4d0153d75c88ccb65cfe0daa35dc95aeacb65741b990f00de1ab78144f8f",
        "b32e97ae0dd93fb71d79a0d654cb4dc9df2dabf90c57dd868fb0885bad15baf9",
    ),
    ("alpha_lt_0.1", "quadrature"): (
        "ad90d7356e86de96710007c40174ad11b428cdc39a53f1d12a453d1f90d98611",
        "7a57b8552e595e3df60d54cacff029c3506183ad996acd0c6839016c15e61055",
        "c32c8245133b7fe23760c7a4609e6a9afae64cc5fbdddfb7ce49f98bef410526",
    ),
    ("exp_alpha_0.0361", "hybrid"): (
        "bc06b1150907cbbc34f9442bab73a012c60aee12e30b1ce009bcb59a0ca58c3f",
        "1ab09a7c3d3cc334a39db171f0cbee25f3420a8423b30a93f721143d033ae9c8",
        "3d8c53ad22ac069b139eb55a5b9e0251b13759dae9f1f7b9ebe3ed8b61cd0a5a",
    ),
    ("exp_alpha_0.0361", "quadrature"): (
        "7c6c2712c32ce8d0e06123bc115077f3656dd2e733e30b27407103e0b52f4914",
        "5c0ffff83341ddabf5f6abf1dd79cb32c2ffcdf32924dd1c5d70f0e18d4fa33e",
        "0d7e34960bea7d230e604530dd67a45fad875893e94365defc662fdeea71ac9a",
    ),
    ("exp_alpha_0.1575", "hybrid"): (
        "4e50747735fbdb743eea718c2279c4bbdce07f9ef7738da81435fac9119b85e9",
        "d193a7b66ee9c0db6eec3bc32c177d0c361867f52a14a6073c7975c01bc09dd0",
        "3e96692167f60c32c4cd6b9770f287a86b801540589f6192337445149a32b4de",
    ),
    ("exp_alpha_0.1575", "quadrature"): (
        "44f7b860b0b92b8bcab6c3217116edc6ea1afd38d6a0b2601b407e59e32ed410",
        "ab89f869112e8370c1dc30652ef0af1eab01da082ea06a223090c255667f0b18",
        "7ceb1f8f14c70bba80c45a368826ffb211c32cb264c240161877f0ec43769e40",
    ),
}


@pytest.mark.parametrize("name,method", sorted(FROZEN_PER_CSV))
@pytest.mark.parametrize("snr_db", ["0", "10", "30"])
def test_per_csv_frozen(runner, tmp_path, name, method, snr_db):
    out = tmp_path / "per.csv"
    result = runner.invoke(cli.main, ["per", "--preset", name, "-o", str(out),
                                      "--method", method, "--snr-db", snr_db])
    assert result.exit_code == 0, result.output
    lines = [line for line in out.read_text(encoding="utf-8").splitlines(keepends=True)
             if not line.startswith("#")]
    digest = hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()
    assert digest == FROZEN_PER_CSV[name, method][["0", "10", "30"].index(snr_db)]


_NUMERIC_KEYS = [("job", key) for key in ("trials", "seed", "grid_points", "snr_db",
                                          "inr_start_db", "inr_stop_db", "inr_step_db")]
_NUMERIC_KEYS += [("modulation", key) for key in ("coeff", "gain")]


@pytest.mark.parametrize("value", [".inf", "-.inf", ".nan"])
@pytest.mark.parametrize("section,key", _NUMERIC_KEYS, ids=[k for _, k in _NUMERIC_KEYS])
def test_rejects_non_finite_numbers(runner, tmp_path, section, key, value):
    path = tmp_path / "scenario.yaml"
    path.write_text(
        'interferer:\n  busy: {kind: constant, duration: "374 us"}\n'
        '  idle: {kind: exponential, mean: "2 ms"}\n'
        f'link:\n  packet_mean: "1.984 ms"\n{section}:\n  {key}: {value}\n'
    )
    out = tmp_path / "per.csv"
    result = runner.invoke(cli.main, ["per", str(path), "-o", str(out)])
    assert result.exit_code == cli.EXIT_CONFIG
    assert f"{section}.{key}: expected a finite number" in result.output
    assert not out.exists()


@pytest.mark.parametrize("idle,job,message", [
    ('{kind: hyperexponential, weights: [true], means: ["2 ms"]}', "{}",
     "{path}.interferer.idle.weights[0]: expected a number, got True"),
    ('{kind: hyperexponential, weights: ["1"], means: ["2 ms"]}', "{}",
     "{path}.interferer.idle.weights[0]: expected a number, got '1'"),
    ('{kind: hyperexponential, weights: [0.5, null], means: ["2 ms", "1 ms"]}', "{}",
     "{path}.interferer.idle.weights[1]: expected a number, got None"),
    ('{kind: exponential, mean: "2 ms"}', "{seed: -1}", "job.seed must be >= 0, got -1"),
    ('{kind: exponential, mean: "2 ms"}', "{seed: 1, seed: 2}",
     "{path}: not valid YAML: duplicate key 'seed' on line 6, first given on line 6"),
], ids=["bool-weight", "string-weight", "null-weight", "negative-seed", "duplicate-seed"])
def test_scenario_numbers_are_checked_with_their_key(runner, tmp_path, idle, job, message):
    # a bool or string weight once parsed as a number, a null one raised a
    # bare TypeError, a negative seed failed only when validate ran, and a
    # seed given twice parsed as its last value
    path = tmp_path / "scenario.yaml"
    path.write_text('interferer:\n  busy: {kind: constant, duration: "374 us"}\n'
                    f'  idle: {idle}\nlink:\n  packet_mean: "1.984 ms"\njob: {job}\n')
    out = tmp_path / "ctd.csv"
    result = runner.invoke(cli.main, ["ctd", str(path), "-o", str(out)])
    assert result.exit_code == cli.EXIT_CONFIG, result.output
    assert f"config error: {message.format(path=path)}" in result.output
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("interferer.busy.duration", "1e400 s"),
    ("interferer.idle.mean", "1e400 s"),
    ("interferer.idle.mean", "1e-320 s"),
    ("link.packet_mean", "1e400 s"),
])
def test_durations_beyond_the_float_range(runner, tmp_path, key, value):
    # each duration becomes a rate or a divisor, so it and its reciprocal
    # must be finite floats
    durations = {"interferer.busy.duration": "374 us", "interferer.idle.mean": "2 ms",
                 "link.packet_mean": "1.984 ms"}
    durations[key] = value
    path = tmp_path / "scenario.yaml"
    path.write_text(
        'interferer:\n  busy: {kind: constant, duration: "%(interferer.busy.duration)s"}\n'
        '  idle: {kind: exponential, mean: "%(interferer.idle.mean)s"}\n'
        'link:\n  packet_mean: "%(link.packet_mean)s"\n' % durations
    )
    out = tmp_path / "ctd.csv"
    result = runner.invoke(cli.main, ["ctd", str(path), "-o", str(out)])
    assert result.exit_code == cli.EXIT_CONFIG
    assert f"{path}.{key}: duration {value!r} is out of the float range" in result.output
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("snr_db", 4000), ("snr_db", -4000),
                                       ("inr_start_db", -4000), ("inr_stop_db", 4000)])
def test_db_levels_beyond_the_float_range(runner, tmp_path, key, value):
    # each level becomes the ratio 10^(dB/10), which must be a positive
    # finite float; 4000 dB overflowed the float power (exit 3) or leaked
    # numpy's overflow warning before the sweep rejected the INRs
    path = tmp_path / "scenario.yaml"
    path.write_text(LINK_TEXT + f"job:\n  {key}: {value}\n")
    out = tmp_path / "per.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(cli.main, ["per", str(path), "-o", str(out)])
    assert result.exit_code == cli.EXIT_CONFIG
    assert f"job.{key}: {float(value)!r} dB is out of the float range" in result.output
    assert not out.exists()


@pytest.mark.parametrize("snr_db", ["4000", "-4000"])
def test_snr_db_flag_beyond_the_float_range(runner, tmp_path, snr_db):
    out = tmp_path / "per.csv"
    result = runner.invoke(cli.main, ["per", "--preset", "alpha_lt_0.1", "--snr-db", snr_db,
                                      "-o", str(out)])
    assert result.exit_code == cli.EXIT_CONFIG
    assert f"--snr-db: {float(snr_db)!r} dB is out of the float range" in result.output
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["ctd", "--preset", "alpha_lt_0.1", "--grid", "32", "-o"],
    ["per", "--preset", "alpha_lt_0.1", "--method", "quadrature", "-o"],
    ["validate", "--preset", "exp_alpha_0.1575", "--trials", "10000", "--report"],
], ids=["ctd", "per", "validate"])
def test_unwritable_output_is_a_config_error(runner, tmp_path, args):
    path = str(tmp_path / "missing_dir" / "out")
    result = runner.invoke(cli.main, args + [path])
    assert result.exit_code == cli.EXIT_CONFIG
    assert "config error:" in result.output
    assert path in result.output


def test_csv_rows_match_per_value_formatting(tmp_path):
    # one "%.12g,...%.12g" per row writes what format(float(v), ".12g") per
    # value wrote
    tricky = [0.0, -0.0, 1.0, 5e-324, 1e300, 1.0 / 3.0, 17.0, 123456.789012, -2.5e-7]
    arrays = [np.array(tricky), np.arange(len(tricky)), np.array(tricky[::-1])]
    path = tmp_path / "rows.csv"
    cli._write_csv(str(path), {"generator": "test"}, ["a", "b", "c"], arrays)
    lines = ["# generator = test", "a,b,c"]
    lines += [",".join(format(float(v), ".12g") for v in row) for row in zip(*arrays)]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("argv", [
    None,
    ["ctd", "--preset", "alpha_lt_0.1"],
    ["per", "--preset", "alpha_lt_0.1"],
    ["per", "--preset", "alpha_lt_0.1", "--method", "quadrature"],
    ["validate", "--preset", "alpha_lt_0.1", "--trials", "10000"],
], ids=["import", "ctd", "per", "per-quadrature", "validate"])
def test_commands_load_no_scipy(tmp_path, argv):
    # the ctd and per paths run on numpy kernels (coexlink.specfun), and
    # validate's chi-square p-value is a finite sum on math (validation._chi2_sf)
    run = "" if argv is None else (
        f"main.main({argv + ['-o', str(tmp_path / 'out.csv')]!r}, standalone_mode=False); "
    )
    probe = ("import sys; from coexlink.cli import main; " + run
             + "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_first_command_imports_no_module(tmp_path):
    # click imports difflib when it parses the first short option (-o); the
    # CLI imports it up front, so a process's first command costs what the
    # next ones do
    argv = ["ctd", "--preset", "alpha_lt_0.1", "-o", str(tmp_path / "out.csv")]
    probe = ("import sys; from coexlink.cli import main; before = set(sys.modules); "
             f"main.main({argv!r}, standalone_mode=False); "
             "print(sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip().splitlines()[-1] == "[]"
