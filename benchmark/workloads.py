"""Workload definitions and output checks of the coexlink benchmark.

Each op is one ``coexlink`` CLI command run in-process through the click
entry point.  A workload is a fixed list of ops; one pass over the list (in a
seed-shuffled order) is a round, and a run measures whole rounds so every run
sees the same op mix.  NOTES.md says why each workload exists.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE / "scenarios"
REFERENCE = HERE / "reference"

PRESETS = ("alpha_lt_0.1", "alpha_0.1_0.3", "alpha_0.3_0.5", "alpha_ge_0.5",
           "exp_alpha_0.0361", "exp_alpha_0.1575")
VALIDATE_TRIALS = 200_000

# Acceptance criterion 5 bound on |hybrid - quadrature|.
HYBRID_GAP = 0.02
# Reference outputs were recorded at the commit that added the benchmark.
REFERENCE_ATOL = 1e-8
MIX_ATOL = 1e-12
CTD_COLUMNS = ["x_seconds", "omega0", "omega1", "omega"]
PER_COLUMNS = ["gamma_i_bar_db", "per_quadrature", "per_hybrid"]
REPORT_KEYS = {"alpha", "trials", "seed", "ks", "chi2", "passed", "failures"}


@dataclass(frozen=True)
class Op:
    command: str  # ctd | per | validate
    label: str    # preset name or scenario file stem

    def argv(self, out_dir: Path, mc_seed: int) -> list[str]:
        if self.label in PRESETS:
            source = ["--preset", self.label]
        else:
            source = [str(SCENARIOS / f"{self.label}.yaml")]
        if self.command == "validate":
            return ["validate", *source, "--trials", str(VALIDATE_TRIALS),
                    "--seed", str(mc_seed)]
        return [self.command, *source, "-o", str(self.output(out_dir))]

    def output(self, out_dir: Path) -> Path:
        return out_dir / f"{self.command}_{self.label}.csv"

    @property
    def reference(self) -> Path:
        return REFERENCE / f"{self.command}_{self.label}.csv"


WORKLOADS: dict[str, tuple[Op, ...]] = {
    "ctd_grid": tuple(Op("ctd", p) for p in PRESETS)
    + (Op("ctd", "saturated"), Op("ctd", "exp_busy")),
    "per_sweep": tuple(Op("per", p) for p in ("alpha_lt_0.1", "exp_alpha_0.1575",
                                              "alpha_ge_0.5")),
    "validate_mc": tuple(Op("validate", p) for p in PRESETS) + (Op("validate", "exp_busy"),),
}

# Seconds one round takes on the 2-core host the benchmark was defined on
# (sum of the ops' median latencies).  A run is round(--seconds / this) whole
# rounds, at least MIN_ROUNDS, so its work depends on the seed alone.
ROUND_SECONDS = {"ctd_grid": 1.7, "per_sweep": 12.8, "validate_mc": 2.5}
MIN_ROUNDS = 2


class CheckFailed(Exception):
    """An op's output is wrong or malformed."""


class VerdictFailed(Exception):
    """``validate`` returned a well-formed report that says the check failed."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def read_csv(path: Path, needed: list[str]) -> dict[str, np.ndarray]:
    """The ``needed`` columns of a CLI CSV; other columns may come and go."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    _require(len(lines) > 1, f"{path.name} has no data rows")
    columns = lines[0].split(",")
    missing = [c for c in needed if c not in columns]
    _require(not missing, f"{path.name} lacks columns {missing}")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    rows = rows.reshape(-1, len(columns))
    return {c: rows[:, columns.index(c)] for c in needed}


def _against_reference(op: Op, data: dict[str, np.ndarray], grid: str,
                       values: list[str]) -> None:
    ref = read_csv(op.reference, [grid, *values])
    _require(ref[grid].shape == data[grid].shape,
             f"{data[grid].size} rows, reference has {ref[grid].size}")
    _require(np.allclose(data[grid], ref[grid], rtol=REFERENCE_ATOL, atol=0.0),
             f"{grid} differs from reference")
    for name in values:
        worst = float(np.max(np.abs(data[name] - ref[name])))
        _require(worst <= REFERENCE_ATOL,
                 f"{name} differs from reference by {worst:.3e} > {REFERENCE_ATOL:.0e}")


def check_ctd(op: Op, out_dir: Path, stdout: str) -> None:
    alpha = float(json.loads(stdout)["alpha"])
    data = read_csv(op.output(out_dir), CTD_COLUMNS)
    for name in CTD_COLUMNS[1:]:
        col = data[name]
        _require(bool(np.all((col >= 0.0) & (col <= 1.0))), f"{name} leaves [0, 1]")
        _require(bool(np.all(np.diff(col) >= 0.0)), f"{name} decreases")
    mixed = alpha * data["omega1"] + (1.0 - alpha) * data["omega0"]
    mix = float(np.max(np.abs(data["omega"] - mixed)))
    _require(mix <= MIX_ATOL, f"omega differs from its mixture by {mix:.3e}")
    _against_reference(op, data, "x_seconds", CTD_COLUMNS[1:])


def check_per(op: Op, out_dir: Path, stdout: str) -> None:
    json.loads(stdout)
    data = read_csv(op.output(out_dir), PER_COLUMNS)
    gap = float(np.max(np.abs(data["per_hybrid"] - data["per_quadrature"])))
    _require(gap <= HYBRID_GAP, f"|hybrid - quadrature| = {gap:.3e} > {HYBRID_GAP}")
    _against_reference(op, data, "gamma_i_bar_db", PER_COLUMNS[1:])


def check_validate(stdout: str, exit_code: int, mc_seed: int) -> None:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"report is not JSON: {exc}") from None
    _require(isinstance(report, dict) and REPORT_KEYS <= set(report),
             "report lacks documented keys")
    _require(report["trials"] == VALIDATE_TRIALS and report["seed"] == mc_seed,
             "report trials or seed differ from the request")
    stats = [report["ks"][k] for k in ("joint", "off_start", "on_start")]
    stats += [cell["pvalue"] for cell in report["chi2"].values()]
    _require(all(math.isfinite(v) for v in stats) and len(report["chi2"]) == 2,
             "report statistics are missing or not finite")
    _require(report["passed"] == (not report["failures"]), "passed disagrees with failures")
    if exit_code == 4 and not report["passed"]:
        raise VerdictFailed("; ".join(report["failures"]))
    _require(exit_code == 0 and report["passed"], f"exit code {exit_code}")
