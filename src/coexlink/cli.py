"""Command line front end: CTD export, Monte Carlo validation, PER sweeps.

Every command is deterministic given its inputs; CSV outputs start with
comment lines that carry the resolved configuration and its hash so files can
be diffed across runs.  Exit codes: 0 ok, 2 configuration error, 3 numerical
failure, 4 validation failure.
"""

from __future__ import annotations

# click's parser tries every option as a long one first and, for a short
# option such as -o, builds a NoSuchOption whose close-match hint imports
# difflib; importing it with the CLI keeps that one-off cost out of the first
# command a process runs, so every command of a session costs the same.
import difflib  # noqa: F401
import functools
import json
import sys

import click
import numpy as np

from .ctd import ctd_curve
from .dist import activity_factor
from .per import Modulation, PerMethod, per_curve
from .presets import describe_presets, preset_scenario
from .scenario import (
    MAX_GRID_POINTS,
    MAX_TRIALS,
    JobParams,
    ScenarioDoc,
    ScenarioFormatError,
    config_hash,
    db_to_ratio,
    parse_scenario_file,
)
from .validation import validate_scenario

EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VALIDATION = 4


def _fail(code: int, message: str) -> None:
    click.echo(message, err=True)
    sys.exit(code)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except KeyError as exc:
            _fail(EXIT_CONFIG, f"config error: {exc.args[0] if exc.args else exc}")
        except (ValueError, TypeError, OSError) as exc:
            # OSError: an output path that cannot be written; it names the path.
            _fail(EXIT_CONFIG, f"config error: {exc}")
        except (RuntimeError, ArithmeticError) as exc:
            _fail(EXIT_NUMERIC, f"numerical failure: {exc}")

    return wrapper


def _load(scenario_file, preset) -> tuple[ScenarioDoc | None, object, object, JobParams]:
    """Returns (doc, scenario, modulation, job); doc is None for presets."""
    if scenario_file and preset:
        raise ScenarioFormatError("give either a scenario file or --preset, not both")
    if scenario_file:
        doc = parse_scenario_file(scenario_file)
        return doc, doc.scenario, doc.modulation, doc.job
    if preset:
        return None, preset_scenario(preset), Modulation(), JobParams()
    raise ScenarioFormatError("need a scenario file argument or --preset")


def _write_csv(path: str, meta: dict, columns: list[str], arrays: list[np.ndarray]) -> None:
    lines = [f"# {key} = {value}" for key, value in meta.items()]
    lines.append(",".join(columns))
    row_format = ",".join(["%.12g"] * len(arrays))
    columns_as_floats = [np.asarray(a, dtype=float).tolist() for a in arrays]
    lines.extend(row_format % row for row in zip(*columns_as_floats))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


@click.group()
def main() -> None:
    """Collision-time and packet-error-rate analysis of coexisting links."""


@main.command("ctd")
@click.argument("scenario_file", required=False,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--preset", default=None, help="Built-in scenario name (see `presets`).")
@click.option("--output", "-o", required=True, type=click.Path(dir_okay=False),
              help="CSV output path.")
@click.option("--grid", "grid_points", type=click.IntRange(2, MAX_GRID_POINTS), default=None,
              help="Number of grid points (default from the job section).")
@_guarded
def cmd_ctd(scenario_file, preset, output, grid_points) -> None:
    """Write the collision-time CDF curves as CSV."""
    doc, scenario, _, job = _load(scenario_file, preset)
    points = grid_points if grid_points is not None else job.grid_points
    curve = ctd_curve(scenario, points=points)
    overrides = {"command": "ctd", "preset": preset, "grid_points": points}
    digest = config_hash(doc, overrides)
    meta = {
        "generator": "coexlink ctd",
        "config_sha256": digest,
        "alpha": format(curve.alpha, ".12g"),
        "points": points,
    }
    _write_csv(output, meta, ["x_seconds", "omega0", "omega1", "omega"],
               [curve.grid, curve.omega0, curve.omega1, curve.omega])
    click.echo(json.dumps({
        "alpha": curve.alpha,
        "no_collision_prob": float(curve.omega[0]),
        "x_max_seconds": float(curve.grid[-1]),
        "points": points,
        "output": output,
        "config_sha256": digest,
    }, sort_keys=True))


@main.command("validate")
@click.argument("scenario_file", required=False,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--preset", default=None, help="Built-in scenario name (see `presets`).")
@click.option("--trials", type=click.IntRange(max=MAX_TRIALS), default=None,
              help=f"Monte Carlo trials (10000 to {MAX_TRIALS}).")
@click.option("--seed", type=int, default=None, help="RNG seed.")
@click.option("--report", "-o", "report_path", type=click.Path(dir_okay=False),
              default=None, help="Also write the JSON report here.")
@_guarded
def cmd_validate(scenario_file, preset, trials, seed, report_path) -> None:
    """Run the Monte Carlo oracle against the analytic curves."""
    doc, scenario, _, job = _load(scenario_file, preset)
    n_trials = trials if trials is not None else job.trials
    if n_trials < 10_000:
        raise ScenarioFormatError(f"validation needs at least 10000 trials, got {n_trials}")
    rng_seed = seed if seed is not None else job.seed
    report = validate_scenario(scenario, n_trials, rng_seed)
    text = report.to_json()
    if report_path:
        with open(report_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    click.echo(text)
    if not report.passed:
        sys.exit(EXIT_VALIDATION)


@main.command("per")
@click.argument("scenario_file", required=False,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--preset", default=None, help="Built-in scenario name (see `presets`).")
@click.option("--output", "-o", required=True, type=click.Path(dir_okay=False),
              help="CSV output path.")
@click.option("--method", type=click.Choice([m.value for m in PerMethod]),
              default=None, help="Evaluation route (default from the job section).")
@click.option("--snr-db", type=float, default=None, help="Mean SNR of the observed link, dB.")
@_guarded
def cmd_per(scenario_file, preset, output, method, snr_db) -> None:
    """Sweep PER over the mean INR range of the job section."""
    doc, scenario, modulation, job = _load(scenario_file, preset)
    method_name = method if method is not None else job.method
    chosen = PerMethod(method_name)
    snr_db_val = snr_db if snr_db is not None else job.snr_db
    snr = db_to_ratio(snr_db_val, "--snr-db" if snr_db is not None else "job.snr_db")

    inr_db = job.inr_grid_db()
    inr = 10.0 ** (inr_db / 10.0)

    methods = [PerMethod.QUADRATURE]
    if chosen is not PerMethod.QUADRATURE:
        methods.append(chosen)
    curve = per_curve(scenario, modulation, snr, inr, methods)

    overrides = {"command": "per", "preset": preset, "method": method_name,
                 "snr_db": snr_db_val}
    digest = config_hash(doc, overrides)
    columns = ["gamma_i_bar_db"] + [f"per_{m.value}" for m in methods] + ["tail_mass"]
    arrays = [inr_db] + [curve.values[m.value] for m in methods]
    arrays.append(np.full(inr_db.size, curve.tail_mass))
    meta = {
        "generator": "coexlink per",
        "config_sha256": digest,
        "alpha": format(activity_factor(scenario), ".12g"),
        "snr_db": format(snr_db_val, ".12g"),
        "method": method_name,
        "ell_max": curve.ell_max,
    }
    _write_csv(output, meta, columns, arrays)
    summary = {
        "alpha": activity_factor(scenario),
        "method": method_name,
        "points": int(inr_db.size),
        "ell_max": curve.ell_max,
        "output": output,
        "config_sha256": digest,
    }
    if len(methods) == 2:
        gap = np.max(np.abs(curve.values[methods[0].value] - curve.values[methods[1].value]))
        summary["max_gap_vs_quadrature"] = float(gap)
    click.echo(json.dumps(summary, sort_keys=True))


@main.command("presets")
@click.option("--explain", is_flag=True, help="Also print modeling assumptions.")
@_guarded
def cmd_presets(explain) -> None:
    """List the built-in scenarios."""
    rows = describe_presets()
    width = max(len(r["name"]) for r in rows)
    click.echo(f"{'name':<{width}}  {'idle model':<22} {'alpha':>8}  {'idle mean':>12}")
    for row in rows:
        click.echo(
            f"{row['name']:<{width}}  {row['idle_model']:<22} "
            f"{row['alpha']:>8.4f}  {row['idle_mean_s'] * 1e3:>9.4f} ms"
        )
    if explain:
        click.echo(
            "\nIdle mixtures are three-phase hyperexponential fits to measured\n"
            "channel activity, grouped by activity-factor band.  Phase means are\n"
            "interpreted in seconds; the listed alpha is recomputed from them\n"
            f"with a constant busy time of {preset_scenario('alpha_lt_0.1').busy.mean * 1e6:.0f} us,\n"
            "so all downstream results are unit-consistent by construction."
        )


if __name__ == "__main__":
    main()
