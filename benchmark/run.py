"""coexlink benchmark: closed-loop CLI workloads with an optional traced run.

Usage (from the repository root):

    python3 benchmark/run.py --workload ctd_grid --seed 1 --seconds 25 --trace 0

One client in one process sends its next op only when the last one finished.
Each op is a real ``coexlink`` command run in-process through the click entry
point; outputs go to a scratch directory under ``.bench_work/``.  A run is a
fixed number of whole rounds, the number that takes ``--seconds`` at the
workload's nominal round time, so a seed fixes every input of the run: the
op order of every round and the Monte Carlo seed of every ``validate`` op.
Set-up time is measured in fresh interpreters.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` additionally runs
one traced round and prints the per-layer metrics.  Every metric is printed
by name with its unit, the full result (machine facts, per-op samples, spans)
is written under ``.bench_results/``, and the last line of standard output is
the JSON summary.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Pin BLAS/OpenMP pools before numpy is imported here or in a child.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

from workloads import (  # noqa: E402
    MIN_ROUNDS, ROUND_SECONDS, WORKLOADS, CheckFailed, VerdictFailed, check_ctd, check_per,
    check_validate,
)

SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
IMPORT_STMT = "import coexlink.cli"
# The shared host runs the same code 1.3-1.8x slower for minutes at a time.
# A fixed pure-Python loop (no coexlink code) is timed between set-up runs and
# after every op, and each end-to-end time is scaled by PROBE_REF_S over the
# run's median probe time, so a slow phase of the host does not read as a
# slower program.  PROBE_REF_S is the probe's median on the 2-core host where
# the benchmark was defined; the raw times are kept in the result file.
PROBE_REF_S = 0.0075
PROBE_EVERY_S = 0.25
SETUP_PROBES = 5


def declared_units(kind: str) -> dict[str, str]:
    """Metric names and units of one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def probe_host() -> float:
    """Seconds a fixed pure-Python loop takes: the host-speed probe."""
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(40_000):
        acc += math.sqrt(i) * 1.0001
        table[i & 255] = acc
    return time.perf_counter() - start


def measure_setup(probes: list[float]) -> list[float]:
    """Wall time of fresh interpreters importing the CLI (after one warm-up)."""
    samples = []
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_STMT], env=child_env(), cwd=ROOT,
                       check=True, capture_output=True)
        if i:
            samples.append(time.perf_counter() - start)
        probes.extend(probe_host() for _ in range(SETUP_PROBES))
    return samples


def measure_importtime() -> dict[str, float]:
    """Medians of coexlink's cumulative and scipy's total self import time."""
    totals: dict[str, list[float]] = {"setup.import_s": [], "setup.scipy_import_s": []}
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_STMT],
                              env=child_env(), cwd=ROOT, check=True, capture_output=True,
                              text=True)
        package = scipy = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            head, cumulative_us, raw = line.split("|")
            self_us = head.removeprefix("import time:")
            if not self_us.strip().isdigit():
                continue
            name = raw.strip()
            top_level = len(raw) - len(raw.lstrip()) == 1
            if top_level and name.split(".")[0] == "coexlink":
                package += int(cumulative_us)
            if name.split(".")[0] == "scipy":
                scipy += int(self_us)
        totals["setup.import_s"].append(package * 1e-6)
        totals["setup.scipy_import_s"].append(scipy * 1e-6)
    return {k: statistics.median(v) for k, v in totals.items()}


class Runner:
    """Runs ops through the click entry point and checks their outputs."""

    def __init__(self, out_dir: Path):
        from coexlink.cli import main

        self.main = main
        self.out_dir = out_dir

    def invoke(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                self.main.main(argv, standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, out.getvalue(), err.getvalue()

    def run_op(self, op, mc_seed: int, tracer=None, op_id: int = 0) -> dict:
        argv = op.argv(self.out_dir, mc_seed)
        status, reason = "ok", None
        start = time.perf_counter()
        try:
            if tracer is None:
                code, stdout, stderr = self.invoke(argv)
            else:
                code, stdout, stderr = tracer.run_op(op_id, self.invoke, argv)
        except Exception:  # the op itself crashed: count it and go on
            elapsed = time.perf_counter() - start
            status, reason = "error", traceback.format_exc()
        else:
            elapsed = time.perf_counter() - start
            try:
                if op.command == "validate":
                    check_validate(stdout, code, mc_seed)
                elif code != 0:
                    raise CheckFailed(f"exit code {code}: {stderr.strip()}")
                elif op.command == "ctd":
                    check_ctd(op, self.out_dir, stdout)
                else:
                    check_per(op, self.out_dir, stdout)
            except VerdictFailed as exc:
                status, reason = "verdict", str(exc)
            except (CheckFailed, ValueError, KeyError, TypeError, OSError) as exc:
                status, reason = "error", f"{type(exc).__name__}: {exc}"
        return {"op": op.command, "label": op.label, "argv": argv, "seconds": elapsed,
                "status": status, "reason": reason, "traced": tracer is not None}


def run_rounds(runner: Runner, ops, rng: random.Random, rounds: int, tracer=None,
               probes: list[float] | None = None) -> tuple[list[dict], float]:
    """``rounds`` whole rounds, each in a seed-shuffled order.

    With ``probes``, the host probe runs after every op, once per started
    PROBE_EVERY_S of the op, so long ops are bracketed as densely as short ones.
    """
    records = []
    start = time.perf_counter()
    for _ in range(rounds):
        order = list(ops)
        rng.shuffle(order)
        for op in order:
            mc_seed = rng.randrange(2**31)
            records.append(runner.run_op(op, mc_seed, tracer, len(records)))
            if probes is not None:
                reps = 1 + int(records[-1]["seconds"] / PROBE_EVERY_S)
                probes.extend(probe_host() for _ in range(reps))
    return records, time.perf_counter() - start


def round_count(workload: str, seconds: float) -> int:
    """Whole rounds that take ``seconds`` at the workload's nominal round time."""
    return max(MIN_ROUNDS, round(seconds / ROUND_SECONDS[workload]))


def typical_latencies(records: list[dict]) -> list[float]:
    """Each op's latency replaced by the median of its label's latencies in the run.

    Every label runs once per round, so percentiles of these values are
    percentiles over the op mix, each op timed by its median over the run.
    """
    by_label: dict[str, list[float]] = {}
    for r in records:
        by_label.setdefault(r["label"], []).append(r["seconds"])
    typical = {label: statistics.median(v) for label, v in by_label.items()}
    return [typical[r["label"]] for r in records]


def percentile(values: list[float], q: float) -> float:
    """Percentile ``q`` (0-100) with linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coexlink" / "cli.py").is_file():
        print(f"benchmark: no coexlink sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    probes: list[float] = []
    setup_samples = measure_setup(probes)
    layer = measure_importtime() if args.trace else {}

    import coexlink

    if Path(coexlink.__file__).resolve().parent != SRC / "coexlink":
        print(f"benchmark: imported coexlink from {coexlink.__file__}", file=sys.stderr)
        return 2

    ops = WORKLOADS[args.workload]
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    tracer, traced = None, []
    try:
        runner = Runner(out_dir)
        rng = random.Random(args.seed)
        records, elapsed = run_rounds(runner, ops, rng,
                                      round_count(args.workload, args.seconds), probes=probes)
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                traced, traced_elapsed = run_rounds(runner, ops, random.Random(args.seed),
                                                    1, tracer)
            finally:
                tracer.restore()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.rmdir()

    latencies = [r["seconds"] for r in records]
    typical = typical_latencies(records)
    all_records = records + traced
    failed = sum(r["status"] == "error" for r in all_records)
    false_alarms = sum(r["status"] == "verdict" for r in all_records)
    error_rate = (failed + false_alarms) / len(all_records)
    ops_per_s = len(records) / sum(latencies)
    scale = PROBE_REF_S / statistics.median(probes)
    raw = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": ops_per_s,
        "op_s_p50": percentile(typical, 50),
        "op_s_p90": percentile(typical, 90),
    }

    if args.trace:
        metrics = dict(layer)
        metrics.update(tracer.metrics())
        metrics["validation.false_alarms"] = false_alarms
        metrics["error_rate"] = error_rate
        metrics["trace.overhead"] = (len(traced) / sum(r["seconds"] for r in traced)) / ops_per_s
    else:
        metrics = {
            "setup_s": raw["setup_s"] * scale,
            "ops_per_s": raw["ops_per_s"] / scale,
            "op_s_p50": raw["op_s_p50"] * scale,
            "op_s_p90": raw["op_s_p90"] * scale,
            "ok_rate": 1.0 - error_rate,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    correct = failed == 0
    facts = machine_facts()
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts,
        "correct": correct, "attempted": len(all_records), "failed": failed,
        "false_alarms": false_alarms, "measured_ops": len(records),
        "measured_seconds": elapsed, "setup_samples_s": setup_samples,
        "host_probe": {"reference_s": PROBE_REF_S, "median_s": statistics.median(probes),
                       "count": len(probes), "scale": scale},
        "raw_metrics": raw,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "ops": all_records,
    }
    if tracer is not None:
        result["traced_seconds"] = traced_elapsed
        result["layer_self_s"] = dict(tracer.self_seconds)
        result["op_self_s"] = {str(k): dict(v) for k, v in tracer.op_self.items()}
    write_result(args, result, tracer)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {facts['nproc']}  python {facts['python']}  numpy {facts['numpy']}  "
          f"scipy {facts['scipy']}  threads pinned to 1")
    print(f"ops measured {len(records)} ({len(records) // len(ops)} rounds of {len(ops)}) "
          f"in {elapsed:.2f} s; attempted {len(all_records)}, failed {failed}, "
          f"validator false alarms {false_alarms}")
    for r in all_records:
        if r["status"] != "ok":
            kind = "false alarm" if r["status"] == "verdict" else "failed op"
            print(f"{kind}: {' '.join(r['argv'])}: {r['reason']}")
    print(f"host probe median {statistics.median(probes) * 1e3:.3f} ms over {len(probes)} runs; "
          f"times scaled by {scale:.4f} to the {PROBE_REF_S * 1e3:g} ms reference")
    for name, cell in result["metrics"].items():
        note = f"  (raw {raw[name]:.6g})" if name in raw and not args.trace else ""
        print(f"{name:34s} {cell['value']:.6g} {cell['unit']}{note}")
    print(json.dumps({"correct": correct, "attempted": len(all_records), "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


def write_result(args, result: dict, tracer) -> None:
    out = ROOT / ".bench_results"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        with open(out / f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, op in tracer.spans:
                handle.write(json.dumps({"id": span_id, "name": name, "start": start,
                                         "end": end, "parent": parent, "op": op}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
