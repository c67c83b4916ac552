"""Alternating parent/change benchmark pairs, with one verdict per end-to-end metric.

Usage (from the repository root, with the parent commit checked out in a
directory of its own):

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload validate_mc --pairs 10 --seed-base 5001

Pair i (from 1) runs ``benchmark/run.py --workload W --seed S --seconds 25
--trace 0`` in both checkouts with S = seed-base + i - 1, the parent first on
odd pairs and the change first on even ones, and reads the JSON summary on
the last line of each run's output.  For every end-to-end metric of the
change's ``BENCHMARK.json`` it prints each run, each side's median and
quartiles, how many pairs the change won, and a verdict (`verdict`), judged
by the metric's ``better`` direction and relative ``bound``.  Exit status is
1 if a run failed an op or a metric is ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 25
# Share of the pairs the change must win for a gain.
GAIN_PAIRS = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def pairs_won(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change is strictly better; a tie counts for neither."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """One metric's verdict over paired runs (``parent[i]`` and ``change[i]``
    ran as pair i).

    * ``gain``: the change is better in at least 9/10 of the pairs and its
      median beats the parent's by more than the parent's quartile spread;
    * ``unresolved``: the parent's quartile spread, relative to its median,
      is wider than ``bound``, and not every change run is better than every
      parent run;
    * ``worse``: the change's median is worse than the parent's by more than
      ``bound`` relative;
    * ``within bound`` otherwise.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same number of parent and change runs, at least one")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    q1, parent_median, q3 = quartiles(parent)
    # gain > 0 where the change's median is better
    gain = sign * (parent_median - statistics.median(change))
    if pairs_won(parent, change, better) >= GAIN_PAIRS * len(parent) and gain > q3 - q1:
        return "gain"
    scale = abs(parent_median)
    spread = (q3 - q1) / scale if scale else (0.0 if q3 == q1 else float("inf"))
    if spread > bound and not all(sign * (p - c) > 0.0 for p in parent for c in change):
        return "unresolved"
    loss = -gain / scale if scale else (0.0 if gain >= 0.0 else float("inf"))
    return "worse" if loss > bound else "within bound"


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """The JSON summary of one benchmark run in ``checkout``."""
    argv = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    args = parser.parse_args(argv)

    declared = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = declared["end_to_end"]
    runs = {"parent": [], "change": []}
    for pair in range(1, args.pairs + 1):
        seed = args.seed_base + pair - 1
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            summary = run_once(getattr(args, side), args.workload, seed)
            runs[side].append(summary)
            values = " ".join(f"{m['name']} {summary['metrics'][m['name']]['value']:.6g}"
                              for m in metrics)
            print(f"pair {pair} seed {seed} {side}: correct {summary['correct']} {values}",
                  flush=True)

    failed = not all(s["correct"] for side in runs.values() for s in side)
    worse = False
    for metric in metrics:
        name = metric["name"]
        values = {side: [s["metrics"][name]["value"] for s in summaries]
                  for side, summaries in runs.items()}
        outcome = verdict(values["parent"], values["change"], metric["better"], metric["bound"])
        worse |= outcome == "worse"
        wins = pairs_won(values["parent"], values["change"], metric["better"])
        print(f"\n{name} ({metric['unit']}, {metric['better']} is better, bound "
              f"{metric['bound']:g}): {outcome}, change better in {wins}/{args.pairs} pairs")
        for side, side_values in values.items():
            q1, median, q3 = quartiles(side_values)
            print(f"  {side:6s} median {median:.6g} quartiles {q1:.6g}-{q3:.6g} runs "
                  + " ".join(f"{v:.6g}" for v in side_values))
    return 1 if failed or worse else 0


if __name__ == "__main__":
    sys.exit(main())
