"""Compare the single-slot success probability routes against quadrature.

Sweeps mean SNR, mean INR and slot bit count, treating adaptive quadrature
(the test suite's oracle in tests/oracles.py) as the reference.  The
closed-form route is exercised up to its bit cap, the Gumbel-gamma route
everywhere its domain allows.

Run from the repository root: PYTHONPATH=src python scripts/run_iell_comparison.py
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from coexlink.per import (
    QN_MAX_BITS,
    GumbelDomainError,
    Modulation,
    success_prob_closed_form,
    success_prob_gumbel_gamma,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import success_prob_adaptive  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--snr-db", type=float, nargs="+",
                        default=[0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0])
    parser.add_argument("--inr-db", type=float, nargs="+",
                        default=list(np.arange(-10.0, 21.0, 5.0)))
    parser.add_argument("--bits", type=int, nargs="+",
                        default=[1, 2, 4, 8, 12, 16, 32, 64, 128])
    parser.add_argument("--output", default=None, help="optional CSV path")
    args = parser.parse_args(argv)

    modulation = Modulation()
    rows = []
    worst = {"qn": (0.0, None), "gumbel": (0.0, None)}
    for bits in args.bits:
        for snr_db in args.snr_db:
            for inr_db in args.inr_db:
                snr = 10.0 ** (snr_db / 10.0)
                inr = 10.0 ** (inr_db / 10.0)
                ref = success_prob_adaptive(modulation, snr, inr, bits)
                row = {"bits": bits, "snr_db": snr_db, "inr_db": inr_db,
                       "quadrature": ref, "qn": np.nan, "gumbel": np.nan}
                if bits <= QN_MAX_BITS:
                    row["qn"] = success_prob_closed_form(modulation, snr, inr, bits)
                try:
                    row["gumbel"] = success_prob_gumbel_gamma(modulation, snr, inr, bits)
                except GumbelDomainError:
                    pass
                for route in ("qn", "gumbel"):
                    if np.isnan(row[route]):
                        continue
                    rel = abs(row[route] - ref) / ref
                    if rel > worst[route][0]:
                        worst[route] = (rel, (bits, snr_db, inr_db))
                rows.append(row)

    print(f"{len(rows)} grid points, reference = quadrature")
    for route, (rel, where) in worst.items():
        if where is None:
            print(f"{route:>8}: never in domain on this grid")
        else:
            bits, snr_db, inr_db = where
            print(f"{route:>8}: worst rel err {rel:.3e} "
                  f"at bits={bits} snr={snr_db:g} dB inr={inr_db:g} dB")

    # Gumbel-gamma error shrinks as more bit errors are needed to lose the
    # slot; report the per-bits profile so the hybrid switch point is visible.
    print("\nper-bits worst relative error")
    print(f"{'bits':>5} {'qn':>12} {'gumbel':>12}")
    for bits in args.bits:
        line = f"{bits:>5}"
        for route in ("qn", "gumbel"):
            errs = [abs(r[route] - r["quadrature"]) / r["quadrature"]
                    for r in rows if r["bits"] == bits and not np.isnan(r[route])]
            line += f" {max(errs):>12.3e}" if errs else f" {'-':>12}"
        print(line)

    if args.output:
        header = "bits,snr_db,inr_db,quadrature,qn,gumbel"
        lines = [header] + [
            ",".join(format(row[key], ".12g") for key in header.split(","))
            for row in rows
        ]
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
