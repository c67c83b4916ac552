"""Regenerate the polynomial Q-function table of the hybrid PER route's
closed-form head (windows up to coexlink.per.ELL_SWITCH bits).

Fits Q(x) ~ exp(-x^2/2) * p(x) with p of degree 7 and p(0) pinned to
Q(0) = 0.5, by weighted least squares in the lifted space (target
Q(x) e^(x^2/2), weight exp(-x^2/2) so residuals are weighted evenly in Q
space).  Prints the coefficients ready to paste into coexlink.per.QN_COEFFS,
the max fit error, and the drift against the currently frozen table.

The fit window stops at 6 on purpose: past that Q drops below 1e-9 and the
lifted target is dominated by erfc round-off, which would drag the tail of
the polynomial around without improving any value the PER path ever uses.
"""

import argparse
import sys

import numpy as np

from coexlink.per import QN_COEFFS
from coexlink.specfun import gaussian_q


def fit_table(degree: int, x_max: float, points: int) -> np.ndarray:
    x = np.linspace(0.0, x_max, points)
    lifted = gaussian_q(x) * np.exp(x * x / 2.0)
    weight = np.exp(-x * x / 2.0)
    # p(x) = 0.5 + x * q(x): pinning the constant keeps the atom at snr -> inf
    # exact and leaves degree columns 1..degree for the fit.
    design = np.vander(x, degree, increasing=True) * x[:, None]
    rhs = lifted - 0.5
    coef, *_ = np.linalg.lstsq(design * weight[:, None], rhs * weight, rcond=None)
    return np.concatenate([[0.5], coef])


def fit_error(table: np.ndarray, x_max: float = 8.0, points: int = 2001) -> float:
    x = np.linspace(0.0, x_max, points)
    approx = np.exp(-x * x / 2.0) * np.polynomial.polynomial.polyval(x, table)
    return float(np.max(np.abs(approx - gaussian_q(x))))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--degree", type=int, default=7)
    parser.add_argument("--x-max", type=float, default=6.0, help="fit window end")
    parser.add_argument("--points", type=int, default=4000)
    parser.add_argument("--check-x-max", type=float, default=8.0,
                        help="window for the reported max error")
    args = parser.parse_args(argv)

    table = fit_table(args.degree, args.x_max, args.points)
    err = fit_error(table, args.check_x_max)

    print(f"degree {args.degree}, window [0, {args.x_max:g}], {args.points} points")
    print(f"max |fit - Q| on [0, {args.check_x_max:g}]: {err:.3e}")
    print("QN_COEFFS = (")
    for value in table:
        print(f"    {float(value)!r},")
    print(")")

    if args.degree + 1 == len(QN_COEFFS):
        drift = max(abs(a - b) for a, b in zip(table, QN_COEFFS))
        print(f"max drift vs frozen table: {drift:.3e}")
        if drift > 1e-12:
            print("table does NOT match coexlink.per.QN_COEFFS", file=sys.stderr)
            return 1
        print("matches coexlink.per.QN_COEFFS")
    else:
        print("degree differs from the frozen table, skipping the comparison")
    return 0


if __name__ == "__main__":
    sys.exit(main())
