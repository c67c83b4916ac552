"""Refit coexlink's frozen special-function tables and check the committed ones.

  * src/coexlink/_erf_tables.py: specfun's Q(x) e^(x^2/2) and erf_inv(y) / y
    as piecewise interpolants at Chebyshev nodes, formed at 30 digits;
  * src/coexlink/_bessel_k_table.py: Chebyshev series of log(sqrt(x) e^x
    K_nu(x)) in nu^2 and 2 / x - 1, and of Temme's Gamma_1 and Gamma_2
    (Temme 1975, J. Comput. Phys. 19), node values at 20 digits, sums at 30;
  * coexlink.per.QN_COEFFS: Q(x) ~ exp(-x^2/2) p(x), p of degree 7 with
    p(0) = Q(0) = 0.5, by least squares on Q(x) e^(x^2/2) weighted by
    exp(-x^2/2) over [0, 6] (past 6, erfc round-off would steer the fit).

Prints each table's error and drift from the committed copy, and exits 1
past 1e-15 of a generated table's piece (erf) or table (Bessel K) largest
coefficient, or 1e-12 absolute for QN_COEFFS.  ``--write`` rewrites the two
generated modules.  QN_COEFFS is only printed, for pasting into per.py: its
lstsq fit is not bit-reproducible across LAPACK builds (~1e-15), so writing
it would move the hybrid's floats.  Run from the repository root with
coexlink importable: ``PYTHONPATH=src python scripts/fit_tables.py [--write]``.
"""

import argparse
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import mpmath
import numpy as np

from coexlink.per import QN_COEFFS
from coexlink.specfun import gaussian_q

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coexlink"
DRIFT, QN_DRIFT = 1e-15, 1e-12
# erfc(t) underflows to 0.0 past t = 27.3; s <= 6.004 for every double |y| < 1
ERFC_SCALE, ERFC_T_MAX, ERF_INV_S_MAX = 2.0, 27.3, 6.01
ERFC_Y_MIN = ERFC_SCALE / (ERFC_SCALE + ERFC_T_MAX)
# K is even in nu: 14 terms in nu^2 leave 3e-18, where 14 in nu / 0.75 - 1 left 1e-14
ORDERS, ARGUMENTS, GAMMA_TERMS = 14, 34, 10
ORDER_MAX, X_MIN = 1.5, 1.0
QN_DEGREE, QN_X_MAX, QN_POINTS = 7, 6.0, 4000


def nodes(n: int) -> list:
    return [mpmath.cos(mpmath.pi * (k + mpmath.mpf(0.5)) / n) for k in range(n)]


def fit_pieces(target, lo: float, hi: float, pieces: int, degree: int) -> np.ndarray:
    """Per-piece interpolants of ``target`` on [lo, hi], shape (pieces, degree + 1)."""
    n = degree + 1
    local = [u / 2 for u in nodes(n)]
    vander = mpmath.matrix([[u**j for j in range(n)] for u in local])
    width = (mpmath.mpf(hi) - lo) / pieces
    rows = []
    for p in range(pieces):
        center = lo + (p + mpmath.mpf(0.5)) * width
        values = mpmath.matrix([target(center + width * u) for u in local])
        coef = mpmath.lu_solve(vander, values)
        rows.append([float(coef[j]) for j in reversed(range(n))])
    return np.array(rows)


def erfc_target(y):
    t = ERFC_SCALE / y - ERFC_SCALE
    return mpmath.erfc(t) * mpmath.exp(t * t) / 2


def erf_inv_target(s):
    if s == 0:
        return mpmath.sqrt(mpmath.pi) / 2
    y = mpmath.sqrt(-mpmath.expm1(-s * s))
    return mpmath.erfinv(y) / y


# name: (target, lo, hi, pieces, degree)
PIECEWISE = {
    "ERFC_TABLE": (erfc_target, ERFC_Y_MIN, 1.0, 64, 6),
    "ERF_INV_TABLE": (erf_inv_target, 0.0, ERF_INV_S_MAX, 32, 9),
}


def fit_erf() -> dict[str, np.ndarray]:
    with mpmath.workdps(30):
        return {name: fit_pieces(*spec) for name, spec in PIECEWISE.items()}


def erf_error(tables: dict[str, np.ndarray]) -> None:
    """Largest relative error of each table against mpmath at the ends and
    quarter points of every piece, at the double-rounded table variable."""
    for name, (target, lo, hi, pieces, degree) in PIECEWISE.items():
        v = np.linspace(lo, hi, 4 * pieces + 1)
        if target is erfc_target:
            v = ERFC_SCALE / (ERFC_SCALE + (ERFC_SCALE / v - ERFC_SCALE))
        with mpmath.workdps(30):
            ref = np.array([float(target(mpmath.mpf(p))) for p in v])
        z = (v - lo) * (pieces / (hi - lo))
        idx = np.clip(z.astype(int), 0, pieces - 1)
        got = np.zeros_like(v)
        for column in tables[name][idx].T:
            got = got * (z - idx - 0.5) + column
        print(f"{name}: {pieces} pieces of degree {degree}, "
              f"max relative error {np.max(np.abs(got / ref - 1.0)):.2e}")


def chebyshev_coefficients(values: list, n: int) -> list:
    """Coefficients of the degree n - 1 interpolant through ``values`` at nodes(n)."""
    # T_j at node k is cos(j theta_k), and cos(j theta) = T_j(cos theta)
    basis = [[mpmath.mpf(1)] * n, nodes(n)]
    for _ in range(2, n):
        basis.append([2 * x * a - b for x, a, b in zip(basis[1], basis[-1], basis[-2])])
    out = [2 * mpmath.fsum(t * v for t, v in zip(row, values)) / n for row in basis]
    out[0] /= 2
    return out


def log_scaled_k(nu, x):
    return mpmath.log(mpmath.besselk(nu, x)) + x + mpmath.log(x) / 2


def fit_bessel_k() -> dict[str, np.ndarray]:
    with mpmath.workdps(20):
        grid = [[log_scaled_k(ORDER_MAX * mpmath.sqrt((r + 1) / 2), 2 * X_MIN / (s + 1))
                 for s in nodes(ARGUMENTS)] for r in nodes(ORDERS)]
    with mpmath.workdps(30):
        rows = [chebyshev_coefficients(row, ARGUMENTS) for row in grid]
        table = [chebyshev_coefficients([row[j] for row in rows], ORDERS)
                 for j in range(ARGUMENTS)]
        gamma1, gamma2 = [], []
        for v in nodes(GAMMA_TERMS):
            mu = mpmath.sqrt((v + 1) / 8)
            minus, plus = 1 / mpmath.gamma(1 - mu), 1 / mpmath.gamma(1 + mu)
            gamma1.append((minus - plus) / (2 * mu))
            gamma2.append((minus + plus) / 2)
        temme = [chebyshev_coefficients(g, GAMMA_TERMS) for g in (gamma1, gamma2)]
    return {
        "BESSEL_K_TABLE": np.array(table, dtype=float).T,
        "TEMME_GAMMA_TABLE": np.array(temme, dtype=float),
    }


def bessel_k_error(tables: dict[str, np.ndarray]) -> None:
    """Largest |error| of log(sqrt(x) e^x K_nu(x)) at 48 points between the
    nodes and the four corners of the table."""
    rng = np.random.default_rng(20261019)
    nu = np.concatenate([rng.uniform(0.0, ORDER_MAX, 48), [0.0, 0.0, ORDER_MAX, ORDER_MAX]])
    x = X_MIN * np.concatenate([np.exp(rng.uniform(0.0, np.log(1e6), 48)), [1.0, 1e6, 1.0, 1e6]])
    table = tables["BESSEL_K_TABLE"]
    got = [np.polynomial.chebyshev.chebval2d(2 * (n / ORDER_MAX) ** 2 - 1, 2 * X_MIN / v - 1, table)
           for n, v in zip(nu, x)]
    with mpmath.workdps(30):
        ref = [float(log_scaled_k(mpmath.mpf(n), mpmath.mpf(v))) for n, v in zip(nu, x)]
    print(f"BESSEL_K_TABLE {table.shape}: max |error| of log K off the nodes "
          f"{np.max(np.abs(np.array(got) - ref)):.2e}")


class Generated(NamedTuple):
    """A generated module; its drift is scaled per row (axis 1) or per table (None)."""
    name: str
    doc: str
    constants: dict
    fit: Callable[[], dict[str, np.ndarray]]
    error: Callable[[dict[str, np.ndarray]], None]
    axis: int | None


MODULES = (
    Generated("_erf_tables.py", """\
Piecewise-polynomial tables of `coexlink.specfun`'s Gaussian tail and
inverse error function.

Written by scripts/fit_tables.py from 30-digit mpmath; do not edit.
Row k holds piece k's monomial coefficients, highest degree first, in the
local variable u in [-1/2, 1/2].""",
              {"ERFC_SCALE": ERFC_SCALE, "ERFC_Y_MIN": ERFC_Y_MIN,
               "ERF_INV_S_MAX": ERF_INV_S_MAX}, fit_erf, erf_error, 1),
    Generated("_bessel_k_table.py", """\
Chebyshev tables of `coexlink.specfun`'s low-order Bessel K.

Written by scripts/fit_tables.py from mpmath; do not edit.
BESSEL_K_TABLE[i][j] multiplies T_i(2 (nu / 1.5)^2 - 1) T_j(2 / x - 1) in
log(sqrt(x) e^x K_nu(x)); TEMME_GAMMA_TABLE holds Temme's Gamma_1 and
Gamma_2 as Chebyshev series in 8 mu^2 - 1.""",
              {"ORDER_MAX": ORDER_MAX, "X_MIN": X_MIN}, fit_bessel_k, bessel_k_error, None),
)


def module_text(module: Generated, tables: dict[str, np.ndarray]) -> str:
    lines = [f'"""{module.doc}"""', ""]
    lines += [f"{name} = {value!r}" for name, value in module.constants.items()]
    for name, table in tables.items():
        lines += ["", f"{name} = ("]
        lines += ["    (" + ", ".join(repr(float(v)) for v in row) + ")," for row in table]
        lines.append(")")
    return "\n".join(lines) + "\n"


def drift(module: Generated, tables: dict[str, np.ndarray]) -> float:
    """Largest |committed - refit| coefficient, over its row's or table's largest."""
    frozen: dict = {}
    exec((PACKAGE / module.name).read_text(encoding="utf-8"), frozen)
    worst = 0.0
    for name, table in tables.items():
        old = np.array(frozen.get(name, ()))
        if old.shape != table.shape:
            return np.inf
        scale = np.max(np.abs(table), axis=module.axis, keepdims=True)
        worst = max(worst, float(np.max(np.abs(old - table) / scale)))
    return worst


def fit_qn() -> np.ndarray:
    """QN_COEFFS refitted; prints the largest |fit - Q| on [0, 8]."""
    x = np.linspace(0.0, QN_X_MAX, QN_POINTS)
    lifted = gaussian_q(x) * np.exp(x * x / 2.0)
    weight = np.exp(-x * x / 2.0)
    # p(x) = 0.5 + x * q(x): pinning the constant keeps the atom at snr -> inf
    # exact and leaves degree columns 1..degree for the fit.
    design = np.vander(x, QN_DEGREE, increasing=True) * x[:, None]
    coef, *_ = np.linalg.lstsq(design * weight[:, None], (lifted - 0.5) * weight, rcond=None)
    table = np.concatenate([[0.5], coef])
    x = np.linspace(0.0, 8.0, 2001)
    err = np.max(np.abs(np.exp(-x * x / 2.0) * np.polynomial.polynomial.polyval(x, table)
                        - gaussian_q(x)))
    print(f"QN_COEFFS: degree {QN_DEGREE}, window [0, {QN_X_MAX:g}], {QN_POINTS} points, "
          f"max |fit - Q| on [0, 8] {err:.3e}")
    return table


def qn_drift(table: np.ndarray) -> float:
    """Largest |QN_COEFFS - refit| coefficient."""
    frozen = np.array(QN_COEFFS)
    return float(np.max(np.abs(frozen - table))) if frozen.shape == table.shape else np.inf


def checked(name: str, worst: float, bound: float) -> bool:
    print(f"{name}: max drift vs frozen {worst:.3e}")
    if worst > bound:
        print(f"{name} does NOT match its refit (bound {bound:.0e})", file=sys.stderr)
    return worst <= bound


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite " + " and ".join(m.name for m in MODULES))
    args = parser.parse_args(argv)

    ok = True
    for module in MODULES:
        tables = module.fit()
        module.error(tables)
        if args.write:
            (PACKAGE / module.name).write_text(module_text(module, tables), encoding="utf-8")
            print(f"wrote {PACKAGE / module.name}")
        else:
            ok &= checked(module.name, drift(module, tables), DRIFT)
    table = fit_qn()
    print("QN_COEFFS = (\n" + "".join(f"    {float(v)!r},\n" for v in table) + ")")
    ok &= checked("coexlink.per.QN_COEFFS", qn_drift(table), QN_DRIFT)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
