"""Regenerate the piecewise-polynomial tables of coexlink.specfun's Gaussian
tail and inverse error function (src/coexlink/_erf_tables.py) from mpmath.

Both tables cut a variable into equal pieces and hold, per piece, the
monomial coefficients (highest degree first) of the polynomial that
interpolates the target at DEGREE + 1 Chebyshev nodes of the piece, in the
piece's local variable u in [-1/2, 1/2]:

  * ERFC_TABLE: Q(x) e^(x^2/2) = erfc(t) e^(t^2) / 2 with t = x / sqrt(2),
    in y = ERFC_SCALE / (ERFC_SCALE + t) over [ERFC_Y_MIN, 1], which covers
    t <= ERFC_T_MAX; erfc(t) underflows to 0.0 past t = 27.3;
  * ERF_INV_TABLE: erf_inv(y) / y in s = sqrt(-log((1 - y)(1 + y))) over
    [0, ERF_INV_S_MAX], which covers every double |y| < 1 (s <= 6.004).

The interpolants are formed in 30-digit arithmetic and rounded once.  By
default the script refits, prints the largest relative error against
mpmath at the quarter points of every piece and the drift from the frozen
tables, and exits 1 if any coefficient drifts by more than 1e-15 of its
piece's largest; ``--write`` rewrites the module instead.
"""

import argparse
import sys
from pathlib import Path

import mpmath
import numpy as np

MODULE = Path(__file__).resolve().parents[1] / "src" / "coexlink" / "_erf_tables.py"

ERFC_SCALE = 2.0
ERFC_T_MAX = 27.3
ERFC_PIECES = 64
ERFC_DEGREE = 6
ERF_INV_S_MAX = 6.01
ERF_INV_PIECES = 32
ERF_INV_DEGREE = 9
DRIFT = 1e-15


def fit_pieces(target, lo: float, hi: float, pieces: int, degree: int) -> np.ndarray:
    """Per-piece interpolants of ``target`` on [lo, hi], shape (pieces, degree + 1)."""
    n = degree + 1
    nodes = [mpmath.cos(mpmath.pi * (k + mpmath.mpf(0.5)) / n) / 2 for k in range(n)]
    vander = mpmath.matrix([[u**j for j in range(n)] for u in nodes])
    width = (mpmath.mpf(hi) - lo) / pieces
    rows = []
    for p in range(pieces):
        center = lo + (p + mpmath.mpf(0.5)) * width
        values = mpmath.matrix([target(center + width * u) for u in nodes])
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


def erfc_y_min() -> float:
    return ERFC_SCALE / (ERFC_SCALE + ERFC_T_MAX)


def fit_tables() -> dict[str, np.ndarray]:
    with mpmath.workdps(30):
        return {
            "ERFC_TABLE": fit_pieces(erfc_target, erfc_y_min(), 1.0, ERFC_PIECES, ERFC_DEGREE),
            "ERF_INV_TABLE": fit_pieces(erf_inv_target, 0.0, ERF_INV_S_MAX, ERF_INV_PIECES,
                                        ERF_INV_DEGREE),
        }


def horner(table: np.ndarray, lo: float, hi: float, v: np.ndarray) -> np.ndarray:
    z = (v - lo) * (table.shape[0] / (hi - lo))
    idx = np.clip(z.astype(int), 0, table.shape[0] - 1)
    u = z - idx - 0.5
    out = np.zeros_like(v)
    for column in table[idx].T:
        out = out * u + column
    return out


def check_errors(tables: dict[str, np.ndarray]) -> dict[str, float]:
    """Largest relative error of each table against mpmath at the ends and
    quarter points of every piece, at the double-rounded table variable."""
    y_min = erfc_y_min()
    y = np.linspace(y_min, 1.0, 4 * ERFC_PIECES + 1)
    t = ERFC_SCALE / y - ERFC_SCALE
    y = ERFC_SCALE / (ERFC_SCALE + t)
    s = np.linspace(0.0, ERF_INV_S_MAX, 4 * ERF_INV_PIECES + 1)
    with mpmath.workdps(30):
        erfc_ref = np.array([float(erfc_target(mpmath.mpf(v))) for v in y])
        inv_ref = np.array([float(erf_inv_target(mpmath.mpf(v))) for v in s])
    return {
        "ERFC_TABLE": float(np.max(np.abs(horner(tables["ERFC_TABLE"], y_min, 1.0, y)
                                          / erfc_ref - 1.0))),
        "ERF_INV_TABLE": float(np.max(np.abs(horner(tables["ERF_INV_TABLE"], 0.0,
                                                    ERF_INV_S_MAX, s) / inv_ref - 1.0))),
    }


def module_text(tables: dict[str, np.ndarray]) -> str:
    lines = [
        '"""Piecewise-polynomial tables of `coexlink.specfun`\'s Gaussian tail and',
        "inverse error function.",
        "",
        "Written by scripts/fit_erf_tables.py from 30-digit mpmath; do not edit.",
        "Row k holds piece k's monomial coefficients, highest degree first, in the",
        'local variable u in [-1/2, 1/2]."""',
        "",
        f"ERFC_SCALE = {ERFC_SCALE!r}",
        f"ERFC_Y_MIN = {erfc_y_min()!r}",
        f"ERF_INV_S_MAX = {ERF_INV_S_MAX!r}",
    ]
    for name, table in tables.items():
        lines += ["", f"{name} = ("]
        lines += ["    (" + ", ".join(repr(float(v)) for v in row) + ")," for row in table]
        lines.append(")")
    return "\n".join(lines) + "\n"


def frozen_tables() -> dict[str, np.ndarray] | None:
    if not MODULE.exists():
        return None
    namespace: dict = {}
    exec(MODULE.read_text(encoding="utf-8"), namespace)
    return {name: np.array(namespace[name]) for name in ("ERFC_TABLE", "ERF_INV_TABLE")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {MODULE.name}")
    args = parser.parse_args(argv)

    tables = fit_tables()
    for name, err in check_errors(tables).items():
        print(f"{name}: {tables[name].shape[0]} pieces of degree {tables[name].shape[1] - 1}, "
              f"max relative error {err:.2e}")
    if args.write:
        MODULE.write_text(module_text(tables), encoding="utf-8")
        print(f"wrote {MODULE}")
        return 0
    frozen = frozen_tables()
    if frozen is None or any(frozen[n].shape != t.shape for n, t in tables.items()):
        print(f"{MODULE.name} is missing or has other table shapes; run with --write",
              file=sys.stderr)
        return 1
    # each coefficient against its piece's largest, the scale of its term
    drift = max(float(np.max(np.abs(frozen[n] - t) / np.max(np.abs(t), axis=1, keepdims=True)))
                for n, t in tables.items())
    print(f"max drift vs frozen tables: {drift:.3e}")
    if drift > DRIFT:
        print(f"tables do NOT match {MODULE.name}", file=sys.stderr)
        return 1
    print(f"matches {MODULE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
