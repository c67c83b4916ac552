"""Regenerate the Chebyshev tables of coexlink.specfun's low-order Bessel K
(src/coexlink/_bessel_k_table.py) from mpmath.

  * BESSEL_K_TABLE, shape (14, 34): the 2-d Chebyshev interpolant of
    log(sqrt(x) e^x K_nu(x)) in r = 2 (nu / 1.5)^2 - 1 (orders 0 to 1.5;
    K is even in nu, so a series in nu^2 needs half the terms: 14 leave
    3e-18, where 14 terms in nu / 0.75 - 1 left 1e-14 and 4e-14 of log K_0(1))
    and s = 2 / x - 1 (arguments 1 to infinity), fitted at the 14 x 34
    Chebyshev nodes; row i, column j multiply T_i(r) T_j(s);
  * TEMME_GAMMA_TABLE, shape (2, 10): the Chebyshev series in 8 mu^2 - 1 of
    Temme's Gamma_1(mu) = (1/Gamma(1 - mu) - 1/Gamma(1 + mu)) / (2 mu) and
    Gamma_2(mu) = (1/Gamma(1 - mu) + 1/Gamma(1 + mu)) / 2, |mu| <= 1/2
    (Temme 1975, J. Comput. Phys. 19).

Node values are taken at 20 digits (Gamma at 30) and the Chebyshev sums
formed at 30 digits, so each coefficient is rounded once.  By default the
script refits, prints the largest error of log K against mpmath at points
between the nodes and the drift from the frozen tables, and exits 1 if any
coefficient drifts by more than 1e-15 of its table's largest; ``--write``
rewrites the module instead.
"""

import argparse
import sys
from pathlib import Path

import mpmath
import numpy as np

MODULE = Path(__file__).resolve().parents[1] / "src" / "coexlink" / "_bessel_k_table.py"

ORDERS, ARGUMENTS, GAMMA_TERMS = 14, 34, 10
ORDER_MAX = 1.5
X_MIN = 1.0
DRIFT = 1e-15


def nodes(n: int) -> list:
    return [mpmath.cos(mpmath.pi * (k + mpmath.mpf(0.5)) / n) for k in range(n)]


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


def fit_tables() -> dict[str, np.ndarray]:
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


def check_error(table: np.ndarray) -> float:
    """Largest |error| of log(sqrt(x) e^x K_nu(x)) at 48 points between the
    nodes and the four corners of the table."""
    rng = np.random.default_rng(20261019)
    nu = np.concatenate([rng.uniform(0.0, ORDER_MAX, 48), [0.0, 0.0, ORDER_MAX, ORDER_MAX]])
    x = X_MIN * np.concatenate([np.exp(rng.uniform(0.0, np.log(1e6), 48)), [1.0, 1e6, 1.0, 1e6]])
    got = [np.polynomial.chebyshev.chebval2d(2 * (n / ORDER_MAX) ** 2 - 1, 2 * X_MIN / v - 1, table)
           for n, v in zip(nu, x)]
    with mpmath.workdps(30):
        ref = [float(log_scaled_k(mpmath.mpf(n), mpmath.mpf(v))) for n, v in zip(nu, x)]
    return float(np.max(np.abs(np.array(got) - ref)))


def module_text(tables: dict[str, np.ndarray]) -> str:
    lines = [
        '"""Chebyshev tables of `coexlink.specfun`\'s low-order Bessel K.',
        "",
        "Written by scripts/fit_bessel_k_table.py from mpmath; do not edit.",
        "BESSEL_K_TABLE[i][j] multiplies T_i(2 (nu / 1.5)^2 - 1) T_j(2 / x - 1) in",
        "log(sqrt(x) e^x K_nu(x)); TEMME_GAMMA_TABLE holds Temme's Gamma_1 and",
        'Gamma_2 as Chebyshev series in 8 mu^2 - 1."""',
        "",
        f"ORDER_MAX = {ORDER_MAX!r}",
        f"X_MIN = {X_MIN!r}",
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
    return {name: np.array(namespace[name]) for name in ("BESSEL_K_TABLE", "TEMME_GAMMA_TABLE")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {MODULE.name}")
    args = parser.parse_args(argv)

    tables = fit_tables()
    print(f"BESSEL_K_TABLE {tables['BESSEL_K_TABLE'].shape}: max |error| of log K off "
          f"the nodes {check_error(tables['BESSEL_K_TABLE']):.2e}")
    if args.write:
        MODULE.write_text(module_text(tables), encoding="utf-8")
        print(f"wrote {MODULE}")
        return 0
    frozen = frozen_tables()
    if frozen is None or any(frozen[n].shape != t.shape for n, t in tables.items()):
        print(f"{MODULE.name} is missing or has other table shapes; run with --write",
              file=sys.stderr)
        return 1
    drift = max(float(np.max(np.abs(frozen[n] - t)) / np.max(np.abs(t)))
                for n, t in tables.items())
    print(f"max drift vs frozen tables: {drift:.3e}")
    if drift > DRIFT:
        print(f"tables do NOT match {MODULE.name}", file=sys.stderr)
        return 1
    print(f"matches {MODULE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
