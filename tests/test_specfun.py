import math
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special

from coexlink import specfun
from coexlink.per import ELL_SWITCH, QN_COEFFS
from conftest import fit_tables_script
from oracles import bessel_k_integral, gamma_lower_reg, gamma_lower_reg_quad


def erf_inv_bisect(y: float, iterations: int = 200) -> float:
    """erf_inv by bisection on math.erf; scipy-free cross-check route."""
    if not -1.0 < y < 1.0:
        raise ValueError("erf_inv_bisect requires |y| < 1")
    if y == 0.0:
        return 0.0
    sign = 1.0 if y > 0 else -1.0
    target = abs(y)
    lo, hi = 0.0, 7.0
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if math.erf(mid) < target:
            lo = mid
        else:
            hi = mid
    return sign * 0.5 * (lo + hi)


def test_gaussian_q_reference_points():
    assert specfun.gaussian_q(0.0) == pytest.approx(0.5, abs=1e-15)
    # Q(1.96) ~ 0.025, the familiar two-sided 5% point
    assert specfun.gaussian_q(1.959963984540054) == pytest.approx(0.025, rel=1e-12)


def test_gaussian_q_symmetry_and_shape():
    x = np.linspace(-6.0, 6.0, 201)
    q = specfun.gaussian_q(x)
    np.testing.assert_allclose(q + specfun.gaussian_q(-x), 1.0, atol=1e-15)
    assert np.all(np.diff(q) < 0)
    assert np.all((q >= 0) & (q <= 1))


@given(st.floats(min_value=-0.999999, max_value=0.999999))
def test_erf_inv_round_trip(y):
    assert math.erf(float(specfun.erf_inv(y))) == pytest.approx(y, abs=1e-12)


def test_erf_inv_rejects_endpoints():
    for bad in (1.0, -1.0, 1.5):
        with pytest.raises(ValueError):
            specfun.erf_inv(bad)


def test_erf_inv_bisect_matches_primary():
    # erf flattens in the tail, so bisection on erf values cannot localize x
    # past ~1e-11 there; 1e-10 is still far below anything downstream needs
    for y in (-0.99, -0.5, 1e-6, 0.3, 0.9, 0.999999):
        assert erf_inv_bisect(y) == pytest.approx(
            float(specfun.erf_inv(y)), abs=1e-10
        )


def test_gamma_lower_reg_exponential_case():
    # P(1, x) is the unit-rate exponential CDF
    x = np.array([0.0, 0.1, 1.0, 5.0])
    np.testing.assert_allclose(
        gamma_lower_reg(1.0, x), 1.0 - np.exp(-x), rtol=1e-14
    )


def test_gamma_lower_reg_domain_errors():
    with pytest.raises(ValueError):
        gamma_lower_reg(0.0, 1.0)
    with pytest.raises(ValueError):
        gamma_lower_reg(2.0, -0.5)


@pytest.mark.parametrize("a", [0.3, 0.5, 1.0, 2.0, 4.5, 17.0])
@pytest.mark.parametrize("x", [1e-3, 0.5, 3.0, 20.0])
def test_gamma_lower_reg_dual_route(a, x):
    primary = float(gamma_lower_reg(a, x))
    quad = gamma_lower_reg_quad(a, x)
    assert quad == pytest.approx(primary, abs=1e-12)


def test_bessel_k_half_order_closed_form():
    # K_{1/2}(x) = sqrt(pi / (2x)) e^{-x}
    x = np.array([0.05, 0.4, 1.0, 3.0, 12.0])
    expected = np.sqrt(np.pi / (2.0 * x)) * np.exp(-x)
    np.testing.assert_allclose(special.kv(0.5, x), expected, rtol=1e-13)


def test_bessel_k_even_in_order():
    x = np.array([0.2, 1.0, 7.0])
    np.testing.assert_allclose(
        special.kv(2.3, x), special.kv(-2.3, x), rtol=1e-14
    )


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.0, 7.5])
@pytest.mark.parametrize("x", [0.01, 0.3, 2.0, 25.0])
def test_bessel_k_dual_route(nu, x):
    primary = float(special.kv(nu, x))
    integral = bessel_k_integral(nu, x)
    assert integral == pytest.approx(primary, rel=1e-10)


def test_bessel_k_scaled_identity():
    x = np.array([0.1, 1.0, 30.0])
    np.testing.assert_allclose(
        special.kve(1.5, x),
        np.exp(x) * special.kv(1.5, x),
        rtol=1e-12,
    )


def test_bessel_k_scaled_survives_large_argument():
    # plain kv underflows near x ~ 740; the scaled form must not
    val = float(special.kve(2.0, 5000.0))
    assert 0.0 < val < 1.0
    assert math.isfinite(val)


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        bessel_k_integral(1.0, 0.0)


# log K on a log grid of the Debye range, orders 12-300 and arguments 1e-3 to
# 1e3; kve overflows on part of it (K_300(1e-3) ~ e^3700).
DEBYE_ORDERS = np.geomspace(specfun.DEBYE_MIN_ORDER, 300.0, 25)[::4]
DEBYE_ARGS = np.geomspace(1e-3, 1e3, 31)[::3]


def log_bessel_k_mp(nu: float, x: float) -> float:
    """log K_nu(x) by mpmath, correct to 40 digits and more.

    mpmath works at 60 digits: at 40 its besselk returned log K = 8.25 for
    -14.0887 at nu = 229.417, x = 158.489 (a point of the full 25 x 31 grid
    DEBYE_ORDERS and DEBYE_ARGS thin out); at 60 and 80 digits all 775 points
    of that grid agree.
    """
    import mpmath

    with mpmath.workdps(60):
        return float(mpmath.log(mpmath.besselk(mpmath.mpf(nu), mpmath.mpf(x))))


def test_log_bessel_k_debye_range_matches_mpmath():
    got = specfun.log_bessel_k(DEBYE_ORDERS[:, None], DEBYE_ARGS[None, :])
    expected = np.array([[log_bessel_k_mp(nu, x) for x in DEBYE_ARGS] for nu in DEBYE_ORDERS])
    # |log K| reaches 3.7e3 here, where one ulp is 4.5e-13
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)


def test_log_bessel_k_low_orders_within_kve():
    # below the Debye orders log K comes from Temme's series or the Chebyshev
    # table and the upward recurrence, no longer from AMOS, so it matches
    # scipy's log kve to 1e-13 (measured 1.4e-14 here) and mpmath to 1e-12
    nu = np.array([0.0, 0.5, 1.0, 2.3, 7.5, 11.9])[:, None]
    x = np.array([1e-3, 0.3, 2.0, 25.0, 700.0])
    got = specfun.log_bessel_k(nu, x)
    np.testing.assert_allclose(got, np.log(special.kve(nu, x)) - x, rtol=0.0, atol=1e-13)
    for n, row in zip(nu[:, 0], got):
        for xi, value in zip(x, row):
            assert value == pytest.approx(log_bessel_k_mp(n, xi), rel=0.0, abs=1e-12)


def test_log_bessel_k_mixed_orders_match_each_route():
    # one call over orders on both sides of the threshold gives, element by
    # element, what a call with a single order gives
    nu = np.array([1.5, 11.0, specfun.DEBYE_MIN_ORDER, 40.0, 3.0, 130.0])
    x = np.array([[0.01], [1.0], [90.0]])
    mixed = specfun.log_bessel_k(nu, x)
    for j, n in enumerate(nu):
        np.testing.assert_allclose(mixed[:, j], specfun.log_bessel_k(n, x[:, 0]),
                                   rtol=1e-15, atol=0.0)
    assert float(specfun.log_bessel_k(130.0, 0.01)) == pytest.approx(
        log_bessel_k_mp(130.0, 0.01), rel=0.0, abs=1e-12)


def test_log_bessel_k_domain_errors():
    for nu, x in ((-1.0, 1.0), (20.0, 0.0), (3.0, -2.0)):
        with pytest.raises(ValueError, match="log_bessel_k"):
            specfun.log_bessel_k(nu, x)


def test_debye_polynomials_match_dlmf_rationals():
    # DLMF 10.41.10
    exact = [
        [1],
        [0, Fraction(3, 24), 0, Fraction(-5, 24)],
        [0, 0, Fraction(81, 1152), 0, Fraction(-462, 1152), 0, Fraction(385, 1152)],
        [0, 0, 0, Fraction(30375, 414720), 0, Fraction(-369603, 414720), 0,
         Fraction(765765, 414720), 0, Fraction(-425425, 414720)],
    ]
    table = specfun._debye_polynomials(4)
    for k, coeffs in enumerate(exact):
        expected = np.zeros(table.shape[1])
        expected[: len(coeffs)] = [float(c) for c in coeffs]
        np.testing.assert_allclose(table[k], expected, rtol=4e-16, atol=0.0)


# -- the numpy kernels against 60-digit mpmath, scipy as a second oracle

LOW_ORDERS = np.concatenate([np.linspace(0.0, 11.99, 13), [0.5, 1.5, 4.5, 11.5]])
LOW_ARGS = np.geomspace(1e-3, 1e3, 21)


def test_log_bessel_k_low_orders_match_mpmath():
    # Temme's series (x <= 1) or the Chebyshev table, then the upward
    # recurrence: measured within 8.9e-16 of max(1, |log K|) on a 61 x 61 grid
    got = specfun.log_bessel_k(LOW_ORDERS[:, None], LOW_ARGS)
    expected = np.array([[log_bessel_k_mp(nu, x) for x in LOW_ARGS] for nu in LOW_ORDERS])
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)
    assert np.all(np.abs(got - expected) <= 4e-15 * np.maximum(1.0, np.abs(expected)))
    scipy_log_k = np.log(special.kve(LOW_ORDERS[:, None], LOW_ARGS)) - LOW_ARGS
    assert np.all(np.abs(got - scipy_log_k) <= 1e-13 * np.maximum(1.0, np.abs(scipy_log_k)))


def test_log_bessel_k_low_orders_overflow_to_inf():
    # K_11.5 at a vanishing argument exceeds the float range, as kve did
    assert specfun.log_bessel_k(11.5, 1e-30) == np.inf


def test_scaled_bessel_k01_matches_mpmath():
    import mpmath

    x = np.geomspace(1e-3, 1e3, 41)
    k0, k1 = specfun.scaled_bessel_k_half_orders(x, 3)[::2]
    with mpmath.workdps(40):
        r0 = np.array([float(mpmath.besselk(0, v) * mpmath.exp(v)) for v in x])
        r1 = np.array([float(mpmath.besselk(1, v) * mpmath.exp(v)) for v in x])
    # measured 8.9e-16 and 1.4e-15; scipy's k0e and k1e 1.1e-15 and 7.8e-16
    np.testing.assert_allclose(k0, r0, rtol=3e-15, atol=0.0)
    np.testing.assert_allclose(k1, r1, rtol=3e-15, atol=0.0)
    np.testing.assert_allclose(k0, special.k0e(x), rtol=4e-15, atol=0.0)
    np.testing.assert_allclose(k1, special.k1e(x), rtol=4e-15, atol=0.0)
    with pytest.raises(ValueError, match="scaled_bessel_k_half_orders"):
        specfun.scaled_bessel_k_half_orders(np.array([1.0, 0.0]), 3)


def test_half_order_kve_matches_scipy():
    # the upward recurrence over every order the qn head reaches (m/2 for
    # m <= 7 * ELL_SWITCH - 2), measured within 9.0e-15 relative of kve
    x = np.geomspace(1e-3, 1e3, 61)
    count = 7 * ELL_SWITCH - 1
    expected = special.kve(np.arange(count)[:, None] / 2.0, x)
    assert np.isfinite(expected).all()
    np.testing.assert_allclose(specfun.scaled_bessel_k_half_orders(x, count), expected,
                               rtol=5e-14, atol=0.0)


def test_gaussian_q_matches_mpmath():
    import mpmath

    rng = np.random.default_rng(20261019)
    x = np.concatenate([rng.uniform(-8.0, 8.0, 200),
                        np.exp(rng.uniform(np.log(1e-4), np.log(specfun.Q_ZERO), 300)),
                        [0.0, 1.0, 37.5]])
    with mpmath.workdps(60):
        expected = np.array([float(mpmath.erfc(mpmath.mpf(v) / mpmath.sqrt(2)) / 2) for v in x])
    got = specfun.gaussian_q(x)
    normal = expected > 1e-300
    # the rounding of x^2/2 in e^(-x^2/2) costs (x^2/2) ulps, as in scipy's erfc;
    # measured 6.7e-16 (1 + x^2/2)
    rel = np.abs(got[normal] / expected[normal] - 1.0)
    assert np.all(rel <= 2e-15 * (1.0 + 0.5 * x[normal] ** 2))
    np.testing.assert_allclose(got[~normal], expected[~normal], rtol=0.0, atol=1e-300)
    scipy_q = 0.5 * special.erfc(x[normal] / math.sqrt(2.0))
    assert np.all(np.abs(got[normal] / scipy_q - 1.0) <= 4e-15 * (1.0 + 0.5 * x[normal] ** 2))
    # a scalar takes the array's route, bit for bit; past Q_ZERO every value is exactly 0
    assert specfun.gaussian_q(1.0) == got[-2]
    assert specfun.gaussian_q(-1.0) == 1.0 - got[-2]
    assert np.all(specfun.gaussian_q(np.array([specfun.Q_ZERO * 1.0001, 1e10, np.inf])) == 0.0)
    assert np.isnan(specfun.gaussian_q(np.array([np.nan, 1.0]))[0])


def test_erf_inv_matches_mpmath():
    import mpmath

    rng = np.random.default_rng(20261019)
    y = np.concatenate([rng.uniform(-1.0, 1.0, 200),
                        1.0 - np.exp(rng.uniform(np.log(2e-16), np.log(0.5), 200)),
                        [-(1.0 - 2.0 ** -53), 1e-300, -1e-9]])
    with mpmath.workdps(60):
        expected = np.array([float(mpmath.erfinv(mpmath.mpf(v))) for v in y])
    # measured 4.4e-16 relative; scipy's erfinv 2.2e-16
    np.testing.assert_allclose(specfun.erf_inv(y), expected, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(specfun.erf_inv(y), special.erfinv(y), rtol=1.5e-15, atol=0.0)


def test_log_gamma_matches_mpmath():
    import mpmath

    rng = np.random.default_rng(20261019)
    x = np.concatenate([np.exp(rng.uniform(np.log(1e-3), np.log(1e4), 300)),
                        rng.uniform(0.5, 3.0, 100), [1.0, 2.0, 9.999, 10.0, 10.001]])
    with mpmath.workdps(60):
        expected = np.array([float(mpmath.loggamma(mpmath.mpf(v))) for v in x])
    got = specfun.log_gamma(x)
    # Stirling at x + 10 minus the log of the shift's product loses a few ulps
    # of log Gamma(x + 10) below 10: measured 1.6e-14 at x = 9.3
    assert np.all(np.abs(got - expected) <= 2e-14 * np.maximum(1.0, np.abs(expected)))
    assert np.all(np.abs(got - special.gammaln(x)) <= 2e-14 * np.maximum(1.0, np.abs(expected)))
    with pytest.raises(ValueError, match="log_gamma"):
        specfun.log_gamma(np.array([1.0, 0.0]))


@lru_cache(maxsize=None)
def _refit(name: str) -> dict:
    module = next(m for m in fit_tables_script().MODULES if m.name == name)
    return module.fit()


@pytest.mark.parametrize("name", ["_erf_tables.py", "_bessel_k_table.py"], ids=lambda n: f"fit{n}")
def test_fit_table_scripts_match_frozen_tables(name):
    # each generated module's tables, refitted from mpmath, are the committed
    # ones to 1e-15 of a piece's or table's largest coefficient
    script = fit_tables_script()
    module = next(m for m in script.MODULES if m.name == name)
    assert script.drift(module, _refit(name)) <= script.DRIFT


def test_fit_tables_script_matches_frozen_tables(monkeypatch):
    # the script exits 0 on those refits and QN_COEFFS' own, and 1 once any
    # one table is off its committed copy
    script = fit_tables_script()
    modules = tuple(m._replace(fit=partial(_refit, m.name)) for m in script.MODULES)
    monkeypatch.setattr(script, "MODULES", modules)
    assert script.main([]) == 0
    for moved in modules:
        tables = {key: value * (1.0 + 1e-12) for key, value in _refit(moved.name).items()}
        monkeypatch.setattr(script, "MODULES", tuple(
            m._replace(fit=lambda: tables) if m is moved else m for m in modules))
        assert script.main([]) == 1, moved.name
    monkeypatch.setattr(script, "MODULES", modules)
    monkeypatch.setattr(script, "fit_qn", lambda: np.array(QN_COEFFS) + 1e-11)
    assert script.main([]) == 1


@pytest.mark.parametrize("name", ["_erf_tables", "_bessel_k_table"])
def test_module_writer_reproduces_the_generated_modules(name):
    # what --write would write for the committed tables is the committed
    # module, byte for byte: the header, constants and float reprs
    import importlib
    from pathlib import Path

    script = fit_tables_script()
    module = next(m for m in script.MODULES if m.name == f"{name}.py")
    committed = importlib.import_module(f"coexlink.{name}")
    tables = {key: np.array(value) for key, value in vars(committed).items()
              if key.endswith("_TABLE")}
    text = Path(committed.__file__).read_text(encoding="utf-8")
    assert script.module_text(module, tables) == text
