"""Independent reference routes shared by several test modules.

Each one computes by adaptive quadrature or a plain library call what
`coexlink` computes another way, so the tests that compare the two judge a
route with something that does not share its code.  Nothing in `coexlink`
imports this module.  Outside pytest, put this directory on `sys.path`
first (`scripts/run_iell_comparison.py` does).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

# exp argument beyond which exp(-v) underflows to exactly 0.0 in binary64;
# used to truncate integral representations safely.
_EXP_UNDERFLOW = 745.0


def success_prob_adaptive(modulation, snr: float, mean_inr: float, bits: int) -> float:
    """Fading average of (1 - ber)^bits by adaptive quadrature.

    The oracle of every window route, `success_prob_quadrature`'s fixed
    nodes included.  The fading power is mapped to u = g/(1+g) so the
    integral runs over a finite interval.  Inputs are not validated.
    """
    if bits == 0:
        return 1.0
    coeff, gain = modulation.coeff, modulation.gain
    base = gain * snr

    def integrand(u: float) -> float:
        if u >= 1.0:
            return 0.0
        g = u / (1.0 - u)
        if g == 0.0:
            q = 0.0 if snr > 0.0 else 0.5
        else:
            q = 0.5 * math.erfc(math.sqrt(base / g) / math.sqrt(2.0))
        expo = -g / mean_inr
        weight = math.exp(expo) if expo > -745.0 else 0.0
        return (1.0 - coeff * q) ** bits * weight / mean_inr / (1.0 - u) ** 2

    val, _ = integrate.quad(integrand, 0.0, 1.0, limit=400, epsabs=1e-14, epsrel=1e-12)
    return min(max(val, 0.0), 1.0)


def gamma_lower_reg(a, x):
    """Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a).

    Args:
        a: shape, strictly positive.
        x: evaluation point, nonnegative.

    Raises:
        ValueError: on a <= 0 or x < 0 (never returns silent NaN).
    """
    a_arr = np.asarray(a, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    if np.any(a_arr <= 0.0):
        raise ValueError("gamma_lower_reg requires a > 0")
    if np.any(x_arr < 0.0):
        raise ValueError("gamma_lower_reg requires x >= 0")
    return special.gammainc(a_arr, x_arr)


def gamma_lower_reg_quad(a: float, x: float) -> float:
    """P(a, x) by direct adaptive quadrature of t^(a-1) e^(-t) / Gamma(a).

    Independent cross-check for gamma_lower_reg. For a < 1 the substitution
    t = u^(1/a) removes the integrable endpoint singularity.
    """
    if a <= 0.0:
        raise ValueError("gamma_lower_reg_quad requires a > 0")
    if x < 0.0:
        raise ValueError("gamma_lower_reg_quad requires x >= 0")
    if x == 0.0:
        return 0.0
    log_gamma = special.gammaln(a)
    if a >= 1.0:
        val, _ = integrate.quad(
            lambda t: math.exp((a - 1.0) * math.log(t) - t - log_gamma) if t > 0 else 0.0,
            0.0,
            x,
            limit=400,
            epsabs=0.0,
            epsrel=1e-13,
        )
        return val
    # integral t^(a-1) e^-t dt = (1/a) integral e^(-u^(1/a)) du with u = t^a
    val, _ = integrate.quad(
        lambda u: math.exp(-u ** (1.0 / a) - log_gamma) / a,
        0.0,
        x**a,
        limit=400,
        epsabs=0.0,
        epsrel=1e-13,
    )
    return val


def bessel_k_integral(nu: float, x: float) -> float:
    """K_nu(x) by adaptive quadrature of its integral representation.

    K_nu(x) = integral_0^inf exp(-x cosh t) cosh(nu t) dt. Independent of
    scipy.special.kv, the route `coexlink.per` uses. The integrand is
    evaluated as a sum of two exponentials so large nu*t cannot overflow
    cosh before the damping term is applied.

    Accurate for moderate ranges (|nu| <= ~50, x in [1e-3, 600]); outside
    that the representation itself leaves binary64 range.
    """
    if x <= 0.0:
        raise ValueError("bessel_k_integral requires x > 0")
    a = abs(nu)

    def integrand(t: float) -> float:
        base = -x * math.cosh(t)
        up = base + a * t
        down = base - a * t
        term = math.exp(up) if up > -_EXP_UNDERFLOW else 0.0
        if down > -_EXP_UNDERFLOW:
            term += math.exp(down)
        return 0.5 * term

    # Truncate where the integrand has underflowed for good: x cosh t grows
    # like x e^t / 2 while the order term grows only linearly.
    t_hi = 1.0
    while x * math.cosh(t_hi) - a * t_hi < _EXP_UNDERFLOW + 50.0:
        t_hi += 0.5
        if t_hi > 800.0:
            break
    val, _ = integrate.quad(integrand, 0.0, t_hi, limit=400, epsabs=0.0, epsrel=1e-13)
    return val
