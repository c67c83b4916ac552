"""Special functions shared by the collision-time and error-rate models.

Domain-checked fronts over scipy.special: the Gaussian tail Q(x), the
inverse error function and log K_nu(x), the logarithm of the modified Bessel
function of the second kind.  `log_bessel_k` takes orders below
DEBYE_MIN_ORDER from scipy's scaled Bessel K (AMOS) and larger orders from
the uniform asymptotic (Debye) expansion, within 1e-12 absolute of mpmath
over orders 12-300 and arguments 1e-3 to 1e3.  The independent routes that
cross-check these functions live in the tests.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

__all__ = ["gaussian_q", "erf_inv", "log_bessel_k"]

_SQRT2 = math.sqrt(2.0)

# log_bessel_k sums the Debye series from this order up, and calls kve below
# it.  Against 60-digit mpmath on a 25 x 31 log grid of orders 12-300 and
# arguments 1e-3 to 1e3, 16 terms stay within 4.5e-13 of log K (two ulps of
# |log K| = 1981) and within 4.1e-14 where |log K| < 50.  12 terms leave
# 8.8e-13 at log K = -4.6 (truncation), 20 terms gain nothing, and 24 terms
# leave 4.2e-13 where |log K| < 50 (their larger coefficients cancel).  Below
# order 12 the series is the weak part: at order 8, 16 terms leave 1.0e-11
# and 24 terms 2.5e-9, as the asymptotic series passes its smallest term.
DEBYE_MIN_ORDER = 12.0
DEBYE_TERMS = 16


def _debye_polynomials(terms: int) -> np.ndarray:
    """Coefficients of the Debye polynomials u_0..u_(terms-1) in p, shape
    (terms, 3 * (terms - 1) + 1); row k holds u_k, degree 3k.

    DLMF 10.41.9: u_0 = 1 and
    u_(k+1)(p) = p^2 (1 - p^2) u_k'(p) / 2 + (1/8) int_0^p (1 - 5 t^2) u_k(t) dt.
    """
    degree = 3 * (terms - 1)
    u = np.zeros((terms, degree + 1))
    u[0, 0] = 1.0
    j = np.arange(degree - 2, dtype=float)
    for k in range(1, terms):
        prev = u[k - 1, : degree - 2]
        u[k, 1 : degree - 1] += 0.5 * j * prev + prev / (8.0 * (j + 1.0))
        u[k, 3:] -= 0.5 * j * prev + 5.0 * prev / (8.0 * (j + 3.0))
    return u


_DEBYE_U = _debye_polynomials(DEBYE_TERMS)


def gaussian_q(x):
    """Gaussian tail probability Q(x) = Pr{N(0,1) > x} = erfc(x / sqrt(2)) / 2.

    Accepts scalars or arrays; defined for all real x.
    """
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / _SQRT2)


def erf_inv(y):
    """Inverse error function on the open interval (-1, 1).

    Raises:
        ValueError: if any |y| >= 1 (the inverse diverges at the endpoints).
    """
    arr = np.asarray(y, dtype=float)
    if np.any(np.abs(arr) >= 1.0):
        raise ValueError("erf_inv requires |y| < 1")
    return special.erfinv(arr)


def _log_bessel_k_debye(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log K_nu(x) by the DEBYE_TERMS-term Debye expansion (DLMF 10.41.4):

        K_nu(nu z) ~ sqrt(pi / (2 nu)) e^(-nu eta) (1 + z^2)^(-1/4)
                     * sum_k (-1)^k u_k(p) / nu^k,

    with p = 1 / sqrt(1 + z^2) and eta = sqrt(1 + z^2) + log(z / (1 + sqrt(1 + z^2))).
    The series is one polynomial in p whose coefficients depend on the order
    alone, so they are formed once per order and broadcast over ``x``.
    """
    powers = np.vander(-1.0 / nu.ravel(), DEBYE_TERMS, increasing=True).T
    shape = np.broadcast_shapes(nu.shape, x.shape)
    r = np.hypot(nu, x, out=np.empty(shape))
    p = np.divide(nu, r, out=np.empty(shape))
    # Horner in p; the coefficient of p^j is sum_k (-1)^k u_(k,j) / nu^k.
    out = np.empty(shape)
    out[...] = (_DEBYE_U[:, -1] @ powers).reshape(nu.shape)
    for column in _DEBYE_U.T[-2::-1]:
        out *= p
        out += (column @ powers).reshape(nu.shape)
    # log K = log(pi / (2 nu)) / 2 + log(p) / 2 - r - nu log(x / (nu + r)) + log(sum)
    # with r = nu / p = nu sqrt(1 + z^2), summed in that order in place
    np.log(p, out=p)
    p *= 0.5
    p += 0.5 * np.log(0.5 * math.pi / nu)
    p -= r
    r += nu
    np.divide(x, r, out=r)
    np.log(r, out=r)
    r *= nu
    p -= r
    np.log(out, out=out)
    out += p
    return out


def log_bessel_k(nu, x):
    """log K_nu(x) for orders nu >= 0 and arguments x > 0, broadcast together.

    Orders below DEBYE_MIN_ORDER take log(kve(nu, x)) - x; larger orders sum
    the Debye expansion in log space, which cannot overflow where K_nu(x)
    itself would.

    Raises:
        ValueError: if any nu < 0 or x <= 0.
    """
    nu = np.asarray(nu, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(nu < 0.0) or np.any(x <= 0.0):
        raise ValueError("log_bessel_k requires nu >= 0 and x > 0")
    low = nu < DEBYE_MIN_ORDER
    if not low.any():
        return _log_bessel_k_debye(nu, x)
    if low.all():
        out = np.empty(np.broadcast_shapes(nu.shape, x.shape))
    else:
        out = _log_bessel_k_debye(np.where(low, DEBYE_MIN_ORDER, nu), x)
    mask = np.broadcast_to(low, out.shape)
    x_low = np.broadcast_to(x, out.shape)[mask]
    out[mask] = np.log(special.kve(np.broadcast_to(nu, out.shape)[mask], x_low)) - x_low
    return out
