"""Special functions shared by the collision-time and error-rate models.

Domain-checked numpy kernels, with no scipy: the Gaussian tail Q(x), the
inverse error function, log Gamma, log K_nu(x) (the logarithm of the
modified Bessel function of the second kind) and the scaled K of every
half-integer order up to a count.

  * Q and erf_inv read piecewise polynomials (`_erf_tables`, refitted from
    mpmath by scripts/fit_erf_tables.py): Q(x) = e^(-x^2/2) h(y) with h
    tabulated in y = 2 / (2 + x/sqrt(2)), and erf_inv(y) = y g(s) with g
    tabulated in s = sqrt(-log(1 - y^2)).  Q keeps 7e-16 relative of
    mpmath times 1 + x^2/2, the rounding of x^2/2 in e^(-x^2/2), which
    scipy's erfc carries as well; erf_inv keeps 1e-15 relative.
  * log Gamma sums Stirling's series, shifted up by ten below 10.
  * log K_nu below DEBYE_MIN_ORDER runs the upward recurrence
    K_(nu+1) = K_(nu-1) + (2 nu / x) K_nu from K_mu and K_(mu+1), mu the
    order's distance to the nearest integer.  Those two come from Temme's
    series (Temme 1975, J. Comput. Phys. 19) at x <= 1 and, above, from a
    14 x 34 Chebyshev table of log(sqrt(x) e^x K_nu(x)) over orders 0-1.5
    (in nu^2) and s = 2/x - 1 (`_bessel_k_table`, refitted by
    scripts/fit_bessel_k_table.py).  Larger orders take the uniform
    asymptotic (Debye) expansion.  Against 60-digit mpmath over orders 0-300
    and arguments 1e-3 to 1e3, log K stays within 1e-12 absolute, and
    within 1e-15 of max(1, |log K|) below order 12.
  * The scaled half-integer orders run the same recurrence from log K's
    seeds at order 0 (K_0 and K_1) and from the elementary K_(1/2) and
    K_(3/2).

Every kernel is elementwise: a value does not depend on the other values of
the call.  The independent routes that cross-check these functions live in
the tests.
"""

from __future__ import annotations

import math

import numpy as np

from . import _bessel_k_table, _erf_tables

__all__ = ["gaussian_q", "erf_inv", "log_gamma", "log_bessel_k",
           "scaled_bessel_k_half_orders"]

_SQRT_HALF = math.sqrt(0.5)

# log_bessel_k sums the Debye series from this order up, and recurs from
# orders mu and mu + 1, |mu| <= 1/2, below it.  Against 60-digit mpmath on a
# 25 x 31 log grid of orders 12-300 and arguments 1e-3 to 1e3, 16 terms stay
# within 4.5e-13 of log K (two ulps of |log K| = 1981) and within 4.1e-14
# where |log K| < 50.  12 terms leave 8.8e-13 at log K = -4.6 (truncation),
# 20 terms gain nothing, and 24 terms leave 4.2e-13 where |log K| < 50 (their
# larger coefficients cancel).  Below order 12 the series is the weak part:
# at order 8, 16 terms leave 1.0e-11 and 24 terms 2.5e-9, as the asymptotic
# series passes its smallest term.
DEBYE_MIN_ORDER = 12.0
DEBYE_TERMS = 16


def _horner_pieces(powers, pieces: int, z, rows=None):
    """Piecewise polynomial at ``z``, counted in pieces: piece k covers
    [k, k + 1), and the end pieces extend beyond the ends.

    ``powers`` yields one flat coefficient array per power of
    u = z - k - 1/2, highest first; entry r * pieces + k belongs to piece k of
    table r, and ``rows`` gives each point's table r (default 0; broadcast
    against z, it may add leading axes).  One coefficient per point is
    gathered at a time, so no points x (degree + 1) array is held.
    """
    k = np.floor(z, out=np.empty(np.shape(z)))
    np.minimum(k, pieces - 1, out=k)
    np.maximum(k, 0.0, out=k)
    u = z - k
    u -= 0.5
    if rows is not None:
        k = k + rows * pieces
    with np.errstate(invalid="ignore"):
        k = k.astype(np.intp)  # a NaN gives a wild index, which "clip" takes in
    powers = iter(powers)
    out = next(powers).take(k, mode="clip")
    for coef in powers:
        out *= u
        out += coef.take(k, mode="clip")
    return out


def _pieces(table) -> tuple[np.ndarray, int]:
    """A generated (pieces, degree + 1) table as (powers, pieces)."""
    table = np.array(table, dtype=float)
    return np.ascontiguousarray(table.T), table.shape[0]


_ERFC = _pieces(_erf_tables.ERFC_TABLE)
# piece coordinate of t: z = 2 A / (t + 2) - B, A and B the map of y in [y_min, 1]
_ERFC_A = _ERFC[1] / (1.0 - _erf_tables.ERFC_Y_MIN)
_ERFC_B = _ERFC_A * _erf_tables.ERFC_Y_MIN
_ERF_INV = _pieces(_erf_tables.ERF_INV_TABLE)
_ERF_INV_Z_PER_S = _ERF_INV[1] / _erf_tables.ERF_INV_S_MAX
# e^(-t^2) is 0.0 from t^2 = 745.14 on; Q(x) is 0.0 for x > Q_ZERO
_T2_ZERO = 746.0
Q_ZERO = math.sqrt(2.0 * _T2_ZERO)


def gaussian_q(x):
    """Gaussian tail probability Q(x) = Pr{N(0,1) > x} = erfc(x / sqrt(2)) / 2.

    Accepts scalars or arrays; defined for all real x.  Exactly 0.0 past
    Q_ZERO, where e^(-x^2/2) underflows; only the other values are evaluated.
    """
    x = np.asarray(x, dtype=float)
    t = x * _SQRT_HALF
    negative = t < 0.0
    if negative.any():
        t = np.abs(t)
    t2 = t * t
    live = ~(t2 >= _T2_ZERO)  # NaN stays live, so it propagates
    if live.all():
        q = _erfc_scaled(t)
        q *= np.exp(-t2)
    else:
        q = np.zeros(x.shape)
        q[live] = _erfc_scaled(t[live]) * np.exp(-t2[live])
    if negative.any():
        q = np.where(negative, 1.0 - q, q)
    return q if x.ndim else q[()]


def _erfc_scaled(t):
    """erfc(t) e^(t^2) / 2 for t >= 0, from the piecewise table in y = 2 / (2 + t)."""
    z = _erf_tables.ERFC_SCALE * _ERFC_A / (t + _erf_tables.ERFC_SCALE)
    z -= _ERFC_B
    return _horner_pieces(*_ERFC, z)


def erf_inv(y):
    """Inverse error function on the open interval (-1, 1).

    Raises:
        ValueError: if any |y| >= 1 (the inverse diverges at the endpoints).
    """
    arr = np.asarray(y, dtype=float)
    w = (1.0 - arr) * (1.0 + arr)
    if (w <= 0.0).any():
        raise ValueError("erf_inv requires |y| < 1")
    s = np.sqrt(-np.log(w))
    s *= _ERF_INV_Z_PER_S
    return arr * _horner_pieces(*_ERF_INV, s)


# Stirling's series sum_k B_2k / (2k (2k - 1) z^(2k - 1)), k = 1..8: at
# z >= 10 its first omitted term is below 3e-17.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_STIRLING_MIN = 10.0


def log_gamma(x):
    """log Gamma(x) for x > 0, within 2e-14 of max(1, |log Gamma|).

    Stirling's series at z = x, or at z = x + 10 below 10, where the log of
    x (x + 1) ... (x + 9) is taken off again.

    Raises:
        ValueError: if any x <= 0.
    """
    x = np.asarray(x, dtype=float)
    if (x <= 0.0).any():
        raise ValueError("log_gamma requires x > 0")
    small = x < _STIRLING_MIN
    shift = bool(small.any())
    z = np.where(small, x + _STIRLING_MIN, x) if shift else x
    r = 1.0 / z
    r2 = r * r
    series = _STIRLING[-1] * r2
    for c in _STIRLING[-2:0:-1]:
        series += c
        series *= r2
    series += _STIRLING[0]
    series *= r
    out = (z - 0.5) * np.log(z)
    out -= z
    out += series
    out += _HALF_LOG_2PI
    if shift:
        # x (x + 1) ... (x + 9) as u (u + 8) (u + 14) (u + 18) (u + 20), u = x (x + 9)
        u = x * (x + 9.0)
        product = u * (u + 8.0)
        for c in (14.0, 18.0, 20.0):
            product *= u + c
        out -= np.log(np.where(small, product, 1.0))
    return out


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


def _log_bessel_k_debye(nu: np.ndarray, x: np.ndarray, work=None) -> np.ndarray:
    """log K_nu(x) by the DEBYE_TERMS-term Debye expansion (DLMF 10.41.4):

        K_nu(nu z) ~ sqrt(pi / (2 nu)) e^(-nu eta) (1 + z^2)^(-1/4)
                     * sum_k (-1)^k u_k(p) / nu^k,

    with p = 1 / sqrt(1 + z^2) and eta = sqrt(1 + z^2) + log(z / (1 + sqrt(1 + z^2))).
    The series is one polynomial in p whose coefficients depend on the order
    alone, so they are formed once per order and broadcast over ``x``.
    ``work`` is as for `log_bessel_k`.
    """
    powers = np.vander(-1.0 / nu.ravel(), DEBYE_TERMS, increasing=True).T
    shape = np.broadcast_shapes(nu.shape, x.shape)
    r, p, out = (np.empty(shape) for _ in range(3)) if work is None else work
    np.hypot(nu, x, out=r)
    np.divide(nu, r, out=p)
    # Horner in p; the coefficient of p^j is sum_k (-1)^k u_(k,j) / nu^k.
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


# K_mu and K_(mu+1), |mu| <= 1/2, from the table above _BK_X_MIN.  Per order
# the table's Chebyshev series in s = 2/x - 1 is re-expanded on _BK_PIECES
# equal pieces of s into polynomials of degree _BK_DEGREE (interpolation at
# Chebyshev nodes of the piece, whose first dropped coefficient is below
# 1e-15), so a point costs a gather and a multiply-add per power and order
# instead of 34 Clenshaw steps.  Temme's series covers x <= _BK_X_MIN in _TEMME_TERMS powers of
# x^2/4 (first omitted term below 1e-19 there).  Temme at x up to 2, as the
# table's first fit had it, lost 4e-14 of K_0(2) to cancellation.
_BK_TABLE = np.array(_bessel_k_table.BESSEL_K_TABLE)
_BK_X_MIN = _bessel_k_table.X_MIN
_BK_ORDER_MAX = _bessel_k_table.ORDER_MAX
_BK_PIECES = 16
_BK_DEGREE = 8
_TEMME_GAMMA = np.array(_bessel_k_table.TEMME_GAMMA_TABLE)
_TEMME_TERMS = 10


def _piece_table() -> np.ndarray:
    """The table's series in s re-expanded on the pieces, shape
    (order-series terms, pieces * (degree + 1)): per row of the table, each
    piece's interpolant at its degree + 1 Chebyshev nodes in powers of
    u = (s - centre) / width, highest first.

    The values at the nodes go to the piece's own Chebyshev coefficients and
    only then to powers of u; the product of the two maps has entries of order
    1e4 that cancel, and applied in one step lost 1e-14 at the pieces' ends.
    """
    n = _BK_DEGREE + 1
    k = np.arange(n)
    v = np.cos(np.pi * (k + 0.5) / n)
    width = 2.0 / _BK_PIECES
    nodes = (-1.0 + width * (np.arange(_BK_PIECES)[:, None] + 0.5) + 0.5 * width * v).ravel()
    values = _BK_TABLE @ np.polynomial.chebyshev.chebvander(nodes, _BK_TABLE.shape[1] - 1).T
    to_chebyshev = np.cos(np.pi * np.outer(k, k + 0.5) / n) * (2.0 / n)
    to_chebyshev[0] *= 0.5
    # row j: T_j(v) in powers of v, lowest first (T_(j+1) = 2 v T_j - T_(j-1)),
    # then with v = 2u, highest power first
    powers = np.eye(n)
    for j in range(2, n):
        powers[j] = np.roll(2.0 * powers[j - 1], 1) - powers[j - 2]
    to_powers = (powers.T * 2.0 ** k[:, None])[::-1]
    local = values.reshape(-1, n) @ to_chebyshev.T
    # laid out (power, term, piece): one (term, piece) matrix per power of u
    local = (local @ to_powers.T).reshape(_BK_TABLE.shape[0], _BK_PIECES, n)
    return np.ascontiguousarray(local.transpose(2, 0, 1))


_BK_PIECE_TABLE = _piece_table()
_TEMME_I = np.arange(_TEMME_TERMS, dtype=float)[:, None]
_TEMME_INV_FACTORIAL = np.array([1.0 / math.factorial(i) for i in range(_TEMME_TERMS)])[:, None]


def _table_columns(mu: np.ndarray):
    """Piecewise coefficients of log(sqrt(x) e^x K) for the orders |mu|
    (tables 0..mu.size-1) and mu + 1 (the next mu.size) of each 1-d ``mu``,
    one power at a time, as `_horner_pieces` reads them: 2 mu.size x pieces
    floats at once, however many powers."""
    orders = np.concatenate([np.abs(mu), mu + 1.0])
    series = np.polynomial.chebyshev.chebvander(2.0 * (orders / _BK_ORDER_MAX) ** 2 - 1.0,
                                                _BK_TABLE.shape[0] - 1)
    return ((series @ power).ravel() for power in _BK_PIECE_TABLE)


def _temme_columns(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-order data of Temme's series for each 1-d ``mu``: six power series
    in d = x^2/4, shape (_TEMME_TERMS, 6, mu.size), highest power first, and
    the rows mu, fact Gamma_1, fact Gamma_2, 1/(2 Gamma(1 + mu)) and
    1/(2 Gamma(1 - mu)), fact = pi mu / sin(pi mu).

    Temme's recursion f_i = (i f_(i-1) + p_(i-1) + q_(i-1)) / (i^2 - mu^2),
    p_i = p_(i-1) / (i - mu), q_i = q_(i-1) / (i + mu) is linear in f_0, p_0
    and q_0, the only parts that depend on x, so
    K_mu = sum_i d^i f_i / i! = f_0 A + p_0 B + q_0 C and
    (x/2) K_(mu+1) = sum_i d^i (p_i - i f_i) / i! = p_0 B1 - f_0 A1 - q_0 C1,
    whose coefficients depend on mu alone.
    """
    i = _TEMME_I[1:]
    den = 1.0 / (i * i - mu * mu)
    ones = np.ones((1, mu.size))
    p = np.cumprod(np.concatenate([ones, 1.0 / (i - mu)]), axis=0)
    q = np.cumprod(np.concatenate([ones, 1.0 / (i + mu)]), axis=0)
    a = np.cumprod(np.concatenate([ones, i * den]), axis=0)
    zero = np.zeros((1, mu.size))
    # b_i = (i b_(i-1) + p_(i-1)) / (i^2 - mu^2) = a_i sum_(j<=i) p_(j-1) / ((j^2 - mu^2) a_j)
    b = a * np.cumsum(np.concatenate([zero, p[:-1] * den / a[1:]]), axis=0)
    c = a * np.cumsum(np.concatenate([zero, q[:-1] * den / a[1:]]), axis=0)
    series = np.stack([a, b, c, p - _TEMME_I * b, _TEMME_I * a, _TEMME_I * c], axis=1)
    series *= _TEMME_INV_FACTORIAL[:, None]
    g1, g2 = np.polynomial.chebyshev.chebval(8.0 * mu * mu - 1.0, _TEMME_GAMMA.T)
    fact = np.ones_like(mu)
    nonzero = mu != 0.0
    fact[nonzero] = math.pi * mu[nonzero] / np.sin(math.pi * mu[nonzero])
    scalars = np.array([mu, fact * g1, fact * g2, 0.5 / (g2 - mu * g1), 0.5 / (g2 + mu * g1)])
    return series[::-1], scalars


def _temme(columns: tuple[np.ndarray, np.ndarray], slot: np.ndarray, x: np.ndarray):
    """(K_mu(x), K_(mu+1)(x)) at 0 < x <= _BK_X_MIN, the order of each point
    column ``slot`` of `_temme_columns` (NR 6.7, `bessik`)."""
    series, scalars = columns
    mu, fact_g1, fact_g2, half_gampl, half_gammi = scalars.take(slot, axis=1)
    log_2_x = np.log(2.0 / x)
    e = mu * log_2_x
    sinh_ratio = np.divide(np.sinh(e), e, out=np.ones_like(e), where=e != 0.0)
    f0 = fact_g1 * np.cosh(e)
    f0 += fact_g2 * sinh_ratio * log_2_x
    exp_e = np.exp(e)
    p0 = half_gampl * exp_e
    q0 = half_gammi / exp_e
    d = 0.25 * x * x
    acc = series[0].take(slot, axis=1)
    for power in series[1:]:
        acc *= d
        acc += power.take(slot, axis=1)
    k_mu = f0 * acc[0] + p0 * acc[1] + q0 * acc[2]
    k_mu1 = p0 * acc[3] - f0 * acc[4] - q0 * acc[5]
    k_mu1 *= 2.0 / x
    return k_mu, k_mu1


def _k_mu_pair(seeds: tuple, slot: np.ndarray, x: np.ndarray):
    """K_mu(x) and K_(mu+1)(x) for the 1-d orders mu at each point, whose
    order is mu[slot].  ``seeds`` is (mu, table data, Temme data), the data
    of the two routes as `_table_columns` and `_temme_columns` give them, or
    None to form them here from mu, only for a route some point takes.
    Points past _BK_X_MIN (the mask returned third) carry the factor
    sqrt(x) e^x."""
    mu, table_columns, temme_columns = seeds
    table = x > _BK_X_MIN
    some, every = table.any(), table.all()
    k_mu, k_mu1 = np.empty(x.shape), np.empty(x.shape)
    if some:
        at = ... if every else table
        xt = x[at]
        rows = np.stack([slot[at], slot[at] + mu.size])
        if table_columns is None:
            table_columns = _table_columns(mu)
        log_g = _horner_pieces(table_columns, _BK_PIECES, (2.0 / xt) * (_BK_PIECES / 2.0), rows)
        np.exp(log_g, out=log_g)
        k_mu[at], k_mu1[at] = log_g
    if not every:
        at = ~table if some else ...
        if temme_columns is None:
            temme_columns = _temme_columns(mu)
        k_mu[at], k_mu1[at] = _temme(temme_columns, slot[at], x[at])
    return k_mu, k_mu1, table


def _recur_up(mu, x, k_mu: np.ndarray, k_mu1: np.ndarray, out: np.ndarray) -> None:
    """K_(mu+k+1)(x) into out[k-1] for k = 1..len(out), from K_mu and
    K_(mu+1), by K_(mu+k+1) = K_(mu+k-1) + (2 (mu + k) / x) K_(mu+k), which is
    stable upward; a factor common to both seeds carries through."""
    k = np.arange(1, len(out) + 1).reshape((-1,) + (1,) * (out.ndim - 1))
    np.divide(2.0 * (mu + k), x, out=out)
    prev, cur = k_mu, k_mu1
    for step in range(len(out)):
        nxt = out[step, ...]  # a view, also where out is 1-d
        nxt *= cur
        nxt += prev
        prev, cur = cur, nxt


def _log_bessel_k_low(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log K_nu(x) for 0 <= nu < DEBYE_MIN_ORDER, broadcast together."""
    shape = np.broadcast_shapes(nu.shape, x.shape)
    orders, slot = np.unique(nu, return_inverse=True)
    xb = np.broadcast_to(x, shape)
    slot = np.broadcast_to(slot.reshape(nu.shape), shape)
    steps = np.rint(nu)
    # higher[k - 2] holds K_(mu+k) for k = 2 up to the highest order; an
    # order whose K exceeds the float range at a vanishing x gives inf
    with np.errstate(over="ignore", invalid="ignore"):
        k_mu, k_mu1, table = _k_mu_pair((orders - np.rint(orders), None, None), slot, xb)
        higher = np.empty((max(int(steps.max()) - 1, 0),) + shape)
        _recur_up(nu - steps, xb, k_mu, k_mu1, higher)
        out = np.where(steps == 0.0, k_mu, k_mu1) if steps.min() == 0.0 else k_mu1
        for k, k_nu in enumerate(higher, start=2):
            np.copyto(out, k_nu, where=steps == k)
        out = np.log(out)
    if table.any():
        scale = 0.5 * np.log(xb)
        out -= np.where(table, scale, 0.0)
        out -= np.where(table, xb, 0.0)
    return out


def log_bessel_k(nu, x, work=None):
    """log K_nu(x) for orders nu >= 0 and arguments x > 0, broadcast together.

    Orders below DEBYE_MIN_ORDER recur upward from Temme's series or the
    Chebyshev table; larger orders sum the Debye expansion in log space.
    Neither overflows where K_nu(x) itself would, except a low order at a
    vanishing argument, which gives inf.  ``work``, if given, is a
    (3,) + broadcast-shape float array the Debye expansion computes in instead
    of allocating three arrays; the result may then be its last row.

    Raises:
        ValueError: if any nu < 0 or x <= 0.
    """
    nu = np.asarray(nu, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(nu < 0.0) or np.any(x <= 0.0):
        raise ValueError("log_bessel_k requires nu >= 0 and x > 0")
    low = nu < DEBYE_MIN_ORDER
    if not low.any():
        return _log_bessel_k_debye(nu, x, work)
    if low.all():
        return _log_bessel_k_low(nu, x)
    out = _log_bessel_k_debye(np.where(low, DEBYE_MIN_ORDER, nu), x, work)
    mask = np.broadcast_to(low, out.shape)
    out[mask] = _log_bessel_k_low(np.broadcast_to(nu, out.shape)[mask],
                                  np.broadcast_to(x, out.shape)[mask])
    return out


# the seeds of scaled_bessel_k_half_orders, K_0 and K_1: order 0 and its
# data on both routes, formed once
_ORDER_0 = (np.zeros(1), list(_table_columns(np.zeros(1))), _temme_columns(np.zeros(1)))


def scaled_bessel_k_half_orders(x, count: int) -> np.ndarray:
    """e^x K_(m/2)(x) for m = 0..count-1 on a new first axis, for x > 0.

    K_0 and K_1 come from Temme's series or the Chebyshev table, as
    `log_bessel_k`'s seeds do; K_(1/2) = sqrt(pi / 2x) e^-x and
    K_(3/2) = K_(1/2) (1 + 1/x) are elementary.  Both pairs go up together by
    `log_bessel_k`'s upward recurrence.

    Raises:
        ValueError: if any x <= 0.
    """
    x = np.asarray(x, dtype=float)
    if (x <= 0.0).any():
        raise ValueError("scaled_bessel_k_half_orders requires x > 0")
    pairs = max(-(-count // 2), 2)
    # out[k, p] holds order k + p/2
    out = np.empty((pairs, 2) + x.shape)
    k0, k1, table = _k_mu_pair(_ORDER_0, np.zeros(x.shape, dtype=np.intp), x)
    # table points carry sqrt(x) e^x, Temme points (x <= 1) no factor
    scale = np.where(table, 1.0 / np.sqrt(x), np.exp(np.minimum(x, _BK_X_MIN)))
    out[0, 0], out[1, 0] = k0 * scale, k1 * scale
    out[0, 1] = np.sqrt(0.5 * math.pi / x)
    out[1, 1] = out[0, 1] * (1.0 + 1.0 / x)
    mu = np.array([0.0, 0.5]).reshape((2,) + (1,) * x.ndim)
    _recur_up(mu, x, out[0], out[1], out[2:])
    return out.reshape((2 * pairs,) + x.shape)[:count]
