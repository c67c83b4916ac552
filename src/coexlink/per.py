"""Packet error rate of the observed link under Rayleigh-faded interference.

Bits that overlap a collision see an instantaneous signal-to-interference
ratio snr/g where g is the interferer's exponential fading power (mean
``mean_inr``); bits outside collisions are error-free in the
interference-limited model (optionally, `noise_bits` switches on a fixed
AWGN-only success probability for them).  Averaging the per-bit success
(1 - ber)^bits over the fading gives the expected success probability of a
bits-long collision window; combining those with the collision-time CDF of
`ctd` yields the PER:

    PER = 1 - sum_l success(l) * (F(l*bit_time) - F((l-1)*bit_time))

The sum stops at ell_max slots (`resolve_ell_max`), and the mass 1 - F
beyond them counts as errors.  Both routes read F from one `ctd.slot_tail`
of slots 0..ell_max, built once per INR sweep: the hybrid route takes the
increments from it, the quadrature route sums by parts against it, and the
ignored tail mass is its value at ell_max, not 1 - F formed by a
subtraction.  `per_curve` is the one PER front; one INR is a one-point sweep.

Two routes evaluate success(l) (`PerMethod`); `success_prob` reads one
window by either:
  * quadrature - the fading average on fixed nodes: a trapezoid rule in
    t = log g with step 0.05 over [log mean_inr - 40, log mean_inr + log 45]
    (877 nodes).  A single window sums q(g)^bits over the nodes; for the
    PER the slot sum is taken first and summed by parts against the
    collision-time tail, which is geometric times linear within each busy
    period (`ctd.slot_tail`), so each node costs one geometric and one
    arithmetic-geometric sum per busy period, for the whole INR sweep at
    once.  The tests check both against adaptive quadrature, and the PER
    against one Horner step per slot, to 1e-12; the adaptive integral is the
    oracle of the hybrid;
  * hybrid - a closed form (the qn head) up to ELL_SWITCH bits, and beyond
    them a Gumbel/Gamma match.  The closed form: an 8-term
    exponential-polynomial fit of the Gaussian Q-function turns the average
    into a finite sum of modified Bessel K terms: binomial order r of
    (1 - coeff*Q)^l needs the 7r+1 coefficients of the fit polynomial's
    r-th power (formed once, at import), and the per-order sums serve every
    l.  Their Bessel K have the orders |2 - j|/2, integer and half-integer,
    and all of them, for every r and INR, come from one upward recurrence
    started at scipy's k0e and k1e and at the elementary K_(1/2) and
    K_(3/2); the tests hold it within 2e-13 of per-order scipy kv calls.
    The Gumbel/Gamma match: the window success (1 - ber(x))^l, as a
    function of the linear SIR x = snr/g, is approximated by a Gumbel CDF
    in x whose location and scale come from erf_inv; that Gumbel is
    moment-matched to a Gamma law, whose fading average is a single Bessel
    K term, of the Gamma shape's order.  `specfun.log_bessel_k` gives its
    log: scipy's kve below order 12 (BPSK windows up to 243 bits) and the
    16-term Debye expansion from there on, within 1e-12 of log K, so long
    windows cannot overflow; the shape rises with the window, so the
    windows split into one block per method.  A non-finite term of either
    part raises FloatRangeError.  The match needs l*coeff > 2, so windows
    past ELL_SWITCH need (ELL_SWITCH + 1)*coeff > 2.
    Against quadrature for BPSK over snr 0-30 dB and mean_inr -10-20 dB
    (5 dB steps) its worst relative error is 0.0999, 0.0619, 0.0356 and
    0.0223 at l = 16, 32, 64 and 128; errors above 0.05 occur only at
    snr/mean_inr <= 0 dB, where the success probability is <= 0.24 and the
    absolute error <= 0.016.

`_success_table` alone decides which of the closed form and the Gumbel part
covers which window, for single windows and PER sweeps alike; it evaluates
only the windows it is given, so `success_prob` costs one window.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import special

from .ctd import SlotTail, coverage_point, slot_tail
from .dist import CoexistenceScenario
from .specfun import DEBYE_MIN_ORDER, erf_inv, gaussian_q, log_bessel_k

# Coefficients of the Q-function fit Q(x) ~ exp(-x^2/2) * sum_j b_j x^j on
# x >= 0, degree 7, b_0 pinned to Q(0) = 0.5.  Regenerate with
# scripts/fit_qn_table.py; max |fit - Q| is 8.5e-6 on [0, 8].
QN_COEFFS = (
    0.5,
    -0.39868966149686474,
    0.24761635363745924,
    -0.12493426015626176,
    0.04894655204803919,
    -0.013386193572306802,
    0.0021805904429288104,
    -0.0001550149131660018,
)

# The hybrid route takes windows up to this many bits from the closed form
# and longer ones from the Gumbel/Gamma match.  The closed form's cost is no
# limit (7r+1 terms per order), but past ~26 bits at 30 dB snr its order-r
# terms, which carry base^(7r/2), overflow to inf - inf, and its fit bias
# grows with the window (4.8e-6 at 12 bits, 9.5e-6 at 24, against quadrature).
ELL_SWITCH = 8

# Gumbel mean offset used by the moment match (Euler-Mascheroni, 4 places).
E0 = 0.5772

_LOG2 = math.log(2.0)


class PerMethod(Enum):
    QUADRATURE = "quadrature"
    HYBRID = "hybrid"


class GumbelDomainError(ValueError):
    """Raised when a hybrid window needs the Gumbel match at bits * coeff <= 2,
    outside the construction's domain."""


class FloatRangeError(ArithmeticError):
    """Raised when a route's terms overflow or turn NaN for the requested link."""


class NumericsWarning(UserWarning):
    """A result needed clamping by more than round-off."""


@dataclass(frozen=True)
class Modulation:
    """Bit error rate model ber(snr) = coeff * Q(sqrt(gain * snr)).

    Defaults are coherent BPSK (coeff 1, gain 2); QPSK per bit is the same
    curve.  ``coeff`` may not exceed 2 so ber stays within [0, 1].
    """

    coeff: float = 1.0
    gain: float = 2.0

    def __post_init__(self) -> None:
        if not (0.0 < self.coeff <= 2.0):
            raise ValueError("coeff must lie in (0, 2]")
        if not (math.isfinite(self.gain) and self.gain > 0.0):
            raise ValueError("gain must be finite and positive")


def ber_awgn(modulation: Modulation, snr: float):
    """Bit error rate without interference."""
    if np.any(np.asarray(snr) < 0.0):
        raise ValueError("snr must be nonnegative")
    return modulation.coeff * gaussian_q(np.sqrt(modulation.gain * np.asarray(snr, dtype=float)))


def _validate_snr(snr: float) -> None:
    if not (math.isfinite(snr) and snr >= 0.0):
        raise ValueError("snr must be finite and nonnegative")


def _validate_count(name: str, value: int, low: int) -> None:
    """Bit and slot counts are Python or NumPy integers; a float would split a slot."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


# Row r holds the 7r+1 coefficients of the fit polynomial's r-th power, which
# binomial order r of the closed form averages, zero-padded to a common width.
_QN_POWERS = np.array([
    np.pad(np.polynomial.polynomial.polypow(QN_COEFFS, r), (0, 7 * (ELL_SWITCH - r)))
    for r in range(ELL_SWITCH + 1)
])


def _half_order_kve(x: np.ndarray, count: int) -> np.ndarray:
    """Scaled Bessel K, e^x * K_(m/2)(x) for m = 0..count-1, on a new first axis.

    Integer orders start from k0e and k1e, half-integer ones from
    K_(1/2) = sqrt(pi / 2x) e^-x and K_(3/2) = K_(1/2) (1 + 1/x); both go up
    together by K_(nu+1) = K_(nu-1) + (2 nu / x) K_nu, which is stable upward.
    """
    pairs = -(-count // 2)
    # out[k, p] holds order k + p/2
    out = np.empty((pairs, 2) + x.shape)
    out[0, 0] = special.k0e(x)
    out[0, 1] = np.sqrt(0.5 * math.pi / x)
    out[1, 0] = special.k1e(x)
    out[1, 1] = out[0, 1] * (1.0 + 1.0 / x)
    two_nu = 2.0 * np.arange(1, pairs - 1)[:, None] + np.arange(2.0)
    ratio = two_nu.reshape(two_nu.shape + (1,) * x.ndim) / x
    for k in range(2, pairs):
        np.multiply(ratio[k - 2], out[k - 1], out=out[k])
        out[k] += out[k - 2]
    return out.reshape((2 * pairs,) + x.shape)[:count]


def _closed_form_table(modulation: Modulation, snr: float, mean_inr: np.ndarray,
                       windows: np.ndarray) -> np.ndarray:
    """Closed-form success(bits) for each of ``windows`` (at most ELL_SWITCH
    bits) at every mean INR, shape (mean_inr.size, windows.size).

    (1 - coeff*Q)^bits expands binomially into powers Q^r.  With the fit
    Q(x) ~ exp(-x^2/2) * sum_j b_j x^j, Q^r is exp(-r x^2/2) times the
    polynomial power of the b_j (7r+1 coefficients), and each of its terms
    averages over the fading to one power-weighted Bessel K of order
    |2 - j|/2.  Every K of every order r comes from one upward recurrence
    (`_half_order_kve`), and the per-order sums are formed once and shared by
    every window.  Values are clamped to [0, 1].
    """
    coeff, gain = modulation.coeff, modulation.gain
    windows = [int(w) for w in windows]
    top = max(windows, default=0)
    if snr == 0.0:
        # Q(0) = 1/2 regardless of fading.
        exact = [(1.0 - 0.5 * coeff) ** bits for bits in windows]
        return np.tile(exact, (mean_inr.size, 1))
    if top == 0:
        # Empty windows always succeed.
        return np.ones((mean_inr.size, len(windows)))
    base = gain * snr
    r = np.arange(1, top + 1)
    j = np.arange(7 * top + 1)
    delta = (2.0 - j) / 4.0
    inr = mean_inr[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        arg = np.sqrt(2.0 * r * base / mean_inr[:, None])
        bessel = _half_order_kve(arg, 7 * top - 1) * np.exp(-arg)
        # Axes (INR, order r, term j); order r has terms j <= 7r.
        terms = (
            _QN_POWERS[1 : top + 1, : 7 * top + 1]
            * 2.0 ** (1.0 - delta)
            * (r[:, None] * base * inr) ** delta
            * base ** (1.0 - 2.0 * delta)
            * np.moveaxis(bessel[np.abs(2 - j)], 0, -1)
            / inr
        )
    terms = terms[:, j <= 7 * r[:, None]]
    finite = np.isfinite(terms).all(axis=1)
    if not finite.all():
        raise FloatRangeError(
            f"closed-form (hybrid) success terms leave the float range at snr "
            f"{10.0 * math.log10(snr):.6g} dB, mean INR "
            f"{10.0 * math.log10(mean_inr[~finite][0]):.6g} dB; the hybrid route "
            "cannot evaluate this link, use the quadrature method "
            "(--method quadrature)"
        )
    # Order r's terms start at offset sum_(k<r) (7k+1) of each INR row.
    offsets = [0] + np.cumsum(7 * r + 1).tolist()
    orders = np.ones((mean_inr.size, top + 1))
    orders[:, 1:] = [
        [math.fsum(row[a:b]) for a, b in zip(offsets, offsets[1:])]
        for row in terms.tolist()
    ]
    table = np.empty((mean_inr.size, len(windows)))
    for col, bits in enumerate(windows):
        scale = [math.comb(bits, k) * (-coeff) ** k for k in range(bits + 1)]
        mix = orders[:, : bits + 1] * scale
        table[:, col] = [math.fsum(row) for row in mix.tolist()]
    # The fit bias allows overshoot of order 1e-5 near saturation; anything
    # beyond that means the expansion itself misbehaved.
    wild = ~((table >= -1e-4) & (table <= 1.0 + 1e-4))
    if np.any(wild):
        warnings.warn(
            f"closed-form success probabilities {table[wild]!r} clamped to [0, 1]",
            NumericsWarning,
            stacklevel=3,
        )
    return np.clip(table, 0.0, 1.0)


def _gumbel_gamma_array(modulation: Modulation, snr: float, mean_inr: np.ndarray,
                        bits: np.ndarray) -> np.ndarray:
    """Gumbel-Gamma success probabilities, shape (mean_inr.size, bits.size).

    `_success_table` checks the domain.
    """
    coeff, gain = modulation.coeff, modulation.gain
    bits = np.asarray(bits, dtype=float)
    loc = (2.0 / gain) * erf_inv(1.0 - 2.0 / (bits * coeff)) ** 2
    scale = (2.0 / gain) * erf_inv(1.0 - 2.0 / (bits * coeff * math.e)) ** 2 - loc
    shape = 6.0 * (loc + scale * E0) ** 2 / (math.pi**2 * scale**2)
    theta = (loc + scale * E0) / shape
    if snr == 0.0:
        # z -> 0 limit of the matched-Gamma average.
        return np.zeros((mean_inr.size, bits.size))
    z = snr / (mean_inr[:, None] * theta)
    root = 2.0 * np.sqrt(z)
    # The shape rises with the window, so ascending windows split into a kve
    # block and a Debye block; log_bessel_k takes each in one pass.
    split = int(np.searchsorted(shape, DEBYE_MIN_ORDER))
    log_k = np.empty_like(z)
    for cols in (slice(None, split), slice(split, None)):
        if shape[cols].size:
            log_k[:, cols] = log_bessel_k(shape[cols], root[:, cols])
    log_fail = _LOG2 - special.gammaln(shape) + 0.5 * shape * np.log(z) + log_k
    finite = np.isfinite(log_fail).all(axis=1)
    if not finite.all():
        raise FloatRangeError(
            f"Gumbel/Gamma (hybrid) success terms leave the float range at snr "
            f"{10.0 * math.log10(snr):.6g} dB, mean INR "
            f"{10.0 * math.log10(mean_inr[~finite][0]):.6g} dB; the hybrid route "
            "cannot evaluate this link, use the quadrature method "
            "(--method quadrature)"
        )
    return np.clip(-np.expm1(log_fail), 0.0, 1.0)


def _success_table(modulation: Modulation, snr: float, mean_inr: np.ndarray,
                   windows: np.ndarray) -> np.ndarray:
    """Hybrid success(l) for each of the ascending bit counts ``windows`` at
    every mean INR, shape (mean_inr.size, windows.size).

    The one place that decides which part covers which window: the closed
    form up to ELL_SWITCH and the Gumbel/Gamma match beyond, whose domain
    starts past 2 / coeff bits.
    """
    windows = np.asarray(windows)
    split = int(np.searchsorted(windows, ELL_SWITCH, side="right"))
    head = _closed_form_table(modulation, snr, mean_inr, windows[:split])
    if split == windows.size:
        return head
    if (ELL_SWITCH + 1) * modulation.coeff <= 2.0:
        raise GumbelDomainError(
            f"hybrid route cannot cover slot {ELL_SWITCH + 1}: its gumbel part needs "
            f"bits * coeff > 2, got coeff={modulation.coeff}; use the quadrature "
            "method, which covers every slot"
        )
    tail = _gumbel_gamma_array(modulation, snr, mean_inr, windows[split:])
    return np.hstack([head, tail])


def success_prob(modulation: Modulation, snr: float, mean_inr: float, bits: int,
                 method: PerMethod = PerMethod.HYBRID) -> float:
    """Success probability of a ``bits``-long collision window, by either route.

    The quadrature route sums q(g)^bits on the fixed nodes of the PER
    quadrature; the hybrid evaluates this window alone by `_success_table`.
    """
    _validate_snr(snr)
    if not (math.isfinite(mean_inr) and mean_inr > 0.0):
        raise ValueError("mean_inr must be finite and positive")
    _validate_count("bits", bits, 0)
    if bits == 0:
        return 1.0
    if method is PerMethod.QUADRATURE:
        q = _bit_success(modulation, snr, np.array([mean_inr]))[0]
        return min(max(math.fsum((q**bits * _FADE_WEIGHTS).tolist()), 0.0), 1.0)
    return float(_success_table(modulation, snr, np.array([mean_inr]), np.array([bits]))[0, 0])


def resolve_ell_max(scenario: CoexistenceScenario, tail_cut: float) -> int:
    """Fewest bit slots beyond which at most ``tail_cut`` of the collision time lies."""
    x_tail = coverage_point(scenario, tail_cut)
    ell = max(1, math.ceil(x_tail / scenario.bit_time))
    # ceil in floats can still land the top slot an ulp short of x_tail,
    # which matters when the coverage point sits on a CDF jump.
    while ell * scenario.bit_time < x_tail:
        ell += 1
    return ell


def _slot_weights(modulation: Modulation, snr: float, noise_bits: int | None,
                  ell_max: int) -> np.ndarray | None:
    """AWGN success factor per slot, or None in the interference-limited model."""
    if noise_bits is None:
        return None
    clear = 1.0 - float(ber_awgn(modulation, snr))
    exponents = np.maximum(noise_bits - np.arange(ell_max + 1), 0)
    return clear**exponents


# Fading average on fixed nodes in t = log(g / mean_inr), where the
# exponential fading density is exp(t - e^t) dt for every mean INR.  The
# integrand is smooth and decays double-exponentially, so the trapezoid rule
# converges geometrically in 1/step; [-40, log 45] leaves out < 1e-17 of mass.
_FADE_STEP = 0.05
_FADE_T = -40.0 + _FADE_STEP * np.arange(int((40.0 + math.log(45.0)) / _FADE_STEP) + 1)
_FADE_WEIGHTS = _FADE_STEP * np.exp(_FADE_T - np.exp(_FADE_T))
_FADE_WEIGHTS[[0, -1]] *= 0.5
_FADE_ROOT = np.exp(-0.5 * _FADE_T)


def _bit_failure(modulation: Modulation, snr: float, mean_inr: np.ndarray) -> np.ndarray:
    """Per-bit failure coeff * Q(sqrt(gain * snr / g)) on the fading nodes,
    shape (mean_inr.size, nodes)."""
    x = np.sqrt(modulation.gain * snr / mean_inr)[:, None] * _FADE_ROOT
    return modulation.coeff * gaussian_q(x)


def _bit_success(modulation: Modulation, snr: float, mean_inr: np.ndarray) -> np.ndarray:
    """Per-bit success q(g) = 1 - coeff * Q(sqrt(gain * snr / g)) on the fading
    nodes, shape (mean_inr.size, nodes)."""
    return 1.0 - _bit_failure(modulation, snr, mean_inr)


# Floor of log q and log clear: exp of anything below it is 0.0, and it keeps
# a failure probability of exactly 1 (coeff 2 at snr 0) from turning into
# 0 * inf in the sums below.
_LOG_FLOOR = -1000.0
# Below this n*|rho| the closed form of sum j*e^(j*rho) loses ~eps/(n*|rho|)
# to cancellation, so its Taylor series (terms (n*|rho|)^p / p!) takes over.
_SERIES_CUT = 0.05
_SERIES_TERMS = 12


def _ratio_sums(rho: np.ndarray, one_minus_y: np.ndarray,
                n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sum_{j<n} y^j, sum_{j<n} j*y^j, y^n) with y = e^rho, rho <= 0, elementwise.

    ``one_minus_y`` is -expm1(rho), shared by every n.
    """
    n_rho = n * rho
    y_n = np.exp(n_rho)
    one_minus_y_n = -np.expm1(n_rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        s0 = one_minus_y_n / one_minus_y
        # s0 - 1 = (y - y^n) / (1 - y), formed without cancelling at small y
        s1 = ((one_minus_y_n - one_minus_y) / one_minus_y - (n - 1) * y_n) / one_minus_y
    small = n_rho > -_SERIES_CUT
    if np.any(small):
        j = np.arange(n, dtype=float)
        powers = [math.fsum((j**p).tolist()) for p in range(_SERIES_TERMS + 2)]
        r = rho[small]
        s0[small] = n
        s1[small] = powers[1]
        term = np.ones_like(r)
        for p in range(1, _SERIES_TERMS + 1):
            term = term * r / p
            s0[small] += term * powers[p]
            s1[small] += term * powers[p + 1]
    return s0, s1, y_n


def _per_quadrature(modulation: Modulation, snr: float, noise_bits: int | None,
                    mean_inr: np.ndarray, tail: SlotTail, ell_max: int,
                    tail_mass: float) -> np.ndarray:
    """PER at every mean INR by the fading average on fixed nodes.

    At each node, a packet whose first l bits collide succeeds with
    u_l = clear^(N-l) * q^l below N = noise_bits and q^l from N on (q^l
    throughout without noise bits).  With G = 1 - F on the slot grid and
    L = ell_max, summation by parts turns sum_l (F_l - F_(l-1)) * u_l into

        PER = 1 - u_0 + G_L * u_L + sum_(l<L) G_l * (u_l - u_(l+1)),

    and u_l - u_(l+1) is (1 - q) * q^l from N on and
    (clear - q) * clear^(N-1-l) * q^l below it.  `slot_tail` gives G as
    exp(log_decay * l) times a linear function of l on each run of constant
    jump count, so a run (split at N) is one geometric and one
    arithmetic-geometric sum in the ratio y = e^log_decay * q, or
    y / clear below N.  Only a few run lengths occur, so each length's sums
    are formed once.  From N on y <= 1 and a running product carries y^m
    from run to run; below N the ratio can exceed 1, so each run is summed
    from whichever end its terms are largest at.  G_L is the ignored tail,
    which counts as errors.
    """
    fail = _bit_failure(modulation, snr, mean_inr)
    clear_fail = float(ber_awgn(modulation, snr))
    with np.errstate(divide="ignore"):
        log_q = np.maximum(np.log1p(-fail), _LOG_FLOOR)
        log_clear = max(float(np.log1p(-clear_fail)), _LOG_FLOOR)
    log_y = tail.log_decay + log_q
    n_bits = noise_bits or 0
    split = min(n_bits, ell_max)
    starts = tail.starts[tail.starts < ell_max]
    if 0 < split < ell_max:
        starts = np.union1d(starts, [split])
    runs = np.searchsorted(tail.starts, starts, side="right") - 1
    slopes = tail.slopes[runs]
    heads = tail.heads[runs] - slopes * (starts - tail.starts[runs])
    pieces = list(zip(starts.tolist(), np.diff(starts, append=ell_max).tolist(),
                      heads.tolist(), slopes.tolist()))
    below = int(np.searchsorted(starts, split))

    per = -np.expm1(n_bits * log_clear) + tail_mass * np.exp(
        max(n_bits - ell_max, 0) * log_clear + ell_max * log_q)

    one_minus_y = -np.expm1(log_y)
    sums = {}
    plain = np.zeros_like(fail)
    y_m = np.exp(split * log_y)
    for _, n, head, slope in pieces[below:]:
        if n not in sums:
            sums[n] = _ratio_sums(log_y, one_minus_y, n)
        s0, s1, y_n = sums[n]
        plain += y_m * (head * s0 - slope * s1)
        y_m *= y_n
    per += fail * plain

    if below:
        log_ratio = log_y - log_clear
        backward = log_ratio > 0.0
        rho = -np.abs(log_ratio)
        one_minus_z = -np.expm1(rho)
        sums = {}
        noisy = np.zeros_like(fail)
        for m, n, head, slope in pieces[:below]:
            if n not in sums:
                # Where the ratio exceeds 1 the run is summed from its last
                # slot back, so no partial power overflows.
                s0, s1, _ = _ratio_sums(rho, one_minus_z, n)
                sums[n] = (s0, np.where(backward, (n - 1) * s0 - s1, s1),
                           np.where(backward, (n - 1) * log_ratio, 0.0))
            s0, s1, shift = sums[n]
            log_start = (n_bits - 1 - m) * log_clear + m * log_y
            noisy += np.exp(log_start + shift) * (head * s0 - slope * s1)
        per += (fail - clear_fail) * noisy
    return np.array([math.fsum(row) for row in (per * _FADE_WEIGHTS).tolist()])


@dataclass(frozen=True)
class PerCurve:
    """PER swept over the mean INR, one value array per requested route."""

    scenario: CoexistenceScenario
    modulation: Modulation
    snr: float
    mean_inr: np.ndarray
    values: dict[str, np.ndarray]
    tail_mass: float
    ell_max: int


def per_curve(scenario: CoexistenceScenario, modulation: Modulation, snr: float,
              mean_inr_values, methods=(PerMethod.HYBRID,), *, ell_max: int | None = None,
              tail_cut: float = 1e-6, noise_bits: int | None = None) -> PerCurve:
    """PER over a mean INR sweep by each route in ``methods``; the ignored CDF
    tail counts as errors.

    ``snr`` and the mean INRs are linear ratios.  ``ell_max`` caps the number
    of bit slots the collision CDF is resolved into; when None it is sized so
    the ignored CDF tail is below ``tail_cut``.  ``noise_bits``, when set to
    the packet bit count, adds AWGN-only errors on the non-colliding bits.
    The collision-time tail does not depend on the INR and is built once.
    """
    grid = np.asarray(mean_inr_values, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("mean_inr_values must be a nonempty 1-d array")
    if not np.all(np.isfinite(grid) & (grid > 0.0)):
        raise ValueError("mean_inr_values must all be finite and positive")
    _validate_snr(snr)
    if ell_max is not None:
        _validate_count("ell_max", ell_max, 1)
    if not (0.0 < tail_cut < 1.0):
        raise ValueError("tail_cut must lie in (0, 1)")
    if noise_bits is not None:
        _validate_count("noise_bits", noise_bits, 0)
    slots = resolve_ell_max(scenario, tail_cut) if ell_max is None else int(ell_max)
    tail = slot_tail(scenario, slots + 1)
    tail_mass = float(tail.at(slots))
    values = {}
    for method in methods:
        if method is PerMethod.QUADRATURE:
            per = _per_quadrature(modulation, snr, noise_bits, grid, tail, slots, tail_mass)
        else:
            table = _success_table(modulation, snr, grid, np.arange(slots + 1))
            # Slot l holds F(l*bit_time) - F((l-1)*bit_time); slot 0 is the
            # no-collision atom F(0).
            increments = -np.diff(tail.at(np.arange(slots + 1)), prepend=1.0)
            weights = _slot_weights(modulation, snr, noise_bits, slots)
            if weights is not None:
                table = table * weights
            per = 1.0 - np.array([math.fsum(row) for row in (table * increments).tolist()])
        wild = ~((per >= -1e-4) & (per <= 1.0 + 1e-4))
        if np.any(wild):
            warnings.warn(f"PER {per[wild]!r} clamped to [0, 1]", NumericsWarning, stacklevel=2)
        values[method.value] = np.clip(per, 0.0, 1.0)
    return PerCurve(scenario, modulation, snr, grid, values, tail_mass, slots)
