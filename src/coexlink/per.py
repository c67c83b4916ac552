"""Packet error rate of the observed link under Rayleigh-faded interference.

Bits that overlap a collision see an instantaneous signal-to-interference
ratio snr/g where g is the interferer's exponential fading power (mean
``mean_inr``); bits outside collisions are error-free in the
interference-limited model (optionally, `noise_bits` switches on a fixed
AWGN-only success probability for them).  Averaging the per-bit success
(1 - ber)^bits over the fading gives the expected success probability of a
bits-long collision window; combining those with the collision-time CDF of
`ctd` yields the PER:

    PER = sum_l (1 - success(l)) * (F(l*bit_time) - F((l-1)*bit_time))
          + 1 - F(ell_max*bit_time)

The sum stops at ell_max slots, and the mass 1 - F beyond them counts as
errors; both routes form the PER as this sum of failures, so a small PER
keeps its relative precision.  Both routes read F from one `ctd.slot_tail`
of slots 0..ell_max, built once per INR sweep from the busy-period
boundaries (O(runs), not
O(slots)): the hybrid route takes the increments from it, the quadrature
route sums by parts against it, and the ignored tail mass is its value at
ell_max, not 1 - F formed by a subtraction.  Unless given, ell_max is read
off the same tail (`resolve_ell_max`): the first slot whose tail is at most
tail_cut, so the reported tail mass never exceeds the cut.
`per_curve` is the one PER front; one INR is a one-point sweep.  A sweep's
memory does not grow with ell_max: beyond the tail's runs it holds a few
INR x node and INR x HYBRID_BLOCK arrays and one float per INR, since the
hybrid sums its slots HYBRID_BLOCK windows at a time into one running sum
per INR (`_per_hybrid`, whose Gumbel part computes in arrays allocated once
per sweep).  The hybrid's time still grows with ell_max, one Bessel K per
window and INR (about 3 us per window at 17 INRs; README has the
measurements).

Precision contract: every sum of nonnegative terms (the fading average on
the nodes, the hybrid's slot sum) is one numpy reduction, a pairwise sum,
within 5.0e-16 relative (4 ulps) of the correctly rounded sum on the
presets; the tests hold it to 1e-15.  Only the closed form's
fit-polynomial and binomial terms, which cancel, are summed by math.fsum.

Two routes evaluate success(l) (`PerMethod`); `success_prob` reads one
window by either:
  * quadrature - the fading average on fixed nodes: a trapezoid rule in
    t = log g with step 0.05 over [log mean_inr - 40, log mean_inr + log 45]
    (877 nodes).  On the first nodes (deep fades) no bit can fail at any
    INR: Q underflows to 0, on 577 of them at snr 10 dB and INR -10..30 dB.
    The PER works on the failing band, where some INR's bit can fail, and
    the all-zero node before it (`_failing_band`); that node's value
    repeats over the skipped nodes, so every per-node PER is bitwise that
    of working on every node, and `per_curve` sums the weighted per-node
    values of each INR in one reduction.  A single window sums q(g)^bits over
    every node; for the PER the slot sum is
    taken first and summed by parts against the collision-time tail, which
    is geometric times linear within each busy period (`ctd.slot_tail`), so
    each node costs one geometric and one arithmetic-geometric sum per busy
    period, for the whole INR sweep at once.  The tests check both against adaptive quadrature, and the PER
    against one Horner step per slot, to 1e-12, at 4 us bits (at most 2,687
    slots); the fixed step drifts as the slot count grows (README gives its
    error up to 2.2e10 slots).  The adaptive integral is the oracle of the
    hybrid;
  * hybrid - a closed form (the qn head) up to ELL_SWITCH bits, and beyond
    them a Gumbel/Gamma match.  The closed form: an 8-term
    exponential-polynomial fit of the Gaussian Q-function turns the average
    into a finite sum of modified Bessel K terms: binomial order r of
    (1 - coeff*Q)^l needs the 7r+1 coefficients of the fit polynomial's
    r-th power (formed once, at import), and the per-order sums serve every
    l.  Their Bessel K have the orders |2 - j|/2, integer and half-integer,
    and all of them, for every r and INR, come from one call of
    `specfun.scaled_bessel_k_half_orders` (an upward recurrence from K_0,
    K_1 and the elementary K_(1/2) and K_(3/2)); the tests hold the closed
    form within 2e-13 of per-order scipy kv calls.
    A window's failure is the fsum of its binomial terms past the first.
    The Gumbel/Gamma match: the window success (1 - ber(x))^l, as a
    function of the linear SIR x = snr/g, is approximated by a Gumbel CDF
    in x whose location and scale come from erf_inv; that Gumbel is
    moment-matched to a Gamma law, whose fading average is a single Bessel
    K term, of the Gamma shape's order, over Gamma(shape) (`log_gamma`).
    `specfun.log_bessel_k` gives its log: Temme's series or a Chebyshev
    table and the upward recurrence below order 12 (BPSK windows up to 243
    bits) and the 16-term Debye expansion from there on, within 1e-12 of
    log K, so long windows cannot overflow; the shape rises with the
    window, so the windows split into one block per method.  The failure
    is the exp of the log.  A non-finite term of either
    part raises FloatRangeError.  The match needs l*coeff > 2, so windows
    past ELL_SWITCH need (ELL_SWITCH + 1)*coeff > 2.
    Against quadrature for BPSK over snr 0-30 dB and mean_inr -10-20 dB
    (5 dB steps) its worst relative error is 0.0999, 0.0619, 0.0356 and
    0.0223 at l = 16, 32, 64 and 128; errors above 0.05 occur only at
    snr/mean_inr <= 0 dB, where the success probability is <= 0.24 and the
    absolute error <= 0.016.

`_failure_table` alone decides which of the closed form and the Gumbel part
covers which window, for single windows and PER sweeps alike; it evaluates
only the windows it is given, so `success_prob` costs one window.  Every
special function comes from `specfun`'s numpy kernels; this module loads
no scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ctd import SlotTail, slot_tail
from .dist import CoexistenceScenario
from .specfun import (DEBYE_MIN_ORDER, erf_inv, gaussian_q, log_bessel_k, log_gamma,
                      scaled_bessel_k_half_orders)

# Coefficients of the Q-function fit Q(x) ~ exp(-x^2/2) * sum_j b_j x^j on
# x >= 0, degree 7, b_0 pinned to Q(0) = 0.5.  scripts/fit_tables.py refits,
# checks and prints them; max |fit - Q| is 8.5e-6 on [0, 8].
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

# Windows per block of the hybrid PER's slot sum (`_per_hybrid`).  Its
# arrays are INR x block and its sum one float per INR, so a sweep holds
# 1024 * 8 bytes per INR and array (136 KiB at 17 INRs) however many slots
# it spans, while each block's fixed cost (one `_failure_table` call,
# ~0.3 ms) stays small next to its INR x 1024 Bessel K evaluations.
HYBRID_BLOCK = 1024

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


def _clamped(values: np.ndarray, quantity: str, stacklevel: int) -> np.ndarray:
    """``values`` clipped to [0, 1], with a NumericsWarning naming ``quantity``
    if one lies beyond 1e-4 of it (``stacklevel`` counts from the caller):
    the closed form's fit bias allows overshoot of order 1e-5 near
    saturation, and anything beyond that means the evaluation misbehaved."""
    wild = ~((values >= -1e-4) & (values <= 1.0 + 1e-4))
    if np.any(wild):
        warnings.warn(f"{quantity} {values[wild]!r} clamped to [0, 1]", NumericsWarning,
                      stacklevel=stacklevel + 1)
    return np.clip(values, 0.0, 1.0)


def _range_error(part: str, snr: float, mean_inr: float) -> FloatRangeError:
    """The error of a hybrid part whose terms leave the float range."""
    return FloatRangeError(
        f"{part} (hybrid) success terms leave the float range at snr "
        f"{10.0 * math.log10(snr):.6g} dB, mean INR {10.0 * math.log10(mean_inr):.6g} dB; "
        "the hybrid route cannot evaluate this link, use the quadrature method "
        "(--method quadrature)"
    )


def _closed_form_failures(modulation: Modulation, snr: float, mean_inr: np.ndarray,
                          windows: np.ndarray) -> np.ndarray:
    """Closed-form failure 1 - success(bits) for each of ``windows`` (at most
    ELL_SWITCH bits) at every mean INR, shape (mean_inr.size, windows.size).

    (1 - coeff*Q)^bits expands binomially into powers Q^r.  With the fit
    Q(x) ~ exp(-x^2/2) * sum_j b_j x^j, Q^r is exp(-r x^2/2) times the
    polynomial power of the b_j (7r+1 coefficients), and each of its terms
    averages over the fading to one power-weighted Bessel K of order
    |2 - j|/2.  Every K of every order r comes from one upward recurrence
    (`specfun.scaled_bessel_k_half_orders`), and the per-order sums are
    formed once and shared by every window.  The failure is the fsum of the
    binomial terms r >= 1, so a small one keeps its relative precision.
    Values are clamped to [0, 1].
    """
    coeff, gain = modulation.coeff, modulation.gain
    windows = [int(w) for w in windows]
    top = max(windows, default=0)
    if snr == 0.0:
        # Q(0) = 1/2 regardless of fading.
        exact = [1.0 - (1.0 - 0.5 * coeff) ** bits for bits in windows]
        return np.tile(exact, (mean_inr.size, 1))
    if top == 0:
        # Empty windows always succeed.
        return np.zeros((mean_inr.size, len(windows)))
    base = gain * snr
    r = np.arange(1, top + 1)
    j = np.arange(7 * top + 1)
    delta = (2.0 - j) / 4.0
    inr = mean_inr[:, None, None]
    arg = np.sqrt(2.0 * r * base / mean_inr[:, None])
    vanishing = ~arg.all(axis=1)
    if vanishing.any():
        # the argument underflowed to 0, where every K diverges
        raise _range_error("closed-form", snr, mean_inr[vanishing][0])
    with np.errstate(over="ignore", invalid="ignore"):
        bessel = scaled_bessel_k_half_orders(arg, 7 * top - 1) * np.exp(-arg)
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
        raise _range_error("closed-form", snr, mean_inr[~finite][0])
    # Order r's terms start at offset sum_(k<r) (7k+1) of each INR row.
    offsets = [0] + np.cumsum(7 * r + 1).tolist()
    orders = np.ones((mean_inr.size, top + 1))
    orders[:, 1:] = [
        [math.fsum(row[a:b]) for a, b in zip(offsets, offsets[1:])]
        for row in terms.tolist()
    ]
    table = np.empty((mean_inr.size, len(windows)))
    for col, bits in enumerate(windows):
        # 1 - sum_(k>=0) C(bits, k) (-coeff)^k E[Q^k], the k = 0 term being 1
        scale = [-math.comb(bits, k) * (-coeff) ** k for k in range(1, bits + 1)]
        mix = orders[:, 1 : bits + 1] * scale
        table[:, col] = [math.fsum(row) for row in mix.tolist()]
    return _clamped(table, "closed-form failure probabilities", stacklevel=3)


def _slabs(work: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Each slab of ``work`` cut down to a contiguous rows x cols array."""
    return work.reshape(work.shape[0], -1)[:, : rows * cols].reshape(-1, rows, cols)


# INR x window arrays `_gumbel_gamma_failures` computes in: its log failure
# (returned as the failure), the Bessel K argument and the Debye expansion's
# three (`specfun.log_bessel_k`).
_GUMBEL_SLABS = 5


def _gumbel_gamma_failures(modulation: Modulation, snr: float, mean_inr: np.ndarray,
                           bits: np.ndarray, work=None) -> np.ndarray:
    """Gumbel-Gamma failure probabilities 1 - success, shape
    (mean_inr.size, bits.size), each as exp of its log, to full relative
    precision.

    ``work``, if given, is a (_GUMBEL_SLABS, mean_inr.size, bits.size) float
    array to compute in instead of allocating; the result is then its first
    slab.  `_failure_table` checks the domain.
    """
    coeff, gain = modulation.coeff, modulation.gain
    bits = np.asarray(bits, dtype=float)
    # One erf_inv call for both norming constants of every window.
    loc, top = (2.0 / gain) * erf_inv(1.0 - 2.0 / (bits * coeff * [[1.0], [math.e]])) ** 2
    scale = top - loc
    shape = 6.0 * (loc + scale * E0) ** 2 / (math.pi**2 * scale**2)
    theta = (loc + scale * E0) / shape
    if snr == 0.0:
        # z -> 0 limit of the matched-Gamma average.
        return np.ones((mean_inr.size, bits.size))
    size = (mean_inr.size, bits.size)
    z, root = (np.empty(size), np.empty(size)) if work is None else work[:2]
    np.multiply(mean_inr[:, None], theta, out=z)
    np.divide(snr, z, out=z)
    np.sqrt(z, out=root)
    root *= 2.0
    # The shape rises with the window, so ascending windows split into a
    # block below the Debye order and a Debye block; log_bessel_k takes each
    # in one pass.  log(1 - success) = log 2 - log Gamma(shape)
    # + (shape / 2) log z + log K_shape(2 sqrt(z)), summed in place in z.
    split = int(np.searchsorted(shape, DEBYE_MIN_ORDER))
    np.log(z, out=z)
    z *= 0.5 * shape
    z += _LOG2 - log_gamma(shape)
    for cols in (slice(None, split), slice(split, None)):
        if shape[cols].size:
            debye = None if work is None else _slabs(work[2:], mean_inr.size, shape[cols].size)
            z[:, cols] += log_bessel_k(shape[cols], root[:, cols], debye)
    finite = np.isfinite(z).all(axis=1)
    if not finite.all():
        raise _range_error("Gumbel/Gamma", snr, mean_inr[~finite][0])
    np.exp(z, out=z)
    return np.clip(z, 0.0, 1.0, out=z)


def _failure_table(modulation: Modulation, snr: float, mean_inr: np.ndarray,
                   windows: np.ndarray, work=None) -> np.ndarray:
    """Hybrid failure 1 - success(l) for each of the ascending bit counts
    ``windows`` at every mean INR, shape (mean_inr.size, windows.size).

    The one place that decides which part covers which window: the closed
    form up to ELL_SWITCH and the Gumbel/Gamma match beyond, whose domain
    starts past 2 / coeff bits.  ``work``, if given, holds at least
    _GUMBEL_SLABS x mean_inr.size x windows.size floats for the Gumbel part
    to compute in; the table may then be a view of it.
    """
    windows = np.asarray(windows)
    split = int(np.searchsorted(windows, ELL_SWITCH, side="right"))
    head = _closed_form_failures(modulation, snr, mean_inr, windows[:split])
    if split == windows.size:
        return head
    if (ELL_SWITCH + 1) * modulation.coeff <= 2.0:
        raise GumbelDomainError(
            f"hybrid route cannot cover slot {ELL_SWITCH + 1}: its gumbel part needs "
            f"bits * coeff > 2, got coeff={modulation.coeff}; use the quadrature "
            "method, which covers every slot"
        )
    if work is not None:
        work = _slabs(work, mean_inr.size, windows.size - split)
    tail = _gumbel_gamma_failures(modulation, snr, mean_inr, windows[split:], work)
    return np.hstack([head, tail]) if split else tail


def success_prob(modulation: Modulation, snr: float, mean_inr: float, bits: int,
                 method: PerMethod = PerMethod.HYBRID) -> float:
    """Success probability of a ``bits``-long collision window, by either route.

    The quadrature route sums q(g)^bits on the fixed nodes of the PER
    quadrature; the hybrid evaluates this window alone by `_failure_table`.
    ``method`` is a `PerMethod` or its value.
    """
    method = PerMethod(method)
    _validate_snr(snr)
    if not (math.isfinite(mean_inr) and mean_inr > 0.0):
        raise ValueError("mean_inr must be finite and positive")
    _validate_count("bits", bits, 0)
    if bits == 0:
        return 1.0
    if method is PerMethod.QUADRATURE:
        q = 1.0 - _bit_failure(modulation, snr, np.array([mean_inr]))[0]
        return min(max(float((q**bits * _FADE_WEIGHTS).sum()), 0.0), 1.0)
    return 1.0 - float(_failure_table(modulation, snr, np.array([mean_inr]),
                                      np.array([bits]))[0, 0])


def _validate_tail_cut(tail_cut: float) -> None:
    if not (0.0 < tail_cut < 1.0):
        raise ValueError(f"tail_cut must lie in (0, 1), got {tail_cut!r}")


def resolve_ell_max(scenario: CoexistenceScenario, tail_cut: float) -> int:
    """Fewest bit slots beyond which at most ``tail_cut`` of the collision time lies.

    The answer is the first slot l >= 1 at which `ctd.slot_tail` reads
    1 - F(l*bit_time) <= tail_cut, the value a sweep reports as its tail
    mass, so tail.at(l) <= tail_cut < tail.at(l - 1) holds for l > 1.  The
    collision time never exceeds the packet, so 1 - F <= e^(-rate*x) and the
    slot ceil(-log(tail_cut) / (rate*bit_time)) brackets l from above; the
    tail is built up to it (O(runs)) and its integer slots are bisected.
    """
    _validate_tail_cut(tail_cut)
    top = max(1, math.ceil(-math.log(tail_cut) / (scenario.packet_rate * scenario.bit_time)))
    tail = slot_tail(scenario, top + 1)
    # The bound holds in reals; rounding could leave the bracket an ulp short.
    while tail.at(top) > tail_cut:
        top *= 2
        tail = slot_tail(scenario, top + 1)
    low = 0
    while top - low > 1:
        mid = (low + top) // 2
        if tail.at(mid) <= tail_cut:
            top = mid
        else:
            low = mid
    return top


def _awgn_clear(modulation: Modulation, snr: float) -> tuple[float, float]:
    """(clear_fail, log_clear): the AWGN-only bit failure ber_awgn(snr) and
    log(1 - clear_fail), floored at _LOG_FLOOR, so a clear of 0 gives factors
    clear^k of 0 and, at k = 0, 1.  Both routes weigh noise bits by it."""
    clear_fail = float(ber_awgn(modulation, snr))
    with np.errstate(divide="ignore"):
        return clear_fail, max(float(np.log1p(-clear_fail)), _LOG_FLOOR)


def _slot_log_weights(modulation: Modulation, snr: float, noise_bits: int | None,
                      windows: np.ndarray) -> np.ndarray | None:
    """log of the AWGN success factor clear^(noise_bits - l) of each of the
    slots ``windows`` (0 from noise_bits on), or None in the
    interference-limited model."""
    if noise_bits is None:
        return None
    return np.maximum(noise_bits - windows, 0) * _awgn_clear(modulation, snr)[1]


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


def _failing_band(modulation: Modulation, snr: float,
                  mean_inr: np.ndarray) -> tuple[int, np.ndarray]:
    """(skip, fail): the first fading node the PER quadrature works on and
    the per-bit failure on the nodes from it on, shape (mean_inr.size,
    nodes - skip).

    The failure rises along the nodes (its argument falls with t), so the
    nodes where some INR row's failure is nonzero form one suffix, the
    failing band; before it Q underflows and every row's failure is exactly
    0.0 (`specfun.gaussian_q` returns it there without evaluating the node).
    ``skip`` is the all-zero node just before the band: node 0 if the band
    starts there (at snr 0 it does), the last node if no node fails.  No bit
    fails at ``skip`` or before it, so each of those nodes has q = 1.
    """
    fail = _bit_failure(modulation, snr, mean_inr)
    failing = fail.any(axis=0)
    band = int(np.argmax(failing)) if failing.any() else failing.size
    skip = max(band - 1, 0)
    return skip, fail[:, skip:]


# Floor of log q and log clear: exp of anything below it is 0.0, and it keeps
# a failure probability of exactly 1 (coeff 2 at snr 0) from turning into
# 0 * inf in the sums below.
_LOG_FLOOR = -1000.0
# Below this n*|rho| the closed form of sum j*e^(j*rho) loses ~eps/(n*|rho|)
# to cancellation, so its Taylor series (terms (n*|rho|)^p / p!) takes over.
_SERIES_CUT = 0.05
_SERIES_TERMS = 12


def _power_sums(n: int, count: int) -> list[int]:
    """The exact sums S_p = sum_(j<n) j^p for p < count, in integers.

    Summing (j + 1)^(p+1) - j^(p+1) over j < n telescopes to n^(p+1), so
    S_p = (n^(p+1) - sum_(k<p) C(p+1, k) S_k) / (p + 1), at any n in count^2
    integer steps.
    """
    sums = []
    for p in range(count):
        total = n ** (p + 1) - sum(math.comb(p + 1, k) * s for k, s in enumerate(sums))
        sums.append(total // (p + 1))
    return sums


def _ratio_sums(rho: np.ndarray, one_minus_y: np.ndarray,
                n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sum_{j<n} y^j, sum_{j<n} j*y^j, y^n) with y = e^rho, rho <= 0, elementwise.

    ``one_minus_y`` is -expm1(rho), shared by every n.
    """
    n_rho = n * rho
    y_n = np.exp(n_rho)
    small = n_rho > -_SERIES_CUT
    one_minus_y_n = np.expm1(n_rho, out=n_rho)
    np.negative(one_minus_y_n, out=one_minus_y_n)
    with np.errstate(divide="ignore", invalid="ignore"):
        s0 = one_minus_y_n / one_minus_y
        # s0 - 1 = (y - y^n) / (1 - y), formed without cancelling at small y
        s1 = one_minus_y_n
        s1 -= one_minus_y
        s1 /= one_minus_y
        s1 -= (n - 1) * y_n
        s1 /= one_minus_y
    if np.any(small):
        powers = [float(power) for power in _power_sums(n, _SERIES_TERMS + 2)]
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
    """PER at every mean INR and fading node, shape (mean_inr.size, nodes);
    `per_curve` weighs each row by the fading rule and sums it.

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

    Only the failing band and the one all-zero node before it are worked on
    (`_failing_band`).  At a node where no bit can fail every row's
    per-node PER comes from q = 1 alone, so that node's value is repeated
    over the skipped ones: every node's value is bitwise that of working on
    every node.
    """
    skip, fail = _failing_band(modulation, snr, mean_inr)
    clear_fail, log_clear = _awgn_clear(modulation, snr)
    with np.errstate(divide="ignore"):
        log_q = np.maximum(np.log1p(-fail), _LOG_FLOOR)
    n_bits = noise_bits or 0
    split = min(n_bits, ell_max)
    starts = tail.starts[tail.starts < ell_max]
    if 0 < split < ell_max and split not in starts:
        starts = np.insert(starts, np.searchsorted(starts, split), split)
    runs = np.searchsorted(tail.starts, starts, side="right") - 1
    slopes = tail.slopes[runs]
    heads = tail.heads[runs] - slopes * (starts - tail.starts[runs])
    pieces = list(zip(starts.tolist(), np.diff(starts, append=ell_max).tolist(),
                      heads.tolist(), slopes.tolist()))
    below = int(np.searchsorted(starts, split))

    # PER = 1 - u_0 + G_L u_L + ..., summed in place
    per = ell_max * log_q
    per += max(n_bits - ell_max, 0) * log_clear
    np.exp(per, out=per)
    per *= tail_mass
    per += -np.expm1(n_bits * log_clear)

    log_y = np.add(tail.log_decay, log_q, out=log_q)
    one_minus_y = -np.expm1(log_y)
    sums = {}
    plain = np.zeros_like(fail)
    y_m = np.exp(split * log_y)
    term = np.empty_like(fail)
    for _, n, head, slope in pieces[below:]:
        if n not in sums:
            sums[n] = _ratio_sums(log_y, one_minus_y, n)
        s0, s1, y_n = sums[n]
        np.multiply(head, s0, out=term)
        term -= slope * s1
        term *= y_m
        plain += term
        y_m *= y_n
    plain *= fail
    per += plain

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
            np.multiply(m, log_y, out=term)
            term += (n_bits - 1 - m) * log_clear
            term += shift
            np.exp(term, out=term)
            term *= head * s0 - slope * s1
            noisy += term
        fail -= clear_fail
        fail *= noisy
        per += fail
    return np.pad(per, ((0, 0), (skip, 0)), mode="edge")


def _per_hybrid(modulation: Modulation, snr: float, noise_bits: int | None,
                mean_inr: np.ndarray, tail: SlotTail, ell_max: int) -> np.ndarray:
    """PER at every mean INR from the hybrid failure table, HYBRID_BLOCK
    windows at a time.

    Slot l weighs its failure 1 - success(l) w_l (w_l its AWGN factor) by
    F(l*bit_time) - F((l-1)*bit_time), the drop of ``tail`` across it; slot
    0 holds the no-collision atom F(0).  The PER is their sum plus the
    ignored tail 1 - F(ell_max*bit_time), as the quadrature route forms it,
    so a small PER keeps its relative precision.  Each block reads the tail
    at its own slots and carries the last value into the next block's first
    increment.  Each block's rows are summed into one float per INR as soon
    as they are formed, and the ignored tail is added last.
    """
    per = np.zeros(mean_inr.size)
    # every block's Gumbel part computes in these, allocated once
    work = np.empty((_GUMBEL_SLABS, mean_inr.size, min(HYBRID_BLOCK, ell_max + 1)))
    above = 1.0
    for first in range(0, ell_max + 1, HYBRID_BLOCK):
        windows = np.arange(first, min(first + HYBRID_BLOCK, ell_max + 1))
        table = _failure_table(modulation, snr, mean_inr, windows, work)
        log_weights = _slot_log_weights(modulation, snr, noise_bits, windows)
        if log_weights is not None:
            # 1 - (1 - fail) w = fail w + (1 - w)
            table *= np.exp(log_weights)
            table -= np.expm1(log_weights)
        values = tail.at(windows)
        table *= -np.diff(values, prepend=above)
        above = values[-1]
        per += table.sum(axis=1)
    return per + above


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
    of bit slots the collision CDF is resolved into; when None it is the
    fewest slots whose ignored CDF tail is at most ``tail_cut``
    (`resolve_ell_max`).  ``noise_bits``, when set to
    the packet bit count, adds AWGN-only errors on the non-colliding bits.
    Each of ``methods`` is a `PerMethod` or its value.  The collision-time
    tail does not depend on the INR and is built once.

    Without ``noise_bits`` both routes read ``snr`` and the mean INRs only
    through their ratio, the SIR: scaling both by a power of 4 leaves every
    value bitwise unchanged (a factor that rounds, such as 100, can move the
    last bit).  ``noise_bits`` breaks this, since the AWGN errors on the
    non-colliding bits depend on the SNR alone.
    """
    methods = [PerMethod(method) for method in methods]
    if not methods:
        raise ValueError("methods must name at least one PerMethod")
    grid = np.asarray(mean_inr_values, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("mean_inr_values must be a nonempty 1-d array")
    if not np.all(np.isfinite(grid) & (grid > 0.0)):
        raise ValueError("mean_inr_values must all be finite and positive")
    _validate_snr(snr)
    if ell_max is not None:
        _validate_count("ell_max", ell_max, 1)
    _validate_tail_cut(tail_cut)
    if noise_bits is not None:
        _validate_count("noise_bits", noise_bits, 0)
    slots = resolve_ell_max(scenario, tail_cut) if ell_max is None else int(ell_max)
    tail = slot_tail(scenario, slots + 1)
    tail_mass = float(tail.at(slots))
    values = {}
    for method in methods:
        if method is PerMethod.QUADRATURE:
            per = (_per_quadrature(modulation, snr, noise_bits, grid, tail, slots, tail_mass)
                   * _FADE_WEIGHTS).sum(axis=1)
        else:
            per = _per_hybrid(modulation, snr, noise_bits, grid, tail, slots)
        values[method.value] = _clamped(per, "PER", stacklevel=2)
    return PerCurve(scenario, modulation, snr, grid, values, tail_mass, slots)
