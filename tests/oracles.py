"""Independent reference routes shared by several test modules.

Each one computes by adaptive quadrature, a plain library call or a plain
loop what `coexlink` computes another way, so the tests that compare the two
judge a route with something that does not share its code.  Nothing in
`coexlink` imports this module.  Outside pytest, put this directory on
`sys.path` first.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy import integrate, special

from coexlink.ctd import SlotTail, _jump_counts, ctd_mixture
from coexlink.dist import (
    CoexistenceScenario,
    ExponentialIdle,
    ExponentialOnTime,
    HyperexponentialIdle,
    activity_factor,
)
from coexlink.per import (
    _FADE_WEIGHTS,
    _LOG2,
    E0,
    QN_COEFFS,
    FloatRangeError,
    _bit_failure,
    _closed_form_failures,
    _failure_table,
    _gumbel_gamma_failures,
    _slot_log_weights,
    resolve_ell_max,
)
from coexlink.simcore import EmpiricalCdf, McConfig, TrialBatch, run_trials
from coexlink.specfun import erf_inv, log_bessel_k, log_gamma

# exp argument beyond which exp(-v) underflows to exactly 0.0 in binary64;
# used to truncate integral representations safely.
_EXP_UNDERFLOW = 745.0


def success_prob_adaptive(modulation, snr: float, mean_inr: float, bits: int) -> float:
    """Fading average of (1 - ber)^bits by adaptive quadrature.

    The oracle of every `success_prob` route, the quadrature's fixed nodes
    included.  The fading power is mapped to u = g/(1+g) so the
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


def closed_form_table(modulation, snr: float, mean_inr: np.ndarray,
                      windows: np.ndarray) -> np.ndarray:
    """Closed-form success(bits), 1 - `per._closed_form_failures`: not an
    independent route but the success view of the hybrid's head that the
    closed-form tests compare with their oracles."""
    return 1.0 - _closed_form_failures(modulation, snr, mean_inr, windows)


def closed_form_table_kv(modulation, snr: float, mean_inr: np.ndarray, top: int) -> np.ndarray:
    """Closed-form success(bits) for bits 0..top at every mean INR, shape
    (mean_inr.size, top + 1), with one scipy `kv` call per order.

    The body `closed_form_table`'s route had before it took every Bessel K from
    one upward recurrence, kept as the reference of that route: it forms the
    fit polynomial's r-th power and each order's Bessel K afresh per order r.
    """
    coeff, gain = modulation.coeff, modulation.gain
    if snr == 0.0:
        exact = [(1.0 - 0.5 * coeff) ** bits for bits in range(top + 1)]
        return np.tile(exact, (mean_inr.size, 1))
    base = gain * snr
    inr = mean_inr[:, None]
    orders = [[1.0] * mean_inr.size]
    for r in range(1, top + 1):
        fit_power = np.polynomial.polynomial.polypow(QN_COEFFS, r)
        delta = (2.0 - np.arange(fit_power.size)) / 4.0
        arg = np.sqrt(2.0 * r * base / inr)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = (
                fit_power
                * 2.0 ** (1.0 - delta)
                * (r * base * inr) ** delta
                * base ** (1.0 - 2.0 * delta)
                * special.kv(2.0 * delta, arg)
                / inr
            )
        if not np.isfinite(terms).all():
            raise FloatRangeError("closed-form terms leave the float range")
        orders.append([math.fsum(row) for row in terms.tolist()])
    table = np.empty((mean_inr.size, top + 1))
    for bits in range(top + 1):
        scale = [math.comb(bits, r) * (-coeff) ** r for r in range(bits + 1)]
        table[:, bits] = [
            math.fsum(c * s for c, s in zip(scale, column))
            for column in zip(*orders[: bits + 1])
        ]
    return np.clip(table, 0.0, 1.0)


def gumbel_gamma_success(modulation, snr: float, mean_inr: np.ndarray,
                         bits: np.ndarray) -> np.ndarray:
    """Gumbel-Gamma success probabilities, 1 - `per._gumbel_gamma_failures`."""
    return 1.0 - _gumbel_gamma_failures(modulation, snr, mean_inr, bits)


def slot_weights(modulation, snr: float, noise_bits, windows: np.ndarray):
    """AWGN success factor of each of the slots ``windows``, or None in the
    interference-limited model: exp of `per._slot_log_weights`."""
    log_weights = _slot_log_weights(modulation, snr, noise_bits, windows)
    return None if log_weights is None else np.exp(log_weights)


def gumbel_gamma_match(modulation, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shape and scale of the Gamma law matched to each window's Gumbel fit."""
    coeff, gain = modulation.coeff, modulation.gain
    bits = np.asarray(bits, dtype=float)
    loc = (2.0 / gain) * erf_inv(1.0 - 2.0 / (bits * coeff)) ** 2
    scale = (2.0 / gain) * erf_inv(1.0 - 2.0 / (bits * coeff * math.e)) ** 2 - loc
    shape = 6.0 * (loc + scale * E0) ** 2 / (math.pi**2 * scale**2)
    theta = (loc + scale * E0) / shape
    return shape, theta


def gumbel_gamma_kve(modulation, snr: float, mean_inr: np.ndarray,
                     bits: np.ndarray) -> np.ndarray:
    """Gumbel-Gamma success probabilities, shape (mean_inr.size, bits.size),
    with one scipy `kve` call per (INR, window).

    The Gumbel body `coexlink.per` had before it took log K from
    `specfun.log_bessel_k`, kept as the reference of that route.  Where kve
    overflows it substitutes the z/shape limit, which is inaccurate there.
    """
    shape, theta = gumbel_gamma_match(modulation, bits)
    if snr == 0.0:
        # z -> 0 limit of the matched-Gamma average.
        return np.zeros((mean_inr.size, shape.size))
    z = snr / (mean_inr[:, None] * theta)
    root = 2.0 * np.sqrt(z)
    log_fail = (
        _LOG2
        - special.gammaln(shape)
        + 0.5 * shape * np.log(z)
        + np.log(special.kve(shape, root))
        - root
    )
    out = -np.expm1(log_fail)
    # kve overflows once shape*log(shape) is extreme; there the matched Gamma
    # concentrates at its mean and the average is 1 - E[exp(-z/T)] ~ z/shape.
    bad = ~np.isfinite(out)
    if np.any(bad):
        out[bad] = np.clip((z / np.maximum(shape - 1.0, 1.0))[bad], 0.0, 1.0)
    return np.clip(out, 0.0, 1.0)


def gumbel_gamma_one_call(modulation, snr: float, mean_inr: np.ndarray,
                          bits: np.ndarray) -> np.ndarray:
    """Gumbel-Gamma success probabilities with every window's log K from one
    mixed-order `specfun.log_bessel_k` call, the Gumbel body `coexlink.per`
    had before it split the windows at the Debye order (with its log Gamma,
    `specfun.log_gamma`)."""
    shape, theta = gumbel_gamma_match(modulation, bits)
    if snr == 0.0:
        return np.zeros((mean_inr.size, shape.size))
    z = snr / (mean_inr[:, None] * theta)
    log_fail = (
        _LOG2
        - log_gamma(shape)
        + 0.5 * shape * np.log(z)
        + log_bessel_k(shape, 2.0 * np.sqrt(z))
    )
    return np.clip(-np.expm1(log_fail), 0.0, 1.0)


def coverage_point_bisect(scenario, coverage: float = 1e-4) -> float:
    """Smallest x with mixture CDF >= 1 - coverage, by 80 scalar bisection steps."""
    if not (0.0 < coverage < 1.0):
        raise ValueError("coverage must lie in (0, 1)")
    target = 1.0 - coverage
    hi = -math.log(coverage) / scenario.packet_rate
    lo = 0.0
    if float(ctd_mixture(scenario, 0.0)) >= target:
        return 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if float(ctd_mixture(scenario, mid)) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def resolve_ell_max_bisect(scenario, tail_cut: float) -> int:
    """`per.resolve_ell_max` on top of `coverage_point_bisect`.

    Held to it on the presets at cuts 1e-3 to 1e-9
    (`test_resolve_ell_max_matches_bisection_oracle`) and nowhere else.
    Where a busy period is a whole number of bits, a CDF jump sits on a slot
    boundary and ``ceil`` of the float crossing can land one slot past it;
    near cuts of 1e-9, 1 - F from `ctd_mixture` also carries up to 1.3e-7
    relative error (on the presets, against `mixture_tail_mp`).  Generated links are judged by `mixture_tail_mp`.
    """
    x_tail = coverage_point_bisect(scenario, tail_cut)
    ell = max(1, math.ceil(x_tail / scenario.bit_time))
    while ell * scenario.bit_time < x_tail:
        ell += 1
    return ell


def per_quadrature_horner(modulation, snr: float, mean_inr: np.ndarray,
                          poly: np.ndarray) -> np.ndarray:
    """Packet success sum_l poly_l * E[q(g)^l] at every mean INR.

    Summing over slots first makes the integrand a polynomial in the per-bit
    success q(g); one Horner pass over the (INR x node) array evaluates it
    for the whole sweep.
    """
    q = _bit_success(modulation, snr, mean_inr)
    acc = np.full(q.shape, poly[-1])
    for c in poly[-2::-1]:
        acc *= q
        acc += c
    return np.array([math.fsum(row) for row in (acc * _FADE_WEIGHTS).tolist()])


def _bit_success(modulation, snr: float, mean_inr: np.ndarray) -> np.ndarray:
    """Per-bit success q(g) = 1 - coeff * Q(sqrt(gain * snr / g)) on the fading
    nodes of `per`, shape (mean_inr.size, nodes)."""
    return 1.0 - _bit_failure(modulation, snr, mean_inr)


def slot_increments(scenario, ell_max: int) -> np.ndarray:
    """F(l*bit_time) - F((l-1)*bit_time) for slots 0..ell_max, slot 0 holding
    the no-collision atom F(0), from `ctd_mixture`."""
    cdf = ctd_mixture(scenario, np.arange(ell_max + 1) * scenario.bit_time)
    return np.diff(cdf, prepend=0.0)


def per_horner(scenario, modulation, snr: float, mean_inr, *, ell_max=None,
               tail_cut: float = 1e-6, noise_bits=None) -> np.ndarray:
    """Quadrature PER at every mean INR by one Horner pass per slot; the
    arguments are those of `per.per_curve`.

    The slot polynomial holds the increments of `ctd_mixture` on the slot
    grid (times the AWGN factors of ``noise_bits``), not the `ctd.slot_tail`
    the routes read; the ignored tail counts as errors.
    """
    if ell_max is None:
        ell_max = resolve_ell_max(scenario, tail_cut)
    increments = slot_increments(scenario, ell_max)
    weights = slot_weights(modulation, snr, noise_bits, np.arange(ell_max + 1))
    poly = increments if weights is None else increments * weights
    success = per_quadrature_horner(modulation, snr, np.asarray(mean_inr, dtype=float), poly)
    return np.clip(1.0 - success, 0.0, 1.0)


def slot_tail_per_slot(scenario, slots: int) -> SlotTail:
    """`ctd.slot_tail` built from the jump count of every slot 0..slots-1,
    its runs starting wherever that count changes: the O(slots) construction
    the busy-period boundaries replaced, which they must reproduce bitwise.
    """
    s, bit, busy = scenario.packet_rate, scenario.bit_time, scenario.busy
    alpha = activity_factor(scenario)
    g_comp = scenario.idle.one_minus_laplace(s)
    c0 = (1.0 - alpha) * scenario.idle.residual_laplace(s) + alpha
    if isinstance(busy, ExponentialOnTime):
        return SlotTail(np.zeros(1, dtype=np.int64), np.array([c0]), np.zeros(1),
                        -(s + busy.rate * g_comp) * bit)
    d = busy.duration
    k = _jump_counts(np.arange(slots) * bit, d)
    starts = np.flatnonzero(np.diff(k, prepend=-1.0))
    k = k[starts]
    tail = scenario.idle.laplace(s) ** k
    c1 = alpha * g_comp
    heads = tail * (c0 - c1 * np.clip(starts * bit / d - k, 0.0, 1.0))
    return SlotTail(starts, heads, tail * (c1 * bit / d), -s * bit)


def per_hybrid_one_table(modulation, snr: float, noise_bits, mean_inr: np.ndarray,
                         tail: SlotTail, ell_max: int) -> np.ndarray:
    """Hybrid PER from one failure table of every slot 0..ell_max, each INR
    row fsummed whole with the ignored tail: the sum `per._per_hybrid` takes
    block by block.  Unclamped, like `per._per_hybrid`.
    """
    windows = np.arange(ell_max + 1)
    table = _failure_table(modulation, snr, mean_inr, windows)
    # Slot l holds F(l*bit_time) - F((l-1)*bit_time); slot 0 is the
    # no-collision atom F(0).
    values = tail.at(windows)
    increments = -np.diff(values, prepend=1.0)
    log_weights = _slot_log_weights(modulation, snr, noise_bits, windows)
    if log_weights is not None:
        table = table * np.exp(log_weights) - np.expm1(log_weights)
    return np.array([math.fsum(row + [values[-1]]) for row in (table * increments).tolist()])


class ChoiceHyperexponentialIdle(HyperexponentialIdle):
    """`HyperexponentialIdle` drawing its phase with `rng.choice`.

    The samplers' bodies as they were before the phase became one uniform
    compared with the phase CDF; the new samplers must consume the generator
    the same way and return the same floats.
    """

    def sample(self, rng: np.random.Generator, size: int):
        idx = rng.choice(len(self.weights), size=size, p=np.asarray(self.weights))
        return rng.exponential(self._phase_means()[idx])

    def residual_sample(self, rng: np.random.Generator, size: int):
        # Stationary residual of a mixture: phase i is picked proportionally
        # to the time spent in it (w_i * m_i), then the residual within an
        # exponential phase is again exponential.
        probs = np.asarray(
            [w * m / self.mean for w, m in zip(self.weights, self.means)]
        )
        probs = probs / probs.sum()
        idx = rng.choice(len(self.weights), size=size, p=probs)
        return rng.exponential(self._phase_means()[idx])

    def _phase_means(self) -> np.ndarray:
        return np.asarray(self.means, dtype=float)


def with_choice_sampler(scenario):
    """``scenario`` with a hyperexponential idle law swapped for its
    `ChoiceHyperexponentialIdle` twin (other scenarios are returned as is)."""
    idle = scenario.idle
    if not isinstance(idle, HyperexponentialIdle):
        return scenario
    return dataclasses.replace(scenario, idle=ChoiceHyperexponentialIdle(idle.weights, idle.means))


def _draw_by_state(scenario, rng, state: np.ndarray, residual: bool) -> np.ndarray:
    # One rng call per model, in a fixed on-then-off order, keeps the stream
    # deterministic while still vectorizing.
    out = np.empty(state.size)
    on_idx = np.flatnonzero(state)
    off_idx = np.flatnonzero(~state)
    busy, idle = scenario.busy, scenario.idle
    if residual:
        out[on_idx] = busy.residual_sample(rng, on_idx.size)
        out[off_idx] = idle.residual_sample(rng, off_idx.size)
    else:
        out[on_idx] = busy.sample(rng, on_idx.size)
        out[off_idx] = idle.sample(rng, off_idx.size)
    return out


def walk_chunk_gather(scenario, rng: np.random.Generator, n: int) -> TrialBatch:
    """One chunk of the collision walk, gathering every live trial from and
    scattering it into full-size arrays at each step.

    The walk `simcore._walk_chunk` replaced; with `with_choice_sampler` it is
    the engine as it was, draw for draw.
    """
    packet = rng.exponential(scenario.packet_mean, n)
    start_on = rng.random(n) < activity_factor(scenario)
    duration = _draw_by_state(scenario, rng, start_on, residual=True)

    remaining = packet.copy()
    collision = np.zeros(n)
    state = start_on.copy()
    active = np.arange(n)
    while active.size:
        dur = duration[active]
        rem = remaining[active]
        st = state[active]
        ends_inside = dur < rem
        overlap = np.minimum(dur, rem)
        collision[active] += np.where(st, overlap, 0.0)
        remaining[active] = rem - overlap
        active = active[ends_inside]
        if active.size == 0:
            break
        state[active] = ~state[active]
        duration[active] = _draw_by_state(scenario, rng, state[active], residual=False)
    return TrialBatch(start_on, np.minimum(collision, packet))


def count_chunk_gather(scenario, rng, n: int, offset: float) -> tuple[np.ndarray, np.ndarray]:
    """(equilibrium, ordinary) per-trial completed idle gaps of one chunk,
    gathering every live trial from and scattering it into full-size arrays
    at each step; `simcore._count_chunk` returns the histograms of these.

    One walk per trial: its window, its residual first gap, then full gaps
    while its ordinary window is open, with the walk's float steps.
    """
    left = rng.exponential(scenario.packet_mean, n) - offset
    np.maximum(left, 0.0, out=left)
    idle = scenario.idle
    first = np.asarray(idle.residual_sample(rng, n))
    equilibrium = (left >= first).astype(np.int64)
    ordinary = np.zeros(n, dtype=np.int64)
    active = np.arange(n)
    while active.size:
        left[active] -= np.asarray(idle.sample(rng, active.size))
        equilibrium[active[left[active] >= first[active]]] += 1
        active = active[left[active] >= 0.0]
        ordinary[active] += 1
    return equilibrium, ordinary


@dataclasses.dataclass(frozen=True)
class TrialResult:
    """One packet drop: start state, drawn length, overlap, completed idle gaps."""

    initial_on: bool
    packet_time: float
    collision_time: float
    renewal_count: int


def sample_stationary_start(scenario: CoexistenceScenario,
                            rng: np.random.Generator) -> tuple[bool, float]:
    """Equilibrium snapshot: (state, residual time left in that state)."""
    on = bool(rng.random() < activity_factor(scenario))
    model = scenario.busy if on else scenario.idle
    return on, float(model.residual_sample(rng, 1)[0])


def run_trial(scenario: CoexistenceScenario, rng: np.random.Generator) -> TrialResult:
    """Reference scalar walk; the chunked engine must agree with it in law."""
    packet = float(rng.exponential(scenario.packet_mean))
    on, duration = sample_stationary_start(scenario, rng)
    state = on
    remaining = packet
    collision = 0.0
    renewals = 0
    while duration < remaining:
        if state:
            collision += duration
        else:
            renewals += 1
        remaining -= duration
        state = not state
        model = scenario.busy if state else scenario.idle
        duration = float(model.sample(rng, 1)[0])
    if state:
        collision += remaining
    return TrialResult(on, packet, min(collision, packet), renewals)


def empirical_cdf(values) -> EmpiricalCdf:
    """The CDF of a sorted float copy of ``values``, which are left as they
    were (`simcore.EmpiricalCdf.sorted_in_place` sorts its own argument)."""
    return EmpiricalCdf.sorted_in_place(np.array(values, dtype=float))


def empirical_ctd(scenario: CoexistenceScenario, config: McConfig) -> EmpiricalCdf:
    return EmpiricalCdf.sorted_in_place(run_trials(scenario, config).collision_time)


def ks_distance_unique(ecdf, cdf) -> float:
    """`EmpiricalCdf.ks_distance` with uniques and counts from `np.unique`."""
    n = ecdf.samples.size
    unique, counts = np.unique(ecdf.samples, return_counts=True)
    ecdf_right = np.cumsum(counts) / n
    ecdf_left = ecdf_right - counts / n
    nudge = 1e-12 * float(unique[-1]) + 1e-300
    ref_right = np.asarray(cdf(unique + nudge), dtype=float)
    ref_left = np.asarray(cdf(unique - nudge), dtype=float)
    return float(
        max(np.max(np.abs(ref_right - ecdf_right)), np.max(np.abs(ref_left - ecdf_left)))
    )


def idle_transforms_mp(idle, s):
    """(mean, g, 1 - g, gR) of an idle law at the mpmath rate ``s``, summed at
    the working precision from the law's float parameters, taken as exact."""
    import mpmath

    mpf = mpmath.mpf
    if isinstance(idle, HyperexponentialIdle):
        phases = [(mpf(w), mpf(m)) for w, m in zip(idle.weights, idle.means)]
    else:
        phases = [(mpf(1), 1 / mpf(idle.rate))]
    mean = sum(w * m for w, m in phases)
    g = sum(w / (1 + s * m) for w, m in phases)
    g_comp = sum(w * s * m / (1 + s * m) for w, m in phases)
    return mean, g, g_comp, sum(w * m / (1 + s * m) for w, m in phases) / mean


def mixture_tail_mp(scenario, slot: int, dps: int = 40):
    """1 - F at x = slot*bit_time in ``dps``-digit arithmetic (an mpmath number).

    Every transform is summed from the scenario's float parameters, taken as
    exact; only the jump count k = #{n >= 1 : x >= n*d} of a constant busy
    time d follows the float comparison on the slot grid, as the model
    defines it there.
    """
    import mpmath

    with mpmath.workdps(dps):
        mpf = mpmath.mpf
        s = mpf(scenario.packet_rate)
        x = mpf(slot) * mpf(scenario.bit_time)
        busy = scenario.busy
        idle_mean, g, g_comp, g_res = idle_transforms_mp(scenario.idle, s)
        if isinstance(busy, ExponentialOnTime):
            busy_mean = 1 / mpf(busy.rate)
        else:
            busy_mean = mpf(busy.duration)
        alpha = busy_mean / (busy_mean + idle_mean)
        head = (1 - alpha) * g_res + alpha
        if isinstance(busy, ExponentialOnTime):
            return mpmath.exp(-(s + g_comp / busy_mean) * x) * head
        d = busy.duration
        x_float = slot * scenario.bit_time
        k = sum(1 for n in range(1, int(x_float / d) + 2) if x_float >= n * d)
        frac = min(max(x / mpf(d) - k, 0), 1)
        return mpmath.exp(-s * x) * g**k * (head - alpha * g_comp * frac)


def pmf_tail_index(idle, packet_rate: float, offset: float, equilibrium: bool,
                   epsilon: float) -> int:
    """Smallest n_max whose cumulative `renewal.pmf` reaches 1 - epsilon.

    The truncation index of the series the closed forms replaced, in the
    equilibrium convention if ``equilibrium`` is true, else the ordinary one.
    The left-out tail is a plain geometric series, head * g^n beyond n >= 1
    terms (head alone beyond the n = 0 term), so the index solves
    n * log(g) <= log(epsilon / head) directly.  g, 1 - g, gR and the damping
    come from the idle law as `renewal.pmf` takes them.  For g near 1, log g
    is log1p(-(1 - g)), and the index grows like 1/(1 - g) without any cap.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    g = idle.laplace(packet_rate)
    g_comp = idle.one_minus_laplace(packet_rate)
    damp = math.exp(-packet_rate * offset)
    head = (idle.residual_laplace(packet_rate) if equilibrium else g) * damp
    if head <= epsilon:
        return 0
    if g <= 0.0:
        return 1
    log_g = math.log1p(-g_comp) if g_comp < 0.5 else math.log(g)
    budget = math.log(epsilon / head)
    n = max(math.ceil(budget / log_g), 1)
    # One step guards against the quotient's round-off at the boundary.
    if n * log_g > budget:
        n += 1
    return n


def matched_exponential(scenario: CoexistenceScenario) -> CoexistenceScenario:
    """Same scenario with the idle law swapped for an exponential of equal mean."""
    return CoexistenceScenario(
        busy=scenario.busy,
        idle=ExponentialIdle(1.0 / scenario.idle.mean),
        packet_rate=scenario.packet_rate,
        bit_time=scenario.bit_time,
    )
