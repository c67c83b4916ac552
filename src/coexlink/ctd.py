"""Collision-time distribution of an exponential-length packet.

A packet of exponential duration T lands on the channel while the interferer
alternates between busy and idle periods.  The collision time is the total
overlap with busy periods during the packet.  Conditioning on the number of
idle gaps that fit into the non-colliding part of the window turns the CDF
into a geometric mixture of the on-time convolution CDFs:

    off start: F0(x) = 1 - e^(-s*x) * gR * (1 - S(x))
    on  start: F1(x) = (1 - e^(-s*x)) + e^(-s*x) * SR(x)

    S(x)  = sum_n (1-g) * g^(n-1) * Hn(x)
    SR(x) = sum_n (1-g) * g^(n-1) * HnR(x)

with s the packet rate, g / gR the idle-gap and residual-idle Laplace
transforms at s, Hn the CDF of n full on-times and HnR the CDF of a residual
on-time plus n-1 full ones.  The 1 - e^(-s*x) terms carry the probability
that the packet itself ends within the collision budget x.

Both supported busy laws sum the mixture exactly, so nothing is truncated:

    constant d:  S(x)  = 1 - g^k,  k = #{n >= 1 : x >= n*d}
                 SR(x) = 1 - g^k + (1-g) * g^k * clip(x/d - k, 0, 1)
    Exp(r):      S(x)  = SR(x) = 1 - e^(-r*(1-g)*x)

(a geometric number of Exp(r) periods is Exp(r*(1-g)), and the residual of
an exponential period is the period itself).

The stationary curve mixes the two with the activity factor:
F(x) = alpha*F1(x) + (1-alpha)*F0(x); F(x) = 0 for x < 0 and F has an atom at
x = 0 (the no-collision probability).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .dist import CoexistenceScenario, ExponentialOnTime, activity_factor

logger = logging.getLogger(__name__)

# Floating error visibly above this after clamping indicates a real bug, not
# round-off; keep it tighter than any acceptance tolerance.
_CLAMP_SLACK = 1e-9

# Bisection steps `coverage_point` takes per CDF evaluation (2^levels - 1
# points); ~60 steps reach adjacent floats, so a call takes ~6 passes.
_BISECTION_LEVELS = 10


def _jump_counts(x: np.ndarray, d: float) -> np.ndarray:
    """k = #{n >= 1 : x >= n*d} for x >= 0, as the float comparison decides it.

    floor(x/d) can be one off that comparison, which would put a jump on the
    wrong side of a grid point sitting on a multiple of d.
    """
    k = np.floor(x / d)
    k = np.where(x < k * d, k - 1.0, k)
    return np.where(x >= (k + 1.0) * d, k + 1.0, k)


def _start_cdfs(scenario: CoexistenceScenario, x) -> tuple[np.ndarray, np.ndarray]:
    """(F0, F1): the idle-start and busy-start CDFs at x, from one jump count.

    S and SR share k and g^k; for an exponential busy time they coincide.
    1 - g comes from the idle law directly: as g -> 1 the subtraction would
    leave it only ~1e-16/(1 - g) relative precision.
    """
    s, busy, idle = scenario.packet_rate, scenario.busy, scenario.idle
    g_comp = idle.one_minus_laplace(s)
    xa = np.asarray(x, dtype=float)
    xc = np.maximum(xa, 0.0)
    damp = np.exp(-s * xc)
    if isinstance(busy, ExponentialOnTime):
        full = mixed = -np.expm1(-busy.rate * g_comp * xc)
    else:
        d = busy.duration
        k = _jump_counts(xc, d)
        tail = idle.laplace(s) ** k
        full = 1.0 - tail
        mixed = full + g_comp * tail * np.clip(xc / d - k, 0.0, 1.0)
    both = np.empty((2,) + xa.shape)
    np.subtract(1.0, damp * idle.residual_laplace(s) * (1.0 - full), out=both[0, ...])
    np.add(1.0 - damp, damp * mixed, out=both[1, ...])
    np.copyto(both, 0.0, where=xa < 0.0)
    worst = max(float(np.max(both, initial=1.0)) - 1.0, -float(np.min(both, initial=0.0)))
    if worst > _CLAMP_SLACK:
        logger.debug("collision-time CDF exceeded [0,1] by %.3e before clamping", worst)
    off, on = np.clip(both, 0.0, 1.0, out=both)
    return off, on


def _mix(scenario: CoexistenceScenario, off, on):
    alpha = activity_factor(scenario)
    return alpha * on + (1.0 - alpha) * off


def ctd_off_start(scenario: CoexistenceScenario, x):
    """CDF of the collision time given the packet starts in an idle period."""
    return _start_cdfs(scenario, x)[0]


def ctd_on_start(scenario: CoexistenceScenario, x):
    """CDF of the collision time given the packet starts in a busy period."""
    return _start_cdfs(scenario, x)[1]


def ctd_mixture(scenario: CoexistenceScenario, x):
    """Stationary collision-time CDF, the activity-factor mixture of the two starts."""
    return _mix(scenario, *_start_cdfs(scenario, x))


@dataclass(frozen=True)
class SlotTail:
    """1 - F on the bit-slot grid x = l*bit_time, one run of slots at a time.

    On the run that starts at slot ``starts[i]`` (and ends where the next one
    starts),

        1 - F(l*bit_time) = exp(log_decay*l) * (heads[i] - slopes[i]*(l - starts[i])).

    A constant busy time d makes each run one busy period, with jump count k
    taken as the CDF takes it: heads = g^k*(c0 - c1*(x/d - k))
    at the run's first slot x, slopes = g^k*c1*bit_time/d, where
    c0 = (1-alpha)*gR + alpha, c1 = alpha*(1-g) and log_decay = -rate*bit_time.
    An exponential busy time gives one flat run with
    log_decay = -(rate + r*(1-g))*bit_time.
    """

    starts: np.ndarray
    heads: np.ndarray
    slopes: np.ndarray
    log_decay: float

    def at(self, slots):
        """1 - F at the slot indices ``slots``, each read from its run.

        The slots must lie below the count `slot_tail` was built for: a run
        that would start past it is not in the tail.
        """
        slots = np.asarray(slots)
        run = np.searchsorted(self.starts, slots, side="right") - 1
        return np.exp(self.log_decay * slots) * (
            self.heads[run] - self.slopes[run] * (slots - self.starts[run]))


def slot_tail(scenario: CoexistenceScenario, slots: int) -> SlotTail:
    """`SlotTail` of the mixture CDF for slots 0..slots-1."""
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


@dataclass(frozen=True)
class CtdCurve:
    """Collision-time CDF evaluated on a grid.

    ``omega0``/``omega1`` hold the idle-start and busy-start conditionals and
    ``omega`` their stationary mixture.  The curve is 0 left of the grid.
    """

    scenario: CoexistenceScenario
    grid: np.ndarray
    omega0: np.ndarray
    omega1: np.ndarray
    omega: np.ndarray

    @property
    def alpha(self) -> float:
        return activity_factor(self.scenario)


def coverage_point(scenario: CoexistenceScenario, coverage: float = 1e-4) -> float:
    """Smallest x with mixture CDF >= 1 - coverage, to the last float.

    The collision time never exceeds the packet length, so the CDF dominates
    1 - e^(-rate*x) and -log(coverage)/rate brackets the answer from above.
    The bracket is bisected until no float lies strictly between its ends,
    so the point returned meets the target and the float just below it does
    not.  Each pass evaluates the CDF once, at every midpoint the next
    _BISECTION_LEVELS steps could visit, and then takes those steps.
    """
    if not (0.0 < coverage < 1.0):
        raise ValueError("coverage must lie in (0, 1)")
    target = 1.0 - coverage
    if float(ctd_mixture(scenario, 0.0)) >= target:
        return 0.0
    lo, hi = 0.0, -math.log(coverage) / scenario.packet_rate
    size = 2**_BISECTION_LEVELS
    ends = np.empty(size + 1)
    while np.nextafter(lo, hi) < hi:
        # ends[i] is the midpoint bisection forms for the bracket
        # (ends[i - step], ends[i + step]), computed as it computes it.
        ends[0], ends[-1] = lo, hi
        step = size
        while step > 1:
            ends[step // 2::step] = 0.5 * (ends[:-1:step] + ends[step::step])
            step //= 2
        met = ctd_mixture(scenario, ends[1:-1]) >= target
        i = step = size // 2
        while step:
            step //= 2
            if met[i - 1]:
                hi = float(ends[i])
                i -= step
            else:
                lo = float(ends[i])
                i += step
    return hi


def default_grid(scenario: CoexistenceScenario, points: int = 512,
                 coverage: float = 1e-4) -> np.ndarray:
    """Uniform grid on [0, min(8 packet means, the coverage point)]."""
    if points < 2:
        raise ValueError("grid needs at least 2 points")
    x_hi = min(8.0 * scenario.packet_mean, coverage_point(scenario, coverage))
    if x_hi <= 0.0:
        x_hi = scenario.packet_mean
    return np.linspace(0.0, x_hi, points)


def ctd_curve(scenario: CoexistenceScenario, grid=None, points: int = 512) -> CtdCurve:
    """Evaluate all three CDFs on ``grid`` (or the default one)."""
    if grid is None:
        grid = default_grid(scenario, points=points)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("grid must be a nonempty 1-d array")
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid must be finite")
    if np.any(np.diff(grid) < 0.0) or grid[0] < 0.0:
        raise ValueError("grid must be nondecreasing and nonnegative")
    omega0, omega1 = _start_cdfs(scenario, grid)
    return CtdCurve(scenario, grid, omega0, omega1, _mix(scenario, omega0, omega1))
