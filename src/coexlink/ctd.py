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

Both supported busy laws sum the mixture exactly, so nothing is truncated,
and in one form (`_runs`): x >= 0 lies in a run of the busy law, on which

    1 - S(x)  = e^(-decay*x) * tail
    1 - SR(x) = (1 - S(x)) * (1 - (1-g) * frac)

    constant d:  runs are busy periods, k = #{n >= 1 : x >= n*d}:
                 decay 0, tail g^k, frac clip(x/d - k, 0, 1)
    Exp(r):      one run: decay r*(1-g), tail 1, frac 0

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


def _runs(scenario: CoexistenceScenario, x=None, slots: int = 0):
    """(starts, decay, tail, frac, period): the run of the busy law's mixture
    that holds each x >= 0, in the module docstring's form.  frac rises by
    1/period per unit of x within a run; no law's run has both a decay and a
    frac.  This is the one place that tells the busy laws apart.

    With x None, x is the first slot l*bit_time of each run that starts
    below ``slots`` and starts holds those l; a constant law's starts come
    from `_run_starts`, an exponential law's one run starts at slot 0 for any
    ``slots``.  An exponential law gives tail and frac as scalars, so its CDF
    does no per-point work for them.
    """
    s, busy, idle = scenario.packet_rate, scenario.busy, scenario.idle
    if isinstance(busy, ExponentialOnTime):
        return np.zeros(1, np.int64), busy.rate * idle.one_minus_laplace(s), 1.0, 0.0, math.inf
    d, starts = busy.duration, None
    if x is None:
        starts = _run_starts(d, scenario.bit_time, slots)
        x = starts * scenario.bit_time
    k = _jump_counts(x, d)
    return starts, 0.0, idle.laplace(s) ** k, np.clip(x / d - k, 0.0, 1.0), d


def _start_cdfs(scenario: CoexistenceScenario, x) -> tuple[np.ndarray, np.ndarray]:
    """(F0, F1): the idle-start and busy-start CDFs at x, both read from the
    run of `_runs` that holds x.

    1 - g comes from the idle law directly: as g -> 1 the subtraction would
    leave it only ~1e-16/(1 - g) relative precision.
    """
    s, idle = scenario.packet_rate, scenario.idle
    xa = np.asarray(x, dtype=float)
    xc = np.maximum(xa, 0.0)
    _, decay, tail, frac, _ = _runs(scenario, xc)
    full = 1.0 - tail
    if decay:
        full -= tail * np.expm1(-decay * xc)
    mixed = full + idle.one_minus_laplace(s) * tail * frac
    damp = np.exp(-s * xc)
    both = np.empty((2,) + xa.shape)
    np.subtract(1.0, damp * idle.residual_laplace(s) * (1.0 - full), out=both[0, ...])
    np.add(1.0 - damp, damp * mixed, out=both[1, ...])
    np.copyto(both, 0.0, where=xa < 0.0)
    if logger.isEnabledFor(logging.DEBUG):
        worst = max(float(np.max(both, initial=1.0)) - 1.0, -float(np.min(both, initial=0.0)))
        if worst > _CLAMP_SLACK:
            logger.debug("collision-time CDF exceeded [0,1] by %.3e before clamping", worst)
    return tuple(np.clip(both, 0.0, 1.0, out=both))


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

    `slot_tail` reads each run from `_runs` at its first slot x:
    heads = tail*(c0 - c1*frac), slopes = tail*c1*bit_time/period and
    log_decay = -(rate + decay)*bit_time, where c0 = (1-alpha)*gR + alpha and
    c1 = alpha*(1-g).  A constant busy time d makes each run one busy period
    (or several, when busy periods shorter than a bit end within one slot);
    an exponential busy time gives one flat run.
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


def _run_starts(d: float, bit: float, slots: int) -> np.ndarray:
    """Slots below ``slots`` at which the jump count of x = l*bit rises: slot 0
    and, for each busy-period boundary n*d, the first slot l whose x the
    `_jump_counts` comparison puts at or past it.

    Boundaries shorter than a bit apart can share a slot, which then starts
    one run.  The first guess ceil(n*d/bit) can be a slot off the float
    comparison, so each guess steps until slot l meets boundary n and slot
    l - 1 does not.
    """
    if slots < 1:
        return np.zeros(0, dtype=np.int64)
    last = _jump_counts(np.array([(slots - 1) * bit]), d)[0]
    n = np.arange(1.0, last + 1.0)
    first = np.ceil(n * d / bit).astype(np.int64)
    while True:
        late = _jump_counts(first * bit, d) < n
        early = (first > 0) & (_jump_counts(np.maximum(first - 1, 0) * bit, d) >= n)
        if not (late.any() or early.any()):
            break
        first += late
        first -= early
    # first is non-decreasing, so dropping repeats keeps each start once (as
    # np.unique would, whose masked-array check imports numpy.ma, 13-17 ms,
    # on first use)
    starts = np.concatenate(([0], first))
    return starts[np.concatenate(([True], starts[1:] != starts[:-1]))]


def slot_tail(scenario: CoexistenceScenario, slots: int) -> SlotTail:
    """`SlotTail` of the mixture CDF for slots 0..slots-1.

    A constant busy time costs O(runs), not O(slots): the runs start where
    the busy-period boundaries fall on the slot grid (`_run_starts`), and
    `_runs` is evaluated at those slots alone.
    """
    s, bit = scenario.packet_rate, scenario.bit_time
    alpha = activity_factor(scenario)
    c0 = (1.0 - alpha) * scenario.idle.residual_laplace(s) + alpha
    c1 = alpha * scenario.idle.one_minus_laplace(s)
    starts, decay, tail, frac, period = _runs(scenario, slots=slots)
    # out= gives an exponential law's scalar tail and frac its one run's shape
    heads = np.multiply(tail, c0 - c1 * frac, out=np.empty(starts.shape))
    slopes = np.multiply(tail, c1 * bit / period, out=np.empty(starts.shape))
    return SlotTail(starts, heads, slopes, -(s + decay) * bit)


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
    """A float x at which the mixture CDF meets 1 - coverage and the float
    just below x does not.

    The collision time never exceeds the packet length, so the CDF dominates
    1 - e^(-rate*x) and -log(coverage)/rate brackets the answer from above.
    The bracket is bisected until no float lies strictly between its ends.
    Within about 1e-12 relative of the crossing the CDF evaluated in floats
    is not monotone, so a smaller x can meet the target too; x is the
    crossing to about that precision, not the smallest such float.  Each
    pass evaluates the CDF once, at every midpoint the next
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


def default_grid(scenario: CoexistenceScenario, points: int = 512) -> np.ndarray:
    """Uniform grid on [0, min(8 packet means, the 1e-4 coverage point)], or
    on [0, one packet mean] where the atom at 0 alone covers 1 - 1e-4."""
    if points < 2:
        raise ValueError("grid needs at least 2 points")
    x_hi = min(8.0 * scenario.packet_mean, coverage_point(scenario, 1e-4))
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
