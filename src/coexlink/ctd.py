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


def _busy_mixture_cdf(scenario: CoexistenceScenario, x: np.ndarray,
                      residual: bool) -> np.ndarray:
    """S(x), or SR(x) when ``residual``, in closed form for x >= 0.

    1 - g comes from the idle law directly: as g -> 1 the subtraction would
    leave it only ~1e-16/(1 - g) relative precision.
    """
    s, busy = scenario.packet_rate, scenario.busy
    g = scenario.idle.laplace(s)
    g_comp = scenario.idle.one_minus_laplace(s)
    if isinstance(busy, ExponentialOnTime):
        return -np.expm1(-busy.rate * g_comp * x)
    d = busy.duration
    # floor(x/d) can be one off the float comparison x >= n*d, which would put
    # a jump on the wrong side of a grid point sitting on a multiple of d.
    k = np.floor(x / d)
    k = np.where(x < k * d, k - 1.0, k)
    k = np.where(x >= (k + 1.0) * d, k + 1.0, k)
    tail = g**k
    if not residual:
        return 1.0 - tail
    return 1.0 - tail + g_comp * tail * np.clip(x / d - k, 0.0, 1.0)


def _clamp(values: np.ndarray, label: str) -> np.ndarray:
    worst = max(float(np.max(values - 1.0, initial=0.0)), float(np.max(-values, initial=0.0)))
    if worst > _CLAMP_SLACK:
        logger.debug("%s exceeded [0,1] by %.3e before clamping", label, worst)
    return np.clip(values, 0.0, 1.0)


def ctd_off_start(scenario: CoexistenceScenario, x):
    """CDF of the collision time given the packet starts in an idle period."""
    s = scenario.packet_rate
    g_res = scenario.idle.residual_laplace(s)
    xa = np.asarray(x, dtype=float)
    xc = np.maximum(xa, 0.0)
    damp = np.exp(-s * xc)
    inner = 1.0 - _busy_mixture_cdf(scenario, xc, residual=False)
    vals = 1.0 - damp * g_res * inner
    vals = np.where(xa < 0.0, 0.0, vals)
    return _clamp(vals, "off-start CDF")


def ctd_on_start(scenario: CoexistenceScenario, x):
    """CDF of the collision time given the packet starts in a busy period."""
    xa = np.asarray(x, dtype=float)
    xc = np.maximum(xa, 0.0)
    damp = np.exp(-scenario.packet_rate * xc)
    mixed = _busy_mixture_cdf(scenario, xc, residual=True)
    vals = (1.0 - damp) + damp * mixed
    vals = np.where(xa < 0.0, 0.0, vals)
    return _clamp(vals, "on-start CDF")


def ctd_mixture(scenario: CoexistenceScenario, x):
    """Stationary collision-time CDF, the activity-factor mixture of the two starts."""
    alpha = activity_factor(scenario)
    return alpha * ctd_on_start(scenario, x) + (1.0 - alpha) * ctd_off_start(scenario, x)


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
    """Smallest x with mixture CDF >= 1 - coverage, found by bisection.

    The collision time never exceeds the packet length, so the CDF dominates
    1 - e^(-rate*x) and -log(coverage)/rate brackets the answer from above.
    """
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
    omega0 = ctd_off_start(scenario, grid)
    omega1 = ctd_on_start(scenario, grid)
    alpha = activity_factor(scenario)
    omega = alpha * omega1 + (1.0 - alpha) * omega0
    return CtdCurve(scenario, grid, omega0, omega1, omega)
