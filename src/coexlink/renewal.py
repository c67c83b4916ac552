"""Distribution of the number of idle gaps completed inside a random window.

The observed packet lasts an exponential time T.  After removing a busy-time
budget ``offset`` from it, we ask how many full idle periods the interferer
fits into the remaining window max(T - offset, 0).  Two counting conventions
matter: the window may open at a random instant inside an idle period
(equilibrium: first gap is a residual life) or exactly at the start of one
(ordinary: all gaps are full draws).

Both PMFs come out geometric in the idle-gap Laplace transform evaluated at
the packet rate, damped by exp(-rate * offset):

    equilibrium: p(0) = 1 - gR*d,  p(n) = d * gR * (1 - g) * g^(n-1)
    ordinary:    p(0) = 1 - g*d,   p(n) = d * (1 - g) * g^n

with g the idle Laplace transform at the packet rate, gR the residual-life
one, and d the damping factor.  For an exponential idle law g == gR and the
two conventions coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .dist import IdleTimeModel

# PMF mass below this is indistinguishable from 0 at double precision and
# only adds subnormal noise to tail sums.
_PMF_FLOOR = 1e-300


class CountKind(Enum):
    EQUILIBRIUM = "equilibrium"
    ORDINARY = "ordinary"


@dataclass(frozen=True)
class RenewalPmfSpec:
    """Frozen inputs for one counting distribution.

    ``packet_rate`` is the exponential rate of the window length and
    ``offset`` the busy-time budget subtracted from it (seconds).
    """

    idle: IdleTimeModel
    packet_rate: float
    offset: float
    kind: CountKind

    def __post_init__(self) -> None:
        if not (math.isfinite(self.packet_rate) and self.packet_rate > 0.0):
            raise ValueError("packet_rate must be finite and positive")
        if not (math.isfinite(self.offset) and self.offset >= 0.0):
            raise ValueError("offset must be finite and nonnegative")
        if not isinstance(self.kind, CountKind):
            raise TypeError("kind must be a CountKind")


def _factors(spec: RenewalPmfSpec) -> tuple[float, float, float, float]:
    """(g, 1 - g, gR, damping); 1 - g comes from the idle law, not a subtraction."""
    g = spec.idle.laplace(spec.packet_rate)
    g_comp = spec.idle.one_minus_laplace(spec.packet_rate)
    g_res = spec.idle.residual_laplace(spec.packet_rate)
    damp = math.exp(-spec.packet_rate * spec.offset)
    return g, g_comp, g_res, damp


def _clean(p: float) -> float:
    if p < _PMF_FLOOR:
        return 0.0
    return p


def pmf(spec: RenewalPmfSpec, n: int) -> float:
    """Probability of exactly ``n`` completed idle gaps in the window."""
    if n < 0 or n != int(n):
        raise ValueError(f"count must be a nonnegative integer, got {n!r}")
    g, g_comp, g_res, damp = _factors(spec)
    if spec.kind is CountKind.EQUILIBRIUM:
        if n == 0:
            return 1.0 - g_res * damp
        return _clean(damp * g_res * g_comp * g ** (n - 1))
    if n == 0:
        return 1.0 - g * damp
    return _clean(damp * g_comp * g**n)
