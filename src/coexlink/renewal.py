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


def pmf_values(spec: RenewalPmfSpec, n_max: int) -> list[float]:
    """PMF at 0..n_max."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return [pmf(spec, n) for n in range(n_max + 1)]


def pmf_tail_index(spec: RenewalPmfSpec, epsilon: float) -> int:
    """Smallest n_max whose cumulative PMF reaches 1 - epsilon.

    The left-out tail is a plain geometric series, head * g^n beyond n >= 1
    terms (head alone beyond the n = 0 term), so the index solves
    n * log(g) <= log(epsilon / head) directly; the loop form is kept in the
    tests as the brute-force cross-check, not here.  For g near 1, log g is
    log1p(-(1 - g)) with 1 - g from the idle law, and the index grows like
    1/(1 - g) without any cap.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    g, g_comp, g_res, damp = _factors(spec)
    head = g_res * damp if spec.kind is CountKind.EQUILIBRIUM else g * damp
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
