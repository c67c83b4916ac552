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
two conventions coincide.  `pmf` forms both from one set of factors.
"""

from __future__ import annotations

import math

import numpy as np

from .dist import IdleTimeModel, require_count, require_nonnegative

# PMF mass below this is indistinguishable from 0 at double precision and
# only adds subnormal noise to tail sums.
_PMF_FLOOR = 1e-300


def pmf(idle: IdleTimeModel, packet_rate: float, offset: float,
        size: int) -> tuple[np.ndarray, np.ndarray]:
    """(equilibrium, ordinary): P(N = n) for n = 0..size - 1 in each convention.

    ``packet_rate`` is the exponential rate of the window length and
    ``offset`` the busy-time budget subtracted from it (seconds).  1 - g comes
    from the idle law, not a subtraction, and each power of g is a float
    power, not a repeated product.  Entries from n = 1 on below 1e-300 are 0.
    """
    if not (math.isfinite(packet_rate) and packet_rate > 0.0):
        raise ValueError("packet_rate must be finite and positive")
    require_nonnegative(offset, "offset")
    require_count(size, "size", 1)
    g = idle.laplace(packet_rate)
    g_comp = idle.one_minus_laplace(packet_rate)
    g_res = idle.residual_laplace(packet_rate)
    damp = math.exp(-packet_rate * offset)
    powers = np.fromiter((g ** k for k in range(size)), float, size)
    equilibrium = np.concatenate(([1.0 - g_res * damp], damp * g_res * g_comp * powers[:-1]))
    ordinary = np.concatenate(([1.0 - g * damp], damp * g_comp * powers[1:]))
    for probs in (equilibrium, ordinary):
        probs[1:][probs[1:] < _PMF_FLOOR] = 0.0
    return equilibrium, ordinary
