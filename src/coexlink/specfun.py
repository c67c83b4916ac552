"""Special functions shared by the collision-time and error-rate models.

Domain-checked fronts over scipy.special: the Gaussian tail Q(x) and the
inverse error function.  `per` calls scipy.special's Bessel K directly; the
independent routes that cross-check these functions live in the tests.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

__all__ = ["gaussian_q", "erf_inv"]

_SQRT2 = math.sqrt(2.0)


def gaussian_q(x):
    """Gaussian tail probability Q(x) = Pr{N(0,1) > x} = erfc(x / sqrt(2)) / 2.

    Accepts scalars or arrays; defined for all real x.
    """
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / _SQRT2)


def erf_inv(y):
    """Inverse error function on the open interval (-1, 1).

    Raises:
        ValueError: if any |y| >= 1 (the inverse diverges at the endpoints).
    """
    arr = np.asarray(y, dtype=float)
    if np.any(np.abs(arr) >= 1.0):
        raise ValueError("erf_inv requires |y| < 1")
    return special.erfinv(arr)
