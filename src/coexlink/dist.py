"""Busy/idle duration models of the interfering traffic, plus the scenario bundle.

The interferer alternates between busy (transmitting) and idle periods drawn
independently from the models below.  The on-time models carry only their
parameter and mean: ``coexlink.ctd`` sums their geometric mixtures of
n-fold convolutions in closed form, so no per-n CDF is exposed.  The idle
models expose Laplace transforms, which is all the analytic machinery
downstream needs.  Every model also knows how to sample itself and its
stationary residual so the Monte Carlo engine stays in lockstep with the math.

All durations are in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_WEIGHT_TOL = 1e-12
# Per-bit airtime of the observed link when a scenario does not set one.
DEFAULT_BIT_TIME = 4e-6


def _require_positive(value: float, name: str) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def require_nonnegative(value: float, name: str) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and nonnegative")


def require_count(value: int, name: str, low: int) -> None:
    """Counts (bits, slots, trials, seeds) are Python or NumPy integers; a
    float would split a slot, and a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class ConstantOnTime:
    """Fixed-length busy period (e.g. a constant frame duration)."""

    duration: float

    def __post_init__(self) -> None:
        _require_positive(self.duration, "duration")

    @property
    def mean(self) -> float:
        return self.duration

    def sample(self, rng: np.random.Generator, size: int):
        return np.full(size, self.duration)

    def residual_sample(self, rng: np.random.Generator, size: int):
        return rng.uniform(0.0, self.duration, size)


@dataclass(frozen=True)
class ExponentialOnTime:
    """Memoryless busy period with the given rate (1/mean, in 1/s)."""

    rate: float

    def __post_init__(self) -> None:
        _require_positive(self.rate, "rate")

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    def sample(self, rng: np.random.Generator, size: int):
        return rng.exponential(self.mean, size)

    # memoryless: the residual is the law itself
    residual_sample = sample


@dataclass(frozen=True)
class ExponentialIdle:
    """Memoryless idle gap with the given rate (1/mean, in 1/s)."""

    rate: float

    def __post_init__(self) -> None:
        _require_positive(self.rate, "rate")

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    def laplace(self, s: float) -> float:
        """E[exp(-s*X)] for s >= 0."""
        if s < 0.0:
            raise ValueError("laplace transform argument must be nonnegative")
        return self.rate / (s + self.rate)

    def one_minus_laplace(self, s: float) -> float:
        """1 - laplace(s) = s*m / (1 + s*m), without the cancellation of a
        subtraction when laplace(s) is close to 1."""
        if s < 0.0:
            raise ValueError("laplace transform argument must be nonnegative")
        return s / (s + self.rate)

    def residual_laplace(self, s: float) -> float:
        """Laplace transform of the stationary residual life.

        Equals (1 - laplace(s)) / (s * mean); the exponential law is
        memoryless, so this is ``laplace(s)`` itself, which is also safe at
        s = 0 where the quotient is 0/0.
        """
        return self.laplace(s)

    def sample(self, rng: np.random.Generator, size: int):
        return rng.exponential(self.mean, size)

    # memoryless: the residual is the law itself
    residual_sample = sample


@dataclass(frozen=True)
class HyperexponentialIdle:
    """Mixture of exponential idle gaps, the long-tailed measured-traffic model.

    ``weights`` are the phase probabilities (must sum to one) and ``means``
    the phase means in seconds.
    """

    weights: tuple[float, ...]
    means: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "means", tuple(float(m) for m in self.means))
        if len(self.weights) != len(self.means) or not self.weights:
            raise ValueError("weights and means must be equal-length, nonempty")
        for i, (w, m) in enumerate(zip(self.weights, self.means)):
            _require_positive(w, f"weights[{i}]")
            _require_positive(m, f"means[{i}]")
        total = math.fsum(self.weights)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"weights must sum to 1, got {total!r}")

    @property
    def mean(self) -> float:
        return math.fsum(w * m for w, m in zip(self.weights, self.means))

    def laplace(self, s: float) -> float:
        if s < 0.0:
            raise ValueError("laplace transform argument must be nonnegative")
        return math.fsum(
            w / (1.0 + s * m) for w, m in zip(self.weights, self.means)
        )

    def one_minus_laplace(self, s: float) -> float:
        """1 - laplace(s) = sum_i w_i * s*m_i / (1 + s*m_i), without subtraction."""
        if s < 0.0:
            raise ValueError("laplace transform argument must be nonnegative")
        return math.fsum(
            w * s * m / (1.0 + s * m) for w, m in zip(self.weights, self.means)
        )

    def residual_laplace(self, s: float) -> float:
        if s < 0.0:
            raise ValueError("laplace transform argument must be nonnegative")
        acc = math.fsum(
            w * m / (1.0 + s * m) for w, m in zip(self.weights, self.means)
        )
        return acc / self.mean

    @cached_property
    def _phases(self) -> tuple[np.ndarray, np.ndarray]:
        """(phase means, phase CDF) of a full gap."""
        return _phase_table(self.means, self.weights)

    @cached_property
    def _residual_phases(self) -> tuple[np.ndarray, np.ndarray]:
        """(phase means, phase CDF) of the stationary residual.

        Phase i is picked proportionally to the time spent in it (w_i * m_i),
        and the residual within an exponential phase is again exponential.
        """
        probs = np.asarray(
            [w * m / self.mean for w, m in zip(self.weights, self.means)]
        )
        return _phase_table(self.means, probs / probs.sum())

    def sample(self, rng: np.random.Generator, size: int):
        return _phase_sample(rng, size, self._phases)

    def residual_sample(self, rng: np.random.Generator, size: int):
        return _phase_sample(rng, size, self._residual_phases)


def _phase_table(means, probs) -> tuple[np.ndarray, np.ndarray]:
    # The CDF as `Generator.choice(p=probs)` forms it.
    cdf = np.cumsum(np.asarray(probs, dtype=float))
    return np.asarray(means, dtype=float), cdf / cdf[-1]


def _phase_sample(rng: np.random.Generator, size: int,
                  table: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Exponential draws whose mean is a phase picked with a (means, CDF)
    table.

    One uniform per draw is compared with the CDF, then one standard
    exponential per draw is scaled by its phase mean.  That consumes the
    generator as ``rng.exponential(means[rng.choice(len(means), size,
    p=probs)])``, which picks the phase by the same count of CDF entries at
    or below the uniform, and every draw comes out the same float.
    """
    means, cdf = table
    phase = _phase_of(rng.random(size), cdf)
    draws = rng.standard_exponential(size)
    draws *= means.take(phase)
    return draws


def _phase_of(u: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """The phase of each uniform ``u``: its count of CDF entries at or below it."""
    phase = np.zeros(u.size, dtype=np.min_scalar_type(cdf.size - 1))
    for c in cdf[:-1].tolist():
        phase += u >= c
    return phase


OnTimeModel = ConstantOnTime | ExponentialOnTime
IdleTimeModel = ExponentialIdle | HyperexponentialIdle


@dataclass(frozen=True)
class CoexistenceScenario:
    """Everything that defines one coexistence setup.

    ``packet_rate`` is the exponential rate (1/s) of the observed link's
    packet duration; ``bit_time`` is its per-bit airtime in seconds.
    """

    busy: OnTimeModel
    idle: IdleTimeModel
    packet_rate: float
    bit_time: float = DEFAULT_BIT_TIME

    def __post_init__(self) -> None:
        _require_positive(self.packet_rate, "packet_rate")
        _require_positive(self.bit_time, "bit_time")
        if not isinstance(self.busy, (ConstantOnTime, ExponentialOnTime)):
            raise TypeError(f"unsupported busy model: {type(self.busy).__name__}")
        if not isinstance(self.idle, (ExponentialIdle, HyperexponentialIdle)):
            raise TypeError(f"unsupported idle model: {type(self.idle).__name__}")

    @property
    def packet_mean(self) -> float:
        return 1.0 / self.packet_rate


def activity_factor(scenario: CoexistenceScenario) -> float:
    """Long-run fraction of time the interferer is busy."""
    busy = scenario.busy.mean
    idle = scenario.idle.mean
    return busy / (busy + idle)
