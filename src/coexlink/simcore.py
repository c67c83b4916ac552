"""Monte Carlo oracle for the collision process.

Each trial drops an exponential-length packet onto the alternating busy/idle
process started in equilibrium (state picked with the activity factor, first
duration a stationary residual) and accumulates the busy overlap.  Everything
downstream of the analytic model is validated against these samples, so the
engine deliberately shares the duration models with `dist` and nothing with
`ctd` or `renewal`.

Trials are walked in fixed-size chunks, each chunk on its own SeedSequence
child stream, so results are reproducible for a given seed regardless of how
many trials are requested or how the chunks are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import CoexistenceScenario, activity_factor

CHUNK = 1 << 17


@dataclass(frozen=True)
class McConfig:
    trials: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass(frozen=True)
class TrialResult:
    """One packet drop: start state, drawn length, overlap, completed idle gaps."""

    initial_on: bool
    packet_time: float
    collision_time: float
    renewal_count: int


@dataclass(frozen=True)
class TrialBatch:
    initial_on: np.ndarray
    packet_time: np.ndarray
    collision_time: np.ndarray
    renewal_count: np.ndarray

    @property
    def trials(self) -> int:
        return int(self.packet_time.size)


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous empirical CDF over a sorted sample."""

    samples: np.ndarray

    @classmethod
    def from_samples(cls, values) -> "EmpiricalCdf":
        arr = np.sort(np.asarray(values, dtype=float))
        if arr.size == 0:
            raise ValueError("need at least one sample")
        return cls(arr)

    def evaluate(self, x):
        pos = np.searchsorted(self.samples, np.asarray(x, dtype=float), side="right")
        return pos / self.samples.size

    def ks_distance(self, cdf) -> float:
        """Sup distance against a reference CDF callable.

        Collision-time laws carry atoms (at 0, and at busy-time multiples for
        constant on-times), so the reference is probed a hair below and above
        every unique sample value to get its left and right limits; the hair
        is far above tie round-off yet negligible on the continuous parts.
        """
        n = self.samples.size
        unique, counts = np.unique(self.samples, return_counts=True)
        ecdf = np.cumsum(counts) / n
        ecdf_left = ecdf - counts / n
        nudge = 1e-12 * float(unique[-1]) + 1e-300
        ref_right = np.asarray(cdf(unique + nudge), dtype=float)
        ref_left = np.asarray(cdf(unique - nudge), dtype=float)
        return float(
            max(np.max(np.abs(ref_right - ecdf)), np.max(np.abs(ref_left - ecdf_left)))
        )


def sample_stationary_start(scenario: CoexistenceScenario,
                            rng: np.random.Generator) -> tuple[bool, float]:
    """Equilibrium snapshot: (state, residual time left in that state)."""
    on = bool(rng.random() < activity_factor(scenario))
    model = scenario.busy if on else scenario.idle
    return on, float(model.residual_sample(rng))


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
        duration = float(model.sample(rng))
    if state:
        collision += remaining
    return TrialResult(on, packet, min(collision, packet), renewals)


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


def _walk_chunk(scenario: CoexistenceScenario, rng: np.random.Generator,
                n: int) -> TrialBatch:
    packet = rng.exponential(scenario.packet_mean, n)
    start_on = rng.random(n) < activity_factor(scenario)
    duration = _draw_by_state(scenario, rng, start_on, residual=True)

    remaining = packet.copy()
    collision = np.zeros(n)
    renewals = np.zeros(n, dtype=np.int64)
    state = start_on.copy()
    active = np.arange(n)
    while active.size:
        dur = duration[active]
        rem = remaining[active]
        st = state[active]
        ends_inside = dur < rem
        overlap = np.minimum(dur, rem)
        collision[active] += np.where(st, overlap, 0.0)
        renewals[active] += (~st & ends_inside).astype(np.int64)
        remaining[active] = rem - overlap
        active = active[ends_inside]
        if active.size == 0:
            break
        state[active] = ~state[active]
        duration[active] = _draw_by_state(scenario, rng, state[active], residual=False)
    return TrialBatch(start_on, packet, np.minimum(collision, packet), renewals)


def _chunks(config: McConfig):
    """(rng, size) of each chunk: CHUNK trials apiece, the remainder last,
    each chunk on its own SeedSequence child of the seed."""
    sizes = [CHUNK] * (config.trials // CHUNK)
    if config.trials % CHUNK:
        sizes.append(config.trials % CHUNK)
    children = np.random.SeedSequence(config.seed).spawn(len(sizes))
    for child, size in zip(children, sizes):
        yield np.random.default_rng(child), size


def run_trials(scenario: CoexistenceScenario, config: McConfig) -> TrialBatch:
    """All trials, chunked; deterministic for a given (trials, seed)."""
    batches = [_walk_chunk(scenario, rng, size) for rng, size in _chunks(config)]
    return TrialBatch(
        np.concatenate([b.initial_on for b in batches]),
        np.concatenate([b.packet_time for b in batches]),
        np.concatenate([b.collision_time for b in batches]),
        np.concatenate([b.renewal_count for b in batches]),
    )


def empirical_ctd(scenario: CoexistenceScenario, config: McConfig) -> EmpiricalCdf:
    return EmpiricalCdf.from_samples(run_trials(scenario, config).collision_time)


def split_by_start(batch: TrialBatch) -> tuple[EmpiricalCdf, EmpiricalCdf]:
    """(off-start CDF, on-start CDF) from one batch."""
    off = batch.collision_time[~batch.initial_on]
    on = batch.collision_time[batch.initial_on]
    return EmpiricalCdf.from_samples(off), EmpiricalCdf.from_samples(on)


def _count_chunk(scenario, rng, n: int, offset: float, equilibrium: bool) -> np.ndarray:
    window = rng.exponential(scenario.packet_mean, n) - offset
    np.maximum(window, 0.0, out=window)
    idle = scenario.idle
    elapsed = np.asarray(
        idle.residual_sample(rng, n) if equilibrium else idle.sample(rng, n)
    )
    counts = np.zeros(n, dtype=np.int64)
    active = np.flatnonzero(elapsed <= window)
    while active.size:
        counts[active] += 1
        elapsed[active] += np.asarray(idle.sample(rng, active.size))
        active = active[elapsed[active] <= window[active]]
    return counts


def empirical_renewal_counts(scenario: CoexistenceScenario, config: McConfig,
                             offset: float = 0.0, equilibrium: bool = True) -> np.ndarray:
    """Histogram of completed idle gaps within the window max(T - offset, 0).

    Pure renewal counting: busy periods are not part of this window, matching
    the counting convention the analytic PMFs use.
    """
    if offset < 0.0:
        raise ValueError("offset must be nonnegative")
    parts = [_count_chunk(scenario, rng, size, offset, equilibrium)
             for rng, size in _chunks(config)]
    return np.bincount(np.concatenate(parts))
