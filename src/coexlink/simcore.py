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

Within a chunk the walk keeps two groups, the trials that started busy and
those that started idle, each in ascending trial order and holding only its
live trials: a trial whose packet ends within its current period leaves
its group, and its collision time is written out once.  The two groups
alternate between busy and idle in lockstep, so each step draws the busy
group's next periods and then the idle group's, one sampler call each.  That
is the same sequence of calls, with the same sizes, as drawing for every
live trial at once with the busy ones first, so a seed gives the same
generator stream and the same floats whichever way the live trials are
stored.  The renewal-count walk carries its live trials the same way.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .dist import CoexistenceScenario, activity_factor

CHUNK = 1 << 17
# Uniques per KS block: 64 KiB per float array.
KS_BLOCK = 8192


@dataclass(frozen=True)
class McConfig:
    trials: int
    seed: int = 0

    def __post_init__(self) -> None:
        # Python and NumPy integers pass; bool and float do not.
        for name, low in (("trials", 1), ("seed", 0)):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or value < low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class TrialBatch:
    initial_on: np.ndarray
    collision_time: np.ndarray


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

    def ks_distance(self, cdf) -> float:
        """Sup distance against a reference CDF callable.

        Collision-time laws carry atoms (at 0, and at busy-time multiples for
        constant on-times), so the reference is probed a hair below and above
        every unique sample value to get its left and right limits; the hair
        is far above tie round-off yet negligible on the continuous parts.
        The hair is set by the whole sample's maximum.  The uniques are
        walked in blocks of ``KS_BLOCK``, each probed on both sides by one
        ``cdf`` call, so the probe arrays stay cache-sized whatever the
        sample size; the result is the same float as one pass over all
        uniques.
        """
        s = self.samples
        n = s.size
        # The sample is sorted, so a value is new wherever it differs from
        # its predecessor: unique j spans s[bounds[j]:bounds[j + 1]], the
        # uniques and counts np.unique would find.
        bounds = np.concatenate(([0], np.flatnonzero(s[1:] != s[:-1]) + 1, [n]))
        firsts, ends = bounds[:-1], bounds[1:]
        nudge = 1e-12 * float(s[-1]) + 1e-300
        worst = 0.0
        for lo in range(0, firsts.size, KS_BLOCK):
            first = firsts[lo:lo + KS_BLOCK]
            end = ends[lo:lo + KS_BLOCK]
            unique = s.take(first)
            counts = end - first
            ecdf = end / n
            ecdf_left = ecdf - counts / n
            ref_right = np.asarray(cdf(unique + nudge), dtype=float)
            ref_left = np.asarray(cdf(unique - nudge), dtype=float)
            worst = max(worst, np.max(np.abs(ref_right - ecdf)),
                        np.max(np.abs(ref_left - ecdf_left)))
        return float(worst)


def _walk_chunk(scenario: CoexistenceScenario, rng: np.random.Generator,
                n: int) -> TrialBatch:
    packet = rng.exponential(scenario.packet_mean, n)
    start_on = rng.random(n) < activity_factor(scenario)
    busy, idle = scenario.busy, scenario.idle
    collision = np.empty(n)
    # Group 0 started busy and group 1 idle, so group g is busy on the steps
    # of g's parity.  Per live trial of a group: its id, time left, busy time
    # so far and the current period's length.
    groups = [(ids, packet.take(ids), np.zeros(ids.size), model.residual_sample(rng, ids.size))
              for ids, model in ((np.flatnonzero(start_on), busy),
                                 (np.flatnonzero(~start_on), idle))]
    step = 0
    while True:
        for g, (ids, left, busy_time, period) in enumerate(groups):
            on = (step - g) % 2 == 0
            inside = period < left
            done = np.flatnonzero(~inside)
            if done.size:
                out = ids.take(done)
                total = busy_time.take(done)
                collision[out] = total + left.take(done) if on else total
            more = np.flatnonzero(inside)
            period = period.take(more)
            busy_time = busy_time.take(more)
            groups[g] = (ids.take(more), left.take(more) - period,
                         busy_time + period if on else busy_time, period)
        if groups[0][0].size + groups[1][0].size == 0:
            break
        step += 1
        on_group = step % 2
        for g, model in ((on_group, busy), (1 - on_group, idle)):
            ids, left, busy_time, _ = groups[g]
            groups[g] = (ids, left, busy_time, model.sample(rng, ids.size))
    return TrialBatch(start_on, np.minimum(collision, packet))


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
        np.concatenate([b.collision_time for b in batches]),
    )


def split_by_start(batch: TrialBatch) -> tuple[EmpiricalCdf, EmpiricalCdf]:
    """(off-start CDF, on-start CDF) from one batch."""
    off = batch.collision_time[~batch.initial_on]
    on = batch.collision_time[batch.initial_on]
    return EmpiricalCdf.from_samples(off), EmpiricalCdf.from_samples(on)


def _count_chunk(scenario, rng, n: int, offset: float, equilibrium: bool) -> np.ndarray:
    """Histogram of the completed idle gaps of one chunk's trials."""
    window = rng.exponential(scenario.packet_mean, n) - offset
    np.maximum(window, 0.0, out=window)
    idle = scenario.idle
    elapsed = idle.residual_sample(rng, n) if equilibrium else idle.sample(rng, n)
    live = np.flatnonzero(elapsed <= window)
    histogram = [n - live.size]
    window, elapsed = window.take(live), elapsed.take(live)
    while window.size:
        elapsed += idle.sample(rng, window.size)
        live = np.flatnonzero(elapsed <= window)
        histogram.append(window.size - live.size)
        window, elapsed = window.take(live), elapsed.take(live)
    return np.array(histogram, dtype=np.int64)


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
    counts = np.zeros(max(p.size for p in parts), dtype=np.int64)
    for part in parts:
        counts[:part.size] += part
    return counts
