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

The batch's two arrays are allocated once and each chunk walks into its own
slice of them.  Within a chunk the walk keeps two groups, the trials that
started busy and those that started idle, each in ascending trial order and
holding only its live trials by their int32 ids within the chunk: a trial
whose packet ends within its current period leaves its group.  The batch
holds each trial's collision time should its packet end within its current
period: step 0 writes the whole packet after a busy start and none of it
after an idle one, and each later step overwrites it for the trials still
live, so a trial's last write is its result.  The two groups alternate
between busy and idle in lockstep, so each step draws the busy group's next
periods and then the idle group's, one sampler call each.  That is the same
sequence of calls, with the same sizes, as drawing for every live trial at
once with the busy ones first, so a seed gives the same generator stream and
the same floats whichever way the live trials are stored.

The renewal-count walk carries its live trials the same way, and one walk
gives both counting conventions: each trial draws its window, its residual
first gap, then full gaps.  The ordinary convention counts the full gaps
that fit the window, and the equilibrium one the residual and the full gaps
after it, so both read the same full gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import CoexistenceScenario, activity_factor, require_count, require_nonnegative

CHUNK = 1 << 17
# Uniques per KS block: 64 KiB per float array.
KS_BLOCK = 8192


@dataclass(frozen=True)
class McConfig:
    trials: int
    seed: int = 0

    def __post_init__(self) -> None:
        require_count(self.trials, "trials", 1)
        require_count(self.seed, "seed", 0)


@dataclass(frozen=True)
class TrialBatch:
    initial_on: np.ndarray
    collision_time: np.ndarray


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous empirical CDF over a sorted sample."""

    samples: np.ndarray

    @classmethod
    def sorted_in_place(cls, values: np.ndarray) -> "EmpiricalCdf":
        """The CDF of ``values``, a float array the caller gives up: it is
        sorted in place and becomes ``samples``.

        Raises:
            ValueError: if there are no values or one is NaN or infinite.
        """
        if values.size == 0:
            raise ValueError("need at least one sample")
        values.sort()
        # Sorting puts -inf first and +inf and NaN last.
        if not (math.isfinite(values[0]) and math.isfinite(values[-1])):
            raise ValueError("samples must be finite")
        return cls(values)

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

        Raises:
            FloatingPointError: if the reference is NaN or infinite at a probe.
        """
        s = self.samples
        n = s.size
        # The sample is sorted, so a value is new wherever it differs from
        # its predecessor: unique j spans s[bounds[j]:bounds[j + 1]], the
        # uniques and counts np.unique would find.
        new = np.empty(n + 1, dtype=bool)
        new[0] = new[n] = True
        np.not_equal(s[1:], s[:-1], out=new[1:n])
        bounds = np.flatnonzero(new)
        del new
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
            right = np.max(np.abs(ref_right - ecdf))
            left = np.max(np.abs(ref_left - ecdf_left))
            # max() passes a NaN over, which would read a NaN CDF as a fit.
            if not math.isfinite(right + left):
                raise FloatingPointError(
                    "reference CDF is NaN or infinite on the sample values "
                    f"{float(unique[0])!r} to {float(unique[-1])!r}")
            worst = max(worst, right, left)
        return float(worst)


def _walk_chunk(scenario: CoexistenceScenario, rng: np.random.Generator,
                out: TrialBatch) -> None:
    """Walk one chunk of trials, writing each trial's start state and
    collision time into ``out``'s arrays."""
    start_on, collision = out.initial_on, out.collision_time
    n = collision.size
    packet = rng.exponential(scenario.packet_mean, n)
    np.less(rng.random(n), activity_factor(scenario), out=start_on)
    busy, idle = scenario.busy, scenario.idle
    # Each live trial's collision time should its packet end within its
    # current period: at step 0 the whole packet after a busy start and none
    # of it after an idle one.
    np.multiply(packet, start_on, out=collision)
    # Group 0 started busy and group 1 idle, so group g is busy on the steps
    # of g's parity.  Per live trial of a group: its id (below CHUNK), time
    # left and busy time so far; `periods` holds the current period lengths.
    # The first periods are drawn before the groups exist, so the samplers'
    # temporaries never sit on top of them, and each group's intp ids from
    # `flatnonzero` gather its packets and are freed for their int32 copy.
    started_busy = int(np.count_nonzero(start_on))
    periods = [busy.residual_sample(rng, started_busy),
               idle.residual_sample(rng, n - started_busy)]
    groups = []
    for started in (start_on, ~start_on):
        ids = np.flatnonzero(started)
        left = packet.take(ids)
        ids = ids.astype(np.int32)
        groups.append((ids, left, np.zeros(ids.size)))
    del started, ids, left
    step = 0
    while True:
        for g in (0, 1):
            on = (step - g) % 2 == 0
            (ids, left, busy_time), period = groups[g], periods[g]
            groups[g] = periods[g] = None  # so each gather below frees its input
            more = np.flatnonzero(period < left)
            ids = ids.take(more)
            left = left.take(more)
            busy_time = busy_time.take(more)
            period = period.take(more)
            del more
            left -= period
            if on:
                busy_time += period
            # Its collision time should the packet end within the next
            # period, which is busy after an idle one.
            collision[ids] = busy_time if on else busy_time + left
            groups[g] = (ids, left, busy_time)
        if groups[0][0].size + groups[1][0].size == 0:
            break
        step += 1
        on_group = step % 2
        for g, model in ((on_group, busy), (1 - on_group, idle)):
            periods[g] = model.sample(rng, groups[g][0].size)
    np.minimum(collision, packet, out=collision)


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
    """All trials, chunked; deterministic for a given (trials, seed).

    The batch owns its two arrays, 9 bytes per trial, and each chunk walks
    into its own slice of them.  Beside the batch, a 131,072-trial chunk
    peaks at 4.7-5.3 MiB traced on the seven benchmarked laws, at its first
    step: 38-43 bytes a trial for the packet lengths, each live trial's id,
    time left, busy time and period, and the intp copy of the ids that each
    scatter into the batch makes.  The int32 ids cost that copy yet keep the
    peak 0.6-0.8 MiB below intp ids.
    """
    batch = TrialBatch(np.empty(config.trials, dtype=bool), np.empty(config.trials))
    start = 0
    for rng, size in _chunks(config):
        part = slice(start, start + size)
        _walk_chunk(scenario, rng, TrialBatch(batch.initial_on[part], batch.collision_time[part]))
        start += size
    return batch


def split_by_start(batch: TrialBatch) -> tuple[EmpiricalCdf, EmpiricalCdf]:
    """(off-start CDF, on-start CDF) from one batch, which is left as it was."""
    return (EmpiricalCdf.sorted_in_place(batch.collision_time[~batch.initial_on]),
            EmpiricalCdf.sorted_in_place(batch.collision_time[batch.initial_on]))


def _count_chunk(scenario, rng, n: int, offset: float) -> tuple[np.ndarray, np.ndarray]:
    """(equilibrium, ordinary) histograms of the completed idle gaps of one
    chunk's trials, from one walk.

    ``left`` is each trial's window less its full gaps so far: its ordinary
    window is open while ``left`` >= 0 and its equilibrium window while
    ``left`` >= its residual first gap.  A trial leaves the walk when its
    ordinary window closes, and its equilibrium window has closed by then.
    """
    left = rng.exponential(scenario.packet_mean, n)
    left -= offset
    np.maximum(left, 0.0, out=left)
    idle = scenario.idle
    first = idle.residual_sample(rng, n)
    # Live trials whose equilibrium window has closed: bin 0 holds those
    # whose residual gap does not fit.
    closed = int(np.count_nonzero(left < first))
    equilibrium, ordinary = [closed], []
    while left.size:
        left -= idle.sample(rng, left.size)
        now = int(np.count_nonzero(left < first))
        equilibrium.append(now - closed)
        live = np.flatnonzero(left >= 0.0)
        ordinary.append(left.size - live.size)
        closed = now - ordinary[-1]
        left, first = left.take(live), first.take(live)
    return np.trim_zeros(np.array(equilibrium, np.int64), "b"), np.array(ordinary, np.int64)


def empirical_renewal_counts(scenario: CoexistenceScenario, config: McConfig,
                             offset: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(equilibrium, ordinary) histograms of completed idle gaps within the
    window max(T - offset, 0), from one walk of the chunks.

    Pure renewal counting: busy periods are not part of this window, matching
    the counting convention the analytic PMFs use.  The equilibrium
    convention's first gap is a stationary residual and the ordinary one's a
    full gap.  Both see the same windows, and the ordinary window's gaps are
    the full gaps that follow the equilibrium window's residual, so the two
    histograms are correlated; each is still an exact sample of its own
    convention's law, on an exponential idle law too.
    """
    require_nonnegative(offset, "offset")
    parts = [_count_chunk(scenario, rng, size, offset) for rng, size in _chunks(config)]
    totals = []
    for convention in (0, 1):
        counts = np.zeros(max(p[convention].size for p in parts), dtype=np.int64)
        for part in parts:
            counts[:part[convention].size] += part[convention]
        totals.append(counts)
    return totals[0], totals[1]
