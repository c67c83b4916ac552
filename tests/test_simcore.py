import hashlib
import math

import numpy as np
import pytest

from coexlink.ctd import ctd_mixture
from coexlink.dist import ExponentialIdle, HyperexponentialIdle, activity_factor
from coexlink.presets import IDLE_MIXTURES, preset_scenario
from coexlink.renewal import pmf
from coexlink.simcore import (
    CHUNK,
    KS_BLOCK,
    EmpiricalCdf,
    McConfig,
    TrialBatch,
    _count_chunk,
    _walk_chunk,
    empirical_renewal_counts,
    run_trials,
    split_by_start,
)
from conftest import ALL_PRESET_NAMES, EXTRA_SCENARIOS, SUITE_SEED, scenario_named
from oracles import (
    ChoiceHyperexponentialIdle,
    count_chunk_gather,
    empirical_cdf,
    ks_distance_unique,
    run_trial,
    walk_chunk_gather,
    with_choice_sampler,
)


def empirical_renewal_pmf(scenario, config: McConfig, offset: float = 0.0,
                          equilibrium: bool = True) -> np.ndarray:
    counts = empirical_renewal_counts(scenario, config, offset)[0 if equilibrium else 1]
    return counts / config.trials


def long_run_busy_fraction(scenario, cycles: int, rng: np.random.Generator) -> float:
    """Busy fraction over many full cycles; converges to the activity factor."""
    busy = np.asarray(scenario.busy.sample(rng, cycles), dtype=float)
    idle = np.asarray(scenario.idle.sample(rng, cycles), dtype=float)
    total_busy = float(np.sum(busy))
    return total_busy / (total_busy + float(np.sum(idle)))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


class TestEmpiricalCdf:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            empirical_cdf([])

    def test_ks_handles_atoms_exactly(self):
        # three-point sample with a tie at 0; KS against a two-atom law is
        # computable by hand
        cdf = empirical_cdf([0.0, 0.0, 1.0])

        def matching(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < 0.0, 0.0, np.where(x < 1.0, 2.0 / 3.0, 1.0))

        def shifted(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < 0.0, 0.0, np.where(x < 1.0, 1.0 / 3.0, 1.0))

        assert cdf.ks_distance(matching) == pytest.approx(0.0, abs=1e-9)
        assert cdf.ks_distance(shifted) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_ks_continuous_case(self, rng):
        samples = rng.uniform(0.0, 1.0, 10_000)
        cdf = empirical_cdf(samples)
        d = cdf.ks_distance(lambda x: np.clip(np.asarray(x, dtype=float), 0.0, 1.0))
        assert d < 0.02  # 5% KS point at n=1e4 is ~0.0136

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_samples(self, bad):
        with pytest.raises(ValueError, match="samples must be finite"):
            empirical_cdf([0.5, bad, 0.0])

    @pytest.mark.parametrize("nan_share", [1.0, 0.5, 1e-4])
    def test_nan_reference_is_a_numerical_failure(self, rng, nan_share):
        # max() passes a NaN over, so a reference that is NaN on all, half or
        # a few of the probes once gave KS 0.0; the sample spans three blocks
        ecdf = empirical_cdf(rng.random(3 * KS_BLOCK))
        assert ecdf.samples[-1] > 1.0 - nan_share

        def partly_nan(x):
            x = np.asarray(x, dtype=float)
            return np.where(x > 1.0 - nan_share, np.nan, np.clip(x, 0.0, 1.0))

        with pytest.raises(FloatingPointError, match="reference CDF is NaN or infinite"):
            ecdf.ks_distance(partly_nan)

    def test_sorted_in_place_takes_the_callers_array(self, rng):
        values = rng.random(1000)
        kept = values.copy()
        ecdf = EmpiricalCdf.sorted_in_place(values)
        assert ecdf.samples is values
        assert np.array_equal(values, np.sort(kept))


class TestEngine:
    def test_deterministic_for_seed(self, scenario_exp_0p1575):
        a = run_trials(scenario_exp_0p1575, McConfig(trials=3000, seed=42))
        b = run_trials(scenario_exp_0p1575, McConfig(trials=3000, seed=42))
        np.testing.assert_array_equal(a.collision_time, b.collision_time)
        c = run_trials(scenario_exp_0p1575, McConfig(trials=3000, seed=43))
        assert not np.array_equal(a.collision_time, c.collision_time)

    def test_batch_invariants(self, any_scenario):
        batch = run_trials(any_scenario, McConfig(trials=50_000, seed=SUITE_SEED))
        assert batch.initial_on.size == batch.collision_time.size == 50_000
        assert np.all(batch.collision_time >= 0.0)
        # a busy start collides immediately
        assert np.all(batch.collision_time[batch.initial_on] > 0.0)
        alpha = activity_factor(any_scenario)
        assert np.mean(batch.initial_on) == pytest.approx(alpha, abs=0.01)

    def test_off_start_zero_collision_mass(self, scenario_exp_0p1575):
        # P(no collision | idle start) = residual-idle transform at the rate
        batch = run_trials(scenario_exp_0p1575, McConfig(trials=400_000, seed=SUITE_SEED))
        off = batch.collision_time[~batch.initial_on]
        expected = scenario_exp_0p1575.idle.residual_laplace(
            scenario_exp_0p1575.packet_rate
        )
        assert np.mean(off == 0.0) == pytest.approx(expected, abs=0.005)

    def test_chunked_walk_matches_scalar_reference(self, scenario_exp_0p1575):
        # same law, different code path: compare summary statistics
        n = 30_000
        rng = np.random.default_rng(SUITE_SEED)
        scalar = [run_trial(scenario_exp_0p1575, rng) for _ in range(n)]
        s_coll = np.array([t.collision_time for t in scalar])
        batch = run_trials(scenario_exp_0p1575, McConfig(trials=n, seed=SUITE_SEED + 1))
        assert np.mean(batch.collision_time) == pytest.approx(
            np.mean(s_coll), rel=0.05
        )
        assert np.mean(batch.collision_time == 0.0) == pytest.approx(
            np.mean(s_coll == 0.0), abs=0.01
        )

    def test_split_by_start_partitions(self, scenario_exp_0p1575):
        batch = run_trials(scenario_exp_0p1575, McConfig(trials=20_000, seed=7))
        off, on = split_by_start(batch)
        assert off.samples.size + on.samples.size == batch.collision_time.size
        assert np.all(on.samples > 0.0)

    def test_split_by_start_leaves_the_batch_as_it_was(self, scenario_exp_0p1575):
        # the conditional samples are sorted in place, on copies of their own
        batch = run_trials(scenario_exp_0p1575, McConfig(trials=20_000, seed=7))
        initial_on, collision = batch.initial_on.copy(), batch.collision_time.copy()
        off, on = split_by_start(batch)
        assert np.array_equal(batch.initial_on, initial_on)
        assert np.array_equal(batch.collision_time, collision)
        assert np.array_equal(off.samples, np.sort(collision[~initial_on]))
        assert np.array_equal(on.samples, np.sort(collision[initial_on]))

    def test_run_trials_owns_its_arrays(self, scenario_exp_0p1575):
        # so the validator may sort the collision times in place
        batch = run_trials(scenario_exp_0p1575, McConfig(trials=2 * CHUNK + 5, seed=7))
        for array in (batch.initial_on, batch.collision_time):
            assert array.flags.owndata and array.flags.writeable and array.size == 2 * CHUNK + 5
        assert not np.shares_memory(batch.initial_on, batch.collision_time)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(trials=0)

    @pytest.mark.parametrize("trials,seed,field,shown", [
        (2e5, 1, "trials", "200000.0"),
        (True, 1, "trials", "True"),
        (np.True_, 1, "trials", "True"),
        (0, 1, "trials", "0"),
        (-5, 1, "trials", "-5"),
        (10, 1.5, "seed", "1.5"),
        (10, False, "seed", "False"),
        (10, -1, "seed", "-1"),
        (10, np.float64(3.0), "seed", "3.0"),
    ])
    def test_config_names_the_bad_field(self, trials, seed, field, shown):
        with pytest.raises(ValueError, match=f"^{field} must be an integer") as info:
            McConfig(trials=trials, seed=seed)
        assert shown in str(info.value)

    def test_config_takes_python_and_numpy_integers(self):
        for trials, seed in ((1, 0), (np.int64(5), np.uint32(3)), (np.int32(7), np.int64(0))):
            config = McConfig(trials=trials, seed=seed)
            assert (config.trials, config.seed) == (trials, seed)

    # sha256 of the outputs on alpha_ge_0.5, recorded when run_trials and
    # empirical_renewal_counts each had their own chunk loop: the shared one
    # must keep every SeedSequence stream and chunk size, the last chunk of a
    # count that is not a multiple of CHUNK included.  The walk digest covers
    # the two arrays the walk returns, initial_on and collision_time.  The
    # count digests were re-recorded when both conventions came to read one
    # walk's full gaps.
    @pytest.mark.parametrize("trials,seed,walk,counts", [
        (1000, 7,
         "2daee141c58bb0512dc8dd614f7a3d7b60bef7b4c72d96663d5e80f57902231b",
         "1d2e6f707081d5a8fd222172815d4c4a8c60c62466f9a55c36429c913364b89c"),
        (CHUNK, 3,
         "853a0fc31b04d8ea5e2aafba3cf8843dc80d2fbc1033babc62f050064989aea8",
         "d2e79191dd217e321d4d67c08c1d618c68328ffe9c72f682976a6a95b6de849e"),
        (2 * CHUNK + 777, SUITE_SEED,
         "aabfd84ce2299dfdc8cd00e9bc91000c107cb8d680a6c310d880abdbbf1cc7e7",
         "c88e5e4a56a5568c6d3d90cd4d2a61ea58af4b0115218bbe4b1938e94a4e363f"),
    ], ids=["below_chunk", "one_chunk", "two_chunks_plus_777"])
    def test_streams_frozen(self, trials, seed, walk, counts):
        scenario = preset_scenario("alpha_ge_0.5")
        config = McConfig(trials=trials, seed=seed)
        batch = run_trials(scenario, config)
        assert _digest(batch.initial_on, batch.collision_time) == walk
        assert _digest(empirical_renewal_counts(scenario, config, 374e-6)[0]) == counts

    # sha256 of the walk and of all four count conventions (equilibrium and
    # ordinary, offsets 0 and 374 us) on a hyperexponential, an exponential
    # and an exponential-busy scenario, recorded while the walk still
    # gathered from full-size arrays and drew phases with `rng.choice`; the
    # count digests were re-recorded when both conventions came to read one
    # walk's full gaps.  The walk digests cover initial_on and collision_time;
    # the ids name the scenario and the trial count as `test_streams_frozen`
    # does, so a re-recorded digest renames no case.
    @pytest.mark.parametrize("name,trials,seed,walk,counts", [
        ("alpha_ge_0.5", 1000, 7,
         "2daee141c58bb0512dc8dd614f7a3d7b60bef7b4c72d96663d5e80f57902231b",
         "0f5ec4379773bdcbdb3cc4914fab520d20e28e736e502ee83d0df80e59b638ba"),
        ("alpha_ge_0.5", CHUNK, 3,
         "853a0fc31b04d8ea5e2aafba3cf8843dc80d2fbc1033babc62f050064989aea8",
         "2992a690cf1dc4c1103de6f0f72a7961d6d80b5a24128e2a7a327962acabf3bf"),
        ("alpha_ge_0.5", 2 * CHUNK + 777, SUITE_SEED,
         "aabfd84ce2299dfdc8cd00e9bc91000c107cb8d680a6c310d880abdbbf1cc7e7",
         "89f5ea581793330c92bae67cd37c4d262548bc9ef11c82e68884e4e5423b301a"),
        ("exp_alpha_0.1575", 1000, 7,
         "ca6ec8475ab1ad69807b6a9a1f1a3c099553c5551ac67313033f0c5911d3e35e",
         "7055bc3d8f2246e3b943d84b91a57acf214bcc053bbaf9978cd2a323588b6d93"),
        ("exp_alpha_0.1575", CHUNK, 3,
         "4ea2919534e152910c8a61a85a7d4baace3c8405580a2a437e3382fcfb5b327a",
         "758d7356b67f6629f506a6c5e9946179e610a0797cde99c842e2f3aee7da9caa"),
        ("exp_alpha_0.1575", 2 * CHUNK + 777, SUITE_SEED,
         "4f3148e5161c1b1f9d040ee6f4f19c497b0ec821dfb61ecf3d550abafab4df45",
         "efecf4a138356228a368835a9de824f4917f9f9cc71a7b4b2cbe4a60477e0ff0"),
        ("exp_busy", 1000, 7,
         "16bd4bc04562e5c3c8e88543765405316c0389b13dbbd9f2c0a8521d07e0e4fc",
         "7055bc3d8f2246e3b943d84b91a57acf214bcc053bbaf9978cd2a323588b6d93"),
        ("exp_busy", CHUNK, 3,
         "ca662f1e6c3db210612b7924808ace58b50727563f3c7c41b2b75b9f7b15c5db",
         "250bf5372dd4548ca9ede2c63d01efe65b7ff8631e0c4f1d868bc442f36f2e20"),
        ("exp_busy", 2 * CHUNK + 777, SUITE_SEED,
         "c9c98f2a3560e613ce9940a934d8afd3ccc46e863a02384ff8ba3f8c00fd2ce8",
         "e7c15260c6554368148e1ec0b90d41fe1b58849e04e3a80be2757257c718e832"),
    ], ids=[f"{name}-{size}" for name in ("alpha_ge_0.5", "exp_alpha_0.1575", "exp_busy")
            for size in ("below_chunk", "one_chunk", "two_chunks_plus_777")])
    def test_streams_frozen_every_count_convention(self, name, trials, seed, walk, counts):
        scenario = scenario_named(name)
        config = McConfig(trials=trials, seed=seed)
        batch = run_trials(scenario, config)
        assert _digest(batch.initial_on, batch.collision_time) == walk
        by_offset = [empirical_renewal_counts(scenario, config, offset) for offset in (0.0, 374e-6)]
        parts = [counts[convention] for convention in (0, 1) for counts in by_offset]
        assert _digest(np.array([p.size for p in parts]), *parts) == counts

    def test_scalar_walk_frozen(self):
        # 300 reference-walk trials on a hyperexponential preset: scalar
        # draws of both idle samplers and of the residual busy time
        rng = np.random.default_rng(SUITE_SEED)
        scenario = preset_scenario("alpha_lt_0.1")
        trials = [run_trial(scenario, rng) for _ in range(300)]
        assert _digest(
            np.array([t.initial_on for t in trials]),
            np.array([t.packet_time for t in trials]),
            np.array([t.collision_time for t in trials]),
            np.array([t.renewal_count for t in trials]),
        ) == "445126955798bc4e8589d948b2ea6aa140b76d98548fb3949b5b2f2da84248d9"


# The walk, the count loop and the phase samplers must consume each stream
# exactly as the gather/scatter loops and `rng.choice` did (tests/oracles.py)
# and return the same floats, so every seed keeps its results.
ORACLE_SCENARIOS = ALL_PRESET_NAMES + ["saturated", "exp_busy"]
ORACLE_SIZES = [1, 17, CHUNK, CHUNK + 777]


def _twin_streams(seed: int):
    return np.random.default_rng(seed), np.random.default_rng(seed)


class TestAgainstGatherOracle:
    @pytest.mark.parametrize("name", ORACLE_SCENARIOS)
    def test_walk_chunk(self, name):
        scenario = scenario_named(name)
        for n in ORACLE_SIZES:
            rng, rng_oracle = _twin_streams(SUITE_SEED + n)
            batch = TrialBatch(np.empty(n, dtype=bool), np.empty(n))
            _walk_chunk(scenario, rng, batch)
            oracle = walk_chunk_gather(with_choice_sampler(scenario), rng_oracle, n)
            for field in ("initial_on", "collision_time"):
                got, want = getattr(batch, field), getattr(oracle, field)
                assert got.dtype == want.dtype and np.array_equal(got, want), (n, field)
            assert rng.bit_generator.state == rng_oracle.bit_generator.state

    @pytest.mark.parametrize("name", ORACLE_SCENARIOS)
    def test_count_chunk(self, name):
        # one walk gives both conventions, each the histogram of the gather
        # loop's per-trial counts on a twin stream
        scenario = scenario_named(name)
        for n in ORACLE_SIZES:
            for offset in (0.0, 374e-6):
                rng, rng_oracle = _twin_streams(SUITE_SEED + n)
                histograms = _count_chunk(scenario, rng, n, offset)
                oracle = count_chunk_gather(with_choice_sampler(scenario), rng_oracle, n, offset)
                for histogram, counts in zip(histograms, oracle):
                    assert np.array_equal(histogram, np.bincount(counts)), (n, offset)
                    assert histogram.dtype == np.int64 and histogram[-1] > 0
                assert rng.bit_generator.state == rng_oracle.bit_generator.state

    @pytest.mark.parametrize("law", [
        *(preset_scenario(name).idle for name in sorted(IDLE_MIXTURES)),
        HyperexponentialIdle((1.0,), (2e-3,)),
        HyperexponentialIdle((0.25, 0.25, 0.25, 0.25), (1e-4, 1e-3, 1e-2, 1e-1)),
    ], ids=lambda law: f"{len(law.weights)}_phases_mean_{law.mean:.3g}")
    def test_phase_samplers(self, law):
        oracle = ChoiceHyperexponentialIdle(law.weights, law.means)
        for residual in (False, True):
            for size in (0, 1, 7, CHUNK):
                rng, rng_oracle = _twin_streams(SUITE_SEED)
                name = "residual_sample" if residual else "sample"
                got = getattr(law, name)(rng, size)
                want = getattr(oracle, name)(rng_oracle, size)
                assert got.shape == (size,) and np.array_equal(got, want)
                assert rng.bit_generator.state == rng_oracle.bit_generator.state

    def test_ks_uniques_from_the_sorted_sample(self, rng):
        scenario = preset_scenario("alpha_ge_0.5")
        mixture = lambda x: ctd_mixture(scenario, x)  # noqa: E731
        uniform = lambda x: np.clip(np.asarray(x, dtype=float), 0.0, 1.0)  # noqa: E731
        walked = run_trials(scenario, McConfig(trials=50_000, seed=SUITE_SEED)).collision_time
        samples = [
            (walked, mixture),                                  # atom at 0
            (np.round(walked, 4), mixture),                     # ties everywhere
            (np.round(rng.random(20_000), 2), uniform),
            (np.zeros(10), uniform),                            # a single value
            (np.array([0.5]), uniform),
            (np.array([0.0, 0.0, 1.0]), uniform),
        ]
        # Unique counts on either side of the block edges, each value drawn
        # 1-3 times, so blocks start and end inside runs of ties.
        for uniques in (1, KS_BLOCK - 1, KS_BLOCK, KS_BLOCK + 1, 3 * KS_BLOCK + 5):
            values = np.repeat(rng.random(uniques), rng.integers(1, 4, uniques))
            assert np.unique(values).size == uniques
            samples.append((values, uniform))
        # One value far above the first block: the probes' hair is set by the
        # whole sample's maximum, and a steep CDF shows a block-local one.
        steep = lambda x: np.clip(np.asarray(x, dtype=float) * 1e5, 0.0, 1.0)  # noqa: E731
        samples.append((np.append(np.arange(KS_BLOCK) * 1e-9, 1e3), steep))
        for values, cdf in samples:
            ecdf = empirical_cdf(values)
            assert ecdf.ks_distance(cdf) == ks_distance_unique(ecdf, cdf)


class TestRenewalCounting:
    @pytest.mark.parametrize("equilibrium", [True, False])
    def test_counts_match_analytic_pmf(self, any_scenario, equilibrium):
        config = McConfig(trials=100_000, seed=SUITE_SEED)
        pmf_mc = empirical_renewal_pmf(
            any_scenario, config, offset=374e-6, equilibrium=equilibrium
        )
        pmf_exact = pmf(any_scenario.idle, any_scenario.packet_rate, 374e-6,
                        pmf_mc.size)[0 if equilibrium else 1]
        assert np.max(np.abs(pmf_mc - pmf_exact)) < 0.006

    @pytest.mark.parametrize("name", ["alpha_ge_0.5", "exp_alpha_0.1575"])
    @pytest.mark.parametrize("offset", [0.0, 374e-6])
    def test_conventions_read_the_same_full_gaps(self, monkeypatch, name, offset):
        # With a residual first gap of 0 the equilibrium window completes it
        # at once and then the ordinary window's full gaps, so its histogram
        # is the ordinary one behind an empty bin 0.
        for law in (ExponentialIdle, HyperexponentialIdle):
            monkeypatch.setattr(law, "residual_sample", lambda self, rng, size: np.zeros(size))
        equilibrium, ordinary = empirical_renewal_counts(
            scenario_named(name), McConfig(trials=150_000, seed=SUITE_SEED), offset)
        assert np.array_equal(equilibrium, np.concatenate(([0], ordinary)))

    def test_offset_validation(self, scenario_exp_0p1575):
        with pytest.raises(ValueError):
            empirical_renewal_pmf(scenario_exp_0p1575, McConfig(trials=10), offset=-1.0)
        # a non-finite offset once gave every window zero gaps, silently
        for offset in (math.nan, math.inf):
            with pytest.raises(ValueError, match="offset must be finite and nonnegative"):
                empirical_renewal_counts(scenario_exp_0p1575, McConfig(trials=10), offset)


def test_long_run_busy_fraction(any_scenario, rng):
    frac = long_run_busy_fraction(any_scenario, cycles=200_000, rng=rng)
    assert frac == pytest.approx(activity_factor(any_scenario), rel=0.02)
