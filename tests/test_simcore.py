import hashlib

import numpy as np
import pytest

from coexlink.ctd import ctd_mixture
from coexlink.dist import HyperexponentialIdle, activity_factor
from coexlink.presets import IDLE_MIXTURES, preset_scenario
from coexlink.renewal import CountKind, RenewalPmfSpec, pmf
from coexlink.simcore import (
    CHUNK,
    KS_BLOCK,
    EmpiricalCdf,
    McConfig,
    _count_chunk,
    _walk_chunk,
    empirical_renewal_counts,
    run_trials,
    split_by_start,
)
from conftest import ALL_PRESET_NAMES, SUITE_SEED, scenario_named
from oracles import (
    ChoiceHyperexponentialIdle,
    count_chunk_gather,
    ks_distance_unique,
    run_trial,
    walk_chunk_gather,
    with_choice_sampler,
)


def empirical_renewal_pmf(scenario, config: McConfig, offset: float = 0.0,
                          equilibrium: bool = True) -> np.ndarray:
    counts = empirical_renewal_counts(scenario, config, offset, equilibrium)
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
            EmpiricalCdf.from_samples([])

    def test_ks_handles_atoms_exactly(self):
        # three-point sample with a tie at 0; KS against a two-atom law is
        # computable by hand
        cdf = EmpiricalCdf.from_samples([0.0, 0.0, 1.0])

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
        cdf = EmpiricalCdf.from_samples(samples)
        d = cdf.ks_distance(lambda x: np.clip(np.asarray(x, dtype=float), 0.0, 1.0))
        assert d < 0.02  # 5% KS point at n=1e4 is ~0.0136


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
    # the two arrays the walk returns, initial_on and collision_time.
    @pytest.mark.parametrize("trials,seed,walk,counts", [
        (1000, 7,
         "2daee141c58bb0512dc8dd614f7a3d7b60bef7b4c72d96663d5e80f57902231b",
         "eb79812b0531d35e7fc8c0a680b89aea50b4ecb930ee54f2b824f59ffe477edc"),
        (CHUNK, 3,
         "853a0fc31b04d8ea5e2aafba3cf8843dc80d2fbc1033babc62f050064989aea8",
         "88fc2ac76e669abb8f48630cd56c0166abc6b871e73fb8d6260c7b3fb9ed99e9"),
        (2 * CHUNK + 777, SUITE_SEED,
         "aabfd84ce2299dfdc8cd00e9bc91000c107cb8d680a6c310d880abdbbf1cc7e7",
         "92b455b48c446cc567ca9b780fcf7c9fc9f4631024a893455e4243467d1ecf64"),
    ], ids=["below_chunk", "one_chunk", "two_chunks_plus_777"])
    def test_streams_frozen(self, trials, seed, walk, counts):
        scenario = preset_scenario("alpha_ge_0.5")
        config = McConfig(trials=trials, seed=seed)
        batch = run_trials(scenario, config)
        assert _digest(batch.initial_on, batch.collision_time) == walk
        assert _digest(empirical_renewal_counts(scenario, config, 374e-6)) == counts

    # sha256 of the walk and of all four count conventions (equilibrium and
    # ordinary, offsets 0 and 374 us) on a hyperexponential, an exponential
    # and an exponential-busy scenario, recorded while the walk still
    # gathered from full-size arrays and drew phases with `rng.choice`.  The
    # walk digests cover initial_on and collision_time; the ids name the
    # scenario and the trial count as `test_streams_frozen` does, so a
    # re-recorded digest renames no case.
    @pytest.mark.parametrize("name,trials,seed,walk,counts", [
        ("alpha_ge_0.5", 1000, 7,
         "2daee141c58bb0512dc8dd614f7a3d7b60bef7b4c72d96663d5e80f57902231b",
         "5fa4e414fd4ad65eb9a7f1e06de9744f0a485304aca1217f7d4429f897cb7fb9"),
        ("alpha_ge_0.5", CHUNK, 3,
         "853a0fc31b04d8ea5e2aafba3cf8843dc80d2fbc1033babc62f050064989aea8",
         "62ae9abd21cc67e75131e630f3699fcf361c5f7cba1f5fcd381df26d589d2f14"),
        ("alpha_ge_0.5", 2 * CHUNK + 777, SUITE_SEED,
         "aabfd84ce2299dfdc8cd00e9bc91000c107cb8d680a6c310d880abdbbf1cc7e7",
         "1061d76cdb31cfbfefdec295a1c10063698126ed265b4540bd998fbcd05d60cd"),
        ("exp_alpha_0.1575", 1000, 7,
         "ca6ec8475ab1ad69807b6a9a1f1a3c099553c5551ac67313033f0c5911d3e35e",
         "5c45c1e23a2a80c4d3495fab9e70e20578618add86be78d26e3da5552031e57f"),
        ("exp_alpha_0.1575", CHUNK, 3,
         "4ea2919534e152910c8a61a85a7d4baace3c8405580a2a437e3382fcfb5b327a",
         "17152e564a69fbfb7b7b9eb2bb858289c662f531c05d5a1e7f266dbb740d17d7"),
        ("exp_alpha_0.1575", 2 * CHUNK + 777, SUITE_SEED,
         "4f3148e5161c1b1f9d040ee6f4f19c497b0ec821dfb61ecf3d550abafab4df45",
         "94b84a6ab78d003d794fc33a873f57ff31aafcbdb6a726009eff5a5416a02f8a"),
        ("exp_busy", 1000, 7,
         "16bd4bc04562e5c3c8e88543765405316c0389b13dbbd9f2c0a8521d07e0e4fc",
         "5c45c1e23a2a80c4d3495fab9e70e20578618add86be78d26e3da5552031e57f"),
        ("exp_busy", CHUNK, 3,
         "ca662f1e6c3db210612b7924808ace58b50727563f3c7c41b2b75b9f7b15c5db",
         "ab858fde0843742c54d9c57b61b0b65fd1090ecb086e456b3fc34063f6e2b5a2"),
        ("exp_busy", 2 * CHUNK + 777, SUITE_SEED,
         "c9c98f2a3560e613ce9940a934d8afd3ccc46e863a02384ff8ba3f8c00fd2ce8",
         "6ca158aa27c0ba0e69e8b0b82c3db7dce02078dee5b7d82c17aad97c151fe35b"),
    ], ids=[f"{name}-{size}" for name in ("alpha_ge_0.5", "exp_alpha_0.1575", "exp_busy")
            for size in ("below_chunk", "one_chunk", "two_chunks_plus_777")])
    def test_streams_frozen_every_count_convention(self, name, trials, seed, walk, counts):
        scenario = scenario_named(name)
        config = McConfig(trials=trials, seed=seed)
        batch = run_trials(scenario, config)
        assert _digest(batch.initial_on, batch.collision_time) == walk
        parts = [empirical_renewal_counts(scenario, config, offset, equilibrium)
                 for equilibrium in (True, False) for offset in (0.0, 374e-6)]
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
            batch = _walk_chunk(scenario, rng, n)
            oracle = walk_chunk_gather(with_choice_sampler(scenario), rng_oracle, n)
            for field in ("initial_on", "collision_time"):
                got, want = getattr(batch, field), getattr(oracle, field)
                assert got.dtype == want.dtype and np.array_equal(got, want), (n, field)
            assert rng.bit_generator.state == rng_oracle.bit_generator.state

    @pytest.mark.parametrize("name", ORACLE_SCENARIOS)
    def test_count_chunk(self, name):
        scenario = scenario_named(name)
        for n in ORACLE_SIZES:
            for offset, equilibrium in ((0.0, True), (374e-6, False)):
                rng, rng_oracle = _twin_streams(SUITE_SEED + n)
                histogram = _count_chunk(scenario, rng, n, offset, equilibrium)
                counts = count_chunk_gather(with_choice_sampler(scenario), rng_oracle, n,
                                            offset, equilibrium)
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
            for size in (None, 0, 1, 7, CHUNK):
                rng, rng_oracle = _twin_streams(SUITE_SEED)
                name = "residual_sample" if residual else "sample"
                got = getattr(law, name)(rng, size)
                want = getattr(oracle, name)(rng_oracle, size)
                if size is None:
                    assert type(got) is float and got == want
                else:
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
            ecdf = EmpiricalCdf.from_samples(values)
            assert ecdf.ks_distance(cdf) == ks_distance_unique(ecdf, cdf)


class TestRenewalCounting:
    @pytest.mark.parametrize("equilibrium", [True, False])
    def test_counts_match_analytic_pmf(self, any_scenario, equilibrium):
        config = McConfig(trials=100_000, seed=SUITE_SEED)
        pmf_mc = empirical_renewal_pmf(
            any_scenario, config, offset=374e-6, equilibrium=equilibrium
        )
        kind = CountKind.EQUILIBRIUM if equilibrium else CountKind.ORDINARY
        spec = RenewalPmfSpec(any_scenario.idle, any_scenario.packet_rate, 374e-6, kind)
        pmf_exact = np.asarray([pmf(spec, n) for n in range(pmf_mc.size)])
        assert np.max(np.abs(pmf_mc - pmf_exact)) < 0.006

    def test_offset_validation(self, scenario_exp_0p1575):
        with pytest.raises(ValueError):
            empirical_renewal_pmf(scenario_exp_0p1575, McConfig(trials=10), offset=-1.0)


def test_long_run_busy_fraction(any_scenario, rng):
    frac = long_run_busy_fraction(any_scenario, cycles=200_000, rng=rng)
    assert frac == pytest.approx(activity_factor(any_scenario), rel=0.02)
