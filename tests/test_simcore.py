import hashlib

import numpy as np
import pytest

from coexlink.ctd import ctd_mixture
from coexlink.dist import HyperexponentialIdle, activity_factor
from coexlink.presets import IDLE_MIXTURES, preset_scenario
from coexlink.renewal import CountKind, RenewalPmfSpec, pmf
from coexlink.simcore import (
    CHUNK,
    EmpiricalCdf,
    McConfig,
    _count_chunk,
    _walk_chunk,
    empirical_renewal_counts,
    run_trial,
    run_trials,
    split_by_start,
)
from conftest import ALL_PRESET_NAMES, SUITE_SEED, scenario_named
from oracles import (
    ChoiceHyperexponentialIdle,
    count_chunk_gather,
    ks_distance_unique,
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
    def test_evaluate_steps(self):
        cdf = EmpiricalCdf.from_samples([2.0, 1.0, 2.0, 3.0])
        x = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 9.0])
        np.testing.assert_allclose(
            cdf.evaluate(x), [0.0, 0.25, 0.25, 0.75, 0.75, 1.0, 1.0]
        )

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
        np.testing.assert_array_equal(a.renewal_count, b.renewal_count)
        c = run_trials(scenario_exp_0p1575, McConfig(trials=3000, seed=43))
        assert not np.array_equal(a.collision_time, c.collision_time)

    def test_batch_invariants(self, any_scenario):
        batch = run_trials(any_scenario, McConfig(trials=50_000, seed=SUITE_SEED))
        assert batch.trials == 50_000
        assert np.all(batch.collision_time >= 0.0)
        assert np.all(batch.collision_time <= batch.packet_time + 1e-15)
        assert np.all(batch.renewal_count >= 0)
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
        s_renew = np.array([t.renewal_count for t in scalar])
        batch = run_trials(scenario_exp_0p1575, McConfig(trials=n, seed=SUITE_SEED + 1))
        assert np.mean(batch.collision_time) == pytest.approx(
            np.mean(s_coll), rel=0.05
        )
        assert np.mean(batch.collision_time == 0.0) == pytest.approx(
            np.mean(s_coll == 0.0), abs=0.01
        )
        assert np.mean(batch.renewal_count) == pytest.approx(
            np.mean(s_renew), rel=0.05
        )

    def test_split_by_start_partitions(self, scenario_exp_0p1575):
        batch = run_trials(scenario_exp_0p1575, McConfig(trials=20_000, seed=7))
        off, on = split_by_start(batch)
        assert off.samples.size + on.samples.size == batch.trials
        assert np.all(on.samples > 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(trials=0)

    # sha256 of the outputs on alpha_ge_0.5, recorded when run_trials and
    # empirical_renewal_counts each had their own chunk loop: the shared one
    # must keep every SeedSequence stream and chunk size, the last chunk of a
    # count that is not a multiple of CHUNK included.
    @pytest.mark.parametrize("trials,seed,walk,counts", [
        (1000, 7,
         "b10802578f4a6e4cfcbced1735cfd1361062ad3144746c69478eae41bcdc6ad4",
         "eb79812b0531d35e7fc8c0a680b89aea50b4ecb930ee54f2b824f59ffe477edc"),
        (CHUNK, 3,
         "f775bbedab403a416d450b4c03739e983ba7ad70fff15ce5f725aa3af1fe70e0",
         "88fc2ac76e669abb8f48630cd56c0166abc6b871e73fb8d6260c7b3fb9ed99e9"),
        (2 * CHUNK + 777, SUITE_SEED,
         "2c9b9df030820b17e92e74f41dd010fc3ae9b9abe2e1aff991b153465cd0fd7a",
         "92b455b48c446cc567ca9b780fcf7c9fc9f4631024a893455e4243467d1ecf64"),
    ], ids=["below_chunk", "one_chunk", "two_chunks_plus_777"])
    def test_streams_frozen(self, trials, seed, walk, counts):
        scenario = preset_scenario("alpha_ge_0.5")
        config = McConfig(trials=trials, seed=seed)
        batch = run_trials(scenario, config)
        assert _digest(batch.initial_on, batch.packet_time, batch.collision_time,
                       batch.renewal_count) == walk
        assert _digest(empirical_renewal_counts(scenario, config, 374e-6)) == counts

    # sha256 of the walk and of all four count conventions (equilibrium and
    # ordinary, offsets 0 and 374 us) on a hyperexponential, an exponential
    # and an exponential-busy scenario, recorded while the walk still
    # gathered from full-size arrays and drew phases with `rng.choice`.
    @pytest.mark.parametrize("name,trials,seed,walk,counts", [
        ("alpha_ge_0.5", 1000, 7,
         "b10802578f4a6e4cfcbced1735cfd1361062ad3144746c69478eae41bcdc6ad4",
         "5fa4e414fd4ad65eb9a7f1e06de9744f0a485304aca1217f7d4429f897cb7fb9"),
        ("alpha_ge_0.5", CHUNK, 3,
         "f775bbedab403a416d450b4c03739e983ba7ad70fff15ce5f725aa3af1fe70e0",
         "62ae9abd21cc67e75131e630f3699fcf361c5f7cba1f5fcd381df26d589d2f14"),
        ("alpha_ge_0.5", 2 * CHUNK + 777, SUITE_SEED,
         "2c9b9df030820b17e92e74f41dd010fc3ae9b9abe2e1aff991b153465cd0fd7a",
         "1061d76cdb31cfbfefdec295a1c10063698126ed265b4540bd998fbcd05d60cd"),
        ("exp_alpha_0.1575", 1000, 7,
         "a3c4429906001c7e91e4f7dce90abc02b08e32a3ea0083c78892b9cfb2ac3726",
         "5c45c1e23a2a80c4d3495fab9e70e20578618add86be78d26e3da5552031e57f"),
        ("exp_alpha_0.1575", CHUNK, 3,
         "8a602d8d5a36c9e3ec66c5e51a396df6413f66984c5afb7a0b1b85d41f981b84",
         "17152e564a69fbfb7b7b9eb2bb858289c662f531c05d5a1e7f266dbb740d17d7"),
        ("exp_alpha_0.1575", 2 * CHUNK + 777, SUITE_SEED,
         "8bb93f6658d016ea0a98f058b9388856d94268042346c2b7779b808bdc17f03c",
         "94b84a6ab78d003d794fc33a873f57ff31aafcbdb6a726009eff5a5416a02f8a"),
        ("exp_busy", 1000, 7,
         "711ebb08569f21ab21628d78dac47c956a4428ee5a7b1b5c968c8bfd89766429",
         "5c45c1e23a2a80c4d3495fab9e70e20578618add86be78d26e3da5552031e57f"),
        ("exp_busy", CHUNK, 3,
         "52d020636e2af280e1021225bbdb162ae34a1ea3009a27590838a59cf8edcfc8",
         "ab858fde0843742c54d9c57b61b0b65fd1090ecb086e456b3fc34063f6e2b5a2"),
        ("exp_busy", 2 * CHUNK + 777, SUITE_SEED,
         "2d7438e8be1bc235f99621434c2bc73914afc2341515cd8554933a6a1a67e100",
         "6ca158aa27c0ba0e69e8b0b82c3db7dce02078dee5b7d82c17aad97c151fe35b"),
    ])
    def test_streams_frozen_every_count_convention(self, name, trials, seed, walk, counts):
        scenario = scenario_named(name)
        config = McConfig(trials=trials, seed=seed)
        batch = run_trials(scenario, config)
        assert _digest(batch.initial_on, batch.packet_time, batch.collision_time,
                       batch.renewal_count) == walk
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
            for field in ("initial_on", "packet_time", "collision_time", "renewal_count"):
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
