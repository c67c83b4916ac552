import hashlib

import numpy as np
import pytest

from coexlink.dist import activity_factor
from coexlink.presets import preset_scenario
from coexlink.renewal import CountKind, RenewalPmfSpec, pmf_values
from coexlink.simcore import (
    CHUNK,
    EmpiricalCdf,
    McConfig,
    empirical_renewal_counts,
    run_trial,
    run_trials,
    split_by_start,
)
from conftest import SUITE_SEED


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


class TestRenewalCounting:
    @pytest.mark.parametrize("equilibrium", [True, False])
    def test_counts_match_analytic_pmf(self, any_scenario, equilibrium):
        config = McConfig(trials=100_000, seed=SUITE_SEED)
        pmf_mc = empirical_renewal_pmf(
            any_scenario, config, offset=374e-6, equilibrium=equilibrium
        )
        kind = CountKind.EQUILIBRIUM if equilibrium else CountKind.ORDINARY
        spec = RenewalPmfSpec(any_scenario.idle, any_scenario.packet_rate, 374e-6, kind)
        pmf_exact = np.asarray(pmf_values(spec, pmf_mc.size - 1))
        assert np.max(np.abs(pmf_mc - pmf_exact)) < 0.006

    def test_offset_validation(self, scenario_exp_0p1575):
        with pytest.raises(ValueError):
            empirical_renewal_pmf(scenario_exp_0p1575, McConfig(trials=10), offset=-1.0)


def test_long_run_busy_fraction(any_scenario, rng):
    frac = long_run_busy_fraction(any_scenario, cycles=200_000, rng=rng)
    assert frac == pytest.approx(activity_factor(any_scenario), rel=0.02)
