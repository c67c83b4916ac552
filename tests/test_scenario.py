import textwrap

import pytest
from hypothesis import given, strategies as st

from coexlink.dist import (
    ConstantOnTime,
    ExponentialIdle,
    ExponentialOnTime,
    HyperexponentialIdle,
)
from coexlink.presets import IDLE_MIXTURES
from coexlink.scenario import (
    JobParams,
    ScenarioFormatError,
    config_hash,
    parse_duration,
    parse_scenario_file,
    parse_scenario_text,
    serialize_scenario,
)

FULL_DOC = textwrap.dedent(
    """
    interferer:
      busy: {kind: constant, duration: "374 us"}
      idle: {kind: exponential, mean: "2.0006 ms"}
    link:
      packet_mean: "1.984 ms"
      bit_time: "4 us"
    modulation:
      coeff: 1.0
      gain: 2.0
    job:
      trials: 50000
      seed: 7
      method: quadrature
      inr_start_db: -5.0
      inr_stop_db: 15.0
      inr_step_db: 5.0
    """
)


class TestParseDuration:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("374 us", 374e-6),
            ("1.984ms", 1.984e-3),
            ("  2 s ", 2.0),
            ("450 ns", 450e-9),
            ("1.2e1 ms", 1.2e-2),
        ],
    )
    def test_accepts(self, text, expected):
        assert parse_duration(text, "x") == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize(
        "bad", [374, 0.5, "374", "374 sec", "us 374", "-1 ms", "0 s", "", None]
    )
    def test_rejects(self, bad):
        with pytest.raises(ScenarioFormatError):
            parse_duration(bad, "x")

    def test_error_carries_path(self):
        with pytest.raises(ScenarioFormatError, match="link.packet_mean"):
            parse_duration("nope", "link.packet_mean")

    @given(
        value=st.floats(min_value=1e-3, max_value=1e3),
        unit=st.sampled_from(["ns", "us", "ms", "s"]),
    )
    def test_unit_scaling(self, value, unit):
        scale = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}[unit]
        parsed = parse_duration(f"{value!r} {unit}", "x")
        assert parsed == pytest.approx(value * scale, rel=1e-12)


class TestParseScenario:
    def test_full_document(self):
        doc = parse_scenario_text(FULL_DOC)
        sc = doc.scenario
        assert isinstance(sc.busy, ConstantOnTime)
        assert sc.busy.duration == pytest.approx(374e-6)
        assert isinstance(sc.idle, ExponentialIdle)
        assert sc.idle.mean == pytest.approx(2.0006e-3)
        assert sc.packet_mean == pytest.approx(1.984e-3)
        assert sc.bit_time == pytest.approx(4e-6)
        assert doc.modulation.coeff == 1.0
        assert doc.job.trials == 50000
        assert doc.job.seed == 7
        assert doc.job.method == "quadrature"
        # untouched fields keep their defaults
        assert doc.job.grid_points == 512

    def test_minimal_document(self):
        doc = parse_scenario_text(
            textwrap.dedent(
                """
                interferer:
                  busy: {kind: exponential, mean: "374 us"}
                  idle: {kind: preset, name: alpha_0.3_0.5}
                link:
                  packet_mean: "1.984 ms"
                """
            )
        )
        assert isinstance(doc.scenario.busy, ExponentialOnTime)
        assert doc.scenario.busy.mean == pytest.approx(374e-6)
        assert doc.scenario.idle is IDLE_MIXTURES["alpha_0.3_0.5"]
        assert doc.scenario.bit_time == 4e-6
        assert doc.job == JobParams()
        assert doc.modulation.gain == 2.0

    def test_hyperexponential_idle(self):
        doc = parse_scenario_text(
            textwrap.dedent(
                """
                interferer:
                  busy: {kind: constant, duration: "374 us"}
                  idle:
                    kind: hyperexponential
                    weights: [0.3, 0.7]
                    means: ["2 ms", "200 us"]
                link:
                  packet_mean: "1.984 ms"
                """
            )
        )
        idle = doc.scenario.idle
        assert isinstance(idle, HyperexponentialIdle)
        assert idle.weights == (0.3, 0.7)
        assert idle.means == pytest.approx((2e-3, 2e-4))

    @pytest.mark.parametrize(
        "mangle,fragment",
        [
            (lambda t: t.replace("kind: constant", "kind: fixed"), "busy.kind"),
            (lambda t: t.replace("interferer:", "interloper:"), "unknown keys"),
            (lambda t: t.replace("trials: 50000", "trials: 0"), "trials"),
            (lambda t: t.replace("trials: 50000", "trials: 0.5"), "integer"),
            (lambda t: t.replace("method: quadrature", "method: magic"), "method"),
            (lambda t: t.replace('duration: "374 us"', 'duration: "374 cycles"'), "duration"),
            (lambda t: t.replace("coeff: 1.0", "coeff: 3.0"), "modulation"),
            (lambda t: t.replace("inr_step_db: 5.0", "inr_step_db: -1.0"), "inr_step_db"),
            (lambda t: t.replace("seed: 7", "seed: 7\n  epsilon: 1.0e-9"), "epsilon"),
        ],
    )
    def test_schema_violations(self, mangle, fragment):
        with pytest.raises(ScenarioFormatError, match=fragment):
            parse_scenario_text(mangle(FULL_DOC))

    def test_rejects_unknown_idle_preset(self):
        bad = FULL_DOC.replace(
            'idle: {kind: exponential, mean: "2.0006 ms"}',
            "idle: {kind: preset, name: alpha_everything}",
        )
        with pytest.raises(ScenarioFormatError, match="alpha_everything"):
            parse_scenario_text(bad)

    def test_rejects_non_mapping_and_bad_yaml(self):
        with pytest.raises(ScenarioFormatError, match="top level"):
            parse_scenario_text("- a\n- b\n")
        with pytest.raises(ScenarioFormatError, match="YAML"):
            parse_scenario_text("interferer: [unclosed\n")

    def test_missing_sections(self):
        with pytest.raises(ScenarioFormatError, match="missing keys"):
            parse_scenario_text("interferer:\n  busy: {kind: constant, duration: '1 ms'}\n  idle: {kind: exponential, mean: '1 ms'}\n")

    def test_parse_file_and_source_in_errors(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(FULL_DOC)
        doc = parse_scenario_file(path)
        assert doc.scenario.packet_mean == pytest.approx(1.984e-3)
        path.write_text(FULL_DOC.replace("kind: constant", "kind: fixed"))
        with pytest.raises(ScenarioFormatError, match="scenario.yaml"):
            parse_scenario_file(path)


class TestJobParams:
    def test_defaults_valid(self):
        job = JobParams()
        assert job.trials == 200_000
        assert job.method == "hybrid"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grid_points": 1},
            {"inr_stop_db": -20.0},
            {"inr_step_db": 0.0},
            {"method": "fastest"},
            {"method": "gumbel"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ScenarioFormatError):
            JobParams(**kwargs)


class TestRoundTripAndHash:
    def test_serialize_round_trip(self):
        doc = parse_scenario_text(FULL_DOC)
        text = serialize_scenario(doc)
        again = parse_scenario_text(text)
        assert again.tree == doc.tree
        assert again.scenario == doc.scenario
        assert again.job == doc.job

    def test_config_hash_stability(self):
        doc = parse_scenario_text(FULL_DOC)
        h1 = config_hash(doc, {"snr_db": 10.0})
        h2 = config_hash(parse_scenario_text(FULL_DOC), {"snr_db": 10.0})
        assert h1 == h2
        assert len(h1) == 16
        assert config_hash(doc, {"snr_db": 12.0}) != h1
        assert config_hash(None, {"preset": "alpha_lt_0.1"}) != h1
