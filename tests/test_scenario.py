import re
import textwrap
from pathlib import Path

import pytest
import yaml
from hypothesis import given, strategies as st

from coexlink import scenario
from coexlink.dist import (
    ConstantOnTime,
    ExponentialIdle,
    ExponentialOnTime,
    HyperexponentialIdle,
)
from coexlink.presets import IDLE_MIXTURES
from coexlink.scenario import (
    JobParams,
    ScenarioDoc,
    ScenarioFormatError,
    config_hash,
    parse_duration,
    parse_scenario_file,
    parse_scenario_text,
)
from test_cli import LINK_TEXT

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


def serialize_scenario(doc: ScenarioDoc) -> str:
    """Canonical YAML of the original tree; parses back to an equal document."""
    return yaml.safe_dump(doc.tree, sort_keys=True, default_flow_style=False)


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
        "bad", [374, 0.5, "374", "374 sec", "us 374", "-1 ms", "0 s", "", None,
                "1e400 s", "1e-320 s"]
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
            {"method": "qn"},
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


# -- libyaml's C parser and PyYAML's pure-Python one build the same tree --

needs_libyaml = pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                                   reason="PyYAML built without libyaml")

_REPO = Path(__file__).resolve().parents[1]
_README_BLOCKS = re.findall(r"```yaml\n(.*?)```", (_REPO / "README.md").read_text(), re.S)

# Every scenario text in the repository, by where it lives.
REPO_YAML = {
    **{f"benchmark/scenarios/{path.name}": path.read_text()
       for path in sorted((_REPO / "benchmark" / "scenarios").glob("*.yaml"))},
    **{f"README.md yaml block {i}": block for i, block in enumerate(_README_BLOCKS)},
    "FULL_DOC": FULL_DOC,
    "LINK_TEXT": LINK_TEXT,
}


def _parse_with(text: str, monkeypatch, libyaml: bool, source: str = "<scenario>"):
    """parse_scenario_text with libyaml's loader or, as where PyYAML was
    built without it, the pure-Python one; returns the document and the
    loader classes it used."""
    used = []
    load = yaml.load

    def spy(stream, Loader):
        used.append(Loader)
        return load(stream, Loader=Loader)

    with monkeypatch.context() as patch:
        patch.setattr(yaml, "load", spy)
        if not libyaml:
            patch.setattr(scenario, "_LOADER", scenario._SafeLoader)
        return parse_scenario_text(text, source), used


def test_repo_has_its_scenario_texts():
    assert len(_README_BLOCKS) >= 1
    assert len(REPO_YAML) >= 5


@needs_libyaml
@pytest.mark.parametrize("text", REPO_YAML.values(), ids=list(REPO_YAML))
def test_loaders_build_equal_trees_for_repo_yaml(text):
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


@pytest.mark.parametrize("text", REPO_YAML.values(), ids=list(REPO_YAML))
def test_pure_python_loader_gives_an_equal_document(text, monkeypatch):
    doc, used = _parse_with(text, monkeypatch, libyaml=False)
    assert used == [scenario._SafeLoader]
    assert doc == parse_scenario_text(text)


@needs_libyaml
def test_libyaml_parses_when_present(monkeypatch):
    _, used = _parse_with(FULL_DOC, monkeypatch, libyaml=True)
    assert len(used) == 1 and issubclass(used[0], yaml.CSafeLoader)


_COMMENTS = st.sampled_from(["", "  # comment", " #units: us", "   # 374 us: one frame"])


@st.composite
def _duration_texts(draw):
    value = draw(st.floats(min_value=1e-3, max_value=1e3))
    number = draw(st.sampled_from([repr(value), f"{value:g}", f"{value:.4e}"]))
    space = draw(st.sampled_from(["", " ", "  "]))
    quote = draw(st.sampled_from(['"', "'"]))
    unit = draw(st.sampled_from(["ns", "us", "ms", "s"]))
    return f"{quote}{number}{space}{unit}{quote}"


@st.composite
def _mapping_lines(draw, key: str, items: list, indent: str) -> list:
    """``key`` holding ``items`` as a flow map or as a block map, with comments."""
    if draw(st.booleans()):
        body = ", ".join(f"{k}: {v}" for k, v in items)
        return [f"{indent}{key}: {{{body}}}{draw(_COMMENTS)}"]
    lines = [f"{indent}{key}:{draw(_COMMENTS)}"]
    for k, v in items:
        if draw(st.booleans()):
            lines.append(f"{indent}  # {k} follows")
        lines.append(f"{indent}  {k}: {v}{draw(_COMMENTS)}")
    return lines


@st.composite
def scenario_texts(draw):
    """Scenario documents in the schema's shape: unit strings, flow and block
    maps, comments; numbers and lists are not always valid for the schema."""
    busy = draw(st.sampled_from(["constant", "exponential"]))
    busy_items = [("kind", busy), ("duration" if busy == "constant" else "mean",
                                   draw(_duration_texts()))]
    idle = draw(st.sampled_from(["exponential", "hyperexponential", "preset"]))
    if idle == "exponential":
        idle_items = [("kind", idle), ("mean", draw(_duration_texts()))]
    elif idle == "hyperexponential":
        n = draw(st.integers(1, 3))
        weights = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
        means = [draw(_duration_texts()) for _ in range(n)]
        idle_items = [("kind", idle), ("weights", f"[{', '.join(map(repr, weights))}]"),
                      ("means", f"[{', '.join(means)}]")]
    else:
        idle_items = [("kind", idle), ("name", draw(st.sampled_from(sorted(IDLE_MIXTURES))))]
    link_items = [("packet_mean", draw(_duration_texts()))]
    if draw(st.booleans()):
        link_items.append(("bit_time", draw(_duration_texts())))
    lines = [draw(st.sampled_from(["", "---", "# coexlink scenario"]))]
    lines.append(f"interferer:{draw(_COMMENTS)}")
    lines += draw(_mapping_lines("busy", busy_items, "  "))
    lines += draw(_mapping_lines("idle", idle_items, "  "))
    lines += draw(_mapping_lines("link", link_items, ""))
    if draw(st.booleans()):
        lines += draw(_mapping_lines("modulation", [
            ("coeff", repr(draw(st.floats(0.1, 2.0)))),
            ("gain", repr(draw(st.floats(0.1, 4.0)))),
        ], ""))
    if draw(st.booleans()):
        lines += draw(_mapping_lines("job", [
            ("trials", str(draw(st.integers(1, 10**6)))),
            ("seed", str(draw(st.integers(0, 2**31)))),
            ("method", draw(st.sampled_from(["hybrid", "quadrature", "qn"]))),
            ("snr_db", repr(draw(st.floats(-20.0, 40.0)))),
            ("inr_step_db", draw(st.sampled_from(["2.5", "1.0e+0", "5"]))),
        ], ""))
    return "\n".join(lines) + "\n"


def _outcome(parse, text):
    try:
        return parse(text)
    except ScenarioFormatError as exc:
        return str(exc)


@needs_libyaml
@given(text=scenario_texts())
def test_loaders_agree_on_generated_scenarios(text):
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


@given(text=scenario_texts())
def test_pure_python_loader_agrees_on_generated_scenarios(text):
    with pytest.MonkeyPatch.context() as monkeypatch:
        pure = _outcome(lambda t: _parse_with(t, monkeypatch, libyaml=False)[0], text)
    assert pure == _outcome(parse_scenario_text, text)


BAD_YAML = {
    "unclosed flow list": "interferer: [unclosed\n",
    "tab indentation": FULL_DOC.replace("\n  busy:", "\n\tbusy:"),
    "python tag": FULL_DOC.replace(
        'busy: {kind: constant, duration: "374 us"}',
        "busy: !!python/object:coexlink.dist.ConstantOnTime {duration: 3.74e-4}",
    ),
}


@pytest.mark.parametrize("text", BAD_YAML.values(), ids=list(BAD_YAML))
@pytest.mark.parametrize("libyaml", [pytest.param(True, marks=needs_libyaml), False],
                         ids=["CSafeLoader", "SafeLoader"])
def test_malformed_yaml_names_the_source(text, libyaml, monkeypatch):
    with pytest.raises(ScenarioFormatError, match=r"^bad\.yaml: not valid YAML"):
        _parse_with(text, monkeypatch, libyaml, source="bad.yaml")


# A key given twice once parsed silently as its last value: packet_mean 9 ms
# and seed 2 here.
DUPLICATE_KEYS = FULL_DOC.replace('packet_mean: "1.984 ms"\n',
                                  'packet_mean: "1.984 ms"\n  packet_mean: "9 ms"\n')


@pytest.mark.parametrize("text, key, line, first", [
    (DUPLICATE_KEYS, "packet_mean", 7, 6),
    (FULL_DOC.replace("seed: 7\n", "seed: 1\n  seed: 2\n"), "seed", 14, 13),
    (FULL_DOC.replace('{kind: constant, duration: "374 us"}',
                      '{kind: constant, duration: "374 us", kind: constant}'), "kind", 3, 3),
    ("interferer: {}\nlink: {}\ninterferer: {}\n", "interferer", 3, 1),
], ids=["link", "job", "flow map", "top level"])
@pytest.mark.parametrize("libyaml", [pytest.param(True, marks=needs_libyaml), False],
                         ids=["CSafeLoader", "SafeLoader"])
def test_duplicate_keys_are_rejected(text, key, line, first, libyaml, monkeypatch):
    message = (rf"^dup\.yaml: not valid YAML: duplicate key '{key}' on line {line}, "
               rf"first given on line {first}$")
    with pytest.raises(ScenarioFormatError, match=message):
        _parse_with(text, monkeypatch, libyaml, source="dup.yaml")


def test_merge_keys_may_be_overridden():
    # a merged key that the mapping gives again is YAML's override, not a
    # duplicate
    text = FULL_DOC.replace("link:\n", "base: &base {packet_mean: '9 ms'}\nlink:\n  <<: *base\n")
    tree = yaml.load(text, Loader=scenario._LOADER)
    assert tree["link"] == {"packet_mean": "1.984 ms", "bit_time": "4 us"}
