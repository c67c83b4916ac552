"""Scenario files: a strict YAML schema with explicit time units.

Every duration is a string "NUMBER UNIT" (units ns/us/ms/s) so a file can
never be misread by a factor of a thousand.  Unknown keys anywhere are an
error, and so is a key given twice in one mapping.  The raw tree is kept on
the parsed document for lossless round-trips and for hashing the full
resolved configuration into output headers.  Files are read by libyaml's C
parser where PyYAML has it, and by PyYAML's pure-Python parser otherwise;
both build the same tree with the same safe constructor.

Schema (YAML):

    interferer:
      busy:  {kind: constant, duration: "374 us"}        # or kind: exponential, mean
      idle:  {kind: exponential, mean: "2 ms"}           # or kind: hyperexponential
             # hyperexponential: weights: [w1, ...], means: ["40.4 ms", ...]
             # or kind: preset, name: alpha_lt_0.1
    link:
      packet_mean: "1.984 ms"
      bit_time: "4 us"
    modulation:            # optional, defaults to BPSK
      coeff: 1.0
      gain: 2.0
    job:                   # optional, all fields defaulted
      trials: 1000000
      seed: 20260815
      grid_points: 512
      method: hybrid       # or quadrature
      snr_db: 10.0
      inr_start_db: -10.0
      inr_stop_db: 30.0
      inr_step_db: 2.5
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, fields

import numpy as np
import yaml

from .dist import (
    DEFAULT_BIT_TIME,
    ConstantOnTime,
    CoexistenceScenario,
    ExponentialIdle,
    ExponentialOnTime,
    HyperexponentialIdle,
)
from .per import Modulation, PerMethod
from .presets import IDLE_MIXTURES

_DURATION_RE = re.compile(r"^\s*([+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)\s*(ns|us|ms|s)\s*$")
_UNIT_SCALE = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


class ScenarioFormatError(ValueError):
    """A scenario file failed schema validation; the message carries the path."""


def parse_duration(value, where: str) -> float:
    """'374 us' -> 3.74e-4.  Bare numbers are rejected on purpose."""
    if not isinstance(value, str):
        raise ScenarioFormatError(
            f"{where}: durations must be strings with a unit, e.g. \"374 us\"; got {value!r}"
        )
    match = _DURATION_RE.match(value)
    if not match:
        raise ScenarioFormatError(
            f"{where}: cannot parse duration {value!r}; expected NUMBER followed by ns/us/ms/s"
        )
    seconds = float(match.group(1)) * _UNIT_SCALE[match.group(2)]
    if seconds <= 0.0:
        raise ScenarioFormatError(f"{where}: duration must be positive, got {value!r}")
    # Every duration becomes a rate or a divisor, so its reciprocal must be
    # a float too.
    if not (math.isfinite(seconds) and math.isfinite(1.0 / seconds)):
        raise ScenarioFormatError(f"{where}: duration {value!r} is out of the float range")
    return seconds


def db_to_ratio(value: float, where: str) -> float:
    """10^(value / 10) for a level in dB; a level whose ratio overflows or
    underflows to 0 leaves the float range and is rejected."""
    try:
        ratio = 10.0 ** (value / 10.0)
    except OverflowError:
        ratio = math.inf
    if not (0.0 < ratio < math.inf):
        raise ScenarioFormatError(f"{where}: {value!r} dB is out of the float range")
    return ratio


# Most INR points a PER sweep may hold.  A sweep keeps about 120 KiB per INR
# (the quadrature's failing-band arrays and the hybrid's block arrays), so
# this bounds it near 120 MiB; 1001 points are 0.01 dB steps over 10 dB.
MAX_INR_POINTS = 1001

# Most points a `ctd` grid may hold.  A `ctd` run keeps about 0.43 KiB per
# point (the three CDF columns and their CSV text), so this bounds it near
# 110 MiB: 250,000 points peaked at 145 MiB RSS, imports included.
MAX_GRID_POINTS = 250_000

# Most Monte Carlo trials a `validate` run may walk.  A run keeps about 20
# bytes per trial at its peak: `validate` on alpha_ge_0.5 peaked at 46.2 MiB
# RSS with 200k trials, 79.4 MiB with 2M and 231.9 MiB with 10M, imports
# included, so this bounds it near 230 MiB.
MAX_TRIALS = 10_000_000


@dataclass(frozen=True)
class JobParams:
    """Run controls shared by the CLI commands; flags override these."""

    trials: int = 200_000
    seed: int = 20260815
    grid_points: int = 512
    method: str = "hybrid"
    snr_db: float = 10.0
    inr_start_db: float = -10.0
    inr_stop_db: float = 30.0
    inr_step_db: float = 2.5

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ScenarioFormatError("job.trials must be >= 1")
        if self.trials > MAX_TRIALS:
            raise ScenarioFormatError(f"job.trials must be <= {MAX_TRIALS}")
        if self.seed < 0:
            raise ScenarioFormatError(f"job.seed must be >= 0, got {self.seed!r}")
        if self.grid_points < 2:
            raise ScenarioFormatError("job.grid_points must be >= 2")
        if self.grid_points > MAX_GRID_POINTS:
            raise ScenarioFormatError(f"job.grid_points must be <= {MAX_GRID_POINTS}")
        if self.method not in {m.value for m in PerMethod}:
            raise ScenarioFormatError(
                f"job.method must be one of {sorted(m.value for m in PerMethod)}"
            )
        if self.inr_step_db <= 0.0:
            raise ScenarioFormatError("job.inr_step_db must be positive")
        if self.inr_stop_db < self.inr_start_db:
            raise ScenarioFormatError("job.inr_stop_db must be >= job.inr_start_db")
        for name in ("snr_db", "inr_start_db", "inr_stop_db"):
            db_to_ratio(getattr(self, name), f"job.{name}")
        if self.inr_points > MAX_INR_POINTS:
            raise ScenarioFormatError(
                f"job.inr_step_db {self.inr_step_db!r} sweeps {self.inr_points} INR points "
                f"from {self.inr_start_db!r} to {self.inr_stop_db!r} dB, more than "
                f"{MAX_INR_POINTS}"
            )

    @property
    def inr_points(self) -> int | float:
        """Points of the PER sweep's INR grid, from inr_start_db in steps of
        inr_step_db to inr_stop_db (inf if the step count leaves the float range)."""
        steps = (self.inr_stop_db - self.inr_start_db) / self.inr_step_db
        return round(steps) + 1 if math.isfinite(steps) else math.inf

    def inr_grid_db(self) -> np.ndarray:
        """The PER sweep's mean INR levels in dB."""
        inr_db = self.inr_start_db + self.inr_step_db * np.arange(self.inr_points)
        return inr_db[inr_db <= self.inr_stop_db + 1e-9]


@dataclass(frozen=True)
class ScenarioDoc:
    scenario: CoexistenceScenario
    modulation: Modulation
    job: JobParams
    tree: dict


def _require_keys(node: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(node, dict):
        raise ScenarioFormatError(f"{where}: expected a mapping, got {type(node).__name__}")
    unknown = set(node) - allowed
    if unknown:
        raise ScenarioFormatError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(node)
    if missing:
        raise ScenarioFormatError(f"{where}: missing keys {sorted(missing)}")


def _real(value, where: str):
    """``value`` if it is a finite int or float (not a bool or a string)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(f"{where}: expected a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ScenarioFormatError(f"{where}: expected a finite number")
    return value


def _number(node: dict, key: str, where: str, default=None):
    return _real(node[key], f"{where}.{key}") if key in node else default


def _parse_busy(node, where: str):
    _require_keys(node, {"kind", "duration", "mean"}, {"kind"}, where)
    kind = node["kind"]
    if kind == "constant":
        _require_keys(node, {"kind", "duration"}, {"kind", "duration"}, where)
        return ConstantOnTime(parse_duration(node["duration"], f"{where}.duration"))
    if kind == "exponential":
        _require_keys(node, {"kind", "mean"}, {"kind", "mean"}, where)
        return ExponentialOnTime(1.0 / parse_duration(node["mean"], f"{where}.mean"))
    raise ScenarioFormatError(f"{where}.kind: expected constant or exponential, got {kind!r}")


def _parse_idle(node, where: str):
    _require_keys(node, {"kind", "mean", "weights", "means", "name"}, {"kind"}, where)
    kind = node["kind"]
    if kind == "exponential":
        _require_keys(node, {"kind", "mean"}, {"kind", "mean"}, where)
        return ExponentialIdle(1.0 / parse_duration(node["mean"], f"{where}.mean"))
    if kind == "hyperexponential":
        _require_keys(node, {"kind", "weights", "means"}, {"kind", "weights", "means"}, where)
        weights = node["weights"]
        means = node["means"]
        if not isinstance(weights, list) or not isinstance(means, list):
            raise ScenarioFormatError(f"{where}: weights and means must be lists")
        weights = tuple(float(_real(w, f"{where}.weights[{i}]")) for i, w in enumerate(weights))
        means = tuple(parse_duration(m, f"{where}.means[{i}]") for i, m in enumerate(means))
        try:
            return HyperexponentialIdle(weights=weights, means=means)
        except ValueError as exc:
            raise ScenarioFormatError(f"{where}: {exc}") from exc
    if kind == "preset":
        _require_keys(node, {"kind", "name"}, {"kind", "name"}, where)
        name = node["name"]
        if name not in IDLE_MIXTURES:
            raise ScenarioFormatError(
                f"{where}.name: unknown preset {name!r}; choose from {sorted(IDLE_MIXTURES)}"
            )
        return IDLE_MIXTURES[name]
    raise ScenarioFormatError(
        f"{where}.kind: expected exponential, hyperexponential or preset, got {kind!r}"
    )


def _parse_job(node, where: str) -> JobParams:
    allowed = {f.name for f in fields(JobParams)}
    _require_keys(node, allowed, set(), where)
    kwargs = {}
    for name in ("trials", "seed", "grid_points"):
        value = _number(node, name, where)
        if value is not None:
            if value != int(value):
                raise ScenarioFormatError(f"{where}.{name}: expected an integer")
            kwargs[name] = int(value)
    for name in ("snr_db", "inr_start_db", "inr_stop_db", "inr_step_db"):
        value = _number(node, name, where)
        if value is not None:
            kwargs[name] = float(value)
    if "method" in node:
        if not isinstance(node["method"], str):
            raise ScenarioFormatError(f"{where}.method: expected a string")
        kwargs["method"] = node["method"]
    return JobParams(**kwargs)


_MERGE_TAG = "tag:yaml.org,2002:merge"


class _UniqueKeys:
    """Loader mixin: a mapping that gives a key twice is an error, where
    PyYAML alone would keep the last value."""

    def construct_mapping(self, node, deep=False):
        lines = {}
        for key_node, _ in node.value:
            if not isinstance(key_node, yaml.ScalarNode) or key_node.tag == _MERGE_TAG:
                continue
            key = self.construct_object(key_node)
            line = key_node.start_mark.line + 1
            if key in lines:
                raise yaml.constructor.ConstructorError(
                    problem=f"duplicate key {key!r} on line {line}, first given on line "
                    f"{lines[key]}")
            lines[key] = line
        return super().construct_mapping(node, deep)


class _SafeLoader(_UniqueKeys, yaml.SafeLoader):
    """safe_load's loader on PyYAML's pure-Python parser."""


# libyaml's C parser under safe_load's constructor and resolver: the same
# tree at a tenth of the cost; PyYAML built without libyaml lacks it.
_LOADER = (type("_CSafeLoader", (_UniqueKeys, yaml.CSafeLoader), {})
           if hasattr(yaml, "CSafeLoader") else _SafeLoader)


def parse_scenario_text(text: str, source: str = "<scenario>") -> ScenarioDoc:
    try:
        tree = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioFormatError(f"{source}: not valid YAML: {exc}") from exc
    if not isinstance(tree, dict):
        raise ScenarioFormatError(f"{source}: top level must be a mapping")
    _require_keys(tree, {"interferer", "link", "modulation", "job"},
                  {"interferer", "link"}, source)

    interferer = tree["interferer"]
    _require_keys(interferer, {"busy", "idle"}, {"busy", "idle"}, f"{source}.interferer")
    busy = _parse_busy(interferer["busy"], f"{source}.interferer.busy")
    idle = _parse_idle(interferer["idle"], f"{source}.interferer.idle")

    link = tree["link"]
    _require_keys(link, {"packet_mean", "bit_time"}, {"packet_mean"}, f"{source}.link")
    packet_mean = parse_duration(link["packet_mean"], f"{source}.link.packet_mean")
    bit_time = (
        parse_duration(link["bit_time"], f"{source}.link.bit_time")
        if "bit_time" in link
        else DEFAULT_BIT_TIME
    )

    modulation = Modulation()
    if "modulation" in tree:
        node = tree["modulation"]
        _require_keys(node, {"coeff", "gain"}, set(), f"{source}.modulation")
        try:
            modulation = Modulation(
                coeff=float(_number(node, "coeff", f"{source}.modulation", 1.0)),
                gain=float(_number(node, "gain", f"{source}.modulation", 2.0)),
            )
        except ValueError as exc:
            raise ScenarioFormatError(f"{source}.modulation: {exc}") from exc

    job = _parse_job(tree.get("job", {}), f"{source}.job")
    try:
        scenario = CoexistenceScenario(
            busy=busy, idle=idle, packet_rate=1.0 / packet_mean, bit_time=bit_time
        )
    except (ValueError, TypeError) as exc:
        raise ScenarioFormatError(f"{source}: {exc}") from exc
    return ScenarioDoc(scenario=scenario, modulation=modulation, job=job, tree=tree)


def parse_scenario_file(path) -> ScenarioDoc:
    with open(path, encoding="utf-8") as handle:
        return parse_scenario_text(handle.read(), source=str(path))


def config_hash(doc: ScenarioDoc | None, overrides: dict) -> str:
    """Stable digest of the resolved configuration for output headers."""
    payload = {
        "tree": doc.tree if doc is not None else None,
        "overrides": overrides,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
