"""Checks of the benchmark's traced run.

Run from the repository root:

    python3 -m pytest benchmark -q
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracing import Tracer, _IntegrateProxy  # noqa: E402
from workloads import Op  # noqa: E402

# The cheapest op of each command, so every layer of the trace is reached.
OPS = (Op("ctd", "alpha_lt_0.1"), Op("ctd", "exp_busy"), Op("per", "alpha_lt_0.1"),
       Op("validate", "exp_alpha_0.0361"))


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _traced_round(tmp_path: Path, seed: int) -> tuple[Tracer, list, list[dict]]:
    runner = run.Runner(tmp_path)
    tracer = Tracer()
    tracer.install()
    patched = list(tracer._patches)
    try:
        records, _ = run.run_rounds(runner, OPS, random.Random(seed), 1, tracer)
    finally:
        tracer.restore()
    return tracer, patched, records


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _traced_round(tmp_path_factory.mktemp("ops"), seed=3)


def test_ops_pass_their_checks(traced):
    _, _, records = traced
    assert [r["status"] for r in records] == ["ok"] * len(OPS)


def test_every_wrapper_is_restored(traced):
    tracer, patched, _ = traced
    assert patched, "install patched nothing"
    assert tracer._patches == []
    for owner, attr, original in patched:
        assert _current(owner, attr) is original, f"{owner!r}.{attr} still wrapped"

    # Nothing reachable from coexlink's modules or their classes is a wrapper.
    import coexlink
    from coexlink import cli, ctd, dist, per, renewal, scenario, simcore, specfun, validation

    for module in (coexlink, cli, ctd, dist, per, renewal, scenario, simcore, specfun,
                   validation):
        values = list(vars(module).values())
        values += [v for cls in values if isinstance(cls, type) for v in vars(cls).values()]
        for value in values:
            assert not hasattr(value, "traced_layer"), (module.__name__, value)
            assert not isinstance(value, _IntegrateProxy), module.__name__


def test_layer_self_time_within_op_time(traced):
    tracer, _, records = traced
    assert sorted(tracer.op_seconds) == list(range(len(records)))
    for op_id, op_seconds in tracer.op_seconds.items():
        layers = tracer.op_self[op_id]
        for name, own in layers.items():
            assert -1e-9 <= own <= op_seconds + 1e-9, (op_id, name, own, op_seconds)
        # Self times partition the op: every instant belongs to one layer.
        assert sum(layers.values()) == pytest.approx(op_seconds, abs=1e-6)


def test_spans_nest_inside_their_parents(traced):
    tracer, _, _ = traced
    by_id = {s[0]: s for s in tracer.spans}
    for span_id, name, start, end, parent, op in tracer.spans:
        assert start <= end
        if parent is None:
            assert name == "cli.command"
            continue
        p = by_id[parent]
        assert p[2] <= start and end <= p[3] and p[5] == op


def test_counts_repeat_for_the_same_seed(traced, tmp_path):
    first, _, _ = traced
    second, _, _ = _traced_round(tmp_path, seed=3)
    a, b = first.metrics(), second.metrics()
    counts = [k for k in a if k.endswith("_calls") or k in (
        "ctd.series_terms", "ctd.mixture_points", "per.quad_evals", "per.slots",
        "simcore.trials", "validation.ks_points")]
    assert any(a[k] > 0 for k in counts)
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
