"""In-memory span tracer that wraps coexlink's public functions from outside.

Each wrapper is installed where its caller looks the name up (for example
``coexlink.cli.ctd_curve`` or ``coexlink.dist.gamma_lower_reg``) and put back
by ``Tracer.restore``.  Layers called at most a few thousand times per op
record one span each: (span id, name, start, end, parent span id, op id).
Hot leaf layers (``HOT``), called up to ~10^6 times per op, are aggregated
into per-name call counts and times instead of stored spans; their time still
counts as child time of the span that called them, so self times stay exact.

Self time of a span is its duration minus the time covered by its children.
The program is single-threaded, so children never overlap and the covered
time is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

# Aggregated layers: no span is stored per call.
HOT = frozenset({"dist.sum_cdf", "specfun.gamma_lower_reg", "renewal.tail_index",
                 "renewal.pmf"})


class _IntegrateProxy:
    """Stand-in for ``scipy.integrate`` inside ``coexlink.per`` with a traced ``quad``."""

    def __init__(self, module, quad):
        self._module = module
        self.quad = quad

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # Per op id, self seconds of each layer (checked against the op's time).
        self.op_self: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op_seconds: dict[int, float] = {}
        self._stack: list[list] = []  # [name, start, child seconds, span id]
        self._next_id = 0
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> list:
        span_id = self._next_id
        self._next_id += 1
        frame = [name, time.perf_counter(), 0.0, span_id]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        end = time.perf_counter()
        name, start, child, span_id = frame
        self._stack.pop()
        duration = end - start
        own = duration - child
        self.calls[name] += 1
        self.seconds[name] += duration
        self.self_seconds[name] += own
        self.op_self[self._op][name] += own
        if self._stack:
            self._stack[-1][2] += duration
        if name not in HOT:
            parent = self._stack[-1][3] if self._stack else None
            self.spans.append((span_id, name, start, end, parent, self._op))
        return duration

    def run_op(self, op_id: int, fn, *args):
        """Run one op under a root ``cli.command`` span; returns fn's result."""
        self._op = op_id
        frame = self._enter("cli.command")
        try:
            return fn(*args)
        finally:
            self.op_seconds[op_id] = self._exit(frame)

    def _wrap(self, fn, name: str, note=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            # A layer that calls itself (a method delegating to a sibling
            # method) is one call of that layer.
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if note is not None:
                note(result, args, kwargs)
            return result

        wrapper.traced_layer = name
        return wrapper

    # -- installing wrappers -------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _trace(self, owner, attr: str, name: str, note=None) -> None:
        # A name the program no longer has is skipped; its metrics read 0.
        if hasattr(owner, attr):
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name, note))

    def install(self) -> None:
        from coexlink import cli, ctd, dist, per, renewal, simcore, validation

        def add(key, value):
            self.counts[key] += int(value)

        self._trace(cli, "parse_scenario_file", "scenario.parse")
        self._trace(cli, "ctd_curve", "ctd.curve")
        self._trace(cli, "per_curve", "per.curve")
        self._trace(cli, "validate_scenario", "validation.validate")

        for module in (ctd, per):
            self._trace(module, "coverage_point", "ctd.coverage_point")
        for module in (ctd, per, validation):
            self._trace(module, "ctd_mixture", "ctd.mixture",
                        lambda r, a, k: add("ctd.mixture_points", np.size(a[1])))
        self._trace(ctd, "pmf_tail_index", "renewal.tail_index",
                    lambda r, a, k: add("ctd.series_terms", r))
        for cls in (dist.ConstantOnTime, dist.ExponentialOnTime):
            for attr in ("sum_cdf", "residual_sum_cdf"):
                self._trace(cls, attr, "dist.sum_cdf")
        self._trace(dist, "gamma_lower_reg", "specfun.gamma_lower_reg")

        self._trace(per, "packet_error_rate", "per.packet_error_rate")
        self._trace(per, "resolve_ell_max", "per.resolve_ell_max",
                    lambda r, a, k: add("per.slots", r))
        self._trace(per, "success_prob_closed_form", "per.closed_form")
        integrate = getattr(per, "integrate", None)

        def quad(func, *args, **kwargs):
            def counted(*x):
                self.counts["per.quad_evals"] += 1
                return func(*x)
            return integrate.quad(counted, *args, **kwargs)

        if integrate is not None:
            self._patch(per, "integrate",
                        _IntegrateProxy(integrate, self._wrap(quad, "per.quad")))

        self._trace(simcore, "run_trials", "simcore.run_trials",
                    lambda r, a, k: add("simcore.trials", a[1].trials))
        self._trace(simcore, "empirical_renewal_counts", "simcore.renewal_counts")
        ks_distance = simcore.EmpiricalCdf.ks_distance

        def ks(ecdf, cdf):
            def counted(x):
                add("validation.ks_points", np.size(x))
                return cdf(x)
            return ks_distance(ecdf, counted)

        self._patch(simcore.EmpiricalCdf, "ks_distance", self._wrap(ks, "validation.ks"))
        self._trace(validation, "chi_square_counts", "validation.chi2")
        self._trace(renewal, "pmf", "renewal.pmf")

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics named as in BENCHMARK.json (values only)."""
        calls, secs = self.calls, self.seconds
        out = {
            "cli.command_s": secs["cli.command"],
            "cli.self_s": self.self_seconds["cli.command"],
            "scenario.parse_s": secs["scenario.parse"],
            "ctd.curve_s": secs["ctd.curve"],
            "ctd.coverage_point_calls": calls["ctd.coverage_point"],
            "ctd.coverage_point_s": secs["ctd.coverage_point"],
            "ctd.mixture_calls": calls["ctd.mixture"],
            "ctd.mixture_points": self.counts["ctd.mixture_points"],
            "ctd.mixture_s": secs["ctd.mixture"],
            "ctd.series_terms": self.counts["ctd.series_terms"],
            "dist.sum_cdf_calls": calls["dist.sum_cdf"],
            "dist.sum_cdf_s": secs["dist.sum_cdf"],
            "renewal.tail_index_calls": calls["renewal.tail_index"],
            "specfun.gamma_lower_reg_calls": calls["specfun.gamma_lower_reg"],
            "specfun.gamma_lower_reg_s": secs["specfun.gamma_lower_reg"],
            "per.curve_s": secs["per.curve"],
            "per.packet_error_rate_calls": calls["per.packet_error_rate"],
            "per.packet_error_rate_s": secs["per.packet_error_rate"],
            "per.resolve_ell_max_calls": calls["per.resolve_ell_max"],
            "per.resolve_ell_max_s": secs["per.resolve_ell_max"],
            "per.slots": self.counts["per.slots"],
            "per.closed_form_calls": calls["per.closed_form"],
            "per.closed_form_s": secs["per.closed_form"],
            "per.quad_calls": calls["per.quad"],
            "per.quad_evals": self.counts["per.quad_evals"],
            "per.quad_s": secs["per.quad"],
            "simcore.run_trials_s": secs["simcore.run_trials"],
            "simcore.trials": self.counts["simcore.trials"],
            "simcore.renewal_counts_s": secs["simcore.renewal_counts"],
            "validation.validate_s": secs["validation.validate"],
            "validation.ks_s": secs["validation.ks"],
            "validation.ks_points": self.counts["validation.ks_points"],
            "validation.chi2_s": secs["validation.chi2"],
            "renewal.pmf_calls": calls["renewal.pmf"],
            "renewal.pmf_s": secs["renewal.pmf"],
        }
        run_trials_s = secs["simcore.run_trials"]
        out["simcore.trials_per_s"] = (
            self.counts["simcore.trials"] / run_trials_s if run_trials_s > 0 else 0.0
        )
        return out
