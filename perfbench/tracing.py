"""Span tracing of noma_perf's layers, installed from outside the package.

Each traced public function is replaced by a wrapper in every module
that holds a binding to it: ``from .x import f`` copies the binding, so
``cli``, ``validation`` and ``montecarlo`` each get their own rebinding,
and calls inside the defining module go through the rebound global too.
A wrapper records one span (name, start, end, parent, thread id) in
memory; the parent is the innermost open span of the same thread, so
self time (duration minus the time covered by child spans) is computed
per thread.  That matters for the Monte Carlo workers, whose spans open
on pool threads with no parent.

The wrapper's own bookkeeping costs a few microseconds a span, most of
it outside the span's clock window, where it lands in the parent's self
time.  ``Tracer.calibrate`` times wrapped calls of an empty function,
and ``summarize`` takes that cost off: per child span from the parent,
and per descendant span from the durations behind the per-call
percentiles.

Layers are the modules under ``src/noma_perf``; a span name is
``<module>.<group>`` and groups several public functions.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

import numpy as np

#: the relay closed form switches to mpmath below this value
DEEP_LIMIT = 1e-6


def _relay_info(args, kwargs, result):
    key = (float(args[0]), kwargs["mu"], kwargs["omega_sr"], kwargs["omega_rd"],
           kwargs["noise_scale"])
    return key, result


def _quad_info(args, kwargs, result):
    return result.converged


# sampling spans record (gains drawn, trials drawn)

def _sample_info(args, kwargs, result):
    # a trial is one index of the leading axis
    return int(np.size(result)), int(np.shape(result)[0]) if np.ndim(result) else 1


def _sorted_info(args, kwargs, result):
    return 0, int(np.size(result)) // args[1]


def _draw_info(args, kwargs, result):
    return 0, args[2]


# (defining module, function) -> (span name, info extractor or None)
TRACED = {
    ("cli", "main"): ("cli.main", None),
    ("configs", "preset_configs"): ("configs.load", None),
    ("configs", "load_config_file"): ("configs.load", None),
    ("configs", "coop_preset"): ("configs.load", None),
    ("configs", "direct_preset"): ("configs.load", None),
    ("configs", "with_mu"): ("configs.load", None),
    ("analytic", "relay_outage_closed"): ("analytic.relay_closed", _relay_info),
    ("analytic", "coop_cuts"): ("analytic.cuts", None),
    ("analytic", "direct_cuts"): ("analytic.cuts", None),
    ("analytic", "far_outage_parts"): ("analytic.outage", None),
    ("analytic", "near_outage_parts"): ("analytic.outage", None),
    ("analytic", "outage_far_exact"): ("analytic.outage", None),
    ("analytic", "outage_near_exact"): ("analytic.outage", None),
    ("analytic", "outage_far_asymptotic"): ("analytic.outage", None),
    ("analytic", "outage_near_asymptotic"): ("analytic.outage", None),
    ("analytic", "outage_direct_exact"): ("analytic.outage", None),
    ("analytic", "outage_direct_asymptotic"): ("analytic.outage", None),
    ("analytic", "outage_oma"): ("analytic.outage", None),
    ("analytic", "throughput_coop"): ("analytic.outage", None),
    ("analytic", "throughput_direct"): ("analytic.outage", None),
    ("fading", "gamma_pdf"): ("fading.pdf_cdf", None),
    ("fading", "gamma_cdf"): ("fading.pdf_cdf", None),
    ("fading", "ordered_cdf"): ("fading.ordered_cdf", None),
    ("fading", "ordered_cdf_small_arg"): ("fading.ordered_cdf", None),
    ("fading", "sample_gain"): ("fading.sample", _sample_info),
    ("fading", "sample_sorted_gains"): ("fading.sort", _sorted_info),
    ("numerics", "integrate_semi_infinite"): ("numerics.quad", _quad_info),
    ("montecarlo", "estimate_outage_coop"): ("montecarlo.estimate", None),
    ("montecarlo", "estimate_outage_direct"): ("montecarlo.estimate", None),
    ("montecarlo", "draw_coop_block"): ("montecarlo.draw", _draw_info),
    ("montecarlo", "coop_events_from_sinr"): ("montecarlo.replay", None),
    ("montecarlo", "direct_events_from_sinr"): ("montecarlo.replay", None),
    ("validation", "run_validation_suite"): ("validation.suite", None),
    ("validation", "outage_oracle"): ("validation.oracle", None),
    ("validation", "relay_outage_quadrature"): ("validation.relay_quad", None),
    ("validation", "ordered_cdf_quadrature"): ("validation.ordered_quad", None),
}

#: spans that draw gains; the outermost one of a thread's stack counts
#: the trials drawn, so nested sampler calls are not counted twice
SAMPLING = ("montecarlo.draw", "fading.sort", "fading.sample")

LAYERS = ("cli", "configs", "analytic", "fading", "montecarlo", "numerics", "validation")

# span record fields: wall clock start/end, the child spans' wall and
# thread-CPU time, this span's own thread-CPU time, and the number of
# child and of descendant spans
(NAME, START, END, PARENT, THREAD, CHILD, INFO, CPU, CHILD_CPU, NCHILD,
 NDESC) = range(11)


@dataclasses.dataclass(frozen=True)
class SpanCost:
    """Tracer bookkeeping per span, in seconds: ``outside_*`` is charged
    to the parent span, ``inside_*`` to the span itself."""

    outside_wall: float = 0.0
    outside_cpu: float = 0.0
    inside_wall: float = 0.0
    inside_cpu: float = 0.0


def _noop():
    return None


class Tracer:
    """Collects spans while installed; ``take()`` hands them over and resets."""

    def __init__(self, extra_modules=()):
        self._local = threading.local()
        self._spans: list[list] = []
        self._extra = list(extra_modules)
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers = {}
        for (module, attr), (span, info) in TRACED.items():
            original = getattr(sys.modules[f"noma_perf.{module}"], attr)
            self._wrappers[id(original)] = (original, self._wrap(span, original, info))

    def calibrate(self, calls: int = 20_000, rounds: int = 5) -> SpanCost:
        """Median bookkeeping cost of one span over ``rounds`` rounds of
        ``calls`` wrapped calls of an empty function, made under an open
        parent span, against the same calls unwrapped."""
        wrapped = self._wrap("calibrate", _noop, None)
        clock, cpu_clock = time.perf_counter, time.thread_time
        parent = [None] * 11
        costs = []
        for _ in range(rounds):
            wall0, cpu0 = clock(), cpu_clock()
            for _ in range(calls):
                _noop()
            raw_wall, raw_cpu = clock() - wall0, cpu_clock() - cpu0
            parent[CHILD] = parent[CHILD_CPU] = parent[NCHILD] = parent[NDESC] = 0
            self._local.stack = [parent]
            wall0, cpu0 = clock(), cpu_clock()
            for _ in range(calls):
                wrapped()
            total_wall, total_cpu = clock() - wall0, cpu_clock() - cpu0
            self._local.stack = []
            del self._spans[-calls:]
            costs.append(((total_wall - parent[CHILD]) / calls,
                          (total_cpu - parent[CHILD_CPU]) / calls,
                          (parent[CHILD] - raw_wall) / calls,
                          (parent[CHILD_CPU] - raw_cpu) / calls))
        return SpanCost(*(statistics.median(c) for c in zip(*costs)))

    def _wrap(self, name, fn, info):
        local = self._local
        spans = self._spans
        clock = time.perf_counter
        cpu_clock = time.thread_time
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, get_ident(), 0.0, None,
                   0.0, 0.0, 0, 0]
            stack.append(rec)
            cpu_start = cpu_clock()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                cpu = cpu_clock() - cpu_start
                stack.pop()
                rec[START] = start
                rec[END] = end
                rec[CPU] = cpu
                parent = rec[PARENT]
                if parent is not None:
                    parent[CHILD] += end - start
                    parent[CHILD_CPU] += cpu
                    parent[NCHILD] += 1
                    parent[NDESC] += 1 + rec[NDESC]
                spans.append(rec)
            if info is not None:
                rec[INFO] = info(args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "noma_perf" or n.startswith("noma_perf.")]
        for module in modules + self._extra:
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._saved.append((module, attr, value))
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()
        return False

    def take(self) -> list[list]:
        spans = list(self._spans)
        self._spans.clear()
        return spans


def summarize(spans: list[list], cost: SpanCost = SpanCost()) -> dict:
    """Per-pass totals: calls, self wall and thread-CPU time, and
    layer-specific counts, with the tracer's ``cost`` taken off."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    self_cpu_s = defaultdict(float)
    gains = trials = 0
    relay_keys = set()
    deep_us, shallow_us, relay_quad_us, ordered_quad_us = [], [], [], []
    deep_calls = unconverged = 0
    span_wall = cost.outside_wall + cost.inside_wall
    for rec in spans:
        name = rec[NAME]
        raw = rec[END] - rec[START]
        duration = raw - rec[NDESC] * span_wall - cost.inside_wall
        calls[name] += 1
        self_s[name] += raw - rec[CHILD] - rec[NCHILD] * cost.outside_wall - cost.inside_wall
        self_cpu_s[name] += (rec[CPU] - rec[CHILD_CPU] - rec[NCHILD] * cost.outside_cpu
                             - cost.inside_cpu)
        if name == "analytic.relay_closed" and rec[INFO] is not None:
            key, value = rec[INFO]
            relay_keys.add(key)
            if 0.0 < value < DEEP_LIMIT:
                deep_calls += 1
                deep_us.append(duration * 1e6)
            else:
                shallow_us.append(duration * 1e6)
        elif name in SAMPLING and rec[INFO] is not None:
            gains += rec[INFO][0]
            parent = rec[PARENT]
            if parent is None or parent[NAME] not in SAMPLING:
                trials += rec[INFO][1]
        elif name == "numerics.quad":
            unconverged += not rec[INFO]
        elif name == "validation.relay_quad":
            relay_quad_us.append(duration * 1e6)
        elif name == "validation.ordered_quad":
            ordered_quad_us.append(duration * 1e6)
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "self_cpu_s": dict(self_cpu_s),
        "gains": gains,
        "trials": trials,
        "relay_unique": len(relay_keys),
        "deep_calls": deep_calls,
        "unconverged": unconverged,
        "deep_us": deep_us,
        "shallow_us": shallow_us,
        "relay_quad_us": relay_quad_us,
        "ordered_quad_us": ordered_quad_us,
        "spans": len(spans),
    }


def layer_self_s(summary: dict) -> dict:
    """Self time of each layer (module), summed over its span groups."""
    out = dict.fromkeys(LAYERS, 0.0)
    for name, value in summary["self_s"].items():
        out[name.split(".")[0]] += value
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


#: counts that depend only on the code, never on seed or timing
EXACT_COUNTS = (
    "analytic.relay_closed.calls",
    "analytic.relay_closed.deep_calls",
    "montecarlo.trials_drawn",
    "numerics.quad.calls",
    "fading.pdf_cdf.calls",
)


def pass_counts(s: dict, trial_points: int) -> dict:
    """Counts of one traced pass, including every ``EXACT_COUNTS`` entry.

    ``trial_points`` is the pass's Monte Carlo estimates times their
    trials, known from its checked output rather than from a traced call.
    """
    calls = s["calls"]
    return {
        "analytic.relay_closed.calls": calls.get("analytic.relay_closed", 0),
        "analytic.relay_closed.deep_calls": s["deep_calls"],
        "analytic.relay_closed.unique": s["relay_unique"],
        "fading.sample.gains": s["gains"],
        "montecarlo.trials_drawn": s["trials"],
        "montecarlo.trial_points": trial_points,
        "montecarlo.replay.calls": calls.get("montecarlo.replay", 0),
        "numerics.quad.calls": calls.get("numerics.quad", 0),
        "numerics.quad.unconverged": s["unconverged"],
        "fading.pdf_cdf.calls": calls.get("fading.pdf_cdf", 0),
        "fading.ordered_cdf.calls": calls.get("fading.ordered_cdf", 0),
    }


def per_layer_metrics(summaries: list[dict], counts: dict, rows: int,
                      configs_s: list[float], overhead_frac: float) -> dict:
    """The per-layer metrics, in (value, unit) form, from traced passes.

    Counts come from the first traced pass (the caller checks that every
    pass repeats them); times are medians over passes, and call-level
    percentiles pool the calls of every pass.  A per-unit time whose
    unit count is 0 is reported as 0; the caller flags a workload whose
    own layer did no counted work.
    """

    def med(fn):
        return _median(fn(s) for s in summaries)

    def self_of(name):
        return lambda s: s["self_s"].get(name, 0.0)

    def per_unit(time_names, units):
        return med(lambda s: _ratio(sum(s["self_s"].get(n, 0.0) for n in time_names),
                                    units) * 1e9)

    pooled = {key: [v for s in summaries for v in s[key]]
              for key in ("deep_us", "shallow_us", "relay_quad_us", "ordered_quad_us")}
    relay_calls = counts["analytic.relay_closed.calls"]
    trials = counts["montecarlo.trials_drawn"]
    points = counts["montecarlo.trial_points"]
    metrics = {
        "analytic.relay_closed.calls": (relay_calls, "count"),
        "analytic.relay_closed.calls_per_row": (_ratio(relay_calls, rows), "ratio"),
        "analytic.relay_closed.unique_frac": (
            _ratio(counts["analytic.relay_closed.unique"], relay_calls), "ratio"),
        "analytic.relay_closed.self_s": (med(self_of("analytic.relay_closed")), "s"),
        "analytic.relay_closed.deep_calls": (counts["analytic.relay_closed.deep_calls"], "count"),
        "analytic.relay_closed.deep_us_p50": (_median(pooled["deep_us"]), "us"),
        "analytic.relay_closed.shallow_us_p50": (_median(pooled["shallow_us"]), "us"),
        "analytic.cuts.self_s": (med(self_of("analytic.cuts")), "s"),
        "fading.sample.ns_per_gain": (
            per_unit(["fading.sample"], counts["fading.sample.gains"]), "ns"),
        "fading.sort.ns_per_trial": (per_unit(["fading.sort"], trials), "ns"),
        "montecarlo.draw.ns_per_trial": (per_unit(SAMPLING, trials), "ns"),
        "montecarlo.replay.ns_per_trial": (per_unit(["montecarlo.replay"], points), "ns"),
        "montecarlo.trials_drawn": (trials, "count"),
        "montecarlo.trial_points": (points, "count"),
        "montecarlo.draw_reuse": (_ratio(points, trials), "ratio"),
        "numerics.quad.calls": (counts["numerics.quad.calls"], "count"),
        "numerics.quad.self_s": (med(self_of("numerics.quad")), "s"),
        "numerics.quad.unconverged": (counts["numerics.quad.unconverged"], "count"),
        "fading.pdf_cdf.calls": (counts["fading.pdf_cdf.calls"], "count"),
        "fading.pdf_cdf.self_s": (med(self_of("fading.pdf_cdf")), "s"),
        "validation.relay_quad.us_p50": (_median(pooled["relay_quad_us"]), "us"),
        "validation.ordered_quad.us_p50": (_median(pooled["ordered_quad_us"]), "us"),
        "validation.self_s": (med(lambda s: layer_self_s(s)["validation"]), "s"),
        "fading.ordered_cdf.calls": (counts["fading.ordered_cdf.calls"], "count"),
        "fading.ordered_cdf.self_s": (med(self_of("fading.ordered_cdf")), "s"),
        "cli.self_s": (med(self_of("cli.main")), "s"),
        "configs.load_s": (_median(configs_s), "s"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
    return metrics


def write_spans(path, spans: list[list]) -> None:
    """Write one pass's spans as gzipped JSON lines, one
    ``[id, name, start, end, parent id, thread id]`` array per span, times
    in seconds from the first start."""
    ids = {id(rec): i for i, rec in enumerate(spans)}
    t0 = min((rec[START] for rec in spans), default=0.0)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        for i, rec in enumerate(spans):
            parent = None if rec[PARENT] is None else ids[id(rec[PARENT])]
            fh.write(json.dumps([i, rec[NAME], rec[START] - t0, rec[END] - t0,
                                 parent, rec[THREAD]]) + "\n")
