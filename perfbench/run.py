"""noma-perf benchmark: three workloads, end-to-end and per-layer metrics.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload coop-deep --seed 1 --seconds 25 --trace 0

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the run
record (machine, versions, seed, pass samples, layer shares).  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  The benchmark imports the package from the checkout's
``src`` directory and exits 2 without a result when it is missing.

Workloads (fixed inputs; the seed only reaches ``--seed`` of mc-compare)
-------------------------------------------------------------------------
coop-deep
    ``sweep --scenario coop --mu 1,2,3`` over 0..60 dB in 1 dB steps with
    ``--oma``, analytics only, 366 rows per pass.  The relay closed form
    takes ~98% of the pass, mostly on its mpmath branch below 1e-6;
    Monte Carlo and quadrature are idle.  This is where a double-precision
    relay and one relay evaluation per point show.
mc-compare
    ``sweep --scenario compare --trials 1000000 --oma --chunks 2 --seed S``
    on the default 0..40 dB / 5 dB grid at mu=1, with
    ``NOMA_PERF_THREADS=2`` set by the benchmark, 36 rows per pass.
    Sampling, sorting and SINR replay take the pass; the analytics stay on
    the double-precision path, so relay work should not move it.  Coop
    draws a 5-pool plus relay gains feeding 2 users, direct redraws a pool
    per user: a shared-draw engine, a faster sampler and ``--chunks``
    scaling show here.
oracle-gate
    ``run_validation_suite`` on the coop and direct presets at mu=1,2,3
    over 0..60 dB in 1 dB steps, no simulation leg, 915 rows per pass.
    Quadrature oracles and their scalar density/CDF integrands take most
    of the pass, the exact closed form about a quarter, evaluated once per
    row, so removing duplicate relay calls must show on coop-deep and not
    here.

End-to-end metrics (``--trace 0``), per workload
------------------------------------------------
wall_per_probe  median over steady passes of the pass's wall time divided
                by the wall time of the workload's reference probe, run
                right before that pass (see probes.py); tracing off
cpu_per_probe   the same for process CPU time (user+sys, all threads);
                with wall_per_probe it separates less work from more
                threads on mc-compare
peak_rss_mb     peak resident memory of the benchmark process
setup_s         median over fresh interpreters of the time to import
                noma_perf and load the workload's configs, each divided by
                the interpreter probe's time right before it and scaled
                by 0.4 s: set-up seconds on a host that runs the probe in
                0.4 s, so that host drift between runs cancels
The probe runs no noma_perf code, so a change to noma_perf moves the
ratios exactly as it moves pass time.  On a shared 2-vCPU host the
median pass time of a 25 s run spread by 8-30% over six to ten runs
(quartile spread) with host load, the probe ratios by 3-10%.  The run
record keeps every raw sample with its quartiles, raw set-up seconds
included, and ``first_pass_s``, the first pass of the process (lazy
set-up such as the mpmath import in the relay path), which is a single
sample per run and too noisy to bound.
Failed rows over attempted rows is the ``failed``/``attempted`` pair of
the result.  A row fails when an analytic column (p_exact, p_asymptotic,
p_oma, throughput) is off the stored reference by more than 1e-9
relative, when p_mc is more than 5 standard errors from p_exact, when its
pass's output differs from the run's first pass, or, on oracle-gate, when
the gate did not pass it.  A pass that raises fails all its rows.

Per-layer metrics (``--trace 1``): layer -> metric -> workload it should move
----------------------------------------------------------------------------
analytic    relay_closed.{calls,calls_per_row,unique_frac,self_s,deep_calls,
            deep_us_p50,shallow_us_p50}, cuts.self_s -> wall_s/cpu_s on
            coop-deep (nearly all of it) and oracle-gate (about a
            quarter); mc-compare unchanged.  "deep" is a result in
            (0, 1e-6); unique_frac is distinct (cut, mu, omegas,
            noise_scale) tuples over calls.
fading, montecarlo
            fading.sample.ns_per_gain, fading.sort.ns_per_trial,
            montecarlo.{draw,replay}.ns_per_trial, montecarlo.trials_drawn,
            montecarlo.trial_points, montecarlo.draw_reuse ->
            wall_s/cpu_s/peak_rss_mb on mc-compare only.  trials_drawn
            counts the trials of the outermost sampling call of each
            thread (draw_coop_block, sample_sorted_gains or sample_gain),
            whichever sampler draws them; trial_points is the pass's
            Monte Carlo estimates times their trials.  sort and draw
            times are per trial drawn, replay per trial point.
numerics, fading, validation
            numerics.quad.{calls,self_s,unconverged},
            fading.pdf_cdf.{calls,self_s}, validation.relay_quad.us_p50,
            validation.ordered_quad.us_p50, validation.self_s -> wall_s on
            oracle-gate only.
fading, cli, configs
            fading.ordered_cdf.{calls,self_s}, cli.self_s, configs.load_s
            -> under 1% of a pass, should not move wall_s; configs.load_s
            feeds setup_s.
trace.overhead_frac
            median traced over median untraced pass wall time, minus 1;
            the two alternate within the run.
Self times and per-call times have the tracer's own cost per span taken
off, calibrated before every traced pass (see tracing.py); the record
keeps that cost and what is left of the overhead once it is taken off.
A layer a workload never calls reports 0 for its metrics.  A workload
whose own layer counts no work (relay calls on coop-deep; gains, trials
drawn, trial points and replay calls on mc-compare; quadratures and
density/CDF calls on oracle-gate) is reported as not correct, so work
that leaves the traced functions cannot pass for a speed-up.  The counts
relay_closed.calls, deep_calls, trials_drawn, quad.calls and pdf_cdf.calls
must repeat exactly across traced passes and across traced runs of the
same source (kept in ``perfbench_out/counts.json``); a run where they do
not is flagged and reported as not correct.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from operator import truediv
from pathlib import Path

import probes
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = SRC / "noma_perf"
OUT_DIR = ROOT / "perfbench_out"

#: timed fresh-interpreter set-ups per run, after one untimed warm-up
SETUP_RUNS = 5
#: the interpreter probe's time on the reference host, the scale of setup_s
PROBE_REFERENCE_S = 0.4
#: steady passes per run at least, whatever --seconds says
MIN_PASSES = 3
#: traced passes per trace run at least, so counts can be compared
MIN_TRACED = 2
#: the Monte Carlo worker cap every workload runs with
THREADS = "2"
#: span-name prefixes expected to dominate each workload, and the time
#: they are a share of (mc-compare runs two worker threads, so CPU)
DOMINANT = {
    "coop-deep": (("analytic.relay_closed",), "wall"),
    "mc-compare": (("fading.sample", "fading.sort", "montecarlo.replay"), "cpu"),
    "oracle-gate": (("numerics.quad", "fading.pdf_cdf", "validation."), "wall"),
}
#: counts of each workload's own layers; a traced run where one is 0 did
#: that work outside the traced functions and is reported as not correct
REQUIRED = {
    "coop-deep": ("analytic.relay_closed.calls",),
    "mc-compare": ("fading.sample.gains", "montecarlo.trials_drawn",
                   "montecarlo.trial_points", "montecarlo.replay.calls"),
    "oracle-gate": ("numerics.quad.calls", "fading.pdf_cdf.calls"),
}

_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.WORKLOADS[{name!r}].load()
print(repr(time.perf_counter() - t0))
"""


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result."""


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("coop-deep", "mc-compare", "oracle-gate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(PACKAGE)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _machine_record(seed: int) -> dict:
    # versions from package metadata: importing mpmath here would hide its
    # lazy import from first_pass_s
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "mpmath")},
        "NOMA_PERF_THREADS": os.environ.get("NOMA_PERF_THREADS"),
        "seed": seed,
    }


def _measure_setup(name: str, record: dict) -> float:
    """setup_s: import-and-load times in fresh interpreters, each over the
    interpreter probe's time right before it; the first is a warm-up."""
    code = _SETUP_CODE.format(src=str(SRC), bench=str(BENCH_DIR), name=name)
    times, probe_times = [], []
    for i in range(SETUP_RUNS + 1):
        probe_s, _ = _timed(probes.interpreter)
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed:\n{proc.stderr}")
        if i:
            times.append(float(proc.stdout.split()[-1]))
            probe_times.append(probe_s)
    record["setup_s_samples"] = times
    record["setup_probe_s_samples"] = probe_times
    return statistics.median(map(truediv, times, probe_times)) * PROBE_REFERENCE_S


class Passes:
    """Runs passes of one workload and checks each against the reference
    and against the first pass of the run."""

    def __init__(self, wl, cfgs, seed: int, reference: list, out_path: str):
        self.wl, self.cfgs, self.seed = wl, cfgs, seed
        self.reference, self.out_path = reference, out_path
        self.first_text = None
        self.attempted = self.failed = 0

    def run(self) -> tuple[float, float]:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            text = self.wl.run(self.cfgs, self.seed, self.out_path)
        except Exception:  # a pass that raises fails all its rows
            traceback.print_exc()
            text = None
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        self.attempted += self.wl.rows
        if text is None:
            self.failed += self.wl.rows
            return wall, cpu
        if self.first_text is None:
            self.first_text = text
        bad = self.wl.check(text, self.reference)
        first = self.first_text.splitlines()
        lines = text.splitlines()
        if len(lines) != len(first) or len(lines) < len(bad):
            bad = [True] * len(bad)
        else:
            offset = len(lines) - len(bad)  # header lines
            bad = [b or lines[offset + i] != first[offset + i] for i, b in enumerate(bad)]
        self.failed += sum(bad)
        return wall, cpu


def _measured_for(seconds: float, start: float, walls: list[float], least: int) -> bool:
    """True once ``least`` passes ran and another would overrun ``seconds``
    by more than half a pass."""
    if len(walls) < least:
        return False
    return time.perf_counter() - start + 0.5 * min(walls) >= seconds


def _timed(fn) -> tuple[float, float]:
    wall0, cpu0 = time.perf_counter(), time.process_time()
    fn()
    return time.perf_counter() - wall0, time.process_time() - cpu0


def _end_to_end(args, wl, passes: Passes, probe, record: dict) -> dict:
    record["first_pass_s"], _ = passes.run()
    walls, cpus, probe_walls, probe_cpus = [], [], [], []
    start = time.perf_counter()
    while not _measured_for(args.seconds, start, walls, MIN_PASSES):
        probe_wall, probe_cpu = _timed(probe)
        wall, cpu = passes.run()
        probe_walls.append(probe_wall)
        probe_cpus.append(probe_cpu)
        walls.append(wall)
        cpus.append(cpu)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["passes"] = len(walls)
    for name, values in (("wall_s", walls), ("cpu_s", cpus),
                         ("probe_wall_s", probe_walls), ("probe_cpu_s", probe_cpus)):
        record[name + "_samples"] = values
        record[name + "_quartiles"] = statistics.quantiles(values, n=4)
    return {
        "wall_per_probe": (statistics.median(map(truediv, walls, probe_walls)), "ratio"),
        "cpu_per_probe": (statistics.median(map(truediv, cpus, probe_cpus)), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (record["setup_s"], "s"),
    }


def _check_counts(name: str, counts: list[dict]) -> bool:
    """Exact counts must repeat across passes and across runs of one source."""
    exact = [{k: c[k] for k in tracing.EXACT_COUNTS} for c in counts]
    ok = all(c == exact[0] for c in exact)
    if not ok:
        print(f"perfbench: count check: traced passes disagree: {exact}", file=sys.stderr)
    store = OUT_DIR / "counts.json"
    key = f"{name}:{_source_digest()}"
    seen = json.loads(store.read_text()) if store.exists() else {}
    if key in seen and seen[key] != exact[0]:
        print(f"perfbench: count check: run disagrees with an earlier run of the same "
              f"source: {exact[0]} != {seen[key]}", file=sys.stderr)
        ok = False
    seen.setdefault(key, exact[0])
    store.write_text(json.dumps(seen, indent=1, sort_keys=True) + "\n")
    return ok


def _per_layer(args, wl, passes: Passes, record: dict, tracer) -> dict:
    passes.run()  # warm-up, untraced
    plain, traced, summaries, configs_s, counts = [], [], [], [], []
    layer_shares, dominant, spans, costs, residual = [], [], [], [], []
    start = time.perf_counter()
    while not _measured_for(args.seconds, start, traced, MIN_TRACED):
        plain.append(passes.run()[0])
        cost = tracer.calibrate()
        costs.append(cost)
        with tracer:
            wl.load()
            configs_s.append(tracing.layer_self_s(
                tracing.summarize(tracer.take(), cost))["configs"])
            wall, cpu = passes.run()
        traced.append(wall)
        spans = tracer.take()
        summary = tracing.summarize(spans, cost)
        summaries.append(summary)
        residual.append(wall - summary["spans"] * (cost.outside_wall + cost.inside_wall))
        counts.append(tracing.pass_counts(summary, wl.trial_points))
        layer_shares.append({k: v / wall for k, v in tracing.layer_self_s(summary).items()})
        spans_of, base = DOMINANT[wl.name]
        self_times = summary["self_cpu_s" if base == "cpu" else "self_s"]
        busy = sum(v for k, v in self_times.items() if k.startswith(spans_of))
        dominant.append(busy / (cpu if base == "cpu" else wall))
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    record["span_cost_ns"] = {
        field.name: statistics.median(getattr(c, field.name) for c in costs) * 1e9
        for field in dataclasses.fields(tracing.SpanCost)}
    # what is left of the overhead once the span cost is taken off
    record["overhead_frac_after_cost"] = (
        statistics.median(residual) / statistics.median(plain) - 1.0)
    record["layer_share_of_wall"] = {
        k: statistics.median(s[k] for s in layer_shares) for k in layer_shares[0]}
    record["dominant_spans"] = spans_of
    record["dominant_share_of_" + base] = statistics.median(dominant)
    record["passes"] = len(traced)
    record["traced_wall_s_samples"] = traced
    record["untraced_wall_s_samples"] = plain
    record["counts"] = counts[0]
    record["counts_repeat"] = _check_counts(wl.name, counts)
    idle = [name for name in REQUIRED[wl.name] if not counts[0][name]]
    if idle:
        print(f"perfbench: {wl.name} counted no work in {idle}; its work left the "
              f"traced functions, so perfbench/tracing.py must trace where it went",
              file=sys.stderr)
    record["required_counts_nonzero"] = not idle
    span_path = OUT_DIR / f"spans-{wl.name}.jsonl.gz"
    tracing.write_spans(span_path, spans)
    record["spans"] = str(span_path.relative_to(ROOT))
    return tracing.per_layer_metrics(summaries, counts[0], wl.rows, configs_s, overhead)


def run(args) -> dict:
    if not (PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no package at {PACKAGE}; run from a noma-perf checkout")
    os.environ["NOMA_PERF_THREADS"] = THREADS
    record = {"workload": args.workload, **_machine_record(args.seed),
              "source_sha256": _source_digest()}
    if not args.trace:
        record["setup_s"] = _measure_setup(args.workload, record)

    sys.path[:0] = [str(SRC)]
    import noma_perf
    if Path(noma_perf.__file__).resolve().parent != PACKAGE.resolve():
        raise BenchError(f"imported noma_perf from {noma_perf.__file__}, not {PACKAGE}")
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    reference = json.loads((BENCH_DIR / "reference.json").read_text())[wl.name]
    cfgs = wl.load()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        passes = Passes(wl, cfgs, args.seed, reference, str(Path(tmp) / "pass.csv"))
        if args.trace:
            tracer = tracing.Tracer(extra_modules=[workloads])
            metrics = _per_layer(args, wl, passes, record, tracer)
            correct = (passes.failed == 0 and record["counts_repeat"]
                       and record["required_counts_nonzero"])
        else:
            metrics = _end_to_end(args, wl, passes, probes.PROBES[wl.name], record)
            correct = passes.failed == 0
    record["fail_frac"] = passes.failed / passes.attempted
    print(json.dumps({"record": record}))
    return {
        "correct": correct,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
