"""Every name the package exports, and every function the benchmark's
tracer wraps, resolves in ``noma_perf``, and the wrapped functions are
the ones the production runs call.  The README's library example runs
as printed.

``perfbench/tracing.py`` replaces the functions named in its ``TRACED``
table by timing wrappers, matched by object identity in every module; a
name missing from the package breaks every traced benchmark run, and a
layer whose work moves to an untraced function reads 0 calls.  The table
is read with ``ast`` so that nothing is imported, and nothing written,
under ``perfbench/``.
"""

import ast
import collections
import functools
import importlib
import inspect
import math
import pkgutil
from pathlib import Path

import pytest

import noma_perf

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(info.name for info in pkgutil.iter_modules(noma_perf.__path__))
#: earlier names that ``TRACED`` pins: each is bound, in its module, to
#: the exported function whose span it names, and no ``__all__`` exports
#: the name itself
PARKED = (
    ("analytic", "coop_cuts"),
    ("analytic", "direct_cuts"),
    ("analytic", "far_outage_parts"),
    ("analytic", "near_outage_parts"),
    ("analytic", "outage_far_exact"),
    ("analytic", "outage_near_exact"),
    ("analytic", "outage_direct_exact"),
    ("analytic", "outage_far_asymptotic"),
    ("analytic", "outage_near_asymptotic"),
    ("analytic", "outage_direct_asymptotic"),
    ("analytic", "throughput_coop"),
    ("analytic", "throughput_direct"),
    ("montecarlo", "estimate_outage_coop"),
    ("montecarlo", "estimate_outage_direct"),
    ("montecarlo", "draw_coop_block"),
    ("montecarlo", "coop_events_from_sinr"),
    ("montecarlo", "direct_events_from_sinr"),
)
#: the one-row oracle entry points, public API that the batched
#: validation gate (``validation.link_oracles``) no longer calls: the
#: only traced names whose spans may read 0 calls on the production path
ONE_ROW_ORACLES = (
    ("validation", "outage_oracle"),
    ("validation", "relay_outage_quadrature"),
    ("validation", "ordered_cdf_quadrature"),
)
#: production runs that reach every traced layer between them
PRODUCTION_ARGVS = (
    ["sweep", "--scenario", "coop", "--oma"],
    ["sweep", "--scenario", "compare", "--trials", "1000", "--snr-step", "20", "--oma"],
    ["validate", "--trials", "0"],
)


def traced_spans() -> dict[tuple[str, str], str]:
    """(module, function) -> span name of each entry of ``TRACED`` in
    perfbench/tracing.py."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            return {ast.literal_eval(key): ast.literal_eval(value.elts[0])
                    for key, value in zip(node.value.keys, node.value.values, strict=True)}
    raise AssertionError(f"{TRACING} defines no TRACED table")


def test_traced_functions_resolve():
    names = list(traced_spans())
    assert names
    missing = [
        (module, name) for module, name in names
        if not callable(getattr(importlib.import_module(f"noma_perf.{module}"), name, None))
    ]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"noma_perf.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_all_resolves():
    assert [name for name in noma_perf.__all__ if not hasattr(noma_perf, name)] == []


def test_parked_views_stay_out_of_every_all():
    traced = traced_spans()
    assert [entry for entry in PARKED if entry not in traced] == []
    assert [(module, name) for module, name in PARKED
            if not callable(getattr(importlib.import_module(f"noma_perf.{module}"), name, None))
            ] == []
    exported = set(noma_perf.__all__).union(
        *(importlib.import_module(f"noma_perf.{module}").__all__ for module in MODULES))
    hidden = {name for _, name in PARKED} | {"COOP_USERS"}
    assert sorted(hidden & exported) == []


def test_parked_names_are_exported_functions():
    unbound = []
    for module, name in PARKED:
        mod = importlib.import_module(f"noma_perf.{module}")
        fn = getattr(mod, name)
        exported = any(fn is getattr(mod, public) for public in mod.__all__)
        if not (inspect.isfunction(fn) and exported):
            unbound.append((module, name))
    assert unbound == []


def test_no_function_is_pinned_under_two_span_names():
    # the tracer keys its wrappers by id, so a second span name for one
    # function object would silently take over the first one's calls
    spans = collections.defaultdict(set)
    for (module, name), span in traced_spans().items():
        spans[getattr(importlib.import_module(f"noma_perf.{module}"), name)].add(span)
    assert sorted(sorted(names) for names in spans.values() if len(names) > 1) == []


def test_traced_spans_stay_on_the_production_path(capsys, monkeypatch):
    # rebind each traced function by identity in every module, as the
    # tracer does, and count the calls of each span group
    calls = collections.Counter()

    def counted(fn, span):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[span] += 1
            return fn(*args, **kwargs)
        return wrapper

    traced = traced_spans()
    wrappers = {}
    for (module, name), span in traced.items():
        fn = getattr(importlib.import_module(f"noma_perf.{module}"), name)
        wrappers[id(fn)] = counted(fn, span)  # each wrapper keeps its fn alive
    modules = {m: importlib.import_module(f"noma_perf.{m}") for m in MODULES}
    for module in [noma_perf, *modules.values()]:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                monkeypatch.setattr(module, attr, wrappers[id(value)])
    for argv in PRODUCTION_ARGVS:
        # through the module, so that cli.main itself is the wrapped one
        assert modules["cli"].main(argv) == 0, argv
    capsys.readouterr()
    may_idle = ({traced[entry] for entry in ONE_ROW_ORACLES}
                - {span for entry, span in traced.items() if entry not in ONE_ROW_ORACLES})
    assert sorted({span for span in traced.values() if not calls[span]} - may_idle) == []


def test_relay_closed_form_is_called_scalar_in_float_out(capsys, monkeypatch):
    # the tracer keys each relay span by float(args[0]) and reads the
    # result as the value, so the production runs must keep calling the
    # closed form with one positional Python float cut, finite and
    # positive, and get a Python float back
    analytic = importlib.import_module("noma_perf.analytic")
    closed_form = analytic.relay_outage_closed
    calls = []

    def checked(*args, **kwargs):
        result = closed_form(*args, **kwargs)
        calls.append((args, result))
        return result

    for module in [noma_perf, *map(importlib.import_module, (f"noma_perf.{m}" for m in MODULES))]:
        for attr, value in list(vars(module).items()):
            if value is closed_form:
                monkeypatch.setattr(module, attr, checked)
    for argv in PRODUCTION_ARGVS:
        assert importlib.import_module("noma_perf.cli").main(argv) == 0, argv
    capsys.readouterr()
    assert calls
    assert [(args, result) for args, result in calls
            if not (len(args) == 1 and type(args[0]) is float and 0.0 < args[0] < math.inf
                    and type(result) is float)] == []


def test_readme_library_use_runs():
    # the first python block under "## Library use"; a bare expression
    # whose comment starts with a literal (up to a colon) must evaluate
    # to that literal
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    checked = 0
    for line in code.splitlines():
        expr, _, comment = line.partition("  # ")
        try:
            tree = ast.parse(expr.strip(), mode="eval")
            want = ast.literal_eval(comment.split(":", 1)[0].strip())
        except (SyntaxError, ValueError):
            continue
        assert eval(compile(tree, str(README), "eval"), namespace) == want, line
        checked += 1
    assert checked == 3
