"""Every name the package exports, and every function the benchmark's
tracer wraps, resolves in ``noma_perf``, and the wrapped functions are
the ones the production runs call.

``perfbench/tracing.py`` replaces the functions named in its ``TRACED``
table by timing wrappers; a name missing from the package breaks every
traced benchmark run, and a layer whose work moves to an untraced
function reads 0 calls.  The table is read with ``ast`` so that nothing
is imported, and nothing written, under ``perfbench/``.
"""

import ast
import collections
import functools
import importlib
import pkgutil
from pathlib import Path

import pytest

import noma_perf
from noma_perf.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = sorted(info.name for info in pkgutil.iter_modules(noma_perf.__path__))


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

    wrappers = {}
    for (module, name), span in traced_spans().items():
        fn = getattr(importlib.import_module(f"noma_perf.{module}"), name)
        wrappers[id(fn)] = counted(fn, span)  # each wrapper keeps its fn alive
    for module in [noma_perf, *(importlib.import_module(f"noma_perf.{m}") for m in MODULES)]:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                monkeypatch.setattr(module, attr, wrappers[id(value)])
    for argv in (["sweep", "--scenario", "coop", "--oma"],
                 ["sweep", "--scenario", "compare", "--trials", "1000", "--snr-step", "20",
                  "--oma"],
                 ["validate", "--trials", "0"]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    spans = ("analytic.relay_closed", "montecarlo.draw", "montecarlo.replay", "fading.sample",
             "numerics.quad", "fading.pdf_cdf")
    assert [span for span in spans if calls[span] == 0] == []
