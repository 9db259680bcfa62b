"""Every name the package exports, and every function the benchmark's
tracer wraps, resolves in ``noma_perf``.

``perfbench/tracing.py`` replaces the functions named in its ``TRACED``
table by timing wrappers; a name missing from the package breaks every
traced benchmark run.  The table is read with ``ast`` so that nothing is
imported, and nothing written, under ``perfbench/``.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import noma_perf

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = sorted(info.name for info in pkgutil.iter_modules(noma_perf.__path__))


def traced_names() -> list[tuple[str, str]]:
    """The (module, function) keys of ``TRACED`` in perfbench/tracing.py."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError(f"{TRACING} defines no TRACED table")


def test_traced_functions_resolve():
    names = traced_names()
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
