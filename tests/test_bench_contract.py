"""The names the benchmark harness under ``bench/`` reads from the package exist.

The harness traces package functions by name and calls the package's public
surface; a rename or deletion here would otherwise only show up when the
(slow) bench suite runs.  The bench files are read, never imported into the
package or written.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import hardy_perturb

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    spans = _load_spans(monkeypatch)
    missing = []
    for mod_name, fns in spans.TRACED.items():
        module = importlib.import_module(f"hardy_perturb.{mod_name}")
        missing += [f"{mod_name}.{fn}" for fn in fns if not callable(getattr(module, fn, None))]
    assert missing == []


def _hp_names(path: Path) -> set:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "hp"
    }


def test_every_package_name_the_workloads_use_exists():
    used = _hp_names(BENCH / "workloads.py")
    assert used, "workloads.py no longer reads the package as hp"
    assert sorted(n for n in used if not hasattr(hardy_perturb, n)) == []
