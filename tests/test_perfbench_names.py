"""The benchmark reaches into the library by name: ``perfbench/spans.py``
wraps the functions listed in ``SPANS`` on each ``gstirling.<layer>``
module, and ``perfbench/capacity.py`` imports functions from ``gstirling``.
A function moved or renamed in the library would blind a traced metric or
crash the capacity probe, so both lists are checked here."""

import ast
import importlib
import importlib.util
from pathlib import Path

import gstirling

PERFBENCH = Path(__file__).parent.parent / "perfbench"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_on_its_layer():
    spans = _spans_module().SPANS
    assert spans
    for layer, names in spans.items():
        module = importlib.import_module(f"gstirling.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"gstirling.{layer}.{name}"


def test_every_capacity_import_exists():
    tree = ast.parse((PERFBENCH / "capacity.py").read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "gstirling"
             for alias in node.names]
    assert names
    for name in names:
        assert hasattr(gstirling, name), name
        assert name in gstirling.__all__, name
