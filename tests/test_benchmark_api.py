"""Every efem name the benchmark's workloads use exists.

perfbench/workloads.py drives the public API through module attributes
(efem_core.assemble_global, postprocess.eval_in_element, ...).  A change
that deletes one of them would only show when the benchmark runs; this test
parses the file and fails on it first.
"""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
ALIASES = {"efem_core", "interface", "postprocess", "solver", "oracles", "mesh_mod"}


def _modules_and_names(tree):
    """{alias: module} of the file's `from efem import ...`, and the
    (alias, attribute) pairs it reads."""
    modules = {a.asname or a.name: f"efem.{a.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "efem"
               for a in node.names}
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    return modules, sorted(used)


def test_every_efem_name_the_workloads_use_exists():
    modules, used = _modules_and_names(ast.parse(WORKLOADS.read_text()))
    assert ALIASES <= modules.keys()
    assert {alias for alias, _ in used} == ALIASES
    missing = [f"{alias}.{name}" for alias, name in used
               if not hasattr(importlib.import_module(modules[alias]), name)]
    assert missing == []
