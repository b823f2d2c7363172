"""The names the benchmark harness imports from gltc still exist.

Tier-1 imports only perfbench/workloads.py, so a missing name in another
harness script would otherwise show up only when the benchmark runs.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _gltc_imports():
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gltc":
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_every_perfbench_import_from_gltc_resolves():
    found = list(_gltc_imports())
    assert {module for _, module, _ in found} >= {"gltc", "gltc.cli", "gltc.solver"}
    missing = [(script, module, name) for script, module, name in found
               if not hasattr(importlib.import_module(module), name)]
    assert not missing
