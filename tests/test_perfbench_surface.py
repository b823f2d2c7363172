"""The names the benchmark harness imports from gltc still exist and
still accept the calls it makes.

Tier-1 imports only perfbench/workloads.py, so a missing name in another
harness script would otherwise show up only when the benchmark runs.
"""

import ast
import importlib
from pathlib import Path

from gltc import OPEN, instance_tau, random_instance
from gltc.reference import mark_blocked
from gltc.solver import _BarPass

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


def test_per_vector_bar_pass_of_the_replay_still_runs():
    # perfbench/layers.py times the OPEN/BLOCKED pass vector by vector
    inst = random_instance(n=5, density=0.8, tau=2, lmax=6, seed=3)
    ordering = (3, 1, 5, 2, 4)
    tau = instance_tau(inst)
    bar = _BarPass(inst, ordering, tau)
    for vec in [(OPEN, 2, OPEN, 3, 1), (3, OPEN, OPEN, OPEN, 2), (OPEN,) * 5]:
        for level in range(4):
            assert bar.run(vec, level) == mark_blocked(vec, level, inst, ordering, tau)
