"""What scripts outside the package import from gltc.

The names the benchmark harness imports still exist and still accept the
calls it makes: tier-1 imports only perfbench/workloads.py, so a missing
name in another harness script would otherwise show up only when the
benchmark runs. The demos and the shared test builders import public
names only.
"""

import ast
import importlib
import itertools
from pathlib import Path

from gltc import OPEN, instance_tau, random_instance
from gltc.reference import mark_blocked
from gltc.solver import _BarPass

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _gltc_imports(paths):
    for path in sorted(paths):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gltc":
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_every_perfbench_import_from_gltc_resolves():
    found = list(_gltc_imports(PERFBENCH.glob("*.py")))
    assert {module for _, module, _ in found} >= {"gltc", "gltc.cli", "gltc.solver"}
    missing = [(script, module, name) for script, module, name in found
               if not hasattr(importlib.import_module(module), name)]
    assert not missing


def test_per_vector_bar_pass_of_the_replay_still_runs():
    # perfbench/layers.py times the OPEN/BLOCKED pass vector by vector
    for seed, ordering in ((3, (3, 1, 5, 2, 4)), (4, (5, 4, 3, 2, 1)), (5, (2, 4, 1, 3, 5))):
        inst = random_instance(n=5, density=0.8, tau=seed - 1, lmax=6, seed=seed)
        tau = instance_tau(inst)
        bar = _BarPass(inst, ordering, tau)
        for vec in itertools.product(range(OPEN, tau + 2), repeat=5):
            for level in range(4):
                assert bar.run(vec, level) == mark_blocked(vec, level, inst, ordering, tau)


def test_demos_and_test_support_import_no_private_gltc_name():
    paths = [*(ROOT / "demos").glob("*.py"), ROOT / "tests" / "support.py"]
    found = list(_gltc_imports(paths))
    assert {script for script, _, _ in found} >= {"support.py", "04_state_space_walkthrough.py"}
    private = [(script, module, name) for script, module, name in found
               if name.startswith("_") or any(part.startswith("_") for part in module.split("."))]
    assert not private
