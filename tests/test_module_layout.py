"""Which module holds which job, and what the package exports.

The solver owns its walk order and imports neither the partitions (they
bound the tables; they do not steer the solve) nor the reference
implementations. The reference module owns the listing of feasible
prefixes. The partition module peels stars in one loop and owns the
strategy grammar; the CLI only reports its verdict. ``gltc.__all__``
holds what the CLI, the demos and the benchmark scripts import from
gltc, plus the public exceptions and result types.
"""

import ast
from pathlib import Path

import gltc
from gltc import partition as partition_module
from gltc import reference as reference_module
from gltc import solver as solver_module

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gltc"
PUBLIC_TYPES = {"ParseError", "ResourceLimitError", "NotK1dFreeError", "SolveResult", "SolveStats"}


def _imports_from(path: Path):
    """(module, imported names) per import statement of a file; a relative
    import, which only the package itself makes, is resolved inside gltc."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"gltc.{module}" if module else "gltc"
            yield module, {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, set()


def test_solver_imports_neither_partitions_nor_reference():
    found = list(_imports_from(SRC / "solver.py"))
    modules = {module for module, _ in found}
    assert "gltc.instance" in modules  # relative imports are seen
    banned = {"gltc.partition", "gltc.reference"}
    assert not modules & banned
    assert not any(module == "gltc" and {f"gltc.{name}" for name in names} & banned
                   for module, names in found)


def test_walk_order_and_prefix_listing_live_outside_partition():
    for name in ("walk_order", "feasible_prefixes", "_feasible_prefixes"):
        assert not hasattr(partition_module, name), name
    assert gltc.walk_order is solver_module.walk_order
    assert gltc.feasible_prefixes is reference_module.feasible_prefixes


def test_package_exports_what_its_callers_import():
    used = set()
    for module, names in _imports_from(SRC / "cli.py"):
        if module.startswith("gltc."):
            used |= {name for name in names if not name.startswith("_")}
    callers = [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    for path in callers:
        for module, names in _imports_from(path):
            if module == "gltc":
                used |= names
    assert len(gltc.__all__) == len(set(gltc.__all__)) == 39
    assert set(gltc.__all__) == used | PUBLIC_TYPES
    assert all(hasattr(gltc, name) for name in gltc.__all__)


def test_one_function_peels_stars():
    tree = ast.parse((SRC / "partition.py").read_text(encoding="utf-8"))
    callers = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        and any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "tree_longest_path"
                for node in ast.walk(fn))
    }
    assert len(callers) == 1, callers


def test_cli_does_not_parse_strategies():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    literals = {node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert not [s for s in literals if "k1d" in s]
    assert not literals & {"singleton", "star", "clique"}
