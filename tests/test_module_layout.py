"""Which module holds which job, and what the package exports.

The solver owns its walk order and imports neither the partitions (they
bound the tables; they do not steer the solve) nor the reference
implementations. The reference module owns the listing of feasible
prefixes, and writes the level recurrence once, in
reference.level_step. The partition module peels stars in one loop and
owns the strategy grammar; the CLI only reports its verdict. One pass
over the label sets prunes and compresses the lists at every width. One
function lists the independent sets by their definition, and the
reference recurrence runs on plain sets, importing none of the package's
set types. One fold, encoding.tally, counts a store's vectors and flags
its complete ones. The solver builds no independent-set trie: its walks
read neighbour masks. One walk takes a level table to the next, and the
tables it builds hold one unlabeled symbol: BLOCKED is written only by
the benchmark replay's per-vector pass. What a solve may hold is capped
by one constant of the solver, not by an option, and a component is
solved on one path, with one level loop. ``gltc.__all__`` holds
what the CLI, the demos and the benchmark scripts import from gltc, plus
the public exceptions and result types.
"""

import ast
import dataclasses
import tokenize
from pathlib import Path

import pytest

import gltc
from gltc import BLOCKED, SolveOptions, SolveStats, random_instance, solve
from gltc import indsets as indsets_module
from gltc import partition as partition_module
from gltc import reference as reference_module
from gltc import solver as solver_module
from gltc.cli import main
from support import decided_by_lists, peel_off

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


def test_one_node_format_for_the_trie():
    assert not hasattr(indsets_module, "trie_vectors")
    assert not hasattr(indsets_module, "Trie")
    assert not hasattr(solver_module, "_intern_trie")
    # no identifier of the int-array form is left anywhere in the package
    names = set()
    for path in SRC.glob("*.py"):
        with path.open("rb") as f:
            names |= {tok.string for tok in tokenize.tokenize(f.readline)
                      if tok.type == tokenize.NAME}
    assert "shapes" in names  # identifiers are seen
    assert not names & {"on0", "on1"}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _called(fn) -> list:
    """The names a function's own body calls, with repeats."""
    return [getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in _own_nodes(fn) if isinstance(node, ast.Call)]


def _own_nodes(fn):
    """The AST nodes of a function's body, not those of functions nested in it."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _folds_children(fn) -> bool:
    """True when ``fn`` sums table entries (``total += count[c]``,
    ``below[key] += paths``) or folds flags read from one into a variable
    (``whole = whole or full[c]``)."""
    for node in _own_nodes(fn):
        if (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add)
                and (isinstance(node.target, ast.Subscript) or isinstance(node.value, ast.Subscript))):
            return True
        if (isinstance(node, (ast.Assign, ast.AugAssign)) and isinstance(node.value, ast.BoolOp)
                and any(isinstance(n, ast.Subscript) for n in ast.walk(node.value))):
            return True
    return False


def test_one_tally():
    folds = set()
    for path in SRC.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef) and _folds_children(fn):
                folds.add(f"{path.stem}.{fn.name}")
    assert folds == {"encoding.tally"}
    # the witness anchor and the dict-trie count are straight-line uses of it
    for path, name in (("solver.py", "_least_complete"), ("vectorset.py", "node_count")):
        tree = ast.parse((SRC / path).read_text(encoding="utf-8"))
        (fn,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == name]
        assert not any(isinstance(n, FUNCTIONS) for n in _own_nodes(fn)), name


def _functions(path: Path):
    return [fn for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_one_trie_builder():
    # indsets lists the family by its definition in one function, with
    # no recursive or nested builder
    functions = _functions(SRC / "indsets.py")
    assert [fn.name for fn in functions] == ["independent_set_vectors"]
    (public,) = functions
    assert "independent_set_vectors" not in _called(public)
    assert not any(isinstance(node, FUNCTIONS) for node in _own_nodes(public))
    # the reference recurrence runs on plain sets, with none of the
    # package's set types or builders
    found = list(_imports_from(SRC / "reference.py"))
    modules = {module for module, _ in found}
    modules |= {f"gltc.{name}" for module, names in found if module == "gltc" for name in names}
    assert "gltc.encoding" in modules  # relative imports are seen
    assert not modules & {"gltc.vectorset", "gltc.indsets", "gltc.solver"}
    # the solver builds no trie: its walks take the neighbour masks
    solver_functions = _functions(SRC / "solver.py")
    called = {name for fn in solver_functions for name in _called(fn)}
    assert "_level_walk" in called  # calls are seen
    assert not called & {"trie_from_masks", "independent_set_trie", "independent_set_vectors"}
    walks = {fn.name: [arg.arg for arg in fn.args.args] for fn in solver_functions
             if fn.name in ("_level_walk", "_walk_back")}
    assert len(walks) == 2 and all("nbr_mask" in args for args in walks.values())
    assert not any("trie" in arg for args in walks.values() for arg in args)


def test_one_level_walk():
    names = {fn.name for path in SRC.glob("*.py") for fn in _functions(path)}
    assert "_level_walk" in names  # function names are seen
    assert not names & {"_image", "rewrite"}
    # advance is straight-line code around one call of the walk
    (advance,) = [fn for fn in _functions(SRC / "solver.py") if fn.name == "advance"]
    assert _called(advance).count("_level_walk") == 1
    loops = (ast.For, ast.While, *FUNCTIONS)
    assert not any(isinstance(node, loops) for node in _own_nodes(advance))
    # in solver.py only the replay's per-vector pass names BLOCKED
    writers = {fn.name for fn in _functions(SRC / "solver.py")
               if any(isinstance(node, ast.Name) and node.id == "BLOCKED"
                      for node in _own_nodes(fn))}
    assert writers == {"run"}


def test_one_pruning_pass():
    # gap_compression prunes, clips and shrinks the lists in one pass over
    # the label sets, whatever their width: no bitmask form of a step, no
    # second path for wide labels, and no call of itself
    tree = ast.parse((SRC / "instance.py").read_text(encoding="utf-8"))
    defined = {fn.name for fn in _functions(SRC / "instance.py")}
    defined |= {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert {"gap_compression", "_ECHO"} <= defined  # functions and constants are seen
    assert not defined & {"_compress_on_sets", "_clip_differences", "_mask_width", "_WIDEST_MASK"}
    (fn,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "gap_compression"]
    called = _called(fn)
    assert "gap_compression" not in called
    assert called.count("_prune_unsupported") == called.count("_fix_free_labels") == 1


def test_one_reference_recurrence():
    # the level recurrence, direct_step between two mark_blocked passes,
    # is written once, and every other caller goes through it
    paths = [path for folder in (SRC, ROOT / "tests", ROOT / "demos", ROOT / "perfbench")
             for path in folder.glob("*.py")]
    both = {f"{path.stem}.{fn.name}" for path in paths for fn in _functions(path)
            if {"direct_step", "mark_blocked"} <= set(_called(fn))}
    assert both == {"reference.level_step"}


def test_solves_walk_once_per_level_and_never_emit_blocked(monkeypatch):
    walks = []
    real = solver_module._level_walk

    def recorded(*args):
        out = real(*args)
        walks.append(out)
        return out

    monkeypatch.setattr(solver_module, "_level_walk", recorded)
    symbols = set()
    decided = 0
    for seed in range(40):
        inst = random_instance(n=3 + seed % 6, density=(0.2, 0.5, 0.8)[seed % 3],
                               tau=seed % 4, lmax=3 + seed % 5, seed=3100 + seed)
        # a component whose lists hold one label each leaves no vertex to
        # walk, and runs no walk
        walks.clear()
        result = solve(inst)
        reports = result.stats.components
        decided += sum(map(decided_by_lists, reports))
        assert len(walks) == sum(len(c.level_sizes) for c in reports
                                 if not decided_by_lists(c))
        # with no vertex fixed, every level that runs is one walk
        walks.clear()
        with peel_off():
            result = solve(inst)
        assert len(walks) == result.stats.levels
        for shapes, _, _, _, _ in walks:
            symbols |= {sym for shape in shapes for sym, _ in shape}
    assert BLOCKED not in symbols and min(symbols) == 0 and max(symbols) == 4
    assert decided > 0


def test_one_path_solves_a_component():
    # a component whose lists hold one label each is the peel's case with
    # no core, on the one path: no function of its own decides it, and
    # _solve_component runs one level loop, around advance
    assert not hasattr(solver_module, "_decided_by_lists")
    assert callable(solver_module._one_label_vertices)  # attributes are seen
    (fn,) = [f for f in _functions(SRC / "solver.py") if f.name == "_solve_component"]
    loops = [node for node in _own_nodes(fn) if isinstance(node, (ast.For, ast.While))]
    assert len(loops) == 1
    assert "advance" in {getattr(node.func, "attr", None) for node in ast.walk(loops[0])
                         if isinstance(node, ast.Call)}
    assert _called(fn).count("_one_label_vertices") == 1


def test_the_solve_cap_is_a_constant_not_an_option(capsys):
    # and a solve has one stopping rule, its first complete level, not an
    # option either
    assert [f.name for f in dataclasses.fields(SolveOptions)] == ["store_parents"]
    assert "total_vectors" not in {f.name for f in dataclasses.fields(SolveStats)}
    for flag in (["--limit", "5"], ["--no-early-exit"]):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "x.gltc", *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_the_replays_names_sit_after_the_production_path():
    # solver.py ends with one section of what only the benchmark replay
    # uses: every name perfbench/layers.py imports from gltc.solver, the
    # dict-trie table type and witness adapter it imports from gltc, and
    # the adapters' helpers. Every other top-level definition comes
    # before that section, and none of them names anything in it
    replay = {"LevelTable", "reconstruct_witness", "_unbarred", "_trie_neighbours"}
    for module, names in _imports_from(ROOT / "perfbench" / "layers.py"):
        if module == "gltc.solver":
            replay |= names
    assert {"_BarPass", "_build_plan", "_combine", "_find_complete"} <= replay  # imports are seen
    tree = ast.parse((SRC / "solver.py").read_text(encoding="utf-8"))
    defs = [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert replay <= {node.name for node in defs}
    production = [node for node in defs if node.name not in replay]
    fence = max(node.end_lineno for node in production)
    assert all(node.lineno > fence for node in defs if node.name in replay)
    named = {name for node in production for sub in ast.walk(node)
             for name in (getattr(sub, "id", None), getattr(sub, "attr", None))}
    assert {"ComponentDP", "filters", "nbr_mask"} <= named  # names and attributes are seen
    assert not named & replay
    # ComponentDP builds its masks itself, and the replay's subclass adds
    # only its per-vector pass
    (component_dp,) = [node for node in defs if node.name == "ComponentDP"]
    assert "bar" not in {sub.attr for sub in ast.walk(component_dp)
                         if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)}
    assert not hasattr(solver_module.ComponentDP(random_instance(3, 0.5, 1, 3, 1), (1, 2, 3)), "bar")
    assert not {"_listed_masks", "_live_masks"} & set(vars(solver_module))
    assert solver_module._BarPass.__bases__ == (solver_module.ComponentDP,)
    assert {name for name, value in vars(solver_module._BarPass).items()
            if callable(value)} == {"__init__", "run"}
