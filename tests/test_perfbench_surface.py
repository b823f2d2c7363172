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
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gltc import (
    OPEN,
    ComponentDP,
    LevelTable,
    VectorTrie,
    build_partition,
    check_witness,
    independent_set_vectors,
    instance_tau,
    parse_instance,
    random_instance,
    reconstruct_witness,
    solve,
    walk_order,
)
from gltc.reference import level_step, mark_blocked, project
from gltc.solver import _BarPass, _build_plan, _combine, _find_complete
from support import base_table, decided_by_lists, odd_cycle_with_pendant, step

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


def test_combine_call_shape_of_the_replay_still_gives_the_level_tables():
    # perfbench/layers.py keeps OPEN and BLOCKED in its tables: it combines
    # with its own plan and a fresh memo, then bars the flattened result
    # vector by vector; its tables are reference.level_step's and,
    # projected, the solver's, vector for vector, and the solver's level
    # walk of the projected table equals the replay's step. The plan
    # hands _combine the next live mask at each call, and a level that
    # empties the table gives None, as the C5 with lists {1, 2}, T = {0}
    # and a pendant vertex with list {1..6} does at level 2
    c5 = odd_cycle_with_pendant()
    cases = [(random_instance(n=7, density=0.5, tau=seed % 3, lmax=6, seed=seed), strategy)
             for strategy, seed in (("star", 21), ("clique", 22), ("singleton", 23))]
    emptied = []
    for inst, strategy in [*cases, (c5, "singleton"), (c5, "star")]:
        part = build_partition(inst, strategy)
        dp = ComponentDP(inst, part.ordering)
        n = len(dp.ordering)
        plan = _build_plan(part.blocks, dp.tau, inst, True)
        table, indep = base_table(dp), independent_set_vectors(inst.graph, dp.ordering)
        replay = VectorTrie.from_vectors(n, [dp.bar.run(vec, -1) for vec in table])
        for k in range(1, 7):
            combined = _combine((replay.root,), indep.root, 0, plan, {})
            flat = VectorTrie(n, combined)
            reference = set(level_step(replay, indep, inst, dp.ordering, dp.tau, k))
            # the replay's table is marked already, so the pairwise step
            # of it is the reference step before its last marking
            assert set(flat) == set(map(project, reference))
            assert set(map(project, replay)) == set(table)
            table, want_size, _, _, _ = step(dp, table, k)
            want = set(table)
            barred = {dp.bar.run(vec, k - 1) for vec in flat}
            assert barred == reference
            assert set(map(project, barred)) == want
            assert len(barred) == want_size
            if combined is None:
                assert not reference and want_size == 0
                emptied.append((inst is c5, k))
                break
            replay = VectorTrie.from_vectors(n, barred)
    assert emptied.count((True, 2)) == 2


def test_completeness_check_and_witness_walk_of_the_replay_still_run():
    # perfbench/layers.py fills fresh tries vector by vector with
    # VectorTrie.add, each vector barred for the next label, then checks
    # each for a complete vector and walks the witness back through them
    checked = 0
    for seed in range(31, 43):
        inst = random_instance(n=6, density=0.5, tau=seed % 4, lmax=5, seed=seed)
        dp = ComponentDP(inst, walk_order(inst.graph))
        table = base_table(dp)
        plain = [LevelTable(0, VectorTrie.from_vectors(
            len(dp.ordering), [dp.bar.run(vec, -1) for vec in table]))]  # add, too
        for k in range(1, 6):
            table, _, _, _, _ = step(dp, table, k)
            added = VectorTrie(len(dp.ordering))
            for vec in table:
                added.add(dp.bar.run(vec, k - 1))
            plain.append(LevelTable(k, added))
            found = _find_complete(added)
            assert found == _find_complete(table)
            if found is not None:
                indep = independent_set_vectors(inst.graph, dp.ordering)
                witness = reconstruct_witness(plain, found, k, indep, dp.tau, dp.ordering)
                assert check_witness(inst, witness)
                checked += 1
                break
    assert checked >= 4


@pytest.mark.parametrize("workload", ["reductions", "small_mixed"])
def test_replay_level_sizes_match_solve(workload, tmp_path, monkeypatch):
    # run.py --trace 1 refuses a replay whose level sizes differ from
    # solve()'s or pass the predicted bound; large_tau1's one instance
    # takes about 15 s and 400 MB in the replay, so it is left to run.py.
    # The slice holds components whose pruned lists have one label each,
    # which solve() decides without a level walk (62 in small_mixed's, 2
    # in reductions'), so the sizes it records for them are checked too
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    items = workloads.WORKLOADS[workload](7)[:24]
    assert any(decided_by_lists(report) for item in items
               for report in solve(parse_instance(item.text)).stats.components)
    workloads.write(items, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(PERFBENCH / "layers.py"), "--corpus", str(tmp_path),
                    "--out", str(tmp_path / "result.json")], env=env, check=True, timeout=120)
    report = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    assert report["mismatches"] == []
    assert report["metrics"]["solver.over_bound"] == 0
    assert report["metrics"]["solver.levels"] > 0


def test_demos_and_test_support_import_no_private_gltc_name():
    paths = [*(ROOT / "demos").glob("*.py"), ROOT / "tests" / "support.py"]
    found = list(_gltc_imports(paths))
    assert {script for script, _, _ in found} >= {"support.py", "04_state_space_walkthrough.py"}
    private = [(script, module, name) for script, module, name in found
               if name.startswith("_") or any(part.startswith("_") for part in module.split("."))]
    assert not private
