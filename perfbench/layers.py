"""Traced run: the solver's level loop replayed call by call, with spans.

For every corpus instance this script first calls ``solve()`` with no
spans (the untraced reference), then replays the same work, timing each
call into the package from here:

    instance   parse_instance; validate + split_components + gap_compression
    partition  build_partition; the per-component prefix plan
    indsets    independent_set_vectors
    solver     the combine step; the OPEN/BLOCKED bar pass; the completeness
               check and reconstruct_witness
    vectorset  walking the step trie into tuples; inserting the barred
               vectors into a fresh trie; len() of each new table

The replay follows ``_solve_component`` line by line and calls the same
per-component pieces it does (``_build_plan``, ``_BarPass``, ``_combine``,
``_find_complete``). The public ``compute_step`` and ``apply_bar_level``
would rebuild the prefix plan and the bar tables at every level, which
doubled the traced time on ``reductions`` and swelled the combine share.

The replay must reproduce ``solve()``: its per-level table sizes are
compared with ``SolveStats.components[*].level_sizes`` on every instance,
and every level with the ``predict_complexity`` bound.

Work the replay adds, counted as tracing overhead: each level's vectors
are held in a list between the flatten, bar and insert phases, where the
solver streams them one at a time; each new table is counted with
``len()`` and walked to count its nodes; and feasible prefixes are
enumerated once more per component for ``partition.prefix_count``. Spans are kept in memory and written out at
the end.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

from gltc import (
    BLOCKED,
    LEAF,
    OPEN,
    LevelTable,
    SolveOptions,
    VectorTrie,
    build_partition,
    feasible_prefixes,
    gap_compression,
    independent_set_vectors,
    instance_tau,
    parse_instance,
    predict_complexity,
    reconstruct_witness,
    solve,
    split_components,
    validate,
)
from gltc.solver import _BarPass, _build_plan, _combine, _find_complete

import workloads

# Per-layer metrics reported by run.py with --trace 1, in output order.
PER_LAYER = (
    ("instance.parse_s", "s"),
    ("instance.prepare_s", "s"),
    ("partition.build_s", "s"),
    ("partition.prefixes_s", "s"),
    ("partition.prefix_count", "count"),
    ("partition.fill_ratio", "ratio"),
    ("indsets.build_s", "s"),
    ("indsets.nodes", "count"),
    ("solver.combine_s", "s"),
    ("solver.bar_s", "s"),
    ("solver.bar_insert_s", "s"),
    ("solver.witness_s", "s"),
    ("solver.levels", "count"),
    ("solver.table_vectors", "count"),
    ("solver.table_vectors_max", "count"),
    ("solver.over_bound", "count"),
    ("vectorset.flatten_s", "s"),
    ("vectorset.insert_s", "s"),
    ("vectorset.count_s", "s"),
    ("vectorset.table_nodes", "count"),
    ("vectorset.vectors_per_node", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)

# The layers whose times add up to the work solve() does, printed as shares
# of their sum (count_s is work the replay adds).
SHARES = (
    "instance.parse_s",
    "instance.prepare_s",
    "partition.build_s",
    "partition.prefixes_s",
    "indsets.build_s",
    "solver.combine_s",
    "vectorset.flatten_s",
    "solver.bar_s",
    "vectorset.insert_s",
    "solver.witness_s",
)


class Spans:
    """In-memory spans: (request, name, start, end, parent index) per timed call."""

    def __init__(self):
        self.records: list[list] = []
        self._open: list[int] = []
        self.request = -1

    @contextlib.contextmanager
    def __call__(self, name: str):
        rec = [self.request, name, time.perf_counter(), 0.0,
               self._open[-1] if self._open else -1]
        self._open.append(len(self.records))
        self.records.append(rec)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        return sum(r[3] - r[2] for r in self.records if r[1] == name)


def dict_nodes(root) -> int:
    """Distinct dict nodes reachable from a trie root (shared nodes once)."""
    seen: set[int] = set()
    stack = [root] if isinstance(root, dict) else []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(c for c in node.values() if c is not LEAF)
    return len(seen)


class Counts:
    def __init__(self):
        self.prefix_count = 0
        self.indset_nodes = 0
        self.levels = 0
        self.table_vectors = 0
        self.table_vectors_max = 0
        self.table_nodes = 0
        self.over_bound = 0
        self.fill_ratio = 0.0


def _component(inst, part, witness: bool, spans: Spans, counts: Counts):
    """``_solve_component`` with default options, span by span.

    The vector limit is not replayed: no corpus comes near it.
    """
    with spans("instance.prepare"):
        inst, label_map = gap_compression(inst)
    tau = instance_tau(inst)
    lmax = max((max(ls) for ls in inst.lam.values() if ls), default=0)
    ordering = part.ordering
    n = len(ordering)
    with spans("indsets.build"):
        indep = independent_set_vectors(inst.graph, ordering)
    with spans("solver.bar_setup"):
        bar = _BarPass(inst, ordering, tau)
    with spans("partition.prefixes"):
        plan = _build_plan(part.blocks, tau, inst, True)
    counts.indset_nodes += dict_nodes(indep.root)
    counts.prefix_count += sum(len(feasible_prefixes(b, tau, inst)) for b in part.blocks)
    bound = predict_complexity(inst.graph, part, tau).product
    base = tuple(OPEN if 1 in inst.lam[v] else BLOCKED for v in ordering)
    tables = [LevelTable(0, VectorTrie.from_vectors(n, [base]))]
    with spans("solver.witness"):
        found = _find_complete(tables[0].vectors)
    found_level = 0
    sizes: list[int] = []
    if found is None:
        for k in range(1, lmax + 1):
            prev = tables[-1].vectors
            if prev.root is None:
                break
            with spans("solver.combine"):
                step = VectorTrie(n, _combine((prev.root,), indep.root, 0, plan, {}))
            # The solver's own loop walks, bars and inserts one vector at a
            # time; the replay does each phase over the whole level so that
            # each gets its own span. Barring in place keeps one list alive.
            with spans("vectorset.flatten"):
                vecs = list(step)
            del step
            with spans("solver.bar"):
                for i, vec in enumerate(vecs):
                    vecs[i] = bar.run(vec, k - 1)
            with spans("vectorset.insert"):
                table = VectorTrie(n)
                for vec in vecs:
                    table.add(vec)
            del vecs
            with spans("vectorset.count"):
                size = len(table)
            sizes.append(size)
            counts.table_nodes += dict_nodes(table.root)
            level = LevelTable(k, table)
            tables = tables + [level] if witness else [level]
            with spans("solver.witness"):
                complete = _find_complete(table)
            if complete is not None:
                found, found_level = complete, k
                break
    counts.levels += len(sizes)
    counts.table_vectors += sum(sizes)
    counts.over_bound += sum(size > bound for size in sizes)
    if sizes and max(sizes) > counts.table_vectors_max:
        counts.table_vectors_max = max(sizes)
        counts.fill_ratio = max(sizes) / bound
    if found is None:
        return False, None, sizes
    if not witness:
        return True, None, sizes
    with spans("solver.witness"):
        labels = reconstruct_witness(tables, found, found_level, indep, tau, ordering)
    if label_map:
        labels = {v: label_map[lab] for v, lab in labels.items()}
    return True, labels, sizes


def replica(item, spans: Spans, counts: Counts):
    """``solve(parse_instance(text), strategy=...)`` replayed call by call.

    Returns (decision, witness or None, per-component level sizes).
    """
    with spans("instance.parse"):
        inst = parse_instance(item.text)
    with spans("instance.prepare"):
        info = validate(inst)
        comps = [] if info.empty_lists else split_components(inst)
    if info.empty_lists:
        return False, None, []
    witness: dict | None = {}
    all_sizes = []
    for sub, idmap in comps:
        with spans("partition.build"):
            part = build_partition(sub, item.partition)
        ok, sub_witness, sizes = _component(sub, part, item.witness, spans, counts)
        all_sizes.append(sizes)
        if not ok:
            return False, None, all_sizes
        if witness is not None and sub_witness is not None:
            witness.update((idmap[v], lab) for v, lab in sub_witness.items())
        else:
            witness = None
    return True, witness, all_sizes


def trace(corpus: Path, spans_out: Path) -> dict:
    items = workloads.read(corpus)
    spans, counts = Spans(), Counts()
    untraced = traced = 0.0
    answers, mismatches = [], []
    for i, item in enumerate(items):
        t0 = time.perf_counter()
        result = solve(parse_instance(item.text), strategy=item.partition,
                       options=SolveOptions(store_parents=item.witness))
        untraced += time.perf_counter() - t0
        expected = [c.level_sizes for c in result.stats.components]
        decision = result.decision
        del result
        spans.request = i
        t0 = time.perf_counter()
        with spans("instance"):
            got_decision, witness, sizes = replica(item, spans, counts)
        traced += time.perf_counter() - t0
        if sizes != expected or got_decision != decision:
            mismatches.append(item.name)
        answers.append({
            "decision": got_decision,
            "witness": None if witness is None else {str(v): lab for v, lab in witness.items()},
        })
    with spans_out.open("w", encoding="utf-8") as fh:
        for rec in spans.records:
            fh.write(json.dumps(rec) + "\n")
    bar = spans.total("solver.bar") + spans.total("solver.bar_setup")
    insert = spans.total("vectorset.insert")
    metrics = {
        "instance.parse_s": spans.total("instance.parse"),
        "instance.prepare_s": spans.total("instance.prepare"),
        "partition.build_s": spans.total("partition.build"),
        "partition.prefixes_s": spans.total("partition.prefixes"),
        "partition.prefix_count": counts.prefix_count,
        "partition.fill_ratio": counts.fill_ratio,
        "indsets.build_s": spans.total("indsets.build"),
        "indsets.nodes": counts.indset_nodes,
        "solver.combine_s": spans.total("solver.combine"),
        "solver.bar_s": bar,
        "solver.bar_insert_s": bar + insert,
        "solver.witness_s": spans.total("solver.witness"),
        "solver.levels": counts.levels,
        "solver.table_vectors": counts.table_vectors,
        "solver.table_vectors_max": counts.table_vectors_max,
        "solver.over_bound": counts.over_bound,
        "vectorset.flatten_s": spans.total("vectorset.flatten"),
        "vectorset.insert_s": insert,
        "vectorset.count_s": spans.total("vectorset.count"),
        "vectorset.table_nodes": counts.table_nodes,
        "vectorset.vectors_per_node": counts.table_vectors / max(counts.table_nodes, 1),
        "trace.overhead_ratio": traced / untraced,
    }
    return {
        "metrics": metrics,
        "traced_s": traced,
        "untraced_s": untraced,
        "mismatches": mismatches,
        "answers": answers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    report = trace(args.corpus, args.out.with_name("spans.jsonl"))
    args.out.write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
