"""Shared builders and definition-level oracles for the test suite."""

from __future__ import annotations

import itertools

from gltc import (BLOCKED, OPEN, ComponentDP, Graph, Instance, VectorTrie, build_partition,
                  independent_set_vectors, validate)
from gltc.reference import extension_predicate, level_step, project
from gltc.vectorset import decode, encode


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, itertools.combinations(range(1, n + 1), 2))


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(1, i) for i in range(2, leaves + 2)])


def uniform_instance(g: Graph, labels, diffs) -> Instance:
    lam = {v: frozenset(labels) for v in range(1, g.n + 1)}
    t = {e: frozenset(diffs) for e in g.edges}
    return Instance(graph=g, lam=lam, t=t)


def line_graph(g: Graph) -> Graph:
    """Vertices are g's edges; adjacency is sharing an endpoint."""
    edges = sorted(g.edges)
    index = {e: i + 1 for i, e in enumerate(edges)}
    out = set()
    for e, f in itertools.combinations(edges, 2):
        if set(e) & set(f):
            out.add((index[e], index[f]))
    return Graph.from_edges(len(edges), out)


def neighbour_masks(graph: Graph, ordering) -> list[int]:
    """Each position's neighbours in ``graph`` as a bitmask over the
    positions of ``ordering``, as _BarPass records them."""
    pos = {v: i for i, v in enumerate(ordering)}
    return [sum(1 << pos[w] for w in graph.adjacency[v]) for v in ordering]


def reachable(shapes, root: int):
    """The nodes of a node store that uid ``root`` reaches, renumbered in
    store order, and the root's new uid; the store itself when it holds no
    other. A reference for encoding.tally's compaction, in two passes of
    its own: one marks what the root reaches, the next renumbers it."""
    reach = [False] * (root + 1)
    reach[0] = reach[root] = True
    for uid in range(root, 0, -1):
        if reach[uid]:
            for _, child in shapes[uid]:
                reach[child] = True
    if root == len(shapes) - 1 and all(reach):
        return shapes, root
    new = [0] * (root + 1)
    out: list[tuple] = [()]
    for uid in range(1, root + 1):
        if reach[uid]:
            new[uid] = len(out)
            out.append(tuple([(sym, new[child]) for sym, child in shapes[uid]]))
    return out, len(out) - 1


def base_table(dp: ComponentDP) -> VectorTrie:
    """The level-0 table of ``dp`` as a dict trie."""
    shapes, root, _ = dp.base_store()
    return VectorTrie(len(dp.ordering), decode(shapes)[root])


def step(dp: ComponentDP, table: VectorTrie, level: int):
    """``dp.advance`` on a dict trie, encoded first and decoded after:
    returns the new table, then advance's counts but the flag."""
    if table.root is None:
        return VectorTrie(table.length), 0, 0, 0, 0
    shapes, (root,) = encode((table.root,))
    store = [shapes, root, None]
    size, nodes, _, memo, unions = dp.advance(store, level)
    return VectorTrie(table.length, decode(store[0])[store[1]]), size, nodes, memo, unions


def run_tables(inst: Instance, strategy: str = "singleton"):
    """Yield (level, table) for every level of the pipeline, without early exit."""
    part = build_partition(inst, strategy)
    dp = ComponentDP(inst, part.ordering)
    table = base_table(dp)
    yield 0, table, part, dp.ordering
    for k in range(1, validate(inst).lambda_max + 1):
        table, _, _, _, _ = step(dp, table, k)
        yield k, table, part, dp.ordering


def recurrence_mismatch(inst: Instance, strategy: str):
    """Step the solver's tables, in ``strategy``'s vertex order, and the
    reference recurrence (reference.level_step, over OPEN and BLOCKED)
    side by side from level 0. Returns the first level whose solver table
    is not the project of the reference one, one to one, with the size
    advance counted, or None."""
    dp = ComponentDP(inst, build_partition(inst, strategy).ordering)
    table = ref = base_table(dp)
    indep = independent_set_vectors(inst.graph, dp.ordering)
    for k in range(1, validate(inst).lambda_max + 1):
        table, size, _, _, _ = step(dp, table, k)
        ref = level_step(ref, indep, inst, dp.ordering, dp.tau, k)
        want = set(map(project, ref))
        if set(table) != want or size != len(want) or len(want) != len(ref):
            return k
    return None


def proper_partial_labelings(inst: Instance, k: int):
    """Every proper labeling of a subset of the vertices with labels 1..k."""
    n = inst.graph.n

    def extend(i, phi):
        if i > n:
            yield dict(phi)
            return
        yield from extend(i + 1, phi)
        for lab in sorted(inst.lam[i]):
            if lab <= k and extension_predicate(phi, i, lab, inst):
                phi[i] = lab
                yield from extend(i + 1, phi)
                del phi[i]

    yield from extend(1, {})


def reference_table(inst: Instance, ordering, k: int, tau: int) -> set:
    """The level-k table straight from its semantics: encode every proper
    partial labeling with labels 1..k, no dynamic program involved. An
    unlabeled vertex is OPEN or BLOCKED for label k + 1, as the reference
    recurrence (reference.level_step) marks it; the solver's tables are
    its reference.project."""
    out = set()
    for phi in proper_partial_labelings(inst, k):
        vec = []
        for v in ordering:
            if v in phi:
                lab = phi[v]
                vec.append(1 if lab <= k - tau else lab - k + tau + 1)
            else:
                vec.append(OPEN if extension_predicate(phi, v, k + 1, inst) else BLOCKED)
        out.add(tuple(vec))
    return out
