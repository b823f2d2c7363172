"""Shared builders and definition-level oracles for the test suite."""

from __future__ import annotations

import itertools

from gltc import BLOCKED, OPEN, ComponentDP, Graph, Instance, VectorTrie, build_partition, validate
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


def base_table(dp: ComponentDP) -> VectorTrie:
    """The level-0 table of ``dp`` as a dict trie."""
    shapes, _, root, _ = dp.base_store()
    return VectorTrie(len(dp.ordering), decode(shapes)[root])


def indep_table(dp: ComponentDP) -> VectorTrie:
    """The independent-set trie of ``dp`` as a dict trie."""
    shapes, root = dp.trie
    return VectorTrie(len(dp.ordering), decode(shapes)[root])


def step(dp: ComponentDP, table: VectorTrie, level: int):
    """``dp.advance`` on a dict trie, encoded first and decoded after:
    returns the new table, then advance's counts but the flag."""
    if table.root is None:
        return VectorTrie(table.length), 0, 0, 0, 0
    shapes, (root,) = encode((table.root,))
    store = [shapes, None, root, None]
    size, nodes, _, memo, unions = dp.advance(store, level)
    return VectorTrie(table.length, decode(store[0])[store[2]]), size, nodes, memo, unions


def run_tables(inst: Instance, strategy: str = "singleton"):
    """Yield (level, table) for every level of the pipeline, without early exit."""
    part = build_partition(inst, strategy)
    dp = ComponentDP(inst, part.ordering)
    table = base_table(dp)
    yield 0, table, part, dp.ordering
    for k in range(1, validate(inst).lambda_max + 1):
        table, _, _, _, _ = step(dp, table, k)
        yield k, table, part, dp.ordering


def proper_partial_labelings(inst: Instance, k: int):
    """Every proper labeling of a subset of the vertices with labels 1..k."""
    n = inst.graph.n

    def extend(i, phi):
        if i > n:
            yield dict(phi)
            return
        yield from extend(i + 1, phi)
        for lab in sorted(inst.lam[i]):
            if lab > k:
                continue
            if all(abs(lab - phi[w]) not in inst.t_of(i, w)
                   for w in inst.graph.adjacency[i] if w in phi):
                phi[i] = lab
                yield from extend(i + 1, phi)
                del phi[i]

    yield from extend(1, {})


def reference_table(inst: Instance, ordering, k: int, tau: int) -> set:
    """The level-k table straight from its semantics: encode every proper
    partial labeling with labels 1..k, no dynamic program involved."""
    out = set()
    for phi in proper_partial_labelings(inst, k):
        vec = []
        for v in ordering:
            if v in phi:
                lab = phi[v]
                vec.append(1 if lab <= k - tau else lab - k + tau + 1)
            else:
                extendable = (k + 1) in inst.lam[v] and all(
                    (k + 1) - phi[w] not in inst.t_of(v, w)
                    for w in inst.graph.adjacency[v] if w in phi
                )
                vec.append(OPEN if extendable else BLOCKED)
        out.add(tuple(vec))
    return out
