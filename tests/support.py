"""Shared builders and definition-level oracles for the test suite."""

from __future__ import annotations

import contextlib
import itertools

import pytest

from gltc import (BLOCKED, OPEN, ComponentDP, Graph, Instance, VectorTrie, build_partition,
                  gap_compression, independent_set_vectors, split_components, validate,
                  walk_order)
from gltc.instance import induced_instance
from gltc import instance as instance_module
from gltc import solver as solver_module
from gltc.reference import extension_predicate, is_live, level_step, project
from gltc.vectorset import decode, encode


@contextlib.contextmanager
def free_labels_off():
    """gap_compression with its free-label step (_fix_free_labels) made the
    identity on the label sets, for the span of the block: the lists are
    those arc consistency leaves, and a pin taken on them shows the DP
    unchanged."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(instance_module, "_fix_free_labels", lambda lam, nbrs: lam)
        yield


@contextlib.contextmanager
def peel_off():
    """_solve_component with its peel of one-label vertices
    (_one_label_vertices) closed, for the span of the block: no vertex is
    fixed, every component that pruning leaves nonempty runs the DP on all
    its vertices, and a pin taken on the walks shows them unchanged."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_module, "_one_label_vertices", lambda inst: {})
        yield


def decided_by_lists(report) -> bool:
    """Whether the component of ``report`` left no vertex to walk: its
    pruned lists hold one label each, so no level walk, tally or witness
    walk ran for it."""
    return report.fixed == report.instance.graph.n


def core_order(report) -> tuple[int, ...]:
    """walk_order of the graph that the vertices of ``report``'s component
    left to walk induce (those whose pruned list holds more than one
    label), mapped back to the component's vertex ids."""
    pruned, _ = gap_compression(report.instance)
    core, ids = induced_instance(pruned, [v for v, labels in pruned.lam.items()
                                          if len(labels) > 1])
    return tuple(ids[v] for v in walk_order(core.graph))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, itertools.combinations(range(1, n + 1), 2))


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(1, i) for i in range(2, leaves + 2)])


def odd_cycle_with_pendant() -> Instance:
    """C5 with lists {1, 2} and T = {0}, plus vertex 6 hanging on vertex 1
    with list {1..6}: NO, as C5 has no proper 2-labeling. Every vector
    that leaves a cycle vertex unlabeled at level 2 is dead, so the level-2
    table is empty, where the unpruned tables run 6 levels of 62 vectors."""
    g = Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 6)])
    lam = {**dict.fromkeys(range(1, 6), frozenset({1, 2})), 6: frozenset(range(1, 7))}
    return Instance(graph=g, lam=lam, t={e: frozenset({0}) for e in g.edges})


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


def full_scan_walk_order(g: Graph) -> tuple[int, ...]:
    """solver.walk_order by its definition: each step scans every unplaced
    vertex for the least key (frontier size after placing v, -(placed
    neighbours of v), v), in O(n * m) over the whole order."""
    left = {v: len(g.adjacency[v]) for v in g.adjacency}  # unplaced neighbours
    unplaced = set(g.adjacency)
    order: list[int] = []
    frontier = 0
    while unplaced:
        keys = []
        for v in unplaced:
            placed = [w for w in g.adjacency[v] if w not in unplaced]
            closed = sum(left[w] == 1 for w in placed)  # v is w's last unplaced neighbour
            keys.append((frontier - closed + (left[v] > 0), -len(placed), v))
        frontier, _, v = min(keys)
        order.append(v)
        unplaced.remove(v)
        for w in g.adjacency[v]:
            left[w] -= 1
    return tuple(order)


def neighbour_masks(graph: Graph, ordering) -> list[int]:
    """Each position's neighbours in ``graph`` as a bitmask over the
    positions of ``ordering``, as ComponentDP records them."""
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
    if not store:  # the level emptied the table
        return VectorTrie(table.length), size, nodes, memo, unions
    return VectorTrie(table.length, decode(store[0])[store[1]]), size, nodes, memo, unions


def every_level_sizes(inst: Instance) -> list[list[int]]:
    """Each component's table sizes from level 1 to its largest compressed
    label, or to its first empty table: the components, pruning and walk
    order solve takes, with ``ComponentDP.advance`` stepped on past the
    first complete level, where solve stops."""
    sizes = []
    for sub, _ in split_components(inst):
        pruned, label_map = gap_compression(sub)
        dp = ComponentDP(pruned, walk_order(pruned.graph))
        store, run = dp.base_store(), []
        for k in range(1, max(label_map, default=0) + 1):
            run.append(dp.advance(store, k)[0])
            if not run[-1]:
                break
        sizes.append(run)
    return sizes


def run_tables(inst: Instance, strategy: str = "singleton"):
    """Yield (level, table) for every level of the pipeline, to the largest label."""
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
    partial labeling with labels 1..k, no dynamic program involved, and
    keep the live vectors (reference.is_live): those whose unlabeled
    vertices all have a label above k on their lists. An unlabeled
    vertex is OPEN or BLOCKED for label k + 1, as the reference
    recurrence (reference.level_step) marks it; the solver's tables are
    its reference.project."""
    vectors = (labeling_vector(inst, ordering, phi, k, tau)
               for phi in proper_partial_labelings(inst, k))
    return {vec for vec in vectors if is_live(vec, k, inst, ordering)}


def labeling_vector(inst: Instance, ordering, phi, k: int, tau: int):
    """The level-k state vector of the partial labeling ``phi`` (labels
    1..k) in the coordinates of ``ordering``: a label at most k - tau is
    1, a later one k + sym - tau - 1 is sym, and an unlabeled vertex is
    OPEN or BLOCKED for label k + 1."""
    vec = []
    for v in ordering:
        if v in phi:
            lab = phi[v]
            vec.append(1 if lab <= k - tau else lab - k + tau + 1)
        else:
            vec.append(OPEN if extension_predicate(phi, v, k + 1, inst) else BLOCKED)
    return tuple(vec)
