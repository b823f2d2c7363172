"""Characteristic vectors of all independent sets of a graph.

The vectors are built directly into a trie whose depth follows the
global vertex ordering, the coordinate order of a level table, for the
reference step (reference.direct_step), the demos and the benchmark
replay; the solver builds none, and its walks read the neighbour masks
instead. Construction memoizes on the set of still-relevant blocked
positions and hash-conses each node on its children, which keeps the
structure far below the 2^n worst case on most graphs. The trie is
built as a node store, the form of the solver's level tables; dict
nodes are decoded from it only on demand.
"""

from __future__ import annotations

from typing import Sequence

from .instance import Graph
from .vectorset import VectorTrie, decode


def independent_set_trie(g: Graph, ordering: Sequence[int] | None = None) -> tuple[list, int]:
    """The trie of all 0/1 vectors whose support is an independent set of
    g, as a node store and its root: (shapes, root uid), each shape
    ``((0, c0),)`` or ``((0, c0), (1, c1))``. LEAF is uid 0, and equal
    subtrees share a uid, numbered children first, 0-child first, as
    vectorset.encode numbers them. The empty set and every singleton are
    always present. ``ordering`` (a permutation of the vertices) fixes
    the coordinate order; by default vertices appear in id order.
    """
    if ordering is None:
        ordering = tuple(range(1, g.n + 1))
    assert sorted(ordering) == list(range(1, g.n + 1)), "ordering must be a permutation"
    pos_of = {v: i for i, v in enumerate(ordering)}
    nbr_mask = []
    for v in ordering:
        mask = 0
        for w in g.adjacency[v]:
            mask |= 1 << pos_of[w]
        nbr_mask.append(mask)
    return trie_from_masks(nbr_mask)


def trie_from_masks(nbr_mask: Sequence[int]) -> tuple[list, int]:
    """independent_set_trie given each position's neighbours as a bitmask
    over positions, ``nbr_mask[i]``, as the solver's walks read them."""
    n = len(nbr_mask)
    shapes: list[tuple] = [()]
    unique: dict[tuple, int] = {}
    memo: dict[int, int] = {}

    def build(i: int, blocked: int) -> int:
        if i == n:
            return 0
        # the blocked positions from i on, and i itself
        key = (blocked >> i) * n + i
        uid = memo.get(key)
        if uid is None:
            shape = ((0, build(i + 1, blocked)),)
            if not (blocked >> i) & 1:
                shape += ((1, build(i + 1, blocked | nbr_mask[i])),)
            uid = unique.get(shape)
            if uid is None:
                uid = unique[shape] = len(shapes)
                shapes.append(shape)
            memo[key] = uid
        return uid

    root = build(0, 0)
    del build  # build refers to itself: end the cycle, which holds the memo
    return shapes, root


def independent_set_vectors(g: Graph, ordering: Sequence[int] | None = None) -> VectorTrie:
    """independent_set_trie as a VectorTrie of dict nodes."""
    shapes, root = independent_set_trie(g, ordering)
    return VectorTrie(g.n, decode(shapes)[root])
