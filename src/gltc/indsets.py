"""Characteristic vectors of all independent sets of a graph.

The vectors are built directly into a trie whose depth follows the
global vertex ordering, so the solver can walk it position by position
in lockstep with a level table. Construction memoizes on the set of
still-relevant blocked positions, which shares identical subtrees and
keeps the structure far below the 2^n worst case on most graphs.
"""

from __future__ import annotations

from typing import Sequence

from .instance import Graph
from .vectorset import LEAF, VectorTrie


def independent_set_vectors(g: Graph, ordering: Sequence[int] | None = None) -> VectorTrie:
    """Trie of all 0/1 vectors whose support is an independent set of g.

    The empty set and every singleton are always present. ``ordering``
    is a permutation of the vertices fixing the coordinate order; by
    default vertices appear in id order.
    """
    if ordering is None:
        ordering = tuple(range(1, g.n + 1))
    n = g.n
    assert sorted(ordering) == list(range(1, n + 1)), "ordering must be a permutation"
    pos_of = {v: i for i, v in enumerate(ordering)}
    nbr_mask = [0] * n
    for i, v in enumerate(ordering):
        mask = 0
        for w in g.adjacency[v]:
            mask |= 1 << pos_of[w]
        nbr_mask[i] = mask
    full = (1 << n) - 1
    suffix_mask = [full ^ ((1 << i) - 1) for i in range(n + 1)]
    memo: dict[tuple[int, int], object] = {}

    def build(i: int, blocked: int):
        if i == n:
            return LEAF
        key = (i, blocked & suffix_mask[i])
        node = memo.get(key)
        if node is None:
            node = {0: build(i + 1, blocked)}
            if not (blocked >> i) & 1:
                node[1] = build(i + 1, blocked | nbr_mask[i])
            memo[key] = node
        return node

    root = build(0, 0)
    del build  # build refers to itself: end the cycle, which holds the memo
    return VectorTrie(n, root)
