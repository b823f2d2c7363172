"""Characteristic vectors of all independent sets of a graph.

The vectors are built directly into a trie whose depth follows the
global vertex ordering, so the solver can walk it position by position
in lockstep with a level table. Construction memoizes on the set of
still-relevant blocked positions and hash-conses each node on its
children, which keeps the structure far below the 2^n worst case on most
graphs. The trie is built as the int arrays the solver's combination
walk reads; dict nodes are decoded from them only on demand.
"""

from __future__ import annotations

from typing import Sequence

from .instance import Graph
from .vectorset import LEAF, VectorTrie

Trie = tuple[list[int], list[int], int]


def independent_set_trie(g: Graph, ordering: Sequence[int] | None = None) -> Trie:
    """The trie of all 0/1 vectors whose support is an independent set of
    g: ``on0[q]``/``on1[q]`` is node q's child on 0/1 (-1 if none), and
    the root's id. LEAF is 0, and equal subtrees share an id, numbered
    children first, 0-child first, as a hash-consed node store numbers
    them. The empty set and every singleton are always present.
    ``ordering`` (a permutation of the vertices) fixes the coordinate
    order; by default vertices appear in id order.
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
    on0, on1 = [-1], [-1]
    unique: dict[tuple[int, int], int] = {}
    memo: list[dict[int, int]] = [{} for _ in range(n)]

    def build(i: int, blocked: int) -> int:
        if i == n:
            return 0
        key = blocked & suffix_mask[i]
        uid = memo[i].get(key)
        if uid is None:
            c0 = build(i + 1, blocked)
            c1 = -1 if (blocked >> i) & 1 else build(i + 1, blocked | nbr_mask[i])
            uid = unique.get((c0, c1))
            if uid is None:
                uid = unique[c0, c1] = len(on0)
                on0.append(c0)
                on1.append(c1)
            memo[i][key] = uid
        return uid

    root = build(0, 0)
    del build  # build refers to itself: end the cycle, which holds the memo
    return on0, on1, root


def trie_vectors(length: int, trie: Trie) -> VectorTrie:
    """An independent_set_trie as a VectorTrie of dict nodes, one per id."""
    on0, on1, root = trie
    nodes = [LEAF]
    for c0, c1 in zip(on0[1:], on1[1:]):
        nodes.append({0: nodes[c0]} if c1 < 0 else {0: nodes[c0], 1: nodes[c1]})
    return VectorTrie(length, nodes[root])


def independent_set_vectors(g: Graph, ordering: Sequence[int] | None = None) -> VectorTrie:
    """independent_set_trie as a VectorTrie of dict nodes."""
    return trie_vectors(g.n, independent_set_trie(g, ordering))
