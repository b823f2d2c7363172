"""Characteristic vectors of all independent sets of a graph.

The family is listed by its definition: a set grows by a vertex only
if none of the vertices already in it is a neighbour. It is returned as
a VectorTrie of dict nodes, with coordinates in a given vertex order,
for the reference tests, demo 04 and the benchmark replay. The solver
lists no independent set: its walks read neighbour masks instead.
"""

from __future__ import annotations

from typing import Sequence

from .instance import Graph
from .vectorset import VectorTrie


def independent_set_vectors(g: Graph, ordering: Sequence[int] | None = None) -> VectorTrie:
    """Every 0/1 vector whose support is an independent set of g, the
    empty set and every singleton included. ``ordering`` (a permutation
    of the vertices) fixes the coordinate order; by default vertices
    appear in id order."""
    if ordering is None:
        ordering = tuple(range(1, g.n + 1))
    assert sorted(ordering) == list(range(1, g.n + 1)), "ordering must be a permutation"
    sets = [frozenset()]
    for v in ordering:
        sets += [s | {v} for s in sets if not s & g.adjacency[v]]
    return VectorTrie.from_vectors(g.n, (tuple(int(v in s) for v in ordering) for s in sets))
