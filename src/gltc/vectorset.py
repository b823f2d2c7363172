"""Trie-backed sets of fixed-length symbol vectors.

Vectors are tuples of small integers. Trie depth follows the global
vertex ordering, so the solver can walk a set position by position.
Internal nodes are plain dicts mapping a symbol to the child node; a
full-length path ends in the shared LEAF sentinel. Builders may share
subtrees (the structure is then a DAG); everything is treated as
immutable once built.
"""

from __future__ import annotations

from typing import Iterable, Iterator

Vector = tuple[int, ...]

LEAF = object()


def node_count(node) -> int:
    """Number of vectors below ``node``.

    Counts paths top-down, one depth at a time: every vector below a
    node has the same length, so each node sits at one depth, and a
    layer maps each of its nodes to the number of paths reaching it. No
    recursion, so a table of any length is counted, and each shared node
    once. The count is a Python int of any size, but ``len()`` of a
    VectorTrie must fit a C ssize_t and raises OverflowError from 2**63
    vectors on: count such a table with ``node_count(table.root)``.
    """
    if node is None:
        return 0
    paths = {id(node): 1}
    nodes = [node]
    while nodes and nodes[0] is not LEAF:
        below: dict[int, int] = {}
        children = []
        for parent in nodes:
            reaching = paths[id(parent)]
            for child in parent.values():
                key = id(child)
                if key in below:
                    below[key] += reaching
                else:
                    below[key] = reaching
                    children.append(child)
        paths, nodes = below, children
    return paths.get(id(LEAF), 0)


def node_iter(node) -> Iterator[Vector]:
    """Yield all vectors below ``node`` in canonical (sorted-symbol) order."""
    if node is None:
        return
    if node is LEAF:
        yield ()
        return
    # iterative DFS; the shared path list keeps allocation to one tuple per leaf
    path: list[int] = []
    stack = [(node[sym], 1, sym) for sym in sorted(node, reverse=True)]
    while stack:
        nd, depth, sym = stack.pop()
        del path[depth - 1:]
        path.append(sym)
        if nd is LEAF:
            yield tuple(path)
        else:
            stack.extend((nd[s], depth + 1, s) for s in sorted(nd, reverse=True))


class VectorTrie:
    """A set of equal-length vectors.

    The empty set is represented by ``root is None``; for length 0 the
    singleton containing the empty vector has ``root is LEAF``.
    """

    __slots__ = ("length", "root")

    def __init__(self, length: int, root=None):
        self.length = length
        self.root = root

    @classmethod
    def from_vectors(cls, length: int, vectors: Iterable[Vector]) -> "VectorTrie":
        trie = cls(length)
        for vec in vectors:
            trie.add(vec)
        return trie

    def add(self, vec: Vector) -> bool:
        """Insert one vector; True when it was new. Only ``from_vectors``
        may call it, on the fresh trie it builds: the solver's level tables
        share nodes between paths, and inserting into one would add vectors
        along every path through the changed node. (perfbench/layers.py
        still fills fresh tries with it until the next benchmark change.)"""
        assert len(vec) == self.length, "vector length mismatch"
        if self.length == 0:
            fresh = self.root is None
            self.root = LEAF
            return fresh
        if self.root is None:
            self.root = {}
        node = self.root
        for sym in vec[:-1]:
            nxt = node.get(sym)
            if nxt is None:
                nxt = {}
                node[sym] = nxt
            node = nxt
        if vec[-1] in node:
            return False
        node[vec[-1]] = LEAF
        return True

    def __contains__(self, vec) -> bool:
        if len(vec) != self.length:
            return False
        node = self.root
        if node is None:
            return False
        for sym in vec:
            node = node.get(sym)
            if node is None:
                return False
        return node is LEAF

    def __len__(self) -> int:
        return node_count(self.root)

    def __bool__(self) -> bool:
        return self.root is not None

    def __iter__(self) -> Iterator[Vector]:
        return node_iter(self.root)
