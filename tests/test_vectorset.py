"""Trie set semantics: membership, iteration order, emptiness, counting."""

import pytest

from gltc import ComponentDP, VectorTrie, walk_order
from gltc.vectorset import node_count
from support import base_table, path_graph, step, uniform_instance


def test_add_contains_len():
    trie = VectorTrie.from_vectors(3, [(0, 1, 2), (0, 1, 1), (2, 0, 0)])
    assert (0, 1, 2) in trie
    assert (0, 1, 1) in trie
    assert (1, 1, 1) not in trie
    assert len(trie) == 3


def test_duplicate_add_is_idempotent():
    trie = VectorTrie.from_vectors(2, [(1, 1), (1, 1)])
    assert len(trie) == 1


def test_iteration_is_sorted():
    vecs = [(2, 0), (0, 1), (0, 0), (1, 2)]
    trie = VectorTrie.from_vectors(2, vecs)
    assert list(trie) == sorted(vecs)


def test_zero_length_semantics():
    empty = VectorTrie(0)
    assert len(empty) == 0 and not empty
    unit = VectorTrie.from_vectors(0, [()])
    assert len(unit) == 1 and () in unit and list(unit) == [()]


def test_bool_tracks_emptiness():
    trie = VectorTrie(3)
    assert not trie
    trie.add((0, 0, 0))
    assert trie


def _path_table(n, level):
    """The level table of an n-vertex path with lists {1, 2, 3} and
    T = {0}: up to level 2 every unlabeled vertex may still take label 3,
    so no vector is dead."""
    inst = uniform_instance(path_graph(n), {1, 2, 3}, {0})
    dp = ComponentDP(inst, walk_order(inst.graph))
    table = base_table(dp)
    for k in range(1, level + 1):
        table = step(dp, table, k)[0]
    return table


def test_node_count_of_a_long_table_takes_one_frame_per_position():
    # 800 positions fit under the default recursion limit of 1000 only
    # for a walk that takes at most one frame per position. At level 1 the
    # vectors are the independent sets of the path, F(802) of them
    # (Fibonacci numbers, F(1) = F(2) = 1)
    fib = [0, 1]
    while len(fib) <= 802:
        fib.append(fib[-1] + fib[-2])
    table = _path_table(800, 1)
    assert node_count(table.root) == fib[802]
    with pytest.raises(OverflowError):
        len(table)


def test_node_count_past_the_reach_of_len():
    # at level 2 every vertex is OPEN or labeled, one of each per position
    table = _path_table(70, 2)
    assert node_count(table.root) == 2**70
    with pytest.raises(OverflowError):
        len(table)
