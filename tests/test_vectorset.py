"""Trie set semantics: membership, iteration order, restriction, union."""

import random

from gltc import VectorTrie
from gltc.vectorset import node_union


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


def test_restrict_empty_prefix_is_identity():
    trie = VectorTrie.from_vectors(2, [(0, 1), (1, 0)])
    assert set(trie.restrict(())) == set(trie)


def test_restrict_selects_suffixes():
    trie = VectorTrie.from_vectors(3, [(0, 1, 2), (0, 2, 2), (1, 1, 1)])
    sub = trie.restrict((0,))
    assert set(sub) == {(1, 2), (2, 2)}
    assert sub.length == 2
    assert not trie.restrict((2,))


def test_restrict_then_reprefix_reconstructs_members():
    rng = random.Random(5)
    vecs = {tuple(rng.randrange(3) for _ in range(4)) for _ in range(40)}
    trie = VectorTrie.from_vectors(4, vecs)
    for prefix_len in range(5):
        rebuilt = set()
        for prefix in {v[:prefix_len] for v in vecs}:
            for suffix in trie.restrict(prefix):
                rebuilt.add(prefix + suffix)
        assert rebuilt == vecs


def test_union():
    a = VectorTrie.from_vectors(2, [(0, 0), (0, 1)])
    b = VectorTrie.from_vectors(2, [(0, 1), (1, 1)])
    merged = VectorTrie(2, node_union(a.root, b.root))
    assert set(merged) == {(0, 0), (0, 1), (1, 1)}
    assert set(a) == {(0, 0), (0, 1)}  # inputs untouched


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
