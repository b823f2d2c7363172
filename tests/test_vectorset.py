"""Trie set semantics: membership, iteration order, emptiness."""

from gltc import VectorTrie


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
