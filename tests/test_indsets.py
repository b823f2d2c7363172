"""Independent-set vector enumeration."""

import itertools
import random

from gltc import ComponentDP, Graph, independent_set_vectors, random_instance
from support import complete_graph, neighbour_masks, path_graph


def _enumerated(g, ordering=None):
    """Every independent-set vector in ``ordering``'s coordinates (by
    default id order), by itertools."""
    if ordering is None:
        ordering = range(1, g.n + 1)
    return {bits for bits in itertools.product((0, 1), repeat=g.n)
            if not any(itertools.starmap(g.adjacent, itertools.combinations(
                itertools.compress(ordering, bits), 2)))}


def test_edgeless_graph_has_all_subsets():
    g = Graph.from_edges(3, [])
    assert len(independent_set_vectors(g)) == 8


def test_triangle_has_four():
    vecs = set(independent_set_vectors(complete_graph(3)))
    assert vecs == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_path3_frozen_vectors():
    vecs = set(independent_set_vectors(path_graph(3)))
    assert vecs == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1)}


def test_counts_match_naive_filter():
    for seed in range(12):
        g = random_instance(n=4 + seed % 6, density=0.4, tau=0, lmax=1, seed=seed).graph
        assert set(independent_set_vectors(g)) == _enumerated(g)


def test_count_on_twelve_vertices():
    g = random_instance(n=12, density=0.3, tau=0, lmax=1, seed=99).graph
    assert len(independent_set_vectors(g)) == len(_enumerated(g))


def test_empty_set_and_singletons_always_present():
    for seed in range(6):
        g = random_instance(n=6, density=0.8, tau=0, lmax=1, seed=seed).graph
        vecs = set(independent_set_vectors(g))
        assert (0,) * 6 in vecs
        for i in range(6):
            assert tuple(1 if j == i else 0 for j in range(6)) in vecs


def test_supports_are_pairwise_non_adjacent():
    g = random_instance(n=7, density=0.5, tau=0, lmax=1, seed=3).graph
    for vec in independent_set_vectors(g):
        chosen = [i + 1 for i, b in enumerate(vec) if b]
        assert all(not g.adjacent(u, v) for u, v in itertools.combinations(chosen, 2))


def test_respects_custom_ordering():
    g = path_graph(3)
    ordering = (2, 1, 3)  # the middle vertex first
    vecs = set(independent_set_vectors(g, ordering))
    assert vecs == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)}


def _graphs():
    """Seeded graphs on at most 10 vertices with a random ordering each,
    plus an edgeless and a complete graph."""
    for seed in range(40):
        n = 1 + seed % 10
        g = random_instance(n=n, density=(0.2, 0.4, 0.6, 0.8)[seed % 4], tau=0, lmax=1,
                            seed=4400 + seed).graph
        yield g, tuple(random.Random(seed).sample(range(1, n + 1), n))
    yield Graph.from_edges(7, []), (3, 1, 7, 5, 2, 6, 4)
    yield complete_graph(6), (6, 2, 4, 1, 5, 3)


def test_vectors_are_the_enumerated_sets_in_any_ordering():
    for g, ordering in _graphs():
        want = _enumerated(g, ordering)
        assert set(independent_set_vectors(g, ordering)) == want
    assert len(want) == 7  # the complete graph: the empty set and six singletons


def test_component_dp_neighbour_masks_are_the_graphs_adjacency():
    # the neighbour masks ComponentDP's walks read are the graph's
    # adjacency over positions
    for seed in range(78):
        n = seed % 13
        inst = random_instance(n=n, density=(0.2, 0.4, 0.6, 0.8)[seed % 4], tau=seed % 3,
                               lmax=3, seed=5200 + seed)
        ordering = tuple(random.Random(seed).sample(range(1, n + 1), n))
        assert ComponentDP(inst, ordering).bar.nbr_mask == neighbour_masks(inst.graph, ordering)
