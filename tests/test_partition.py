"""Partition construction, feasible prefixes, and complexity prediction."""

import hashlib
import itertools
import math
import random
import re

import pytest

from gltc import (
    Graph,
    NotK1dFreeError,
    base_table_row,
    build_partition,
    clique_partition,
    feasible_prefixes,
    predict_complexity,
    random_instance,
    singleton_partition,
    star_partition_k1d,
    star_partition_spanning_tree,
    split_components,
    walk_order,
)
from gltc.partition import (
    CLIQUE,
    SINGLETON,
    STAR,
    Block,
    Partition,
    bfs_spanning_tree,
    star_block_base,
    star_prefix_bound,
    validate_partition,
)
from gltc.reference import _feasible_prefixes
from support import (
    complete_graph,
    cycle_graph,
    line_graph,
    path_graph,
    star_graph,
    uniform_instance,
)


def _kinds(part):
    return [(b.vertices, b.kind) for b in part.blocks]


# --- singleton ---------------------------------------------------------------

def test_singleton_partition():
    part = singleton_partition(path_graph(3))
    assert _kinds(part) == [((1,), SINGLETON), ((2,), SINGLETON), ((3,), SINGLETON)]
    assert part.ordering == (1, 2, 3)


@pytest.mark.parametrize("blocks, message", [
    (((1,), (2,), (3,)), "blocks do not cover the vertex set"),
    (((1,), (2,), (3,), (4,), (4,)), "vertex 4 appears in two blocks"),
    ((((1, 2), SINGLETON), (3,), (4,)), "singleton block must have exactly one vertex"),
    ((((1,), STAR), (2,), (3,), (4,)), "star block needs at least two vertices"),
    ((((1, 3), STAR), (2,), (4,)), "star center 1 not adjacent to 3"),
    ((((1,), CLIQUE), (2,), (3,), (4,)), "clique block needs at least two vertices"),
    ((((1, 2, 3), CLIQUE), (4,)), "clique block misses edge 1-3"),
    ((((1,), "ring"), (2,), (3,), (4,)), "unknown block kind 'ring'"),
], ids=["missing_vertex", "duplicated_vertex", "wide_singleton", "one_vertex_star",
        "star_center_not_adjacent", "one_vertex_clique", "clique_missing_an_edge", "unknown_kind"])
def test_validate_partition_rejects_a_partition_that_is_not_one_of_the_graph(blocks, message):
    # a block is a vertex tuple, a singleton, or a (vertices, kind) pair;
    # the graph is the path 1-2-3-4
    part = Partition(tuple(Block(*b) if isinstance(b[0], tuple) else Block(b, SINGLETON)
                           for b in blocks))
    with pytest.raises(ValueError) as info:
        validate_partition(path_graph(4), part)
    assert str(info.value) == message


@pytest.mark.parametrize("size", [1, 0])
def test_star_prefix_bound_needs_two_vertices(size):
    with pytest.raises(ValueError) as info:
        star_prefix_bound(size, 1)
    assert str(info.value) == "star blocks have at least two vertices"


@pytest.mark.parametrize("size", [1, 0])
def test_star_block_base_needs_two_vertices(size):
    with pytest.raises(ValueError) as info:
        star_block_base(1, size)
    assert str(info.value) == "defined for block sizes >= 2"


# --- spanning-tree stars -----------------------------------------------------

def test_star_partition_of_star_graph_is_one_block():
    part = star_partition_spanning_tree(star_graph(3))
    assert _kinds(part) == [((1, 2, 3, 4), STAR)]


def test_star_partition_of_path4():
    part = star_partition_spanning_tree(path_graph(4))
    assert _kinds(part) == [((2, 1), STAR), ((3, 4), STAR)]


def test_star_partition_block_sizes_bounded_by_tree_degree():
    for seed in range(25):
        inst = random_instance(n=9, density=0.4, tau=0, lmax=1, seed=seed)
        g = inst.graph
        comps = build_partition(inst, "star")  # per component
        validate_partition(g, comps)
        # bound: within each component, non-final blocks <= Delta(tree)
        for comp, _ in split_components(inst):
            sub = comp.graph
            if sub.n < 2:
                continue
            tree = bfs_spanning_tree(sub, 1)
            delta = max(len(nbrs) for nbrs in tree.values())
            part = star_partition_spanning_tree(sub)
            for block in part.blocks[:-1]:
                assert block.size <= delta
            assert part.blocks[-1].size <= delta + 1


def test_star_partition_rejects_disconnected():
    from gltc import Graph

    with pytest.raises(ValueError, match="connected"):
        star_partition_spanning_tree(Graph.from_edges(3, [(1, 2)]))


# --- bounded-star partitions -------------------------------------------------

def test_k1d_on_triangle_is_single_block():
    part = star_partition_k1d(complete_graph(3), 3)
    assert _kinds(part) == [((1, 2, 3), STAR)]


def test_k1d_on_c4_gives_two_pairs():
    part = star_partition_k1d(cycle_graph(4), 3)
    assert [b.size for b in part.blocks] == [2, 2]
    validate_partition(cycle_graph(4), part)


def test_k1d_bounds_on_claw_free_graphs():
    samples = [cycle_graph(4), cycle_graph(5), cycle_graph(6),
               line_graph(star_graph(4)), line_graph(complete_graph(4)),
               line_graph(path_graph(5))]
    for g in samples:
        part = star_partition_k1d(g, 3)
        validate_partition(g, part)
        for block in part.blocks[:-1]:
            assert block.size <= 2
        assert part.blocks[-1].size <= 3


def test_k1d_detects_a_big_induced_star():
    with pytest.raises(NotK1dFreeError, match="not K"):
        star_partition_k1d(star_graph(3), 3)


def test_k1d_requires_d_at_least_three():
    with pytest.raises(ValueError):
        star_partition_k1d(path_graph(3), 2)


def test_k1d_transformation_path():
    # a triangle with a pendant path forces at least one tree rotation for d=3
    from gltc import Graph

    g = Graph.from_edges(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    part = star_partition_k1d(g, 3)
    validate_partition(g, part)
    for block in part.blocks[:-1]:
        assert block.size <= 2
    assert part.blocks[-1].size <= 3


def test_k1d_on_seeded_graphs_partitions_or_names_a_real_star():
    # in a residual star, x is one of u's leaves and a pair peel can take
    # it; the partition must then go on from a fresh path (ten of these
    # components died with KeyError at d = 3), and every refusal must
    # name a centre with d pairwise non-adjacent neighbours
    outcomes = set()
    for i in range(420):
        inst = random_instance(n=4 + i % 5, density=(0.4, 0.6, 0.8)[i % 3], tau=0, lmax=1,
                               seed=90_000 + i)
        for sub, _ in split_components(inst):
            g = sub.graph
            for d in (3, 4):
                try:
                    part = star_partition_k1d(g, d)
                except NotK1dFreeError as exc:
                    outcomes.add("refused")
                    center = int(re.search(r"center (\d+)", str(exc)).group(1))
                    assert any(not any(g.adjacent(a, b) for a, b in itertools.combinations(leaves, 2))
                               for leaves in itertools.combinations(g.adjacency[center], d)), (i, d)
                    continue
                outcomes.add("partitioned")
                validate_partition(g, part)
                assert all(block.size <= d - 1 for block in part.blocks[:-1]), (i, d)
                assert part.blocks[-1].size <= d, (i, d)
    assert outcomes == {"refused", "partitioned"}


def _connected_graph(n, seed):
    """A seeded connected graph: a random tree plus each other pair with
    probability 0.3."""
    rng = random.Random(seed)
    edges = {(int(rng.random() * v) + 1, v + 1) for v in range(1, n)}
    edges |= {(u, v) for u, v in itertools.combinations(range(1, n + 1), 2)
              if rng.random() < 0.3}
    return Graph.from_edges(n, sorted(edges))


def test_k1d_with_d_at_least_n_is_the_spanning_tree_partition():
    for n in range(1, 16):
        for seed in range(10):
            g = _connected_graph(n, 1000 * n + seed)
            tree_part = star_partition_spanning_tree(g)
            for d in range(max(3, n), n + 4):
                assert star_partition_k1d(g, d) == tree_part, (n, seed, d)


# The SHA-1 of _peel_outcomes(), the same for the two-loop star peeling and
# the one-loop peeler that replaced it: a change that moves a block or
# alters a refusal changes it.
PEEL_DIGEST = "66f0d4375995f715c09332fed1ba062693675ea2"


def _peel_outcomes():
    digest = hashlib.sha1()
    for n in range(16):
        for density in (0.15, 0.3, 0.5, 0.7, 0.9):
            for seed in range(10):
                inst = random_instance(n, density, 1, 4, seed)
                for strategy in ("star", "k1d:3", "k1d:4", "k1d:5", "k1d:6"):
                    try:
                        part = build_partition(inst, strategy)
                        outcome = [(b.vertices, b.kind) for b in part.blocks]
                    except ValueError as exc:
                        outcome = (type(exc).__name__, str(exc))
                    digest.update(repr((n, density, seed, strategy, outcome)).encode())
    return digest.hexdigest()


def test_star_peeling_outcomes_are_pinned():
    assert _peel_outcomes() == PEEL_DIGEST


# --- clique partitions ---------------------------------------------------------

def test_clique_partition_of_path4_is_perfect_matching():
    part = clique_partition(path_graph(4))
    assert _kinds(part) == [((1, 2), CLIQUE), ((3, 4), CLIQUE)]


def test_clique_partition_of_triangle():
    part = clique_partition(complete_graph(3))
    assert _kinds(part) == [((1, 2, 3), CLIQUE)]


def test_clique_partition_of_star_graph():
    part = clique_partition(star_graph(3))
    kinds = _kinds(part)
    assert kinds[0] == ((1, 2), CLIQUE)
    assert sorted(k for _, k in kinds[1:]) == [SINGLETON, SINGLETON]


def test_clique_partition_packing_bound():
    for seed in range(25):
        g = random_instance(n=9, density=0.5, tau=0, lmax=1, seed=100 + seed).graph
        part = clique_partition(g)
        validate_partition(g, part)
        pair_vertices = sum(b.size for b in part.blocks if b.kind == CLIQUE and b.size == 2)
        tri_vertices = sum(b.size for b in part.blocks if b.size == 3)
        assert pair_vertices + tri_vertices <= g.n
        est = predict_complexity(g, part, tau=1)
        assert est.rho == pair_vertices + tri_vertices or est.rho is None


# --- feasible prefixes ---------------------------------------------------------

def test_singleton_block_has_tau_plus_two_prefixes():
    inst = uniform_instance(path_graph(1), {1}, set())
    for tau in range(6):
        assert len(feasible_prefixes(Block((1,), SINGLETON), tau, inst)) == tau + 2


@pytest.mark.parametrize("tau", range(6))
def test_edge_block_count_closed_form(tau):
    inst = uniform_instance(path_graph(2), {1}, {0})
    n = len(feasible_prefixes(Block((1, 2), CLIQUE), tau, inst, strengthened=False))
    assert n == (tau + 2) ** 2 - tau == tau * tau + 3 * tau + 4


@pytest.mark.parametrize("tau", range(6))
def test_triangle_block_count_closed_form(tau):
    inst = uniform_instance(complete_graph(3), {1}, {0})
    n = len(feasible_prefixes(Block((1, 2, 3), CLIQUE), tau, inst, strengthened=False))
    assert n == tau ** 3 + 3 * tau ** 2 + 8 * tau + 8


@pytest.mark.parametrize("tau", range(6))
@pytest.mark.parametrize("size", range(2, 6))
def test_star_block_count_matches_bound(tau, size):
    inst = uniform_instance(star_graph(size - 1), {1}, {0})
    block = Block(tuple(range(1, size + 1)), STAR)
    n = len(feasible_prefixes(block, tau, inst, strengthened=False))
    assert n == star_prefix_bound(size, tau)


def test_star_prefix_bound_edge_identity():
    for tau in range(6):
        assert star_prefix_bound(2, tau) == tau * tau + 3 * tau + 4


def test_strengthened_pruning_is_a_subset():
    inst = uniform_instance(complete_graph(3), {1, 2, 3}, {0, 2})
    block = Block((1, 2, 3), CLIQUE)
    strong = set(feasible_prefixes(block, 3, inst, strengthened=True))
    weak = set(feasible_prefixes(block, 3, inst, strengthened=False))
    assert strong < weak
    # symbols 2 and 4 are labels two apart, and difference 2 is forbidden here
    assert (2, 4, 0) in weak and (2, 4, 0) not in strong


def test_prefix_enumeration_is_lexicographic():
    inst = uniform_instance(path_graph(2), {1}, {0})
    prefixes = feasible_prefixes(Block((1, 2), CLIQUE), 1, inst, strengthened=False)
    assert prefixes == sorted(prefixes)


# --- prediction and bases ------------------------------------------------------

def _enumerated_count(g, block, tau):
    return len(_feasible_prefixes(block, tau, g.adjacency, None))


def _predicted_count(g, block, tau):
    return predict_complexity(g, Partition((block,)), tau).per_block_f[0]


@pytest.mark.parametrize("tau", range(4))
def test_predicted_prefix_counts_equal_enumeration(tau):
    assert _predicted_count(path_graph(1), Block((1,), SINGLETON), tau) == tau + 2
    for size in range(2, 9):
        verts = tuple(range(1, size + 1))
        clique = Block(verts, CLIQUE)
        star = Block(verts, STAR)
        g = complete_graph(size)
        assert _predicted_count(g, clique, tau) == _enumerated_count(g, clique, tau)
        g = star_graph(size - 1)
        assert _predicted_count(g, star, tau) == _enumerated_count(g, star, tau)
        assert _predicted_count(g, star, tau) == star_prefix_bound(size, tau)


@pytest.mark.parametrize("seed", range(12))
def test_predicted_prefix_counts_of_stars_with_adjacent_leaves(seed):
    rng = random.Random(seed)
    size = 3 + seed % 6
    leaf_edges = [(u, v) for u, v in itertools.combinations(range(2, size + 1), 2)
                  if rng.random() < 0.4]
    g = Graph.from_edges(size, [(1, v) for v in range(2, size + 1)] + leaf_edges)
    block = Block(tuple(range(1, size + 1)), STAR)
    for tau in range(4):
        assert _predicted_count(g, block, tau) == _enumerated_count(g, block, tau)


def test_predicted_prefix_counts_of_criterion_5_blocks():
    # corpus seeds where auto picks an 8-vertex star block at tau 3
    for seed in (251, 419):
        inst = random_instance(n=2 + seed % 7, density=(0.2, 0.5, 0.8)[seed % 3],
                               tau=seed % 4, lmax=4 + seed % 9, seed=seed)
        g = inst.graph
        for strategy in ("singleton", "star", "clique"):
            part = build_partition(inst, strategy)
            est = predict_complexity(g, part, 3)
            assert est.per_block_f == tuple(_enumerated_count(g, b, 3) for b in part.blocks)

def test_predict_singleton_base():
    g = path_graph(4)
    est = predict_complexity(g, singleton_partition(g), tau=1)
    assert est.per_block_f == (3, 3, 3, 3)
    assert est.product == 81
    assert est.base == pytest.approx(3.0)


def test_predict_matching_base():
    g = path_graph(4)
    est = predict_complexity(g, clique_partition(g), tau=1)
    assert est.product == 64
    assert est.base == pytest.approx(math.sqrt(8.0), abs=1e-12)
    assert est.rho == 4


def test_star_block_base_examples():
    assert star_block_base(1, 2) == pytest.approx(math.sqrt(8), abs=1e-12)
    assert star_block_base(1, 3) == pytest.approx(22 ** (1 / 3), abs=1e-12)
    assert star_block_base(2, 2) == pytest.approx(math.sqrt(14), abs=1e-12)


def test_unit_disk_base_is_the_six_leaf_star():
    row = base_table_row(1)
    assert row["unit_disk"] == pytest.approx(518 ** (1 / 6), abs=1e-12)


def test_base_table_rejects_tau_zero():
    with pytest.raises(ValueError):
        base_table_row(0)


# --- strategy dispatch ----------------------------------------------------------

def test_build_partition_handles_disconnected_star():
    from gltc import Graph

    g = Graph.from_edges(5, [(1, 2), (3, 4), (4, 5)])
    inst = uniform_instance(g, {1, 2}, {0})
    part = build_partition(inst, "star")
    validate_partition(g, part)
    assert {v for b in part.blocks for v in b.vertices} == set(range(1, 6))


def test_build_partition_auto_prefers_smaller_product():
    # on P4 with tau=1, stars and cliques both give product 64, beating the
    # singleton's 81; the tie goes to the star strategy
    inst = uniform_instance(path_graph(4), {1, 2}, {0, 1})
    part = build_partition(inst, "auto")
    assert all(b.kind == STAR for b in part.blocks)
    assert predict_complexity(inst.graph, part, 1).product == 64


def test_build_partition_auto_tie_breaks_to_singleton():
    # a single vertex: the only candidate is the singleton partition
    inst = uniform_instance(path_graph(1), {1}, set())
    part = build_partition(inst, "auto")
    assert _kinds(part) == [((1,), SINGLETON)]


def test_build_partition_k1d_strategy():
    inst = uniform_instance(cycle_graph(5), {1, 2}, {0})
    part = build_partition(inst, "k1d:3")
    validate_partition(inst.graph, part)
    assert max(b.size for b in part.blocks) <= 3


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("strategy, message", [
    ("k1d:2", "k1d needs d >= 3"),
    ("k1d:abc", "bad k1d parameter in 'k1d:abc'"),
])
def test_build_partition_checks_the_strategy_on_every_graph(n, strategy, message):
    inst = uniform_instance(path_graph(n), {1}, {0})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_partition(inst, strategy)


def test_build_partition_rejects_unknown_strategy():
    inst = uniform_instance(path_graph(2), {1}, {0})
    with pytest.raises(ValueError):
        build_partition(inst, "zigzag")


# --- walk order ------------------------------------------------------------------

def _frontier(g, ordering):
    """The largest number of placed vertices with an unplaced neighbour,
    over the prefixes of ``ordering`` (its vertex separation)."""
    pos = {v: i for i, v in enumerate(ordering)}
    return max((sum(any(pos[w] > i for w in g.adjacency[v]) for v in ordering[:i + 1])
                for i in range(len(ordering))), default=0)


def test_walk_order_is_a_deterministic_permutation():
    graphs = [Graph.from_edges(0, []), Graph.from_edges(5, [(1, 2), (3, 4), (4, 5)])]
    graphs += [random_instance(n=2 + seed % 9, density=(0.2, 0.5, 0.9)[seed % 3], tau=1,
                               lmax=2, seed=3000 + seed).graph for seed in range(20)]
    for g in graphs:
        order = walk_order(g)
        assert sorted(order) == list(range(1, g.n + 1))
        assert walk_order(g) == order


def test_walk_order_of_a_path_has_frontier_one():
    g = path_graph(9)
    assert walk_order(g) == tuple(range(1, 10))
    assert _frontier(g, walk_order(g)) == 1


def test_walk_order_narrows_the_criterion_7_frontier():
    inst = random_instance(n=16, density=0.3, tau=1, lmax=20, seed=2024)
    g = inst.graph
    assert _frontier(g, build_partition(inst, "star").ordering) == 10
    assert _frontier(g, walk_order(g)) <= 7
