"""The dynamic program: combination steps, level pipeline, solve, witnesses."""

import time

import pytest
from hypothesis import example, given, settings, strategies as st

from gltc import (
    BLOCKED,
    OPEN,
    Block,
    Graph,
    Instance,
    LEAF,
    LevelTable,
    ResourceLimitError,
    SINGLETON,
    SolveOptions,
    VectorTrie,
    brute_force_solve,
    build_partition,
    check_witness,
    independent_set_vectors,
    instance_tau,
    level_step,
    random_instance,
    reconstruct_witness,
    solve,
    validate,
)
from gltc.reference import direct_step, mark_blocked
from gltc.solver import _BarPass, _build_plan, _find_complete
from support import (
    base_table,
    complete_graph,
    level_pipeline,
    path_graph,
    reference_table,
    run_tables,
    uniform_instance,
)


# --- combination steps -------------------------------------------------------

def test_compute_step_on_a_single_open_vertex():
    inst = uniform_instance(path_graph(1), {1, 2}, set())
    blocks = (Block((1,), SINGLETON),)
    plan = _build_plan(blocks, 1, inst, True)
    bar = _BarPass(inst, (1,), 1)
    table = VectorTrie.from_vectors(1, [(OPEN,)])
    indep = independent_set_vectors(inst.graph)
    out, size, _ = level_step(table, indep, plan, bar, 1)
    assert set(out) == {(OPEN,), (2,)}  # stay unlabeled, or take the new label
    assert size == 2


def test_compute_step_on_empty_table_is_empty():
    inst = uniform_instance(path_graph(1), {1}, set())
    blocks = (Block((1,), SINGLETON),)
    plan = _build_plan(blocks, 1, inst, True)
    bar = _BarPass(inst, (1,), 1)
    out, size, _ = level_step(VectorTrie(1), independent_set_vectors(inst.graph), plan, bar, 1)
    assert len(out) == 0 and size == 0


def test_direct_step_examples():
    table = VectorTrie.from_vectors(1, [(OPEN,)])
    indep = VectorTrie.from_vectors(1, [(0,), (1,)])
    assert set(direct_step(table, indep, tau=1)) == {(OPEN,), (2,)}
    # an all-zeros mask is accepted by every symbol, so nothing is dropped
    table2 = VectorTrie.from_vectors(2, [(BLOCKED, 1), (2, OPEN)])
    indep2 = VectorTrie.from_vectors(2, [(0, 0)])
    assert set(direct_step(table2, indep2, tau=1)) == {(OPEN, 1), (1, OPEN)}


@pytest.mark.parametrize("strategy", ["singleton", "star", "clique"])
def test_compute_step_equals_direct_step_randomized(strategy):
    for seed in range(25):
        inst = random_instance(n=3 + seed % 4, density=(0.3, 0.6, 0.9)[seed % 3],
                               tau=seed % 3, lmax=4 + seed % 3, seed=400 + seed)
        part = build_partition(inst, strategy)
        ordering = part.ordering
        tau = instance_tau(inst)
        indep, plan, bar = level_pipeline(inst, part)
        table = base_table(inst, ordering)
        for k in range(1, validate(inst).lambda_max + 1):
            got, size, _ = level_step(table, indep, plan, bar, k)
            want = {mark_blocked(v, k - 1, inst, ordering, tau)
                    for v in direct_step(table, indep, tau)}
            assert set(got) == want and size == len(want)
            table = got


@st.composite
def _bar_cases(draw):
    """A random instance, vertex ordering, level and combined table (the
    combination step leaves no BLOCKED symbol)."""
    n = draw(st.integers(1, 6))
    inst = random_instance(n=n, density=draw(st.sampled_from((0.3, 0.6, 0.9))),
                           tau=draw(st.integers(0, 3)), lmax=draw(st.integers(1, 6)),
                           seed=draw(st.integers(0, 10_000)))
    ordering = tuple(draw(st.permutations(range(1, n + 1))))
    tau = instance_tau(inst)
    vector = st.tuples(*[st.integers(OPEN, tau + 1)] * n)
    vecs = draw(st.lists(vector, min_size=1, max_size=40))
    return inst, ordering, draw(st.integers(0, validate(inst).lambda_max)), vecs


# On a 2-path with tau = 1 and T = {0, 1}, symbol 2 (labeled at the current
# level) blocks its OPEN neighbour whichever side of it the neighbour lies on.
_PAIR = uniform_instance(path_graph(2), {1, 2, 3}, {0, 1})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_bar_cases())
@example((_PAIR, (1, 2), 0, [(OPEN, 2)]))   # a later neighbour blocks
@example((_PAIR, (1, 2), 0, [(2, OPEN)]))   # an earlier neighbour blocks
@example((_PAIR, (2, 1), 1, [(OPEN, 2), (2, OPEN), (OPEN, 1), (OPEN, OPEN)]))
def test_bar_rewrite_equals_mark_blocked_per_vector(case):
    inst, ordering, level, vecs = case
    tau = instance_tau(inst)
    step = VectorTrie.from_vectors(len(ordering), vecs)
    root, _ = _BarPass(inst, ordering, tau).rewrite(step.root, level)
    want = {mark_blocked(v, level, inst, ordering, tau) for v in vecs}
    assert set(VectorTrie(len(ordering), root)) == want


def _reachable_nodes(root):
    seen = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if node is not LEAF and id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.values())
    return list(seen.values())


@pytest.mark.parametrize("strategy", ["singleton", "star", "clique"])
def test_level_tables_are_reduced_dags(strategy):
    for seed in range(15):
        inst = random_instance(n=4 + seed % 4, density=(0.3, 0.6)[seed % 2],
                               tau=seed % 4, lmax=5, seed=1500 + seed)
        part = build_partition(inst, strategy)
        indep, plan, bar = level_pipeline(inst, part)
        table = base_table(inst, part.ordering)
        for k in range(1, validate(inst).lambda_max + 1):
            table, _, nodes = level_step(table, indep, plan, bar, k)
            reachable = _reachable_nodes(table.root)
            shapes = {frozenset((sym, id(c)) for sym, c in node.items()) for node in reachable}
            assert len(shapes) == len(reachable) == nodes


class _CountedNode(dict):
    """A trie node that counts reads and fails the test after 10,000: a
    walk over the nodes of the DAGs below needs a few hundred reads, a
    walk over their paths about 2**40."""

    reads = 0

    def _read(self):
        _CountedNode.reads += 1
        assert _CountedNode.reads < 10_000, "walk visits paths, not nodes"

    def __getitem__(self, sym):
        self._read()
        return dict.__getitem__(self, sym)

    def get(self, sym, default=None):
        self._read()
        return dict.get(self, sym, default)


def _doubling_chain(depth, last):
    """``depth`` levels of nodes with two labeled children each, all
    sharing one node per level: 2**(depth-1) paths into ``last``."""
    node = last
    for _ in range(depth - 1):
        node = _CountedNode({1: node, 2: node})
    return node


def test_dag_walks_visit_nodes_not_paths():
    _CountedNode.reads = 0
    start = time.perf_counter()
    # no complete vector: every one of the 2**39 paths ends unlabeled
    dead = _doubling_chain(40, _CountedNode({OPEN: LEAF, BLOCKED: LEAF}))
    assert _find_complete(VectorTrie(40, dead)) is None
    # the predecessor of (1, ..., 1, 2) ages every coordinate from 1 or 2
    # and gives the new label to an OPEN last coordinate; the witness walk
    # tries symbol 1 first and must get past 2**38 paths without OPEN last
    stuck = _doubling_chain(39, _CountedNode({1: LEAF, 2: LEAF}))
    live = _doubling_chain(39, _CountedNode({OPEN: LEAF}))
    prev = VectorTrie(40, _CountedNode({1: stuck, 2: live}))
    indep = VectorTrie.from_vectors(40, [(0,) * 39 + (1,)])
    final = (1,) * 39 + (2,)
    labels = reconstruct_witness([LevelTable(0, prev)], final, 1, indep, 1, range(1, 41))
    assert labels == {40: 1}
    assert time.perf_counter() - start < 1.0


def test_pruning_toggle_leaves_tables_identical():
    for seed in range(15):
        inst = random_instance(n=5, density=0.7, tau=2, lmax=6, seed=500 + seed)
        strong = [set(t) for _, t, _, _ in run_tables(inst, "star", strengthened=True)]
        weak = [set(t) for _, t, _, _ in run_tables(inst, "star", strengthened=False)]
        assert strong == weak


# --- level tables match their definition --------------------------------------

def test_tables_equal_definition_level_encoding():
    for seed in range(12):
        inst = random_instance(n=2 + seed % 4, density=(0.4, 0.8)[seed % 2],
                               tau=seed % 3, lmax=3 + seed % 4, seed=600 + seed)
        tau = instance_tau(inst)
        for k, table, _, ordering in run_tables(inst, "singleton"):
            assert set(table) == reference_table(inst, ordering, k, tau)
    # one larger pinned case at the top of the checkable range
    inst = random_instance(n=5, density=0.5, tau=2, lmax=6, seed=617)
    tau = instance_tau(inst)
    for k, table, _, ordering in run_tables(inst, "star"):
        assert set(table) == reference_table(inst, ordering, k, tau)


def test_base_table_marks_label_one_availability():
    g = path_graph(2)
    inst = Instance(graph=g, lam={1: frozenset({1, 2}), 2: frozenset({2})},
                    t={(1, 2): frozenset({0})})
    assert list(base_table(inst, (1, 2))) == [(OPEN, BLOCKED)]


def test_level_trace_of_sparse_single_vertex():
    # lists {2} only (tau=0): label 1 is never admissible, so level 0 starts
    # BLOCKED; the unlabeled branch reopens at level 1 and the label lands at
    # level 2, where the labeled symbol is tau+1 = 1
    inst = Instance(graph=path_graph(1), lam={1: frozenset({2})}, t={})
    tables = {k: set(t) for k, t, _, _ in run_tables(inst, "singleton")}
    assert tables[0] == {(BLOCKED,)}
    assert tables[1] == {(OPEN,)}
    assert tables[2] == {(BLOCKED,), (1,)}
    result = solve(inst, options=SolveOptions(gap_compress=False))
    assert result.decision and result.witness == {1: 2}


def test_monotone_completion_once_present_always_present():
    from gltc.encoding import is_complete

    for seed in range(20):
        inst = random_instance(n=4, density=0.5, tau=seed % 3, lmax=5, seed=700 + seed)
        seen_complete = False
        for k, table, _, _ in run_tables(inst, "singleton"):
            has_complete = any(is_complete(vec) for vec in table)
            if seen_complete:
                assert has_complete
            seen_complete = seen_complete or has_complete


# --- solve -------------------------------------------------------------------

def test_solve_k2_yes_with_witness():
    inst = uniform_instance(path_graph(2), {1, 2, 3}, {0, 1})
    result = solve(inst)
    assert result.decision
    assert result.witness in ({1: 1, 2: 3}, {1: 3, 2: 1})
    assert check_witness(inst, result.witness)


def test_solve_k2_no():
    inst = uniform_instance(path_graph(2), {1, 2}, {0, 1})
    assert not solve(inst).decision


def test_solve_triangle_two_colors_is_no():
    inst = uniform_instance(complete_graph(3), {1, 2}, {0})
    assert not solve(inst).decision


def test_solve_single_vertex():
    inst = Instance(graph=path_graph(1), lam={1: frozenset({5})}, t={})
    result = solve(inst)
    assert result.decision and result.witness == {1: 5}


def test_solve_empty_list_short_circuits():
    g = path_graph(2)
    inst = Instance(graph=g, lam={1: frozenset(), 2: frozenset({1})},
                    t={(1, 2): frozenset({0})})
    result = solve(inst)
    assert not result.decision and result.stats.levels == 0


def test_solve_zero_vertices_is_vacuously_yes():
    inst = Instance(graph=Graph.from_edges(0, []), lam={}, t={})
    result = solve(inst)
    assert result.decision and result.witness == {}


def test_solve_disconnected_answer_is_conjunction():
    g = Graph.from_edges(5, [(1, 2), (3, 4), (4, 5)])
    yes = uniform_instance(g, {1, 2, 3}, {0})
    assert solve(yes).decision
    assert check_witness(yes, solve(yes).witness)
    # make one component infeasible: a triangle with two colors
    g2 = Graph.from_edges(5, [(1, 2), (3, 4), (4, 5), (3, 5)])
    no = uniform_instance(g2, {1, 2}, {0})
    assert not solve(no).decision


def test_solve_with_explicit_partition():
    inst = uniform_instance(path_graph(4), {1, 2, 3}, {0})
    part = build_partition(inst, "star")
    result = solve(inst, partition=part)
    assert result.decision and check_witness(inst, result.witness)


def test_k1d_strategy_matches_oracle_on_line_graphs():
    # line graphs are claw-free, so the bounded-star strategy applies
    from support import line_graph

    checked = 0
    for seed in range(12):
        carrier = random_instance(n=5, density=0.5, tau=0, lmax=1, seed=1300 + seed).graph
        g = line_graph(carrier)
        if g.n == 0:
            continue
        inst = uniform_instance(g, {1, 2, 3, 4}, {0, 1})
        expected = brute_force_solve(inst)[0]
        result = solve(inst, strategy="k1d:3")
        assert result.decision == expected
        if expected:
            assert check_witness(inst, result.witness)
        checked += 1
    assert checked >= 8


def test_witness_reconstruction_without_early_exit():
    inst = uniform_instance(path_graph(4), {1, 2, 3, 4, 5}, {0, 1})
    result = solve(inst, options=SolveOptions(early_exit=False))
    assert result.decision and check_witness(inst, result.witness)


def test_solve_without_parent_storage_returns_no_witness():
    inst = uniform_instance(path_graph(2), {1, 2, 3}, {0, 1})
    result = solve(inst, options=SolveOptions(store_parents=False))
    assert result.decision and result.witness is None


def test_solve_resource_limit_is_not_a_no():
    inst = random_instance(n=7, density=0.3, tau=1, lmax=9, seed=42)
    with pytest.raises(ResourceLimitError):
        solve(inst, options=SolveOptions(vector_limit=3))


def test_solve_respects_tau_zero_list_coloring():
    for seed in range(25):
        inst = random_instance(n=6, density=0.5, tau=0, lmax=5, seed=800 + seed)
        assert solve(inst).decision == brute_force_solve(inst)[0]


def test_witnesses_survive_gap_decompression():
    # labels live far apart; compression must still report original labels
    g = path_graph(2)
    inst = Instance(graph=g, lam={1: frozenset({10}), 2: frozenset({200})},
                    t={(1, 2): frozenset({0, 1, 2})})
    result = solve(inst)
    assert result.decision and result.witness == {1: 10, 2: 200}
    assert check_witness(inst, result.witness)


def test_solve_stats_report_levels_and_sizes():
    inst = uniform_instance(path_graph(3), {1, 2, 3}, {0})
    result = solve(inst, options=SolveOptions(early_exit=False))
    assert result.stats.levels == 3
    assert len(result.stats.components) == 1
    assert len(result.stats.components[0].level_sizes) == 3
    assert len(result.stats.components[0].level_nodes) == 3
    assert result.stats.max_table_size == max(result.stats.components[0].level_sizes)


# --- witness checking ----------------------------------------------------------

def test_check_witness_examples():
    inst = uniform_instance(path_graph(2), {1, 2, 3}, {0, 1})
    assert check_witness(inst, {1: 1, 2: 3})
    assert not check_witness(inst, {1: 1, 2: 2})  # difference 1 forbidden
    assert not check_witness(inst, {1: 1, 2: 4})  # label outside the list
    assert not check_witness(inst, {1: 1})        # not total


def test_every_random_yes_has_a_checkable_witness():
    yes_seen = 0
    for seed in range(60):
        inst = random_instance(n=2 + seed % 6, density=(0.2, 0.5, 0.8)[seed % 3],
                               tau=seed % 4, lmax=4 + seed % 8, seed=900 + seed)
        result = solve(inst)
        if result.decision:
            yes_seen += 1
            assert check_witness(inst, result.witness)
    assert yes_seen > 10  # the corpus is not degenerate
