"""The dynamic program: combination steps, level pipeline, solve, witnesses."""

import contextlib
import gc
import hashlib
import importlib
import itertools
import random
import sys
import time
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gltc import (
    BLOCKED,
    OPEN,
    ComponentDP,
    Graph,
    Instance,
    LEAF,
    LevelTable,
    ResourceLimitError,
    SolveOptions,
    VectorTrie,
    brute_force_solve,
    build_partition,
    check_witness,
    gap_compression,
    independent_set_vectors,
    instance_tau,
    parse_instance,
    random_instance,
    reconstruct_witness,
    solve,
    split_components,
    validate,
    walk_order,
)
from gltc.reference import direct_step, forward_checking_solve, level_step, project
from gltc import encoding as encoding_module
from gltc.encoding import is_complete
from gltc import indsets as indsets_module
from gltc import instance as instance_module
from gltc import partition as partition_module
from gltc import reference as reference_module
from gltc import solver as solver_module
from gltc import vectorset as vectorset_module
from gltc.solver import (
    _build_plan,
    _combine,
    _find_complete,
    _level_walk,
    _trie_neighbours,
    _unbarred,
)
from gltc.vectorset import decode, encode
from support import (
    base_table,
    complete_graph,
    cycle_graph,
    decided_by_lists,
    free_labels_off,
    labeling_vector,
    list_exit_off,
    neighbour_masks,
    odd_cycle_with_pendant,
    path_graph,
    proper_partial_labelings,
    reachable,
    recurrence_mismatch,
    reference_table,
    run_tables,
    step,
    uniform_instance,
)


# --- combination steps -------------------------------------------------------

def _keep_all(dp):
    """A plan for the replay's _combine that keeps every vector live at
    every call: the step is reference.direct_step's, nothing dropped."""
    return len(dp.ordering), dp.tau, itertools.repeat(-1)


def test_compute_step_on_a_single_open_vertex():
    dp = ComponentDP(uniform_instance(path_graph(1), {1, 2}, set()), (1,))
    assert list(base_table(dp)) == [(OPEN,)]
    out, size, _, _, _ = step(dp, base_table(dp), 1)
    # stay unlabeled, or take the new label (symbol tau + 1; tau is 0 here)
    assert dp.tau == 0 and set(out) == {(OPEN,), (dp.tau + 1,)}
    assert size == 2


def test_compute_step_on_empty_table_is_empty():
    dp = ComponentDP(uniform_instance(path_graph(1), {1}, set()), (1,))
    out, size, _, _, _ = step(dp, VectorTrie(1), 1)
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
    # the reference recurrence runs on its own tables, over OPEN and
    # BLOCKED, from the level-0 vector; the solver's table is its
    # projection at every level, vector for vector (criterion 2 runs the
    # same check on its own corpus)
    for seed in range(25):
        inst = random_instance(n=3 + seed % 4, density=(0.3, 0.6, 0.9)[seed % 3],
                               tau=seed % 3, lmax=4 + seed % 3, seed=400 + seed)
        assert recurrence_mismatch(inst, strategy) is None, seed


def _image_vs_direct_step(graph, ordering, tau, vecs):
    """_level_walk, with nothing barred, of the table ``vecs`` by the
    independent sets of ``graph``, given as its neighbour masks, against
    reference.direct_step; returns the union entries it made."""
    n = len(ordering)
    table = VectorTrie.from_vectors(n, vecs)
    indep = independent_set_vectors(graph, ordering)
    shapes, (root,) = encode((table.root,))
    kept = list(shapes)
    out, out_root, _, unions, _ = _level_walk(shapes, root, neighbour_masks(graph, ordering), tau,
                                              _unbarred(n, tau))
    assert set(VectorTrie(n, decode(out)[out_root])) == set(direct_step(table, indep, tau))
    # both stores stay hash-consed, every shape in symbol order, and the
    # walk only reads the input store; tally keeps just the nodes of its
    # output store that the root reaches
    for store in (out, shapes):
        assert all(list(shape) == sorted(shape) for shape in store)
        assert len(set(store)) == len(store)
    assert shapes == kept
    out, out_root, _, _ = encoding_module.tally(out, out_root)
    assert out_root == len(out) - 1 and _distinct_shapes(decode(out)[out_root]) == (out_root,) * 2
    return unions


@st.composite
def _image_cases(draw):
    """A random graph, vertex ordering, tau and table over the whole
    alphabet, with no bar pass behind it (any mix of symbols)."""
    n = draw(st.integers(1, 7))
    graph = random_instance(n=n, density=draw(st.sampled_from((0.2, 0.5, 0.8))), tau=0,
                            lmax=1, seed=draw(st.integers(0, 10_000))).graph
    ordering = tuple(draw(st.permutations(range(1, n + 1))))
    tau = draw(st.integers(0, 3))
    vector = st.tuples(*[st.integers(BLOCKED, tau + 1)] * n)
    vecs = draw(st.lists(vector, min_size=1, max_size=40))
    return graph, ordering, tau, vecs


_EDGE = path_graph(2)
_NO_EDGES = Graph.from_edges(3, [])
# tau = 0: at the root, OPEN assigned and 1 aged both give symbol 1, with
# different positions left free, so only a union on the output store
# merges them
_ASSIGN_MEETS_AGED = (_EDGE, (1, 2), 0, [(OPEN, OPEN), (1, 1)])
# a node with BLOCKED and OPEN children: both age to OPEN, and only OPEN
# may take the label
_BLOCKED_AND_OPEN = (_EDGE, (2, 1), 1, [(BLOCKED, OPEN), (OPEN, 1), (BLOCKED, 2)])
# children 1 and 2 whose subtrees share the suffixes (1, OPEN) and (OPEN, *)
_OVERLAPPING_1_AND_2 = (_NO_EDGES, (1, 2, 3), 1,
                        [(1, OPEN, 2), (1, 1, OPEN), (2, OPEN, 1), (2, 1, OPEN)])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_image_cases())
@example(_ASSIGN_MEETS_AGED)
@example(_BLOCKED_AND_OPEN)
@example(_OVERLAPPING_1_AND_2)
def test_image_equals_direct_step_on_arbitrary_tables(case):
    _image_vs_direct_step(*case)


@pytest.mark.parametrize("case", [_ASSIGN_MEETS_AGED, _BLOCKED_AND_OPEN, _OVERLAPPING_1_AND_2],
                         ids=["assign-meets-aged-tau0", "blocked-and-open", "overlapping-1-and-2"])
def test_image_unions_on_the_pinned_tables(case):
    # each pinned table makes the walk take a union, so the property's
    # examples really run that branch
    assert _image_vs_direct_step(*case) > 0


@st.composite
def _bar_cases(draw):
    """A random instance, vertex ordering, level and table over the
    solver's alphabet (no BLOCKED), which the walk advances with label
    level + 2."""
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
# level) bars its OPEN neighbour from the next label whichever side of it
# the neighbour lies on.
_PAIR = uniform_instance(path_graph(2), {1, 2, 3}, {0, 1})
# tau = 0, so no symbol bars and no position waits; vertex 2 lacks
# label 2, so level 0 closes its position
_TAU0_PATH = Instance(graph=path_graph(3), lam={1: frozenset({1, 2}), 2: frozenset({1}),
                                                3: frozenset({1, 2})},
                      t={(1, 2): frozenset({0}), (2, 3): frozenset({0})})
# v3 is adjacent to v1 with T = {0} and to v2 with T = {0, 1}: where v1
# takes the label, adjacency keeps v3 from it; where v1 is aged and v2
# holds a recent label (symbol 2), v2's bar does. Both paths reach the
# one (OPEN) node at v3 with no position free and none pending. Label 4
# keeps every position live at label 3, the one these tables take
_ADJACENT_OR_BARRED = Instance(graph=Graph.from_edges(3, [(1, 3), (2, 3)]),
                               lam={v: frozenset({1, 2, 3, 4}) for v in (1, 2, 3)},
                               t={(1, 3): frozenset({0}), (2, 3): frozenset({0, 1})})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_bar_cases())
@example((_PAIR, (1, 2), 0, [(OPEN, 2)]))   # a later neighbour bars
@example((_PAIR, (1, 2), 0, [(2, OPEN)]))   # an earlier neighbour bars
@example((_PAIR, (2, 1), 1, [(OPEN, 2), (2, OPEN), (OPEN, 1), (OPEN, OPEN)]))
# the root call has nothing pending, and its waiting OPEN's one child
# leads to a cut branch (under 2) and a kept one (under 1)
@example((_PAIR, (1, 2), 0, [(OPEN, 2), (OPEN, 1)]))
@example((_TAU0_PATH, (1, 2, 3), 0, [(OPEN, OPEN, 1), (1, OPEN, OPEN), (OPEN, 1, OPEN)]))
@example((_ADJACENT_OR_BARRED, (1, 2, 3), 1, [(OPEN, 1, OPEN), (1, 2, OPEN)]))
def test_bar_rewrite_equals_mark_blocked_per_vector(case):
    _walk_vs_level_step(*case)


def _tally_vs_reference(nbr_mask, tau, filters, vecs):
    """encoding.tally of the store _level_walk builds from the table
    ``vecs`` against two references: the compacted store must be
    support.reachable's, and each node's count and flag those of the
    vectors below it, listed one by one. Returns the number of nodes of
    the walk's store that its root does not reach."""
    shapes, (root,) = encode((VectorTrie.from_vectors(len(nbr_mask), vecs).root,))
    out, out_root, _, _, reached = _level_walk(shapes, root, nbr_mask, tau, filters)
    if out_root < 0:  # every vector died, and a dead branch builds no node
        assert out == [()]
        return 0
    raw = list(out)
    store, store_root, count, full = encoding_module.tally(out, out_root)
    if reached:  # the walk's word that no node is unreached holds, and saves the marking
        assert (store, store_root) == (raw, len(raw) - 1)
        assert encoding_module.tally(out, out_root, reached) == (store, store_root, count, full)
    assert out == raw  # tally only reads the store it is given
    assert (store, store_root) == reachable(raw, out_root)
    assert len(count) == len(full) == len(store)
    below = [[()]]
    for shape in store[1:]:
        below.append([(sym, *rest) for sym, child in shape for rest in below[child]])
    assert count == [len(vectors) for vectors in below]
    assert full == [any(map(is_complete, vectors)) for vectors in below]
    return len(raw) - len(store)


def _unbarred_tally(graph, ordering, tau, vecs):
    n = len(ordering)
    return _tally_vs_reference(neighbour_masks(graph, ordering), tau, _unbarred(n, tau), vecs)


def _barred_tally(inst, ordering, level, vecs):
    dp = ComponentDP(inst, ordering)
    return _tally_vs_reference(dp.nbr_mask, dp.tau, dp.filters(level + 2), vecs)


# Output unions come from the new label meeting an aged 1 at tau = 0, with
# or without bars, and from children that age to one symbol but leave
# different positions free, which takes a bar; the tables hold every
# symbol, BLOCKED too where nothing is barred
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_image_cases())
@example(_ASSIGN_MEETS_AGED)
@example(_BLOCKED_AND_OPEN)
@example(_OVERLAPPING_1_AND_2)
def test_tally_compacts_counts_and_flags_unbarred_stores_as_the_references(case):
    _unbarred_tally(*case)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_bar_cases())
@example((_TAU0_PATH, (1, 2, 3), 0, [(OPEN, OPEN, 1), (1, OPEN, OPEN), (OPEN, 1, OPEN)]))
@example((_ADJACENT_OR_BARRED, (1, 2, 3), 1, [(OPEN, 1, OPEN), (1, 2, OPEN)]))
def test_tally_compacts_counts_and_flags_barred_stores_as_the_references(case):
    _barred_tally(*case)


def test_tally_drops_the_nodes_output_unions_leave_unreached():
    # the pinned tau = 0 table leaves two nodes of the walk's store
    # unreached; over seeded instances, at tau = 0 and above, many stores
    # need compacting, so the properties above run that branch
    assert _unbarred_tally(*_ASSIGN_MEETS_AGED) == 2
    rng = random.Random(29)
    dropped = {tau: 0 for tau in range(3)}
    for seed in range(90):
        n = 3 + seed % 4
        inst = random_instance(n=n, density=0.5, tau=seed % 3, lmax=5, seed=2900 + seed)
        tau = instance_tau(inst)
        ordering = tuple(rng.sample(range(1, n + 1), n))
        vecs = [tuple(rng.randint(OPEN, tau + 1) for _ in range(n)) for _ in range(12)]
        if tau in dropped:
            dropped[tau] += _barred_tally(inst, ordering, seed % 4, vecs) > 0
    assert all(cases >= 10 for cases in dropped.values()), dropped


def _walk_vs_level_step(inst, ordering, level, vecs, graph=None):
    """_level_walk of the table ``vecs`` with the filters of label
    level + 2, against reference.level_step for that label, both by the
    independent sets of ``graph`` (by default the instance graph): as
    neighbour masks to the walk, as a trie of sets to level_step.
    Returns the walk's completeness flag."""
    tau, n = instance_tau(inst), len(ordering)
    graph = inst.graph if graph is None else graph
    indep = independent_set_vectors(graph, ordering)
    shapes, (root,) = encode((VectorTrie.from_vectors(n, vecs).root,))
    filters = ComponentDP(inst, ordering).filters(level + 2)
    out, root, _, _, reached = _level_walk(shapes, root, neighbour_masks(graph, ordering), tau,
                                           filters)
    table = VectorTrie.from_vectors(n, vecs)
    want = set(map(project, level_step(table, indep, inst, ordering, tau, level + 2)))
    if root < 0:  # the walk's word for an empty table
        assert not want and out == [()]
        return False
    out, root, count, full = encoding_module.tally(out, root, reached)
    size, complete = count[root], full[root]
    assert set(VectorTrie(n, decode(out)[root])) == want
    assert size == len(want)
    # the walk's tally flag, against the vectors one by one
    assert complete == any(map(is_complete, want))
    # the store's hash-consing is canonical only if every shape comes in
    # symbol order, which the walk keeps without sorting
    assert all(list(shape) == sorted(shape) for shape in out)
    return complete


def _dense_supergraph(graph, rng, density):
    """``graph`` with every other vertex pair joined with probability
    ``density``: its independent sets are few and small, and each is an
    independent set of ``graph``."""
    extra = [pair for pair in itertools.combinations(range(1, graph.n + 1), 2)
             if not graph.adjacent(*pair) and rng.random() < density]
    return Graph.from_edges(graph.n, [*graph.edges, *extra])


def test_bar_rewrite_keys_past_a_machine_word():
    # the walk memo's int key, uid << n | allow | pend, passes 64 bits at
    # n >= 64; 200 vectors of length 72 at tau >= 1, so allow and pend
    # hold far positions too, in ten tables of which half hold a complete
    # vector. The full independent-set family of these graphs is far too
    # large for the pairwise reference, so each table is advanced by the
    # independent sets of a dense supergraph, a few hundred small ones
    rng = random.Random(72)

    def draw(symbols):
        return tuple(rng.choice(symbols) for _ in range(72))

    flags = []
    for batch in range(10):
        inst = random_instance(n=72, density=0.06, tau=1 + batch % 3, lmax=6, seed=7200 + batch)
        tau = instance_tau(inst)
        assert tau >= 1
        ordering = tuple(rng.sample(range(1, 73), 72))
        symbols = (OPEN, OPEN, *range(1, tau + 2))
        vecs = [draw(symbols) for _ in range(19)]
        vecs.append(draw(range(1, tau + 2)) if batch % 2 else draw(symbols))
        dense = _dense_supergraph(inst.graph, rng, 0.9)
        flags.append(_walk_vs_level_step(inst, ordering, batch % 5, vecs, dense))
    assert flags == [False, True] * 5


def test_adjacency_and_a_bar_that_free_the_same_positions_share_a_memo_entry():
    # the walk's memo key holds the positions still free to take the
    # label, however they were removed: the two tables apart memoize 4
    # and 2 entries, together 5, where a key on the independent-set trie
    # node and the barred mask took 6
    dp = ComponentDP(_ADJACENT_OR_BARRED, (1, 2, 3))
    indep = independent_set_vectors(_ADJACENT_OR_BARRED.graph, dp.ordering)
    entries = []
    for vecs in ([(OPEN, 1, OPEN)], [(1, 2, OPEN)], [(OPEN, 1, OPEN), (1, 2, OPEN)]):
        table = VectorTrie.from_vectors(3, vecs)
        got, size, _, memo, _ = step(dp, table, 3)
        want = set(map(project, level_step(table, indep, _ADJACENT_OR_BARRED, dp.ordering,
                                           dp.tau, 3)))
        assert set(got) == want and size == len(want)
        entries.append(memo)
    assert entries == [4, 2, 5]


def _reachable_nodes(root):
    seen = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if node is not LEAF and id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.values())
    return list(seen.values())


def _distinct_shapes(root):
    """(distinct {symbol: id(child)} shapes, nodes) reachable from ``root``."""
    reachable = _reachable_nodes(root)
    shapes = {frozenset((sym, id(c)) for sym, c in node.items()) for node in reachable}
    return len(shapes), len(reachable)


def _seeded_dps(strategy):
    for seed in range(15):
        inst = random_instance(n=4 + seed % 4, density=(0.3, 0.6)[seed % 2],
                               tau=seed % 4, lmax=5, seed=1500 + seed)
        yield inst, ComponentDP(inst, build_partition(inst, strategy).ordering)


@pytest.mark.parametrize("strategy", ["singleton", "star", "clique"])
def test_level_tables_are_reduced_dags(strategy):
    for inst, dp in _seeded_dps(strategy):
        table = base_table(dp)
        for k in range(1, validate(inst).lambda_max + 1):
            table, size, nodes, _, _ = step(dp, table, k)
            if table.root is None:  # the level emptied the table
                assert size == nodes == 0
                break
            shapes, reachable = _distinct_shapes(table.root)
            assert shapes == reachable == nodes
            # the size advance counted, against a separate walk
            assert size == len(table)


@pytest.mark.parametrize("strategy", ["singleton", "star", "clique"])
def test_combined_dag_is_reduced(strategy):
    # equal combined subtrees must be one object, or the next walk's memo,
    # keyed on node uids, walks each copy again
    for inst, dp in _seeded_dps(strategy):
        table, indep = base_table(dp), independent_set_vectors(inst.graph, dp.ordering)
        plan = _build_plan(build_partition(inst, strategy).blocks, dp.tau, inst)
        for k in range(1, validate(inst).lambda_max + 1):
            combined = _combine((table.root,), indep.root, 0, plan, {})
            if combined is None:  # the level emptied the table
                break
            shapes, reachable = _distinct_shapes(combined)
            assert shapes == reachable
            table, _, _, _, _ = step(dp, table, k)
            if table.root is None:
                break


def _stepped(dp, table, level):
    got, *counts = step(dp, table, level)
    return (set(got), *counts)


def test_step_on_any_table_equals_a_fresh_component_dps():
    # step keeps no state between calls: one ComponentDP stepping tables
    # in any order, again and rebuilt from their vectors, gives what a
    # fresh ComponentDP gives on each
    for inst, dp in _seeded_dps("singleton"):
        tables = [base_table(dp)]
        for k in range(1, validate(inst).lambda_max + 1):
            tables.append(step(dp, tables[-1], k)[0])
        n = len(dp.ordering)
        for k in reversed(range(1, len(tables))):
            for table in (tables[k - 1], tables[k - 1],
                          VectorTrie.from_vectors(n, sorted(tables[k - 1]))):
                assert _stepped(dp, table, k) == _stepped(ComponentDP(inst, dp.ordering), table, k)


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
    indep = independent_set_vectors(complete_graph(40), range(1, 41))  # at most one vertex
    final = (1,) * 39 + (2,)
    labels = reconstruct_witness([LevelTable(0, prev)], final, 1, indep, 1, range(1, 41))
    assert labels == {40: 1}
    assert time.perf_counter() - start < 1.0


def _tables_by_vertex_id(inst, ordering):
    """Every level table of the DP walked in ``ordering``, each vector
    re-indexed from that coordinate order to vertex-id order."""
    dp = ComponentDP(inst, ordering)
    perm = sorted(range(len(ordering)), key=dp.ordering.__getitem__)
    table = base_table(dp)
    out = [{tuple(vec[i] for i in perm) for vec in table}]
    for k in range(1, validate(inst).lambda_max + 1):
        table, _, _, _, _ = step(dp, table, k)
        out.append({tuple(vec[i] for i in perm) for vec in table})
    return out


def test_level_tables_are_partition_independent():
    # the coordinate order changes only the shape of the DAGs and the cost
    # of the walks: the partitions' block orders, the solver's walk order
    # and random permutations all give the same tables
    rng = random.Random(7)
    for seed in range(15):
        inst = random_instance(n=5 + seed % 2, density=(0.5, 0.7, 0.9)[seed % 3],
                               tau=seed % 4, lmax=6, seed=500 + seed)
        vertices = range(1, inst.graph.n + 1)
        orders = [build_partition(inst, strategy).ordering for strategy in ("star", "clique")]
        orders.append(walk_order(inst.graph))
        orders += [tuple(rng.sample(vertices, len(vertices))) for _ in range(3)]
        singleton = _tables_by_vertex_id(inst, build_partition(inst, "singleton").ordering)
        for ordering in orders:
            assert _tables_by_vertex_id(inst, ordering) == singleton, ordering


@st.composite
def _step_cases(draw, alphabet_from=BLOCKED):
    """A random instance, vertex ordering, level and previous table over
    the whole alphabet (BLOCKED included), or from ``alphabet_from`` on;
    the independent-set trie is the instance graph's."""
    n = draw(st.integers(1, 6))
    inst = random_instance(n=n, density=draw(st.sampled_from((0.3, 0.6, 0.9))),
                           tau=draw(st.integers(0, 3)), lmax=draw(st.integers(1, 6)),
                           seed=draw(st.integers(0, 10_000)))
    ordering = tuple(draw(st.permutations(range(1, n + 1))))
    tau = instance_tau(inst)
    vector = st.tuples(*[st.integers(alphabet_from, tau + 1)] * n)
    vecs = draw(st.lists(vector, min_size=1, max_size=40))
    return inst, ordering, draw(st.integers(1, validate(inst).lambda_max)), vecs


# tau = 0 on a 2-path: the independent-set trie's root has distinct children
# for 0 and 1, so a first coordinate 1 comes from (1, 0) and (OPEN, 1) and
# the walk's state after it holds two indep nodes
_EDGE0 = uniform_instance(path_graph(2), {1, 2, 3}, {0})
_PATH0 = uniform_instance(path_graph(3), {1, 2, 3}, {0})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_step_cases())
@example((_EDGE0, (1, 2), 1, [(1, 1), (OPEN, OPEN)]))
@example((_EDGE0, (2, 1), 2, [(1, OPEN), (OPEN, BLOCKED), (OPEN, 1)]))
@example((_PATH0, (2, 1, 3), 1, [(1, OPEN, OPEN), (OPEN, 1, OPEN), (OPEN, OPEN, 1)]))
def test_level_step_equals_direct_step_then_mark_blocked(case):
    inst, ordering, level, vecs = case
    dp = ComponentDP(inst, ordering)
    table = VectorTrie.from_vectors(len(ordering), vecs)
    got, size, _, _, _ = step(dp, table, level)
    # an input BLOCKED stays BLOCKED, as the walk reads it
    indep = independent_set_vectors(inst.graph, ordering)
    want = set(map(project, level_step(table, indep, inst, ordering, dp.tau, level)))
    assert set(got) == want and size == len(want)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_step_cases(alphabet_from=OPEN))
@example((_EDGE0, (1, 2), 1, [(1, 1), (OPEN, OPEN)]))
@example((_PAIR, (1, 2), 2, [(OPEN, 2), (2, OPEN), (OPEN, 1), (OPEN, OPEN)]))
def test_advancing_a_u_table_equals_projecting_the_reference_step(case):
    # a table in the solver's alphabet, one unlabeled symbol: the step is
    # the projection of the reference step on the marked table, one to one
    inst, ordering, level, vecs = case
    dp = ComponentDP(inst, ordering)
    table = VectorTrie.from_vectors(len(ordering), vecs)
    got, size, _, _, _ = step(dp, table, level)
    indep = independent_set_vectors(inst.graph, ordering)
    reference = level_step(table, indep, inst, ordering, dp.tau, level)
    want = set(map(project, reference))
    assert set(got) == want and size == len(want) == len(reference)


def test_tau_zero_state_mixes_indep_nodes():
    dp = ComponentDP(_EDGE0, (1, 2))
    indep = independent_set_vectors(_EDGE0.graph, dp.ordering)
    assert dp.tau == 0
    assert indep.root[0] is not indep.root[1]
    table = VectorTrie.from_vectors(2, [(1, 1), (OPEN, OPEN)])
    step = _combine((table.root,), indep.root, 0, _keep_all(dp), {})
    # after a first 1, (1, 1) comes only from the pair (1, 0) and (1, OPEN)
    # only from (OPEN, 1): the state must keep both indep nodes
    assert set(VectorTrie(2, step)) == {(1, 1), (1, OPEN), (OPEN, OPEN), (OPEN, 1)}
    assert set(VectorTrie(2, step)) == set(direct_step(table, indep, 0))


def test_auto_solve_enumerates_no_prefixes(monkeypatch):
    # criterion-5 corpus seeds where auto picks an 8-vertex star block at tau 3
    calls = []
    real = reference_module._feasible_prefixes

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(reference_module, "_feasible_prefixes", counted)
    for seed in (251, 419):
        inst = random_instance(n=2 + seed % 7, density=(0.2, 0.5, 0.8)[seed % 3],
                               tau=seed % 4, lmax=4 + seed % 9, seed=seed)
        result = solve(inst, strategy="auto")
        blocks = build_partition(inst, "auto").blocks
        assert instance_tau(inst) == 3 and max(b.size for b in blocks) == 8
        assert result.decision == brute_force_solve(inst)[0]
    assert calls == []


def test_solve_counts_sizes_without_a_second_walk(monkeypatch):
    # the criterion-7 instance: advance returns each level's size, so
    # no table is walked again with node_count
    calls = []
    real = vectorset_module.node_count

    def counted(*args):
        calls.append(args)
        return real(*args)

    # len(VectorTrie) reads vectorset's name; a direct import in solver.py
    # would bind its own
    monkeypatch.setattr(vectorset_module, "node_count", counted)
    monkeypatch.setattr(solver_module, "node_count", counted, raising=False)
    inst = random_instance(n=16, density=0.3, tau=1, lmax=20, seed=2024)
    with free_labels_off():
        result = solve(inst, strategy="star")
    assert result.stats.components[0].level_sizes[-1] == 694_656
    assert calls == []
    result = solve(inst, strategy="star")
    assert max(result.stats.components[0].level_sizes) == 174_016
    assert calls == []


def _counted_calls(monkeypatch, names):
    """Counts of calls to each of ``names`` through every gltc module that
    holds it; "VectorTrie" counts constructions."""
    calls = dict.fromkeys(names, 0)
    for module in (solver_module, vectorset_module, indsets_module, encoding_module):
        for name in calls:
            real = getattr(module, name, None)
            if callable(real) and not isinstance(real, type):
                def counted(*args, _name=name, _real=real):
                    calls[_name] += 1
                    return _real(*args)

                monkeypatch.setattr(module, name, counted)
    if "VectorTrie" in calls:
        real_init = VectorTrie.__init__

        def counted_init(self, *args):
            calls["VectorTrie"] += 1
            real_init(self, *args)

        monkeypatch.setattr(VectorTrie, "__init__", counted_init)
    return calls


def _seeded_solve_cases():
    for seed in range(40):
        inst = random_instance(n=3 + seed % 6, density=(0.2, 0.5, 0.8)[seed % 3],
                               tau=seed % 4, lmax=3 + seed % 5, seed=3100 + seed)
        yield inst


def test_only_witness_solves_decode_tables_or_walk_them_for_completeness(monkeypatch):
    # the level walk's tally flags completeness, so a decision-only solve walks no
    # level; a witness solve walks one retained store per YES component,
    # to anchor its witness, and no solve decodes a DAG into dict nodes
    # or walks a dict trie; a component whose lists hold one label each
    # walks none, and with that exit closed every YES component walks one
    calls = _counted_calls(monkeypatch, ("decode", "_find_complete", "_least_complete"))
    decisions, components, decided = set(), 0, 0
    for inst in _seeded_solve_cases():
        for exit_open in (True, False):
            with contextlib.nullcontext() if exit_open else list_exit_off():
                decision_only = solve(inst, options=SolveOptions(store_parents=False))
                assert calls == {"decode": 0, "_find_complete": 0, "_least_complete": 0}
                result = solve(inst)
            assert result.decision == decision_only.decision
            # solve stops at the first NO component, which reports last
            yes_components = len(result.stats.components) - (not result.decision)
            if exit_open:
                listed = sum(map(decided_by_lists, result.stats.components))
                decided += listed
                yes_components -= listed
            assert calls == {"decode": 0, "_find_complete": 0,
                             "_least_complete": yes_components}
            calls["_least_complete"] = 0
            decisions.add(result.decision)
            components = max(components, yes_components)
    assert decisions == {True, False} and components > 1 and decided > 0
    # the counters do see the replay's adapters
    dp = ComponentDP(inst, walk_order(inst.graph))
    base = base_table(dp)
    solver_module._find_complete(base)
    indep = independent_set_vectors(inst.graph, dp.ordering)
    solver_module._combine((base.root,), indep.root, 0, _keep_all(dp), {})
    assert calls == {"decode": 1, "_find_complete": 1, "_least_complete": 1}


def test_solve_tallies_each_level_once(monkeypatch):
    # advance tallies the store the walk builds, once per level run that
    # leaves a vector, and the witness anchor descends the last level's flags without a tally of
    # its own, with witness on or off
    calls = _counted_calls(monkeypatch, ("tally",))
    levels = witnesses = decided = 0
    for inst in _seeded_solve_cases():
        for parents in (True, False):
            options = SolveOptions(store_parents=parents)
            # a level that empties its table has nothing to tally, and a
            # component whose lists hold one label each runs no level
            result = solve(inst, options=options)
            walked = [c for c in result.stats.components if not decided_by_lists(c)]
            emptied = sum(size == 0 for c in walked for size in c.level_sizes)
            assert calls["tally"] == sum(len(c.level_sizes) for c in walked) - emptied
            calls["tally"] = 0
            decided += len(result.stats.components) - len(walked)
            with list_exit_off():
                result = solve(inst, options=options)
            emptied = sum(size == 0 for c in result.stats.components for size in c.level_sizes)
            assert calls["tally"] == result.stats.levels - emptied
            calls["tally"] = 0
            levels += result.stats.levels
            witnesses += result.witness is not None
    assert levels > 0 and 0 < witnesses < 40 and decided > 0
    # the counter does see the tallies of the dict-trie entry points
    dp = ComponentDP(inst, walk_order(inst.graph))
    base = base_table(dp)
    solver_module._find_complete(base)
    vectorset_module.node_count(base.root)
    assert calls["tally"] == 2


def test_decision_only_solves_build_no_dict_trie_base_table_or_encoding(monkeypatch):
    # the trie and the level-0 table are born, advanced and walked back as
    # node stores: no solve, decision or witness, builds a VectorTrie (so
    # neither a dict trie nor a dict base table), encodes a DAG or decodes
    # the trie, and every witness still checks
    calls = _counted_calls(monkeypatch, ("encode", "decode", "VectorTrie"))
    witnesses = 0
    for inst in _seeded_solve_cases():
        decided = solve(inst, options=SolveOptions(store_parents=False))
        assert calls == {"encode": 0, "decode": 0, "VectorTrie": 0}
        result = solve(inst)
        assert calls == {"encode": 0, "decode": 0, "VectorTrie": 0}
        assert result.decision == decided.decision
        if result.decision:
            assert check_witness(inst, result.witness)
            witnesses += 1
    assert 0 < witnesses < 40
    # the counters do see the replay's adapter: _combine encodes the
    # table, reads the trie as dict nodes and decodes its output
    dp = ComponentDP(inst, walk_order(inst.graph))
    base = base_table(dp)
    indep = indsets_module.independent_set_vectors(inst.graph, dp.ordering)
    solver_module._combine((base.root,), indep.root, 0, _keep_all(dp), {})
    assert calls["encode"] == 1 and calls["decode"] == 1 and calls["VectorTrie"] >= 2


def test_one_component_solve_splits_components_once(monkeypatch):
    # only to split the instance: no partition is built, and the
    # empty-list check walks no component structure
    calls = []
    real = instance_module._component_vertex_sets

    def counted(g):
        calls.append(g.n)
        return real(g)

    monkeypatch.setattr(instance_module, "_component_vertex_sets", counted)
    inst = uniform_instance(path_graph(4), {1, 2, 3}, {0})
    assert solve(inst).decision
    assert calls == [4]
    calls.clear()
    assert solve(inst, strategy="star").decision
    assert calls == [4]
    calls.clear()
    disconnected = uniform_instance(Graph.from_edges(5, [(1, 2), (3, 4), (4, 5)]), {1, 2}, {0})
    assert solve(disconnected).decision
    assert calls == [5]


def test_solve_builds_no_partition(monkeypatch):
    g = Graph.from_edges(7, [(1, 2), (1, 3), (1, 4), (5, 6), (6, 7), (5, 7)])
    inst = uniform_instance(g, {1, 2, 3, 4, 5}, {0, 1})
    expected = brute_force_solve(inst)[0]
    assert expected

    def refuse(*args, **kwargs):
        raise AssertionError("solve built a partition")

    for name in ("build_partition", "singleton_partition", "star_partition_spanning_tree",
                 "star_partition_k1d", "clique_partition", "predict_complexity"):
        monkeypatch.setattr(partition_module, name, refuse)
    for strategy in ("singleton", "star", "k1d:3", "clique", "auto"):
        result = solve(inst, strategy=strategy, options=SolveOptions(store_parents=True))
        assert result.decision == expected
        assert check_witness(inst, result.witness)


# --- level tables match their definition --------------------------------------

def _projected(reference):
    """reference.project of every vector, checked one to one."""
    out = set(map(project, reference))
    assert len(out) == len(reference)
    return out


def test_tables_equal_definition_level_encoding():
    for seed in range(12):
        inst = random_instance(n=2 + seed % 4, density=(0.4, 0.8)[seed % 2],
                               tau=seed % 3, lmax=3 + seed % 4, seed=600 + seed)
        tau = instance_tau(inst)
        for k, table, _, ordering in run_tables(inst, "singleton"):
            assert set(table) == _projected(reference_table(inst, ordering, k, tau))
    # one larger pinned case at the top of the checkable range
    inst = random_instance(n=5, density=0.5, tau=2, lmax=6, seed=617)
    tau = instance_tau(inst)
    for k, table, _, ordering in run_tables(inst, "star"):
        assert set(table) == _projected(reference_table(inst, ordering, k, tau))


@st.composite
def _definition_cases(draw):
    """A random instance small enough to list its partial labelings, and
    a vertex ordering."""
    n = draw(st.integers(1, 5))
    inst = random_instance(n=n, density=draw(st.sampled_from((0.3, 0.6, 0.9))),
                           tau=draw(st.integers(0, 3)), lmax=draw(st.integers(1, 6)),
                           seed=draw(st.integers(0, 10_000)))
    return inst, tuple(draw(st.permutations(range(1, n + 1))))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_definition_cases())
@example((odd_cycle_with_pendant(), (1, 2, 3, 4, 5, 6)))
@example((odd_cycle_with_pendant(), (6, 3, 1, 4, 2, 5)))
@example((Instance(graph=path_graph(1), lam={1: frozenset({2})}, t={}), (1,)))
@example((_TAU0_PATH, (2, 1, 3)))
def test_tables_are_the_live_part_of_the_unpruned_definition(case):
    # every solver table against the definition with nothing dropped: the
    # projected encodings of all proper partial labelings with labels
    # 1..k. The solver keeps exactly the live ones, where no unlabeled
    # vertex's list ends at or below k; and every labeling that extends a
    # dead one by label k + 1 is dead too, so no dropped vector has a
    # live successor
    inst, ordering = case
    tau = instance_tau(inst)
    ends = {v: max(inst.lam[v], default=0) for v in ordering}

    def dead(phi, k):
        return any(v not in phi and ends[v] <= k for v in ordering)

    dp = ComponentDP(inst, ordering)
    table = base_table(dp)
    labelings = [{}]
    for k in range(1, validate(inst).lambda_max + 1):
        table, size, _, _, _ = step(dp, table, k)
        before = {frozenset(phi.items()) for phi in labelings}
        labelings = list(proper_partial_labelings(inst, k))
        live = {project(labeling_vector(inst, ordering, phi, k, tau))
                for phi in labelings if not dead(phi, k)}
        assert set(table) == live and size == len(live)
        for psi in labelings:  # psi is phi of the level below, plus label k
            phi = {v: lab for v, lab in psi.items() if lab < k}
            assert frozenset(phi.items()) in before
            if dead(phi, k - 1):
                assert dead(psi, k)


def test_a_no_component_stops_at_its_first_empty_table(monkeypatch):
    # at level 2 every vector leaves a vertex of the 5-cycle unlabeled with
    # its list {1, 2} ended, so the table is empty and the component is
    # NO after 2 levels, where the unpruned tables ran 6 levels of 62
    # vectors; the empty table is not tallied, retained or walked back,
    # with witness on or off (pinned with the free-label step off); by default the pendant's
    # labels 3..6 are free beside the cycle's {1, 2}, its list is cut to
    # {3}, and the level-1 table holds 11 vectors in 14 nodes
    inst = odd_cycle_with_pendant()
    assert not brute_force_solve(inst)[0]
    calls = _counted_calls(monkeypatch, ("tally", "_least_complete", "_walk_back"))
    with free_labels_off():
        for parents in (True, False):
            result = solve(inst, options=SolveOptions(store_parents=parents))
            assert not result.decision and result.witness is None
            (report,) = result.stats.components
            assert report.level_sizes == [19, 0] and report.level_nodes == [14, 0]
            assert result.stats.levels == 2 and result.stats.max_table_size == 19
    assert calls == {"tally": 2, "_least_complete": 0, "_walk_back": 0}
    for parents in (True, False):
        result = solve(inst, options=SolveOptions(store_parents=parents))
        assert not result.decision and result.witness is None
        (report,) = result.stats.components
        assert report.level_sizes == [11, 0] and report.level_nodes == [14, 0]
        assert result.stats.levels == 2 and result.stats.max_table_size == 11
        assert report.pruned_labels == 5
    assert calls == {"tally": 4, "_least_complete": 0, "_walk_back": 0}


def test_base_table_marks_label_one_availability():
    g = path_graph(2)
    inst = Instance(graph=g, lam={1: frozenset({1, 2}), 2: frozenset({2})},
                    t={(1, 2): frozenset({0})})
    dp = ComponentDP(inst, (1, 2))
    # the level-0 vector is all unlabeled; the first step reads that
    # vertex 2 lacks label 1, so only vertex 1 takes it (symbol tau + 1 = 1)
    assert list(base_table(dp)) == [project((OPEN, BLOCKED))] == [(OPEN, OPEN)]
    assert set(step(dp, base_table(dp), 1)[0]) == {(OPEN, OPEN), (1, OPEN)}


def test_level_trace_of_sparse_single_vertex():
    # lists {2} only (tau=0): label 1 is never admissible, so level 0 is
    # BLOCKED in the reference (OPEN once projected); the unlabeled branch
    # reopens at level 1 and the label lands at level 2, where the labeled
    # symbol is tau+1 = 1. The vertex's list ends at 2, so the vector that
    # leaves it unlabeled at level 2 is dead and dropped
    inst = Instance(graph=path_graph(1), lam={1: frozenset({2})}, t={})
    tables = {k: set(t) for k, t, _, _ in run_tables(inst, "singleton")}
    assert tables[0] == {project((BLOCKED,))}
    assert tables[1] == {(OPEN,)}
    assert tables[2] == {(1,)}
    result = solve(inst)
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


def test_a_wiped_out_component_builds_no_dp_and_runs_no_level(monkeypatch):
    # the first component is YES; labels 1 and 2 cannot sit on the second's
    # edge, so pruning empties its lists and it is NO before any level
    g = Graph.from_edges(4, [(1, 2), (3, 4)])
    lam = {1: frozenset({1, 3}), 2: frozenset({1, 3}), 3: frozenset({1, 2}), 4: frozenset({1, 2})}
    inst = Instance(graph=g, lam=lam, t={e: frozenset({0, 1}) for e in g.edges})
    built = []
    monkeypatch.setattr(solver_module, "ComponentDP",
                        lambda *args: built.append(args) or ComponentDP(*args))
    result = solve(inst)
    assert not result.decision and result.witness is None
    first, second = result.stats.components
    assert first.level_sizes and first.pruned_labels == 0
    assert second.level_sizes == [] and second.pruned_labels == 4
    assert len(built) == 1 and result.stats.levels == len(first.level_sizes)


def test_only_components_that_reach_the_dp_build_a_walk_order(monkeypatch):
    # a component that pruning empties, or leaves one label a list, is
    # decided before the DP: no walk order is built for it and its report's
    # ordering is (); every other component builds one, once
    calls = _counted_calls(monkeypatch, ("walk_order",))
    g = Graph.from_edges(4, [(1, 2), (3, 4)])
    lam = {1: frozenset({1, 3}), 2: frozenset({1, 3}), 3: frozenset({1, 2}), 4: frozenset({1, 2})}
    wiped = Instance(graph=g, lam=lam, t={e: frozenset({0, 1}) for e in g.edges})
    seen = {"dp": 0, "emptied": 0, "one label a list": 0}
    for inst in [wiped, *_seeded_solve_cases()]:
        for parents in (True, False):
            reports = solve(inst, options=SolveOptions(store_parents=parents)).stats.components
            for report in reports:
                if not gap_compression(report.instance)[1]:
                    kind = "emptied"
                elif decided_by_lists(report):
                    kind = "one label a list"
                else:
                    kind = "dp"
                    assert report.ordering == walk_order(report.instance.graph)
                seen[kind] += 1
                assert bool(report.ordering) == (kind == "dp")
            assert calls["walk_order"] == sum(bool(report.ordering) for report in reports)
            calls["walk_order"] = 0
    assert all(seen.values()), seen


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


def test_criterion_7_walk_memoizes_half_the_entries_of_the_star_order():
    # the star order's frontier is 10 and its level walks memoize 16,782
    # entries, its unions 5,618; walk_order's frontier is 7 (pinned with
    # the free-label step off). By default vertex 4's list is cut to
    # label 13 and vertex 5's to label 8, each free beside every
    # neighbour's list: 13 levels, and the walks halve again
    inst = random_instance(n=16, density=0.3, tau=1, lmax=20, seed=2024)
    with free_labels_off():
        report = solve(inst, strategy="star").stats.components[0]
    assert report.level_sizes == [85, 594, 4018, 36163, 62427, 207528, 238692, 694656]
    assert sum(report.level_memo) <= 14_000
    assert sum(report.level_unions) <= 8_000
    report = solve(inst, strategy="star").stats.components[0]
    assert report.level_sizes == [45, 287, 1187, 7031, 12699, 42040, 32800, 91392, 174016,
                                  159744, 98304, 108544, 61440]
    assert sum(report.level_memo) == 2_932 and sum(report.level_unions) == 1_244
    assert sum(report.level_nodes) + sum(report.level_memo) + sum(report.level_unions) == 5_273


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


def test_replay_adapters_give_the_solvers_least_complete_vector_and_witness(monkeypatch):
    # _find_complete and reconstruct_witness, the adapters the benchmark
    # replay calls, on the solver's retained levels decoded into dict
    # tries: exactly the vector and the labels of the store walks, and
    # no complete vector at any level of a NO component
    walks = []
    real = solver_module._walk_back

    def recorded(*args):
        labels = real(*args)
        walks.append((*args, labels))
        return labels

    monkeypatch.setattr(solver_module, "_walk_back", recorded)
    seen = {"several yes components": 0, "no": 0, "no before the last label": 0}
    for seed in range(300):
        inst = random_instance(n=3 + seed % 8, density=(0.15, 0.35, 0.6)[seed % 3],
                               tau=seed % 4, lmax=3 + seed % 6, seed=4400 + seed)
        walks.clear()
        result = solve(inst)
        solver_walks = list(walks)  # the adapter calls _walk_back too
        for levels, final, final_level, nbr_mask, tau, ordering, filters, labels in solver_walks:
            n = len(ordering)
            tables = [LevelTable(k, VectorTrie(n, decode(shapes)[root]))
                      for k, (shapes, root) in enumerate(levels)]
            # the walk back starts from the first level with a complete vector
            assert _find_complete(tables[final_level].vectors) == final
            assert all(_find_complete(t.vectors) is None for t in tables[:final_level])
            # the solver's tables hold one unlabeled symbol, so the walk
            # back over the re-encoded tables needs the component's
            # barring masks (the replay's tables spell out BLOCKED and
            # go through reconstruct_witness, whose filters bar nothing)
            shapes, roots = encode([t.vectors.root for t in tables[:final_level]])
            assert real([(shapes, root) for root in roots], final, final_level,
                        nbr_mask, tau, ordering, filters) == labels
        if result.decision:
            assert check_witness(inst, result.witness)
            seen["several yes components"] += len(solver_walks) > 1
            continue
        # the NO component ran levels without a complete vector until
        # one emptied its table, at the largest label at the latest,
        # unless pruning emptied it before any level
        report = result.stats.components[-1]
        sub, label_map = gap_compression(report.instance)
        if not label_map:
            assert report.level_sizes == []
            continue
        dp = ComponentDP(sub, report.ordering)
        table = base_table(dp)
        levels = len(report.level_sizes)
        assert levels <= max(label_map) and report.level_sizes.index(0) == levels - 1
        for k in range(1, levels + 1):
            table = step(dp, table, k)[0]
            assert _find_complete(table) is None
        assert not table
        seen["no"] += 1
        seen["no before the last label"] += levels < max(label_map)
    assert all(seen.values()), seen


def test_replay_adapters_read_the_solvers_neighbour_masks_off_the_trie():
    # _combine and reconstruct_witness are passed the replay's dict
    # independent-set trie, and walk with the masks read off it
    for seed in range(30):
        n = 1 + seed % 10
        inst = random_instance(n=n, density=(0.2, 0.5, 0.8)[seed % 3], tau=seed % 3, lmax=3,
                               seed=8800 + seed)
        dp = ComponentDP(inst, walk_order(inst.graph))
        indep = independent_set_vectors(inst.graph, dp.ordering)
        assert _trie_neighbours(indep.root, n) == dp.nbr_mask


def test_advance_leaves_exactly_the_nodes_its_root_reaches(monkeypatch):
    # only a union on the output store can leave a node that the new root
    # does not reach, so the walk drops unreached nodes only after one;
    # either way the store advance leaves holds exactly what its root
    # reaches, and level_nodes counts it
    out_unions: list[bool] = []
    real_union = solver_module._union
    kinds = set()

    def union(u, v, shapes, unique, memo):
        out_unions.append(shapes is not table_shapes)
        return real_union(u, v, shapes, unique, memo)

    monkeypatch.setattr(solver_module, "_union", union)
    for seed in range(120):
        inst = random_instance(n=3 + seed % 8, density=(0.25, 0.45, 0.7)[seed % 3],
                               tau=seed % 4, lmax=3 + seed % 7, seed=5100 + seed)
        for sub, _ in split_components(inst):
            sub, label_map = gap_compression(sub)
            if not label_map:
                continue
            dp = ComponentDP(sub, walk_order(sub.graph))
            store = dp.base_store()
            for k in range(1, max(label_map) + 1):
                out_unions.clear()
                table_shapes = store[0]
                _, nodes, _, _, _ = dp.advance(store, k)
                kinds.add(any(out_unions))
                if not store:  # the level emptied the table
                    assert nodes == 0
                    break
                shapes, root, _ = store
                reached, stack = {0, root}, [root]
                while stack:
                    for _, child in shapes[stack.pop()]:
                        if child not in reached:
                            reached.add(child)
                            stack.append(child)
                assert reached == set(range(len(shapes))), (seed, k)
                assert root == len(shapes) - 1 == nodes
    assert kinds == {False, True}


def test_the_walk_back_stops_at_the_first_level_with_no_aged_label(monkeypatch):
    # tau = 2: on the 4-cycle with lists {1..4} and T = {0, 2} the least
    # complete vector appears at level 2, and both its labels are within
    # tau of it, so the witness reads straight off the final vector; on
    # the path with T = {0, 1, 2} the witness 1, 4, 1 appears at level 4,
    # and below level 3 label 1 is recent again. Each walk records its
    # final level and the index of every retained level store it searched.
    walks = []
    real = solver_module._walk_back

    class Levels(list):
        def __getitem__(self, i):
            walks[-1][1].append(i)
            return super().__getitem__(i)

    def counted(levels, final, final_level, *rest):
        walks.append((final_level, []))
        return real(Levels(levels), final, final_level, *rest)

    monkeypatch.setattr(solver_module, "_walk_back", counted)
    for graph, diffs, searched in ((cycle_graph(4), {0, 2}, []),
                                   (path_graph(3), {0, 1, 2}, [3, 2])):
        inst = uniform_instance(graph, {1, 2, 3, 4}, diffs)
        walks.clear()
        result = solve(inst)
        assert result.decision and check_witness(inst, result.witness)
        (final_level, reads), = walks
        assert reads == searched and len(reads) < final_level


# SHA-1s over the solves of the default-option cases below. The witness
# digest was computed while the witness walk still searched every level
# down to level 0: a walk that stops early but reads a label wrong, or
# finds another predecessor, changes it. The table digest covers (name,
# decision, levels, then per component level_sizes and level_nodes): a
# change that must leave every table alone is checked by it. The walk
# digest covers (name, then per component level_memo and level_unions),
# what the level walk did to build those tables. The decision digest
# covers (name, decision) alone: no pre-DP step and no change to the
# tables may move it.
#
# The ARC_CONSISTENT_ digests are the same three with gap_compression's
# free-label step off, pinned when the tables dropped their dead vectors
# (those with an unlabeled vertex whose list has no label above the
# level); they show that the DP itself is unchanged. The three default
# digests were re-pinned when the free-label step came in: a list cut to
# its least free label changes levels, tables, walks and witnesses, while
# the decision digest held.
#
# A component whose pruned lists hold one label each runs no level walk
# (solver._decided_by_lists) and records the tables the DP would build,
# with memo and unions 0. So the two walk digests were re-pinned when
# that exit came in, and the DP_WALK digests are their old values, which
# still pass with the exit closed (support.list_exit_off); the other
# digests pass with it open or closed.
WITNESS_DIGEST = "48f57dc2a978ed1a104ef413540dafec29ffc188"
TABLE_DIGEST = "82d2f094d94ffde46872fe6145e96e40e901b4a6"
WALK_DIGEST = "b0c9a596f88066bd94ac0fe91f5cc7cff593cb9c"
DECISION_DIGEST = "e605230f27337ee9bc6e47e2c699dc8056404e9d"
ARC_CONSISTENT_WITNESS_DIGEST = "14836edbbf9d042909dab57bd1cba52de5c91f6b"
ARC_CONSISTENT_TABLE_DIGEST = "6249534031b4ce4634303c04b29104c961625ba2"
ARC_CONSISTENT_WALK_DIGEST = "4dfc52f7c50dd8e8e59b1251e45b201b52ea4c57"
DP_WALK_DIGEST = "22478ffe8b7197c992bb93b978efec78891a3572"
ARC_CONSISTENT_DP_WALK_DIGEST = "63a92f6be64e3a2a8d959cc6cb3d8c36a3668e9f"


def _digests():
    """(witness digest, table digest, walk digest, decision digest) over
    the seed-2024 corpora of the three benchmark workloads and 400 seeded
    random instances."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
    cases = [(item.name, parse_instance(item.text))
             for name in sorted(workloads.WORKLOADS) for item in workloads.WORKLOADS[name](2024)]
    cases += [(seed, random_instance(n=3 + seed % 10, density=(0.3, 0.5, 0.7)[seed % 3],
                                     tau=seed % 4, lmax=3 + seed % 8, seed=6200 + seed))
              for seed in range(400)]
    witnesses, tables, walks, decisions = (hashlib.sha1() for _ in range(4))
    for name, inst in cases:
        result = solve(inst)
        assert not result.decision or check_witness(inst, result.witness), name
        witness = sorted(result.witness.items()) if result.decision else None
        witnesses.update(repr((name, witness)).encode())
        reports = result.stats.components
        tables.update(repr((name, result.decision, result.stats.levels,
                            [c.level_sizes for c in reports], [c.level_nodes for c in reports]))
                      .encode())
        walks.update(repr((name, [c.level_memo for c in reports],
                           [c.level_unions for c in reports])).encode())
        decisions.update(repr((name, result.decision)).encode())
    return tuple(digest.hexdigest() for digest in (witnesses, tables, walks, decisions))


@pytest.fixture(scope="module")
def default_digests():
    return _digests()


@pytest.fixture(scope="module")
def arc_consistent_digests():
    with free_labels_off():
        return _digests()


@pytest.fixture(scope="module")
def dp_digests():
    with list_exit_off():
        return _digests()


@pytest.fixture(scope="module")
def arc_consistent_dp_digests():
    with list_exit_off(), free_labels_off():
        return _digests()


def test_default_witnesses_are_pinned(default_digests):
    assert default_digests[0] == WITNESS_DIGEST


def test_default_tables_are_pinned(default_digests):
    assert default_digests[1] == TABLE_DIGEST


def test_default_walks_are_pinned(default_digests):
    assert default_digests[2] == WALK_DIGEST


def test_default_decisions_are_pinned(default_digests):
    assert default_digests[3] == DECISION_DIGEST


def test_arc_consistent_witnesses_are_pinned(arc_consistent_digests):
    assert arc_consistent_digests[0] == ARC_CONSISTENT_WITNESS_DIGEST


def test_arc_consistent_tables_are_pinned(arc_consistent_digests):
    assert arc_consistent_digests[1] == ARC_CONSISTENT_TABLE_DIGEST


def test_arc_consistent_walks_are_pinned(arc_consistent_digests):
    assert arc_consistent_digests[2] == ARC_CONSISTENT_WALK_DIGEST


def test_arc_consistent_decisions_are_pinned(arc_consistent_digests):
    assert arc_consistent_digests[3] == DECISION_DIGEST


def test_dp_walks_are_pinned(dp_digests):
    # the exit for one label a list moves no witness, table or decision
    assert dp_digests == (WITNESS_DIGEST, TABLE_DIGEST, DP_WALK_DIGEST, DECISION_DIGEST)


def test_arc_consistent_dp_walks_are_pinned(arc_consistent_dp_digests):
    assert arc_consistent_dp_digests == (ARC_CONSISTENT_WITNESS_DIGEST,
                                         ARC_CONSISTENT_TABLE_DIGEST,
                                         ARC_CONSISTENT_DP_WALK_DIGEST, DECISION_DIGEST)


def test_witness_walks_back_from_the_largest_labels_table():
    # arc consistency cuts label 2 from every list of this path, and no
    # label is free, so the lists stay {1, 3}: the first labeling is 1, 3,
    # 1 or 3, 1, 3, whose first complete level is the largest label's,
    # and the witness walks back from that table
    inst = uniform_instance(path_graph(3), {1, 2, 3}, {0, 1})
    pruned, label_map = gap_compression(inst)
    assert set(pruned.lam.values()) == {frozenset({1, 3})} and max(label_map) == 3
    result = solve(inst)
    assert result.decision and check_witness(inst, result.witness)
    (report,) = result.stats.components
    assert result.stats.levels == len(report.level_memo) == 3
    assert result.witness in ({1: 1, 2: 3, 3: 1}, {1: 3, 2: 1, 3: 3})


def test_solve_without_parent_storage_returns_no_witness():
    inst = uniform_instance(path_graph(2), {1, 2, 3}, {0, 1})
    result = solve(inst, options=SolveOptions(store_parents=False))
    assert result.decision and result.witness is None


def test_solve_resource_limit_is_not_a_no(monkeypatch):
    # this instance's pruned lists hold one label each: with the exit that
    # decides such lists closed its DP passes the cap, and open it has
    # more levels to record than the cap; criterion 7 always runs the DP
    inst = random_instance(n=7, density=0.3, tau=1, lmax=9, seed=42)
    assert all(map(decided_by_lists, solve(inst).stats.components))
    monkeypatch.setattr(solver_module, "ENTRY_LIMIT", 3)
    limit = sys.getrecursionlimit()
    with list_exit_off(), pytest.raises(ResourceLimitError, match="table nodes"):
        solve(inst)
    assert sys.getrecursionlimit() == limit  # restored on the way out
    with pytest.raises(ResourceLimitError, match="levels to record"):
        solve(inst)
    with pytest.raises(ResourceLimitError, match="table nodes"):
        solve(random_instance(n=16, density=0.3, tau=1, lmax=20, seed=2024))
    assert sys.getrecursionlimit() == limit


def test_lists_of_one_label_record_no_more_levels_than_the_cap(monkeypatch):
    # labels 1 and 201 with 199 forbidden keep tau at 199, so no gap
    # shrinks: 201 levels, each of which the DP would build at least one
    # node for, so it could record no more levels than the cap either
    inst = Instance(graph=path_graph(2), lam={1: frozenset({1}), 2: frozenset({201})},
                    t={(1, 2): frozenset({0, 199})})
    result = solve(inst)
    assert result.witness == {1: 1, 2: 201} and result.stats.levels == 201
    monkeypatch.setattr(solver_module, "ENTRY_LIMIT", 201)
    assert solve(inst).stats.levels == 201
    monkeypatch.setattr(solver_module, "ENTRY_LIMIT", 200)
    with pytest.raises(ResourceLimitError, match="201 levels"):
        solve(inst)


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


_WIDE = 1 << 12  # past instance._WIDEST_MASK: pruned on sets, with no free-label step


@st.composite
def _list_exit_cases(draw):
    """A random instance on at most 8 vertices."""
    return random_instance(n=draw(st.integers(1, 8)),
                           density=draw(st.sampled_from((0.2, 0.4, 0.7))),
                           tau=draw(st.integers(0, 3)), lmax=draw(st.integers(1, 7)),
                           seed=draw(st.integers(0, 10_000)))


def _outcome(result):
    """What a solve decides and finds, and the tables it records."""
    reports = result.stats.components
    return (result.decision, result.witness, result.stats.levels, result.stats.max_table_size,
            [c.level_sizes for c in reports], [c.level_nodes for c in reports])


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_list_exit_cases(), st.booleans())
@example(Instance(graph=Graph.from_edges(1, []), lam={1: frozenset({3, 5})}, t={}),
         True)  # an isolated vertex keeps its least label
@example(Instance(graph=path_graph(2), lam={1: frozenset({10}), 2: frozenset({200})},
                  t={(1, 2): frozenset({0, 1, 2})}), True)
@example(Instance(graph=path_graph(2), lam={1: frozenset({1}), 2: frozenset({_WIDE, _WIDE + 1})},
                  t={(1, 2): frozenset({0, _WIDE - 1})}), False)  # arc consistency alone
def test_lists_of_one_label_decide_a_component_as_the_dp_does(inst, parents):
    # where a component's pruned lists hold one label each, solve runs no
    # level and records the tables the DP builds: stepping ComponentDP
    # over the same pruned instance gives one vector per level, up to the
    # largest label
    options = SolveOptions(store_parents=parents)
    result = solve(inst, options=options)
    assert result.decision == brute_force_solve(inst)[0]
    assert not result.witness or check_witness(inst, result.witness)
    with list_exit_off():
        assert _outcome(solve(inst, options=options)) == _outcome(result)
    for sub, _ in split_components(inst):
        pruned, label_map = gap_compression(sub)
        if not label_map or not solver_module._decided_by_lists(pruned):
            continue
        dp = ComponentDP(pruned, walk_order(sub.graph))
        table, sizes, nodes = base_table(dp), [], []
        for k in range(1, max(label_map) + 1):
            table, size, count, _, _ = step(dp, table, k)
            sizes.append(size)
            nodes.append(count)
            assert len(table) == 1
        alone = solve(sub, options=options)
        report, = alone.stats.components
        assert alone.decision and alone.stats.levels == max(label_map)
        assert (report.level_sizes, report.level_nodes) == (sizes, nodes)
        assert report.level_memo == report.level_unions == [0] * len(sizes)
        with list_exit_off():
            assert _outcome(solve(sub, options=options)) == _outcome(alone)
        assert alone.witness == ({v: label_map[lab] for v, (lab,) in pruned.lam.items()}
                                 if parents else None)


def test_solve_stats_report_levels_and_sizes():
    # the labeling 1, 2, 1 is complete at level 2, where the solve stops
    inst = uniform_instance(path_graph(3), {1, 2, 3}, {0})
    result = solve(inst)
    assert result.stats.levels == 2
    assert len(result.stats.components) == 1
    assert len(result.stats.components[0].level_sizes) == 2
    assert len(result.stats.components[0].level_nodes) == 2
    assert len(result.stats.components[0].level_memo) == 2
    assert len(result.stats.components[0].level_unions) == 2
    assert result.stats.components[0].ordering == walk_order(inst.graph)
    assert all(entries > 0 for entries in result.stats.components[0].level_memo)
    assert result.stats.max_table_size == max(result.stats.components[0].level_sizes)


def test_solves_leave_no_reference_cycles():
    # every recursive walk ends its closure's cycle, so a solve frees its
    # memos on return and leaves nothing for the cyclic garbage collector;
    # the reference solvers, too
    two_parts = uniform_instance(Graph.from_edges(6, [(1, 2), (2, 3), (4, 5), (5, 6)]),
                                 {1, 2, 3}, {0, 1})
    cases = [
        (random_instance(n=7, density=0.5, tau=0, lmax=4, seed=61), SolveOptions()),
        (random_instance(n=7, density=0.5, tau=2, lmax=7, seed=62), SolveOptions()),
        (random_instance(n=8, density=0.4, tau=1, lmax=6, seed=63),
         SolveOptions(store_parents=False)),
        (random_instance(n=6, density=0.6, tau=3, lmax=8, seed=64), SolveOptions()),
        (uniform_instance(complete_graph(3), {1, 2}, {0}), SolveOptions()),
        (two_parts, SolveOptions()),
    ]
    assert any(solve(inst, options=opts).witness for inst, opts in cases)
    gc.collect()
    gc.disable()
    try:
        for inst, opts in cases:
            solve(inst, options=opts)
            brute_force_solve(inst)
            forward_checking_solve(inst)
        gc.set_debug(gc.DEBUG_SAVEALL)
        unreachable = gc.collect()
        closures = sorted({obj.__qualname__ for obj in gc.garbage
                           if isinstance(obj, types.FunctionType)})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert unreachable == 0, f"{unreachable} objects left in cycles; closures: {closures}"


def test_solve_runs_its_walks_with_the_collector_off_and_restores_it(monkeypatch):
    # the walks run with the cyclic collector off; after a YES, a NO and
    # a refused solve the caller's setting is back, whether it had the
    # collector on or off
    seen = []
    real_walk, real_limit = solver_module._level_walk, solver_module.ENTRY_LIMIT

    def recorded(*args):
        seen.append(gc.isenabled())
        return real_walk(*args)

    monkeypatch.setattr(solver_module, "_level_walk", recorded)
    yes = uniform_instance(path_graph(4), {1, 2, 3}, {0, 1})
    no = uniform_instance(complete_graph(3), {1, 2}, {0})
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            if enabled:
                gc.enable()
            else:
                gc.disable()
            result = solve(yes)
            assert result.decision and check_witness(yes, result.witness)
            assert gc.isenabled() == enabled
            result = solve(no)
            assert not result.decision and result.stats.levels > 0
            assert gc.isenabled() == enabled
            monkeypatch.setattr(solver_module, "ENTRY_LIMIT", 2)
            with pytest.raises(ResourceLimitError):
                solve(yes)
            assert gc.isenabled() == enabled
            monkeypatch.setattr(solver_module, "ENTRY_LIMIT", real_limit)
    finally:
        if was:
            gc.enable()
    assert len(seen) > 6 and not any(seen)


def test_a_long_path_stays_within_the_recursion_limit():
    # every walk takes one stack frame per position, so one level step
    # over 800 positions fits under the default limit of 1000 even
    # outside solve, which raises the limit by twice the vertices; the
    # path's tables hold up to 2**800 vectors in about 6,400 entries
    inst = uniform_instance(path_graph(800), {1, 2}, {0})
    dp = ComponentDP(inst, walk_order(inst.graph))
    table, size, _, _, _ = step(dp, base_table(dp), 1)
    assert size > 0
    limit = sys.getrecursionlimit()
    result = solve(inst)
    assert sys.getrecursionlimit() == limit
    assert result.decision and check_witness(inst, result.witness)


def test_a_70_vertex_tau_1_path_solves_past_a_machine_word():
    # the 800-vertex path is tau = 0, so no position waits in its walk
    # keys' pend bits; at tau = 1 over 70 positions pend and the free
    # positions reach past 64 bits, and the tables hold about 2**90
    # vectors; lists of 3 labels out of 5 give a YES, lists of 2 a NO
    graph = path_graph(70)
    for size, want in ((3, True), (2, False)):
        rng = random.Random(70)
        inst = Instance(graph=graph,
                        lam={v: frozenset(rng.sample(range(1, 6), size)) for v in range(1, 71)},
                        t={e: frozenset({0, 1}) for e in graph.edges})
        assert instance_tau(inst) == 1
        assert forward_checking_solve(inst)[0] == want
        for parents in (True, False):
            result = solve(inst, options=SolveOptions(store_parents=parents))
            assert result.decision == want
            if parents and want:
                assert check_witness(inst, result.witness)


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
