"""Data model, file format, validation, components, compression, reductions."""

import importlib
import itertools
import random
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gltc import (
    Graph,
    Instance,
    ParseError,
    brute_force_solve,
    check_witness,
    gap_compression,
    instance_tau,
    parse_instance,
    random_instance,
    reduce_channel,
    reduce_list_coloring,
    reduce_lpq,
    reduce_tcoloring,
    serialize_instance,
    solve,
    split_components,
    validate,
)
from gltc.instance import graph_square, induced_instance
from support import complete_graph, cycle_graph, free_labels_off, path_graph, uniform_instance


# --- parsing ---------------------------------------------------------------

def test_parse_smallest_instance():
    inst = parse_instance("gltc 1 0\nv 1 1 2\n")
    assert inst.graph.n == 1
    assert inst.graph.edges == frozenset()
    assert inst.lam[1] == frozenset({1, 2})


def test_parse_edge_sets_are_order_insensitive_and_deduplicated():
    inst = parse_instance("gltc 2 1\nv 1 1\nv 2 1\ne 2 1 1 0 1\n")
    assert inst.t[(1, 2)] == frozenset({0, 1})


def test_parse_missing_zero_in_difference_set():
    with pytest.raises(ParseError, match="0 not in difference set"):
        parse_instance("gltc 2 1\nv 1 1\nv 2 1\ne 1 2 1\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 3"):
        parse_instance("gltc 2 1\nv 1 1\nv 1 2\ne 1 2 0\n")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("v 1 1\n", "header"),
        ("gltc 1 0\nv 2 1\n", "out of range"),
        ("gltc 2 0\nv 1 1\nv 1 1\n", "duplicate vertex"),
        ("gltc 2 2\nv 1 1\nv 2 1\ne 1 2 0\ne 2 1 0\n", "duplicate edge"),
        ("gltc 2 1\nv 1 1\nv 2 1\ne 1 1 0\n", "self-loops"),
        ("gltc 2 1\nv 1 1\nv 2 1\nq 1 2\n", "unknown record"),
        ("gltc 2 1\nv 1 1\nv 2 1\n", "declares 1 edges"),
        ("gltc 2 0\nv 1 1\n", "missing vertex lines"),
        ("gltc 1 0\nv 1 0\n", "labels must be >= 1"),
        ("gltc 1 0\ngltc 1 0\nv 1 1\n", "duplicate gltc header"),
        ("gltc -1 0\n", "^line 1: counts must be nonnegative$"),
        ("gltc 1 -1\nv 1 1\n", "^line 1: counts must be nonnegative$"),
        ("gltc 1 0\nv\n", "^line 2: vertex line needs an id$"),
        ("gltc 2 1\nv 1 1\nv 2 1\ne 1\n", "^line 4: edge line needs two endpoints$"),
        ("# no header\n", "^missing 'gltc <n> <m>' header$"),
        ("", "^missing 'gltc <n> <m>' header$"),
    ],
)
def test_parse_rejects_malformed_documents(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_instance(text)


def test_parse_clips_a_long_unknown_record_kind():
    with pytest.raises(ParseError) as info:
        parse_instance("gltc 1 0\n" + "x" * 100000 + "\n")
    message = str(info.value)
    assert len(message) < 100
    assert message.startswith("line 2: unknown record 'xxxx")
    with pytest.raises(ParseError, match="line 3: unknown record 'edge'$"):
        parse_instance("gltc 1 0\nv 1 1\nedge 1 2\n")


@pytest.mark.parametrize("text", [
    "gltc 1 0\nv " + "9" * 4300 + " 1\n",
    "gltc " + "9" * 4300 + " 0\nv 2 1\n",
    "gltc 2 1\nv 1 1\nv 2 1\ne 1 " + "9" * 4300 + " 0\n",
], ids=["vertex-id", "header-count", "edge-endpoint"])
def test_parse_clips_a_long_integer(text):
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    message = str(info.value)
    assert len(message) < 100
    assert "9" * 20 + "..." in message and "9" * 21 not in message


def test_parse_names_only_the_first_missing_vertex_ids():
    with pytest.raises(ParseError) as info:
        parse_instance("gltc 3000000 0\nv 2 1\n")
    message = str(info.value)
    assert len(message) < 200
    assert "2999999" in message and "[1, 3, 4, 5, 6]" in message


def test_parse_accepts_comments_blank_lines_and_extra_spaces():
    text = "# header\n\ngltc  2\t1\n v 1  1 2\nv 2 2\n\ne 1 2  0\n# done\n"
    inst = parse_instance(text)
    assert inst.lam[1] == frozenset({1, 2})


def test_serialize_round_trip_is_canonical():
    doc = "gltc 3 2\nv 1 1 2\nv 2 1\nv 3 2 5\ne 1 2 0 1\ne 2 3 0\n"
    inst = parse_instance(doc)
    assert serialize_instance(inst) == doc
    again = parse_instance(serialize_instance(inst))
    assert again == inst


def test_round_trip_on_random_instances():
    for seed in range(10):
        inst = random_instance(n=6, density=0.5, tau=2, lmax=7, seed=seed)
        assert parse_instance(serialize_instance(inst)) == inst


@st.composite
def _documents(draw):
    """Any instance on at most 8 vertices: empty label lists, labels far
    apart and wide difference sets included."""
    n = draw(st.integers(0, 8))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    labels = st.frozensets(st.integers(1, 60), max_size=6)
    lam = {v: draw(labels) for v in range(1, n + 1)}
    t = {tuple(sorted(e)): frozenset({0}) | draw(st.frozensets(st.integers(1, 20), max_size=4))
         for e in edges}
    return Instance(graph=Graph.from_edges(n, t), lam=lam, t=t)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_documents())
def test_parse_inverts_serialize(inst):
    assert parse_instance(serialize_instance(inst)) == inst


# What a mutation splices into a document: record kinds, separators,
# comment marks, signs, other digit forms and numbers past any list size.
_SPLICES = ("v", "e", "gltc", " ", "\t", "\n", "\r", "#", "-", "+", "0", "1", "7", "-3",
            "99999999999999999999", "x", "0x1", "1_0", "\u0661", "1e3", "v 1", "e 1 2 0",
            "gltc 2 1")


@st.composite
def _mutated_documents(draw):
    """A serialized instance after one to four edits: a run of characters
    deleted, a piece spliced in, a token dropped, or a line duplicated or
    moved."""
    text = serialize_instance(draw(_documents()))
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(("delete", "splice", "drop", "duplicate", "move")))
        if edit in ("delete", "splice"):
            i = draw(st.integers(0, len(text)))
            if edit == "delete":
                text = text[:i] + text[draw(st.integers(i, min(len(text), i + 8))):]
            else:
                text = text[:i] + draw(st.sampled_from(_SPLICES) | st.text(max_size=3)) + text[i:]
            continue
        lines = text.split("\n")
        at = draw(st.integers(0, len(lines) - 1))
        if edit == "drop":
            tokens = lines[at].split()
            if tokens:
                del tokens[draw(st.integers(0, len(tokens) - 1))]
            lines[at] = " ".join(tokens)
        elif edit == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[at])
        else:
            line = lines.pop(at)
            lines.insert(draw(st.integers(0, len(lines))), line)
        text = "\n".join(lines)
    return text


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_mutated_documents())
# one edit each away from a valid document, and each a check that the
# Instance and Graph constructors repeat with ValueError
@example("gltc 2 1\nv 1 1\nv 2 1\ne 1 2\n")        # the 0 dropped
@example("gltc 2 1\nv 1 1\nv 2 1\ne 1 2 0 -3\n")   # a negative difference
@example("gltc 2 1\nv 1 1\nv 2 -1\ne 1 2 0\n")     # a label below 1
@example("gltc 2 1\nv 1 1\nv 2 1\ne 2 2 0\n")      # a self-loop
@example("gltc 2 1\nv 1 1\nv 2 1\ne 1 3 0\n")      # an endpoint out of range
@example("gltc 2 2\nv 1 1\nv 2 1\ne 1 2 0\ne 2 1 0\n")  # an edge twice
def test_mutated_documents_parse_or_raise_parse_error(text):
    # ROADMAP item 5: bad input gets a bounded ParseError, never another
    # exception; whatever does parse is an instance that round-trips
    try:
        inst = parse_instance(text)
    except ParseError:
        return
    assert parse_instance(serialize_instance(inst)) == inst


def test_empty_label_list_is_parseable():
    inst = parse_instance("gltc 1 0\nv 1\n")
    assert inst.lam[1] == frozenset()
    assert validate(inst).empty_lists == (1,)


# --- validation ------------------------------------------------------------

def test_validate_reads_off_tau_and_lambda_max():
    inst = uniform_instance(path_graph(2), {1, 2, 3}, {0, 1})
    stats = validate(inst)
    assert stats.tau == 1 and stats.lambda_max == 3 and stats.connected


def test_validate_edgeless_pair_is_disconnected():
    inst = uniform_instance(Graph.from_edges(2, []), {1}, set())
    assert not validate(inst).connected


def test_validate_uhf_interference_set():
    inst = uniform_instance(path_graph(2), {1}, {0, 7, 14, 15})
    assert validate(inst).tau == 15


# --- components ------------------------------------------------------------

def test_components_of_connected_graph():
    inst = uniform_instance(path_graph(3), {1, 2}, {0})
    comps = split_components(inst)
    assert len(comps) == 1
    assert comps[0] == (inst, {1: 1, 2: 2, 3: 3})


def test_components_of_isolated_vertices():
    inst = uniform_instance(Graph.from_edges(2, []), {1}, set())
    comps = split_components(inst)
    assert [(c.graph.n, idmap) for c, idmap in comps] == [(1, {1: 1}), (1, {1: 2})]


def test_components_of_disjoint_paths():
    g = Graph.from_edges(5, [(1, 2), (3, 4), (4, 5)])
    inst = uniform_instance(g, {1, 2, 3}, {0})
    comps = split_components(inst)
    assert comps == [
        (uniform_instance(path_graph(2), {1, 2, 3}, {0}), {1: 1, 2: 2}),
        (uniform_instance(path_graph(3), {1, 2, 3}, {0}), {1: 3, 2: 4, 3: 5}),
    ]


def test_connected_solve_copies_no_sub_instance(monkeypatch):
    import gltc.instance

    calls = []
    copy = gltc.instance.induced_instance

    def counted(inst, vertices):
        calls.append(tuple(vertices))
        return copy(inst, vertices)

    monkeypatch.setattr(gltc.instance, "induced_instance", counted)
    inst = uniform_instance(cycle_graph(5), {1, 2, 3}, {0})
    assert split_components(inst)[0][0] is inst
    result = solve(inst, strategy="star")
    assert result.decision and calls == []
    # a disconnected instance is still copied once per component
    g = Graph.from_edges(5, [(1, 2), (3, 4), (4, 5)])
    assert solve(uniform_instance(g, {1, 2}, {0}), strategy="star").decision
    assert calls == [(1, 2), (3, 4, 5)]


def _assert_as_if_checked(inst):
    """``inst`` equals its own data rebuilt through the checked public
    constructors, adjacency included."""
    rebuilt = Instance(graph=Graph(n=inst.graph.n, edges=frozenset(inst.t)),
                       lam=dict(inst.lam), t=dict(inst.t))
    assert inst == rebuilt
    assert inst.graph.adjacency == rebuilt.graph.adjacency


def _assert_derived_as_if_checked(inst, rng):
    """parse_instance, split_components, induced_instance on a random
    vertex subset and gap_compression build what the checked constructors
    would from the same data."""
    _assert_as_if_checked(inst)
    _assert_as_if_checked(gap_compression(inst)[0])
    for sub, _ in split_components(inst):
        _assert_as_if_checked(sub)
        _assert_as_if_checked(gap_compression(sub)[0])
    subset = [v for v in range(1, inst.graph.n + 1) if rng.random() < 0.6]
    _assert_as_if_checked(induced_instance(inst, subset)[0])


def test_unchecked_instances_equal_checked_ones_on_random_instances():
    rng = random.Random(23)
    for seed in range(80):
        # density 0 and 0.15 give disconnected instances, n = 0 the empty one
        inst = random_instance(n=seed % 13, density=(0.0, 0.15, 0.3, 0.6)[seed % 4], tau=seed % 4,
                               lmax=2 + seed % 6, seed=2300 + seed)
        parsed = parse_instance(serialize_instance(inst))
        assert parsed == inst
        _assert_derived_as_if_checked(parsed, rng)


def test_unchecked_instances_equal_checked_ones_on_the_benchmark_corpora(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    rng = random.Random(2024)
    for name in sorted(workloads.WORKLOADS):
        for item in workloads.WORKLOADS[name](2024):
            _assert_derived_as_if_checked(parse_instance(item.text), rng)


# --- gap compression -------------------------------------------------------

def test_compress_leaves_dense_lists_alone():
    inst = uniform_instance(path_graph(2), {1, 2, 3, 4}, {0, 1})
    assert gap_compression(inst)[0] is inst


def test_compress_empties_an_arc_inconsistent_component():
    # labels 1 and 2 cannot sit on an edge that forbids differences 0 and 1
    inst = uniform_instance(path_graph(2), {1, 2}, {0, 1})
    out, new_to_old = gap_compression(inst)
    assert out.lam == {1: frozenset(), 2: frozenset()} and new_to_old == {}


def _kept_labels(inst):
    """Each vertex's labels that gap_compression keeps, in the old numbering."""
    out, new_to_old = gap_compression(inst)
    return {v: {new_to_old[lab] for lab in labels} for v, labels in out.lam.items()}


def _assert_arc_consistent(inst, kept):
    """Every label of the lists ``kept`` has support on every edge."""
    for (u, w), diffs in inst.t.items():
        for a, b in ((u, w), (w, u)):
            assert all(any(abs(x - y) not in diffs for y in kept[b]) for x in kept[a])


def test_pruned_labels_are_in_no_proper_labeling():
    # with the free-label step off, a label arc consistency drops is in no
    # proper labeling; by default a list may also be cut to one free label,
    # a subset of what arc consistency leaves, which stays arc consistent
    removed = 0
    arc_consistent = []
    with free_labels_off():
        for seed in range(60):
            inst = random_instance(n=3 + seed % 5, density=0.6, tau=1 + seed % 3, lmax=6,
                                   seed=seed)
            kept = _kept_labels(inst)
            arc_consistent.append(kept)
            for v, labels in inst.lam.items():
                for lab in labels - kept[v]:
                    # pinned to a pruned label, the vertex leaves no proper labeling
                    pinned = Instance(graph=inst.graph, lam={**inst.lam, v: frozenset({lab})},
                                      t=inst.t)
                    assert brute_force_solve(pinned) == (False, None), (seed, v, lab)
                    removed += 1
            # the pruned lists are a fixpoint: every kept label has support on every edge
            _assert_arc_consistent(inst, kept)
            assert solve(inst).decision == brute_force_solve(inst)[0]
    assert removed >= 200
    cut = 0
    for seed in range(60):
        inst = random_instance(n=3 + seed % 5, density=0.6, tau=1 + seed % 3, lmax=6, seed=seed)
        kept = _kept_labels(inst)
        for v, labels in kept.items():
            assert labels <= arc_consistent[seed][v]
            if labels != arc_consistent[seed][v]:
                assert len(labels) == 1
                cut += 1
        _assert_arc_consistent(inst, kept)
        assert solve(inst).decision == brute_force_solve(inst)[0]
    assert cut == 56


def test_an_emptied_list_empties_its_whole_component():
    # 1 and 2 lose every label on their edge, and the loss runs down the
    # path; the lists of 3..5 are long enough to be left unchecked at first
    g = Graph.from_edges(7, [(1, 2), (2, 3), (3, 4), (4, 5), (6, 7)])
    lam = {v: frozenset({1, 2, 3, 4}) for v in range(1, 8)}
    lam[1] = lam[2] = frozenset({1, 2})
    inst = Instance(graph=g, lam=lam, t={e: frozenset({0, 1}) for e in g.edges})
    assert _kept_labels(inst) == {**{v: set() for v in range(1, 6)}, 6: {1, 2, 3, 4}, 7: {1, 2, 3, 4}}
    component, _ = split_components(inst)[0]
    out, new_to_old = gap_compression(component)
    assert not any(out.lam.values()) and new_to_old == {}


def test_compress_shrinks_internal_gap():
    g = path_graph(2)
    inst = Instance(graph=g, lam={1: frozenset({1}), 2: frozenset({100})},
                    t={(1, 2): frozenset({0, 1})})
    out = gap_compression(inst)[0]
    assert out.lam[1] == frozenset({1})
    assert out.lam[2] == frozenset({3})


def test_compress_drops_leading_gap_entirely():
    inst = Instance(graph=path_graph(1), lam={1: frozenset({5})}, t={})
    assert gap_compression(inst)[0].lam[1] == frozenset({1})


def test_compress_keeps_small_differences_exact():
    g = path_graph(2)
    inst = Instance(graph=g, lam={1: frozenset({4, 90}), 2: frozenset({5, 91})},
                    t={(1, 2): frozenset({0, 1, 2})})
    out, new_to_old = gap_compression(inst)
    assert out.lam[1] == frozenset({1, 5})
    assert out.lam[2] == frozenset({2, 6})
    assert new_to_old[5] == 90 and new_to_old[1] == 4


def test_compress_preserves_oracle_decision():
    for seed in range(30):
        inst = random_instance(n=5, density=0.6, tau=2, lmax=12, seed=seed)
        # spread the labels out to create compressible gaps
        lam = {v: frozenset(lab * 7 for lab in labels) for v, labels in inst.lam.items()}
        spread = Instance(graph=inst.graph, lam=lam, t=inst.t)
        assert brute_force_solve(gap_compression(spread)[0])[0] == brute_force_solve(spread)[0]


def test_compress_drops_differences_beyond_the_label_span():
    # edge 1-2 spans at most 1 and edge 2-3 at most max(6 - 1, 2 - 6) = 5;
    # no label loses its support, and the gap 2..6 survives as tau is 3
    g = path_graph(3)
    lam = {1: frozenset({1, 2}), 2: frozenset({1, 2}), 3: frozenset({6})}
    inst = Instance(graph=g, lam=lam, t={(1, 2): frozenset({0, 10**6}),
                                         (2, 3): frozenset({0, 3, 6, 9})})
    out, new_to_old = gap_compression(inst)
    assert out.t == {(1, 2): frozenset({0}), (2, 3): frozenset({0, 3})}
    assert out.lam == lam and new_to_old == {1: 1, 2: 2, 6: 6}


def test_differences_beyond_the_label_span_change_no_decision():
    # every edge gets a huge difference and one at or just past the
    # largest span the lists allow: the compressed tau stays below lmax
    # (0 where pruning empties the lists) and every decision matches the
    # oracle on the widened instance
    answers = set()
    for seed in range(40):
        lmax = 4 + seed % 3
        inst = random_instance(n=3 + seed % 5, density=0.5, tau=seed % 3, lmax=lmax,
                               seed=2600 + seed)
        t = {e: diffs | {10 ** (3 + i % 7), lmax - 1 + i % 2}
             for i, (e, diffs) in enumerate(sorted(inst.t.items()))}
        wide = Instance(graph=inst.graph, lam=inst.lam, t=t)
        assert instance_tau(gap_compression(wide)[0]) < lmax
        result = solve(wide)
        assert result.decision == brute_force_solve(wide)[0], seed
        if result.decision:
            assert check_witness(wide, result.witness)
        answers.add(result.decision)
    assert answers == {True, False}


def test_labels_past_the_widest_mask_compress_as_narrow_ones():
    # labels 7 apart and labels 10**9 apart past 10**12 keep no difference
    # that T forbids but 0 (tau <= 3), so the two compress to the same
    # instance: the pruning steps read the labels only through their
    # differences
    for seed in range(40):
        inst = random_instance(n=2 + seed % 7, density=0.6, tau=seed % 4, lmax=6, seed=2700 + seed)
        narrow = Instance(graph=inst.graph, t=inst.t,
                          lam={v: frozenset(7 * lab for lab in labels)
                               for v, labels in inst.lam.items()})
        wide = Instance(graph=inst.graph, t=inst.t,
                        lam={v: frozenset(10**12 + 10**9 * lab for lab in labels)
                             for v, labels in inst.lam.items()})
        out, new_to_old = gap_compression(narrow)
        wide_out, wide_new_to_old = gap_compression(wide)
        assert wide_out == out
        assert {new: (old - 10**12) // 10**9 for new, old in wide_new_to_old.items()} == \
            {new: old // 7 for new, old in new_to_old.items()}
        result = solve(wide)
        assert result.decision == brute_force_solve(narrow)[0], seed
        assert not result.decision or check_witness(wide, result.witness)


def test_a_list_beside_a_wide_difference_keeps_its_least_free_label():
    # arc consistency keeps every label and with it the span of 10**12;
    # vertex 3 then keeps 5, free beside vertex 1's {1, 2}, however wide
    # the other lists are
    big = 10**12
    inst = parse_instance(f"gltc 3 2\nv 1 1 2\nv 2 {big} {big + 1}\nv 3 5 7\n"
                          f"e 1 2 0 {big - 1}\ne 1 3 0\n")
    assert _kept_labels(inst) == {1: {1, 2}, 2: {big, big + 1}, 3: {5}}
    with free_labels_off():
        assert _kept_labels(inst)[3] == {5, 7}


# --- free labels -----------------------------------------------------------

_FREE_LABEL_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                                database=None)


@st.composite
def _small_instances(draw):
    """A random instance on at most 8 vertices, in reach of brute force."""
    return random_instance(n=draw(st.integers(1, 8)),
                           density=draw(st.sampled_from((0.2, 0.4, 0.6, 0.8))),
                           tau=draw(st.integers(0, 3)), lmax=draw(st.integers(1, 9)),
                           seed=draw(st.integers(0, 10_000)))


_FREE_PENDANT = Instance(graph=path_graph(2), lam={1: frozenset({1, 2}), 2: frozenset({1, 2, 3, 4})},
                         t={(1, 2): frozenset({0, 1})})


@_FREE_LABEL_SETTINGS
@given(_small_instances())
@example(_FREE_PENDANT)
def test_a_dropped_free_label_leaves_one_label_beside_no_conflict(inst):
    # against the lists arc consistency alone leaves, each list the
    # free-label step shrinks keeps one label, which lies at no forbidden
    # difference from any label on a neighbour's final list
    with free_labels_off():
        arc_consistent = _kept_labels(inst)
    kept = _kept_labels(inst)
    for v, labels in kept.items():
        assert labels <= arc_consistent[v]
        if labels != arc_consistent[v]:
            (a,) = labels
            assert all(abs(a - b) not in inst.t_of(u, v)
                       for u in inst.graph.adjacency[v] for b in kept[u])


@_FREE_LABEL_SETTINGS
@given(_small_instances())
@example(_FREE_PENDANT)
def test_free_labels_keep_every_decision(inst):
    result = solve(inst)
    assert result.decision == brute_force_solve(inst)[0]
    assert not result.decision or check_witness(inst, result.witness)


@_FREE_LABEL_SETTINGS
@given(_small_instances())
@example(_FREE_PENDANT)
def test_a_second_gap_compression_changes_no_list(inst):
    out = gap_compression(inst)[0]
    again, new_to_old = gap_compression(out)
    assert again.lam == out.lam and again.t == out.t
    assert all(new == old for new, old in new_to_old.items())


def test_the_free_pendant_keeps_its_least_free_label():
    # arc consistency leaves vertex 2 with {3, 4}; vertex 1, visited
    # first, has 1 and 2 free beside both and keeps 1, and vertex 2 then
    # keeps 3, free beside 1. Visited the other way round, vertex 2 would
    # keep 4, the one label free beside {1, 2}: the fixpoint follows the order
    assert _kept_labels(_FREE_PENDANT) == {1: {1}, 2: {3}}



def _descending_chain(n):
    """A triangle 1-2-3 and the path 3-4-...-n, T = {0}, where only vertex
    n starts with a free label and each cut frees a label of the next
    lower vertex, down to 3: lists of two of the labels 1, 2, 3 that
    cycle {2, 3}, {1, 3}, {1, 2} from vertex 3, and {1, 2} on 1 and 2."""
    edges = [(1, 2), (1, 3), (2, 3)] + [(v, v + 1) for v in range(3, n)]
    cycle = ({2, 3}, {1, 3}, {1, 2})
    lam = {1: frozenset({1, 2}), 2: frozenset({1, 2})}
    lam.update({v: frozenset(cycle[(v - 3) % 3]) for v in range(3, n + 1)})
    return Instance(graph=Graph.from_edges(n, edges), lam=lam,
                    t={e: frozenset({0}) for e in edges})


def test_a_cut_revisits_only_its_neighbours():
    # every list has 2 = 2|T| labels, so arc consistency checks no arc;
    # the free-label cuts run from vertex n down to 3, one per pass, so
    # passes over every vertex would make about n**2 / 2 vertex checks,
    # seconds of work, where revisiting only a cut's neighbours makes
    # about 2n, milliseconds
    n = 5003
    inst = _descending_chain(n)
    start = time.perf_counter()
    kept = _kept_labels(inst)
    assert time.perf_counter() - start < 1.0
    assert kept[1] == kept[2] == {1, 2}
    assert all(kept[v] == {(3, 1, 2)[(v - 3) % 3]} for v in range(3, n + 1))


# --- graph square ----------------------------------------------------------

def test_square_of_path3_is_triangle():
    assert graph_square(path_graph(3)).edges == complete_graph(3).edges


def test_square_of_k2_is_k2():
    assert graph_square(path_graph(2)).edges == path_graph(2).edges


def test_square_of_c5_is_k5():
    assert graph_square(cycle_graph(5)).edges == complete_graph(5).edges


def test_square_is_idempotent_on_complete_graphs():
    k4 = complete_graph(4)
    assert graph_square(k4).edges == k4.edges


def test_square_never_loses_edges():
    for seed in range(10):
        g = random_instance(n=7, density=0.3, tau=0, lmax=1, seed=seed).graph
        assert len(graph_square(g).edges) >= len(g.edges)


# --- reductions ------------------------------------------------------------

def _lists(g, labels):
    return {v: frozenset(labels) for v in range(1, g.n + 1)}


def test_list_coloring_reduction():
    tri = complete_graph(3)
    yes = reduce_list_coloring(tri, _lists(tri, {1, 2, 3}))
    assert all(diffs == frozenset({0}) for diffs in yes.t.values())
    assert brute_force_solve(yes)[0]
    no = reduce_list_coloring(tri, _lists(tri, {1, 2}))
    assert not brute_force_solve(no)[0]
    single = reduce_list_coloring(path_graph(2), _lists(path_graph(2), {1}))
    assert not brute_force_solve(single)[0]


def test_lpq_reduction_structure():
    inst = reduce_lpq(path_graph(3), 2, 1, _lists(path_graph(3), {1, 2, 3}))
    assert inst.graph.edges == complete_graph(3).edges
    assert inst.t[(1, 2)] == frozenset({0, 1})
    assert inst.t[(2, 3)] == frozenset({0, 1})
    assert inst.t[(1, 3)] == frozenset({0})
    # brute force over all 27 labelings: the middle vertex needs a label two
    # away from both ends inside {1,2,3}, which cannot be done
    assert not brute_force_solve(inst)[0]
    wider = reduce_lpq(path_graph(3), 2, 1, _lists(path_graph(3), {1, 2, 3, 4}))
    decision, witness = brute_force_solve(wider)
    assert decision and witness == {1: 1, 2: 4, 3: 2}


def test_lpq_reduction_without_distance_two_pairs():
    inst = reduce_lpq(path_graph(2), 2, 1, _lists(path_graph(2), {1, 2, 3}))
    assert inst.graph.edges == path_graph(2).edges
    assert inst.t[(1, 2)] == frozenset({0, 1})


def test_lpq_rejects_p_smaller_than_q():
    with pytest.raises(ValueError):
        reduce_lpq(path_graph(2), 1, 2, _lists(path_graph(2), {1}))


def test_channel_reduction():
    g = path_graph(2)
    inst = reduce_channel(g, {(1, 2): 3}, _lists(g, {1, 2, 3}))
    assert inst.t[(1, 2)] == frozenset({0, 1, 2})
    unit = reduce_channel(g, {(1, 2): 1}, _lists(g, {1, 2, 3}))
    assert unit.t[(1, 2)] == frozenset({0})
    two = reduce_channel(g, {(1, 2): 2}, _lists(g, {1, 2, 3}))
    decision, witness = brute_force_solve(two)
    assert decision and witness in ({1: 1, 2: 3}, {1: 3, 2: 1})
    with pytest.raises(ValueError):
        reduce_channel(g, {(1, 2): 0}, _lists(g, {1}))


def test_channel_reduction_names_an_edge_with_no_weight():
    g = path_graph(3)
    with pytest.raises(ValueError, match="edge 2-3"):
        reduce_channel(g, {(1, 2): 2}, _lists(g, {1, 2}))


def test_tcoloring_reduction():
    g = path_graph(2)
    uhf = reduce_tcoloring(g, {0, 7, 14, 15}, _lists(g, {1}))
    assert validate(uhf).tau == 15
    yes = reduce_tcoloring(g, {0, 2}, _lists(g, {1, 2, 3, 4}))
    assert brute_force_solve(yes)[0]
    no = reduce_tcoloring(g, {0, 1, 2, 3}, _lists(g, {1, 2, 3, 4}))
    assert not brute_force_solve(no)[0]
    with pytest.raises(ValueError):
        reduce_tcoloring(g, {1, 2}, _lists(g, {1}))


def test_all_reductions_keep_zero_in_every_difference_set():
    g = cycle_graph(5)
    lam = _lists(g, {1, 2, 3})
    produced = [
        reduce_list_coloring(g, lam),
        reduce_lpq(g, 2, 1, lam),
        reduce_channel(g, {e: 2 for e in g.edges}, lam),
        reduce_tcoloring(g, {0, 3}, lam),
    ]
    for inst in produced:
        assert all(0 in diffs for diffs in inst.t.values())


# --- graph construction errors --------------------------------------------

@pytest.mark.parametrize("n, edges, message", [
    (-1, [], "vertex count must be nonnegative"),
    (2, [(2, 1)], "edge 2-1: edges must be stored as (min, max)"),
], ids=["negative_n", "max_min_edge"])
def test_graph_checks_its_fields(n, edges, message):
    # Graph.from_edges orders each edge itself; the constructor refuses one
    # stored the other way round. The other edge checks are
    # test_graph_rejects_bad_edges
    with pytest.raises(ValueError) as info:
        Graph(n=n, edges=frozenset(edges))
    assert str(info.value) == message


@pytest.mark.parametrize("lam, t, message", [
    ({1: {1}}, {(1, 2): {0}}, "label lists must cover exactly the vertices 1..n"),
    ({1: {0, 1}, 2: {1}}, {(1, 2): {0}}, "vertex 1: labels must be >= 1"),
    ({1: {1}, 2: {1}}, {}, "difference sets must cover exactly the edge set"),
    ({1: {1}, 2: {1}}, {(1, 2): {1}}, "edge 1-2: 0 not in difference set"),
    ({1: {1}, 2: {1}}, {(1, 2): {0, -1}}, "edge 1-2: differences must be >= 0"),
], ids=["lists_miss_a_vertex", "label_below_1", "sets_miss_an_edge", "no_0", "negative_difference"])
def test_instance_checks_its_fields(lam, t, message):
    lam = {v: frozenset(labels) for v, labels in lam.items()}
    t = {e: frozenset(diffs) for e, diffs in t.items()}
    with pytest.raises(ValueError) as info:
        Instance(graph=path_graph(2), lam=lam, t=t)
    assert str(info.value) == message


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError, match="duplicate edge"):
        Graph.from_edges(2, [(1, 2), (2, 1)])
    with pytest.raises(ValueError, match="self-loops"):
        Graph.from_edges(2, [(1, 1)])
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(2, [(1, 3)])
