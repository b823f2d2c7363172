"""The reference solvers: brute force, inclusion-exclusion for tau = 0 and
forward checking, each against the others and against solve."""

import random

import pytest

from gltc import (
    Graph,
    Instance,
    brute_force_solve,
    check_witness,
    gap_compression,
    instance_tau,
    random_instance,
    solve,
    validate,
)
from gltc.reference import (
    extension_predicate,
    forward_checking_solve,
    inclusion_exclusion_list_coloring,
)
from support import (complete_graph, cycle_graph, every_level_sizes, free_labels_off, path_graph,
                     uniform_instance)


def test_k2_yes_witness_checks_out():
    inst = uniform_instance(path_graph(2), {1, 2, 3}, {0, 1})
    decision, witness = brute_force_solve(inst)
    assert decision and check_witness(inst, witness)
    assert witness == {1: 1, 2: 3}  # ascending trial order finds this one first


def test_triangle_two_colors_is_no():
    inst = uniform_instance(complete_graph(3), {1, 2}, {0})
    assert brute_force_solve(inst) == (False, None)


def test_empty_list_short_circuits():
    inst = Instance(graph=path_graph(1), lam={1: frozenset()}, t={})
    assert brute_force_solve(inst) == (False, None)


def test_extension_predicate():
    inst = uniform_instance(path_graph(2), {1, 2, 3, 4}, {0, 1})
    assert extension_predicate({}, 1, 2, inst)
    assert not extension_predicate({}, 1, 9, inst)       # not on the list
    assert not extension_predicate({2: 3}, 1, 4, inst)   # difference 1 forbidden
    assert extension_predicate({2: 3}, 1, 1, inst)


def test_decision_is_invariant_under_vertex_relabeling():
    rng = random.Random(7)
    for seed in range(15):
        inst = random_instance(n=6, density=0.5, tau=2, lmax=6, seed=seed)
        perm = list(range(1, 7))
        rng.shuffle(perm)
        mapping = {v: perm[v - 1] for v in range(1, 7)}
        edges = {tuple(sorted((mapping[u], mapping[v]))): diffs
                 for (u, v), diffs in inst.t.items()}
        shuffled = Instance(
            graph=Graph.from_edges(6, edges),
            lam={mapping[v]: labels for v, labels in inst.lam.items()},
            t=edges,
        )
        assert brute_force_solve(inst)[0] == brute_force_solve(shuffled)[0]


def test_decision_is_invariant_under_reversed_trial_order():
    for seed in range(20):
        inst = random_instance(n=5, density=0.6, tau=1, lmax=6, seed=100 + seed)
        ascending = brute_force_solve(inst)
        descending = brute_force_solve(inst, descending=True)
        assert ascending[0] == descending[0]
        if ascending[0]:
            assert check_witness(inst, ascending[1])
            assert check_witness(inst, descending[1])


def test_inclusion_exclusion_equals_brute_force_on_small_list_colorings():
    answers = set()
    for seed in range(120):
        inst = random_instance(n=1 + seed % 8, density=(0.3, 0.6, 0.9)[seed % 3], tau=0,
                               lmax=1 + seed % 5, seed=seed)
        answer = inclusion_exclusion_list_coloring(inst)
        assert answer == brute_force_solve(inst)[0], seed
        answers.add(answer)
    assert answers == {True, False}
    with pytest.raises(ValueError, match="tau = 0"):
        inclusion_exclusion_list_coloring(uniform_instance(path_graph(2), {1, 2}, {0, 1}))


# n 9..14: past the reach of brute force (criterion 1 stops at n = 8)
_LIST_COLORING_SEEDS = range(14_000, 14_060)


def test_solve_equals_inclusion_exclusion_beyond_brute_force():
    answers = set()
    for i, seed in enumerate(_LIST_COLORING_SEEDS):
        inst = random_instance(n=9 + i % 6, density=(0.3, 0.45, 0.6)[i % 3], tau=0,
                               lmax=4 + i % 5, seed=seed)
        result = solve(inst)
        assert result.decision == inclusion_exclusion_list_coloring(inst), seed
        if result.decision:
            assert check_witness(inst, result.witness)
        answers.add(result.decision)
    assert answers == {True, False}


def test_forward_checking_equals_brute_force_on_small_instances():
    answers = set()
    for seed in range(150):
        inst = random_instance(n=1 + seed % 8, density=(0.2, 0.5, 0.8)[seed % 3],
                               tau=seed % 4, lmax=2 + seed % 7, seed=7000 + seed)
        decision, witness = forward_checking_solve(inst)
        assert decision == brute_force_solve(inst)[0], seed
        assert witness is None if not decision else check_witness(inst, witness)
        answers.add(decision)
    assert answers == {True, False}
    empty = Instance(graph=path_graph(2), lam={1: frozenset(), 2: frozenset({1})},
                     t={(1, 2): frozenset({0})})
    assert forward_checking_solve(empty) == (False, None)


def _forward_checking_case(i):
    """The i-th instance of a schedule with n 12..18, tau 1..3, density
    0.3..0.5 and lmax n // 2: past brute force, easy for search."""
    n = 12 + i % 7
    return random_instance(n=n, density=(0.3, 0.4, 0.5)[i // 7 % 3], tau=1 + i % 3,
                           lmax=n // 2, seed=31_000 + i)


# The cases of range(63) that solve in at most about 0.2 s each. The other
# cases agreed with forward checking too, but take up to 7 s each.
_FORWARD_CHECKING_CASES = (0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 12, 14, 16, 22, 23, 25, 26,
                           27, 39, 44, 46, 47, 48, 54, 59, 61)


def test_solve_equals_forward_checking_past_brute_force():
    answers = set()
    for i in _FORWARD_CHECKING_CASES:
        inst = _forward_checking_case(i)
        decision, witness = forward_checking_solve(inst)
        result = solve(inst)
        assert result.decision == decision, i
        if decision:
            assert check_witness(inst, witness) and check_witness(inst, result.witness)
        answers.add(decision)
        assert 12 <= inst.graph.n <= 18 and 1 <= instance_tau(inst) <= 3
    assert answers == {True, False}


def _levels_to_the_last_label(inst):
    return validate(gap_compression(inst)[0]).lambda_max


@pytest.mark.parametrize("inst", [
    # labels 1..4 two apart form the path 3-1-4-2, so no odd cycle maps to it
    uniform_instance(cycle_graph(15), set(range(1, 5)), {0, 1}),
    # four pairwise labels three apart need 1, 4, 7, 10
    uniform_instance(complete_graph(4), set(range(1, 10)), {0, 1, 2}),
    _forward_checking_case(26),
    _forward_checking_case(59),
    # ROADMAP item 11's family at n = 24: 12 levels, about 0.7 s (2-core box,
    # CPython 3.11)
    random_instance(n=24, density=0.4, tau=2, lmax=12, seed=1),
], ids=["odd-cycle-tau1", "k4-tau2", "case-26-tau3", "case-59-tau3", "n24-d0.4-t2-s1"])
def test_no_instances_run_every_level(inst):
    # a NO component ends on its first empty table; for the cycle, K4 and
    # the n = 24 case it is the table of the last label, which keeps
    # complete vectors only. Cases 26 and 59 run no level at all: arc
    # consistency empties a list before the DP, so for them the test
    # checks the pre-DP pruning, and the levels run (none) still equal the
    # compressed instance's largest label (0, as its lists are empty)
    assert forward_checking_solve(inst) == (False, None)
    result = solve(inst)
    assert not result.decision and result.witness is None
    assert result.stats.levels == _levels_to_the_last_label(inst)
    sizes = result.stats.components[-1].level_sizes
    assert sizes[-1:] == ([0] if result.stats.levels else [])


# ROADMAP item 11's family, random_instance(n, density, tau, n // 2, seed)
# with n in {18, 20}, (density, tau) in {(0.3, 1), (0.3, 2), (0.4, 2),
# (0.5, 1)} and seeds 0 and 1: every case whose witness solve took under
# 0.5 s (2-core box, CPython 3.11), NO and YES alike. Left out for time
# only: n = 20 at (0.4, 2) seed 1 (2.4 s) and at (0.5, 1) seed 1 (0.6 s).
_FAMILY_GRID = [(n, density, tau, seed) for n in (18, 20)
                for density, tau in ((0.3, 1), (0.3, 2), (0.4, 2), (0.5, 1)) for seed in (0, 1)]
_FAMILY_CASES = [case for case in _FAMILY_GRID if case not in {(20, 0.4, 2, 1), (20, 0.5, 1, 1)}]
# n = 22 and 24: cases whose witness solve takes under about 1 s (0.3 to
# 0.7 s for the last two of each list, the rest under 0.2 s). All are
# YES but two NOs: (22, 0.4, 2, 0) runs 10 levels, (24, 0.4, 2, 1) 12
_FAMILY_CASES_N22 = [(22, 0.3, 1, 0), (22, 0.3, 1, 1), (22, 0.3, 2, 0), (22, 0.4, 2, 0),
                     (22, 0.3, 2, 1), (22, 0.5, 1, 0)]
_FAMILY_CASES_N24 = [(24, 0.3, 1, 1), (24, 0.3, 1, 0), (24, 0.3, 2, 1), (24, 0.4, 2, 1)]


@pytest.mark.parametrize("case", _FAMILY_CASES + _FAMILY_CASES_N22 + _FAMILY_CASES_N24,
                         ids=lambda c: "n{}-d{}-t{}-s{}".format(*c))
def test_family_cases_agree_with_forward_checking(case):
    n, density, tau, seed = case
    inst = random_instance(n=n, density=density, tau=tau, lmax=n // 2, seed=seed)
    decision, witness = forward_checking_solve(inst)
    result = solve(inst)
    assert result.decision == decision
    if decision:
        assert check_witness(inst, witness) and check_witness(inst, result.witness)
    else:
        assert result.witness is None and witness is None


def test_family_cases_hold_the_nine_level_no():
    assert len(_FAMILY_CASES) == 14 and (18, 0.4, 2, 1) in _FAMILY_CASES
    inst = random_instance(n=18, density=0.4, tau=2, lmax=9, seed=1)
    result = solve(inst)
    assert not result.decision and result.stats.levels == 9


def test_family_cases_hold_the_ten_level_no_at_n22():
    assert (22, 0.4, 2, 0) in _FAMILY_CASES_N22
    result = solve(random_instance(n=22, density=0.4, tau=2, lmax=11, seed=0))
    assert not result.decision and result.stats.levels == 10


def test_scaling_instance_at_n20():
    # the scaling instance (tau 1, density 0.3, seed 2024, lmax 2n) at
    # n = 20, with every level built up to the largest label, past the
    # first complete one where solve stops; a vector with an unlabeled
    # vertex whose list has ended is dropped, which took the sum from
    # 716,451,012 (pinned with the free-label step off). By default
    # vertices 1 and 13 keep only label 38, free beside every neighbour's list
    inst = random_instance(n=20, density=0.3, tau=1, lmax=40, seed=2024)
    with free_labels_off():
        result = solve(inst)
        assert sum(map(sum, every_level_sizes(inst))) == 592_091_561
    assert result.decision and check_witness(inst, result.witness)
    assert forward_checking_solve(inst)[0]
    result = solve(inst)
    assert result.decision and check_witness(inst, result.witness)
    assert sum(map(sum, every_level_sizes(inst))) == 110_769_379
