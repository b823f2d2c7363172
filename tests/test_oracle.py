"""Brute-force reference solver behavior."""

import random

from gltc import (
    Graph,
    Instance,
    brute_force_solve,
    check_witness,
    random_instance,
)
from gltc.reference import extension_predicate
from support import complete_graph, path_graph, uniform_instance


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
