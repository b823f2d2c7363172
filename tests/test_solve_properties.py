"""Properties of solve: changes to an instance whose effect on the answer
is known without solving it. Every YES met along the way must also carry
a witness that check_witness accepts, and every decision must agree with
reference.forward_checking_solve."""

import random

from hypothesis import example, given, settings, strategies as st

from gltc import Graph, Instance, check_witness, instance_tau, random_instance, solve
from gltc.reference import forward_checking_solve
from support import complete_graph, path_graph, uniform_instance

_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def _instances(draw):
    """A random instance on at most 10 vertices."""
    return random_instance(n=draw(st.sampled_from(range(1, 11))),
                           density=draw(st.sampled_from((0.3, 0.5, 0.8))),
                           tau=draw(st.integers(0, 3)), lmax=draw(st.integers(1, 7)),
                           seed=draw(st.integers(0, 10_000)))


_TRIANGLE_2 = uniform_instance(complete_graph(3), {1, 2}, {0})   # NO
_PATH_3 = uniform_instance(path_graph(3), {1, 2, 3}, {0, 1})      # YES


def _decision(inst: Instance) -> bool:
    result = solve(inst)
    assert not result.decision or check_witness(inst, result.witness)
    assert result.decision == forward_checking_solve(inst)[0]
    return result.decision


@_SETTINGS
@given(_instances(), st.integers(0, 2**32))
@example(_TRIANGLE_2, 1)
@example(_PATH_3, 2)
def test_permuting_vertex_ids_preserves_the_decision(inst, seed):
    n = inst.graph.n
    perm = list(range(1, n + 1))
    random.Random(seed).shuffle(perm)
    new = {v: perm[v - 1] for v in range(1, n + 1)}
    t = {tuple(sorted((new[u], new[v]))): diffs for (u, v), diffs in inst.t.items()}
    permuted = Instance(graph=Graph.from_edges(n, t), t=t,
                        lam={new[v]: labels for v, labels in inst.lam.items()})
    assert _decision(permuted) == _decision(inst)


@_SETTINGS
@given(_instances(), st.integers(1, 6))
@example(_TRIANGLE_2, 3)
@example(_PATH_3, 1)
def test_shifting_every_label_preserves_the_decision(inst, shift):
    shifted = Instance(graph=inst.graph, t=inst.t,
                       lam={v: frozenset(lab + shift for lab in labels)
                            for v, labels in inst.lam.items()})
    assert _decision(shifted) == _decision(inst)


@_SETTINGS
@given(_instances(), st.integers(0, 9), st.integers(1, 9))
@example(_PATH_3, 1, 9)   # a label beyond every list
@example(_PATH_3, 2, 2)   # a label the list already holds
def test_adding_a_label_never_turns_yes_into_no(inst, vertex, label):
    v = 1 + vertex % inst.graph.n
    lam = dict(inst.lam)
    lam[v] = lam[v] | {label}
    if _decision(inst):
        assert _decision(Instance(graph=inst.graph, lam=lam, t=inst.t))


@_SETTINGS
@given(_instances(), st.integers(0, 44), st.integers(1, 5))
@example(_TRIANGLE_2, 2, 1)
@example(uniform_instance(complete_graph(4), {1, 3, 5}, {0, 1}), 5, 2)
def test_adding_a_forbidden_difference_never_turns_no_into_yes(inst, edge, diff):
    edges = sorted(inst.t)
    if not edges:
        return
    e = edges[edge % len(edges)]
    t = dict(inst.t)
    t[e] = t[e] | {diff}
    if not _decision(inst):
        assert not _decision(Instance(graph=inst.graph, lam=inst.lam, t=t))


@_SETTINGS
@given(_instances(), st.integers(1, 8), st.integers(2, 30))
@example(_TRIANGLE_2, 2, 3)
@example(_PATH_3, 2, 2)
@example(_PATH_3, 3, 30)
def test_widening_a_gap_past_tau_plus_one_preserves_the_decision(inst, split, widen):
    # moving every label >= split up by s >= tau leaves a gap of at least
    # tau + 1 below them: no difference across it is forbidden, so widening
    # it further changes no constraint
    tau = instance_tau(inst)

    def moved(s):
        return Instance(graph=inst.graph, t=inst.t,
                        lam={v: frozenset(lab + s if lab >= split else lab for lab in labels)
                             for v, labels in inst.lam.items()})

    assert len({_decision(moved(s)) for s in (tau, tau + 1, tau + widen)}) == 1
