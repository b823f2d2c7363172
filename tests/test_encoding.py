"""The symbol alphabet and the two level-advance operators."""

import random

import pytest

from gltc import VectorTrie, independent_set_vectors, instance_tau, random_instance
from gltc.encoding import (
    BLOCKED,
    OPEN,
    advance_symbol,
    format_vector,
    is_complete,
    symbol_alphabet,
)
from gltc.reference import advance_vector, level_step, mark_blocked
from support import path_graph, uniform_instance


def test_alphabet_size_and_order():
    for tau in range(6):
        alpha = symbol_alphabet(tau)
        assert len(alpha) == tau + 3
        assert list(alpha) == sorted(alpha)
        assert alpha[0] == BLOCKED and alpha[1] == OPEN


@pytest.mark.parametrize("tau", [1, 2, 3])
def test_advance_symbol_table_rows(tau):
    assert advance_symbol(BLOCKED, 0, tau) == OPEN
    assert advance_symbol(OPEN, 0, tau) == OPEN
    assert advance_symbol(OPEN, 1, tau) == tau + 1
    assert advance_symbol(1, 0, tau) == 1
    assert advance_symbol(2, 0, tau) == 1
    assert advance_symbol(1, 1, tau) is None
    assert advance_symbol(BLOCKED, 1, tau) is None
    if tau >= 2:
        assert advance_symbol(3, 0, tau) == 2


def test_advance_symbol_defined_pair_count():
    # every (x, 0) plus the single (OPEN, 1): tau+4 defined pairs in total
    for tau in range(6):
        defined = [
            (x, y)
            for x in symbol_alphabet(tau)
            for y in (0, 1)
            if advance_symbol(x, y, tau) is not None
        ]
        assert len(defined) == tau + 4
        assert all(advance_symbol(x, y, tau) != BLOCKED for x, y in defined)


def test_advance_symbol_rejects_out_of_alphabet():
    with pytest.raises(ValueError):
        advance_symbol(3, 0, tau=1)
    with pytest.raises(ValueError):
        advance_symbol(0, 2, tau=1)


def test_advance_vector_coordinatewise():
    tau = 1
    assert advance_vector((OPEN, BLOCKED, 1), (1, 0, 0), tau) == (tau + 1, OPEN, 1)
    # an all-zeros mask is accepted by every symbol
    for vec in [(BLOCKED,), (OPEN,), (1,), (2,)]:
        assert advance_vector(vec, (0,), tau) is not None
    # one impossible coordinate poisons the whole vector
    assert advance_vector((BLOCKED, OPEN), (1, 0), tau) is None


def test_mark_blocked_single_vertex():
    g = path_graph(1)
    hit = uniform_instance(g, {2}, set())
    assert mark_blocked((OPEN,), 0, hit) == (OPEN,)
    miss = uniform_instance(g, {3}, set())
    assert mark_blocked((OPEN,), 0, miss) == (BLOCKED,)


def test_mark_blocked_neighbor_difference():
    # tau=1: a neighbor on symbol 2 carries label k+1, and (k+2)-(k+1)=1 is forbidden
    inst = uniform_instance(path_graph(2), {1, 2, 3}, {0, 1})
    assert mark_blocked((OPEN, 2), 0, inst) == (BLOCKED, 2)
    # with only 0 forbidden the neighbor does not block (tau forced to 1 so the
    # symbol 2 exists at all)
    inst2 = uniform_instance(path_graph(2), {1, 2, 3}, {0})
    assert mark_blocked((OPEN, 2), 0, inst2, tau=1) == (OPEN, 2)


def test_mark_blocked_copies_labeled_symbols():
    inst = uniform_instance(path_graph(3), {1, 2, 3, 4}, {0, 1})
    vec = (1, 2, OPEN)
    out = mark_blocked(vec, 1, inst)
    assert out[:2] == (1, 2)


def test_mark_blocked_symbols_zero_and_one_never_block():
    # tau-boundedness: differences tau+2 and tau+1 are never forbidden, so
    # OPEN and inert neighbors cannot block; only the list test can
    for seed in range(20):
        inst = random_instance(n=5, density=0.7, tau=2, lmax=6, seed=seed)
        tau = instance_tau(inst)
        vec = tuple((OPEN, 1)[v % 2] for v in range(5))
        out = mark_blocked(vec, 0, inst)
        for i, v in enumerate(range(1, 6)):
            if vec[i] != OPEN:
                assert out[i] == vec[i]
            else:
                assert (out[i] == OPEN) == (2 in inst.lam[v])


def test_mark_blocked_is_idempotent_and_never_unbars():
    # an input BLOCKED stays BLOCKED and labels pass through, so marking
    # a marked vector again for the same label changes nothing
    rng = random.Random(24)
    for seed in range(20):
        inst = random_instance(n=5, density=0.6, tau=seed % 4, lmax=6, seed=2400 + seed)
        tau = instance_tau(inst)
        ordering = tuple(rng.sample(range(1, 6), 5))
        alphabet = symbol_alphabet(tau)
        for _ in range(50):
            vec = tuple(rng.choice(alphabet) for _ in range(5))
            level = rng.randrange(-1, 6)
            once = mark_blocked(vec, level, inst, ordering, tau)
            assert mark_blocked(once, level, inst, ordering, tau) == once
            assert all(y == x for x, y in zip(vec, once) if x != OPEN)


def test_level_step_gives_no_label_to_an_input_blocked():
    # tau = 0 on a 2-path: both lists hold label 1, but position 1 comes
    # in BLOCKED, so only position 2 may take it; from OPEN either may
    inst = uniform_instance(path_graph(2), {1, 2}, {0})
    indep = independent_set_vectors(inst.graph, (1, 2))
    blocked = VectorTrie.from_vectors(2, [(BLOCKED, OPEN)])
    assert set(level_step(blocked, indep, inst, (1, 2), 0, 1)) == {(OPEN, OPEN), (OPEN, 1)}
    fresh = VectorTrie.from_vectors(2, [(OPEN, OPEN)])
    assert set(level_step(fresh, indep, inst, (1, 2), 0, 1)) == {(OPEN, OPEN), (1, OPEN), (OPEN, 1)}


def test_is_complete():
    assert is_complete((1, 1, 2))
    assert not is_complete((1, BLOCKED, 2))
    assert not is_complete((OPEN, 1, 1))
    assert is_complete(())


def test_format_vector():
    assert format_vector((BLOCKED, OPEN, 10, 2)) == "B0[10]2"
