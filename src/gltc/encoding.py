"""Per-vertex state symbols and the level-advance operators of the solver.

With tau the largest forbidden difference, the state of a vertex at
level k of the dynamic program is one of tau+3 symbols:

    BLOCKED (-1)  unlabeled, the upcoming label is inadmissible
    OPEN    (0)   unlabeled, the upcoming label is admissible
    1             labeled at least tau levels ago; inert from now on
    j in 2..tau+1 labeled exactly k+j-tau-1; still close enough to
                  interact with future labels

Advancing a level ages every symbol by one and optionally hands the new
label to an OPEN vertex; a follow-up pass then recomputes OPEN/BLOCKED
for the unlabeled vertices against the next label.

A vector is complete when every vertex is labeled (is_complete); tally
counts and flags complete vectors for every node of a node store.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

BLOCKED = -1
OPEN = 0


def symbol_alphabet(tau: int) -> tuple[int, ...]:
    """All tau+3 symbols in canonical order BLOCKED < OPEN < 1 < ... < tau+1."""
    return (BLOCKED,) + tuple(range(tau + 2))


def advance_symbol(x: int, assign: int, tau: int) -> Optional[int]:
    """Age one symbol by one level; with assign=1 give the new label to x.

    Partial: only an OPEN vertex can take the new label, so most (x, 1)
    combinations return None. None is a first-class "impossible" result,
    not an error.
    """
    if assign not in (0, 1):
        raise ValueError(f"assign bit must be 0 or 1, got {assign}")
    if not (x == BLOCKED or 0 <= x <= tau + 1):
        raise ValueError(f"symbol {x} outside alphabet for tau={tau}")
    if assign == 0:
        if x in (BLOCKED, OPEN):
            return OPEN
        if x <= 2:
            return 1
        return x - 1
    if x == OPEN:
        return tau + 1
    return None


@lru_cache(maxsize=None)
def aging_table(tau: int) -> tuple[int, ...]:
    """advance_symbol(x, 0, tau) at index x for every symbol x (BLOCKED is -1)."""
    return tuple(advance_symbol(x, 0, tau) for x in (*range(tau + 2), BLOCKED))


@lru_cache(maxsize=None)
def preimage_table(tau: int) -> tuple[dict[int, tuple[int, ...]], ...]:
    """At index sym, for every symbol sym >= 0: {x: the assign bits y}
    of all (x, y) with advance_symbol(x, y, tau) == sym, in canonical
    order. Cached, so callers only read it."""
    table: tuple[dict[int, tuple[int, ...]], ...] = tuple({} for _ in range(tau + 2))
    for x in symbol_alphabet(tau):
        for y in (0, 1):
            sym = advance_symbol(x, y, tau)
            if sym is not None:
                table[sym][x] = table[sym].get(x, ()) + (y,)
    return table


def is_complete(vec: Sequence[int]) -> bool:
    """True iff every coordinate carries a label (no OPEN or BLOCKED)."""
    return all(sym >= 1 for sym in vec)


def tally(shapes) -> tuple[list[int], list[bool]]:
    """For every uid of a node store, the number of vectors below it and
    whether a complete one is among them: satcount and anysat of a
    decision diagram (Bryant 1986) in one bottom-up pass, as a store
    lists children before parents. Uid 0 is LEAF, the empty vector.
    """
    count, full = [1], [True]
    for shape in shapes[1:]:
        total, whole = 0, False
        for sym, child in shape:
            total += count[child]
            whole = whole or sym > 0 and full[child]
        count.append(total)
        full.append(whole)
    return count, full


def format_vector(vec: Sequence[int]) -> str:
    """Debug rendering: 'B' for BLOCKED, digits otherwise, multi-digit bracketed."""
    parts = []
    for sym in vec:
        if sym == BLOCKED:
            parts.append("B")
        elif sym < 10:
            parts.append(str(sym))
        else:
            parts.append(f"[{sym}]")
    return "".join(parts)
