"""Reference implementations the solver is checked against.

Plain definitions with no sharing, memoization or precomputation, so
each is obviously correct and independent of the production path:

- brute_force_solve: chronological backtracking over vertices in id
  order, trying each vertex's permitted labels in ascending order;
- direct_step: the combination step materialized pair by pair;
- mark_blocked: the OPEN/BLOCKED recomputation straight from the
  instance.

Intended for small instances. The solver never imports this module.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .encoding import BLOCKED, OPEN, advance_symbol
from .instance import Instance, instance_tau
from .vectorset import VectorTrie

Vector = tuple[int, ...]
Witness = dict[int, int]


def extension_predicate(assignment: dict[int, int], v: int, label: int,
                        inst: Instance) -> bool:
    """True iff labeling unassigned vertex v with ``label`` keeps things proper."""
    if label not in inst.lam[v]:
        return False
    for w in inst.graph.adjacency[v]:
        lab = assignment.get(w)
        if lab is not None and abs(label - lab) in inst.t_of(v, w):
            return False
    return True


def brute_force_solve(inst: Instance, descending: bool = False) -> tuple[bool, Witness | None]:
    """Search all labelings; returns (decision, first witness found or None).

    Intended for small instances (roughly n <= 10, labels <= 15); the
    caller is responsible for keeping sizes sane. ``descending`` flips
    the label trial order (decisions must not depend on it).
    """
    n = inst.graph.n
    if any(not inst.lam[v] for v in range(1, n + 1)):
        return False, None
    assignment: dict[int, int] = {}

    def dfs(i: int) -> bool:
        if i > n:
            return True
        for label in sorted(inst.lam[i], reverse=descending):
            if extension_predicate(assignment, i, label, inst):
                assignment[i] = label
                if dfs(i + 1):
                    return True
                del assignment[i]
        return False

    if dfs(1):
        return True, dict(assignment)
    return False, None


def advance_vector(a: Sequence[int], mask: Sequence[int], tau: int) -> Optional[Vector]:
    """Coordinate-wise advance; None as soon as any coordinate is impossible."""
    assert len(a) == len(mask), "vector length mismatch"
    out = []
    for x, y in zip(a, mask):
        r = advance_symbol(x, y, tau)
        if r is None:
            return None
        out.append(r)
    return tuple(out)


def direct_step(table: VectorTrie, indep: VectorTrie, tau: int) -> VectorTrie:
    """Combination step: advance every table vector by every independent-set
    vector and drop the impossible pairs. Quadratic in the table sizes."""
    out = VectorTrie(table.length)
    for a in table:
        for p in indep:
            combined = advance_vector(a, p, tau)
            if combined is not None:
                out.add(combined)
    return out


def mark_blocked(vec: Sequence[int], level: int, inst: Instance,
                 ordering: Sequence[int] | None = None, tau: int | None = None) -> Vector:
    """Recompute OPEN/BLOCKED for unlabeled coordinates against label level+2.

    Labeled coordinates (>= 1) pass through unchanged. An unlabeled
    coordinate stays OPEN iff level+2 is on its vertex's list and no
    neighbor carries a label whose difference with level+2 is forbidden;
    otherwise it becomes BLOCKED.
    """
    if ordering is None:
        ordering = tuple(range(1, inst.graph.n + 1))
    if tau is None:
        tau = instance_tau(inst)
    pos_of = {v: i for i, v in enumerate(ordering)}
    next_label = level + 2
    out = list(vec)
    for i, sym in enumerate(vec):
        if sym != OPEN:
            assert sym != BLOCKED, "input vectors never carry BLOCKED"
            continue
        v = ordering[i]
        if next_label not in inst.lam[v]:
            out[i] = BLOCKED
            continue
        for w in inst.graph.adjacency[v]:
            bw = vec[pos_of[w]]
            if bw >= 2 and (tau - bw + 2) in inst.t_of(v, w):
                out[i] = BLOCKED
                break
    return tuple(out)
