"""Reference implementations the solver is checked against.

Plain definitions with no sharing, memoization or precomputation, so
each is obviously correct and independent of the production path. Tables
are plain sets of vector tuples: the steps take any iterable of vectors
and return frozensets, and nothing here reads a trie or a node store.

- brute_force_solve: chronological backtracking over vertices in id
  order, trying each vertex's permitted labels in ascending order;
- direct_step: the combination step materialized pair by pair;
- mark_blocked: the OPEN/BLOCKED recomputation straight from the
  instance; an input BLOCKED stays BLOCKED, so marking twice for one
  label marks once;
- is_live: whether every unlabeled coordinate of a vector still has a
  label above the current level on its list; a vector that is not live
  can never become complete;
- level_step: the paper's level recurrence, the one composition of the
  two: each vector marked for the label, direct_step, each result
  marked for the next label, the results that are not live dropped;
- project: the map from these vectors over BLOCKED and OPEN to the
  solver's, which hold one unlabeled symbol; the solver's level-k table
  is the projection of the reference one, vector for vector;
- inclusion_exclusion_list_coloring: the tau = 0 decision counted over
  vertex subsets, a method that shares nothing with the solver's DP and
  reaches further than brute force;
- forward_checking_solve: backtracking that labels the vertex with the
  fewest labels left and strikes every neighbour label at a forbidden
  difference, which decides random instances of 20 vertices and more.
- feasible_prefixes: the block prefixes a state vector can show, listed
  one by one, which partition._count_prefixes counts without listing.

Intended for small instances. The solver never imports this module.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from .encoding import BLOCKED, OPEN, advance_symbol
from .instance import Instance, _edge_key, instance_tau
from .partition import Block

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

    found = dfs(1)
    del dfs  # dfs refers to itself: end the cycle
    return (True, dict(assignment)) if found else (False, None)


def forward_checking_solve(inst: Instance) -> tuple[bool, Witness | None]:
    """Decide by forward checking; returns (decision, witness or None).

    Each step labels the unlabeled vertex with the fewest labels left
    (ties to the least id), trying its labels in ascending order, and
    strikes from every unlabeled neighbour the labels at a forbidden
    difference from the new one. A neighbour left with no label undoes
    the step; backtracking is chronological. Nothing is shared with the
    solver's DP, and random instances are easy for it, but a hard NO can
    take exponential time.
    """
    adjacency = inst.graph.adjacency
    left = {v: set(labels) for v, labels in inst.lam.items()}
    labels: Witness = {}

    def search() -> bool:
        if len(labels) == len(left):
            return True
        v = min((u for u in left if u not in labels), key=lambda u: (len(left[u]), u))
        for lab in sorted(left[v]):
            struck = {}
            for w in adjacency[v]:
                if w not in labels:
                    diffs = inst.t_of(v, w)
                    struck[w] = {m for m in left[w] if abs(m - lab) in diffs}
                    if struck[w] == left[w]:
                        break
            else:
                labels[v] = lab
                for w, gone in struck.items():
                    left[w] -= gone
                if search():
                    return True
                for w, gone in struck.items():
                    left[w] |= gone
                del labels[v]
        return False

    found = search()
    del search  # search refers to itself: end the cycle
    return (True, dict(labels)) if found else (False, None)


def inclusion_exclusion_list_coloring(inst: Instance) -> bool:
    """Decide a tau = 0 instance (list coloring) by inclusion-exclusion.

    The instance is YES iff sum over X of (-1)^(n - |X|) prod_l i_l(X) > 0,
    where i_l(X) counts the independent sets (the empty one included)
    inside X intersected with {v : l in lam(v)}: the sum counts the
    tuples of such sets, one per label, that cover every vertex
    (Bjorklund, Husfeldt & Koivisto 2009). O(2^n * labels) time and 2^n
    memory, so keep n to about 20.
    """
    if instance_tau(inst) != 0:
        raise ValueError("inclusion-exclusion decides tau = 0 instances only")
    n = inst.graph.n
    # closed[i]: vertex i+1 and its neighbours, as a bitmask over vertices
    # (every edge forbids difference 0)
    closed = [1 << i for i in range(n)]
    for u, v in inst.graph.edges:
        closed[u - 1] |= 1 << (v - 1)
        closed[v - 1] |= 1 << (u - 1)
    # indep[Y]: independent sets inside Y; split on Y's lowest vertex
    indep = [1] * (1 << n)
    for y in range(1, 1 << n):
        low = (y & -y).bit_length() - 1
        indep[y] = indep[y & ~(1 << low)] + indep[y & ~closed[low]]
    holders: dict[int, int] = {}  # label -> vertices whose list has it
    for v in range(1, n + 1):
        for lab in inst.lam[v]:
            holders[lab] = holders.get(lab, 0) | 1 << (v - 1)
    total = 0
    for x in range(1 << n):
        covers = 1
        for mask in holders.values():
            covers *= indep[x & mask]
        total += -covers if (n - x.bit_count()) % 2 else covers
    return total > 0


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


def direct_step(table: Iterable[Vector], indep: Iterable[Vector], tau: int) -> frozenset:
    """Combination step: advance every table vector by every independent-set
    vector and drop the impossible pairs. Quadratic in the table sizes."""
    masks = list(indep)
    combined = (advance_vector(a, p, tau) for a in table for p in masks)
    return frozenset(c for c in combined if c is not None)


def mark_blocked(vec: Sequence[int], level: int, inst: Instance,
                 ordering: Sequence[int] | None = None, tau: int | None = None) -> Vector:
    """Recompute OPEN/BLOCKED for unlabeled coordinates against label level+2.

    Labeled and BLOCKED coordinates pass through unchanged, so the map is
    idempotent. An OPEN coordinate stays OPEN iff level+2 is on its
    vertex's list and no neighbor carries a label whose difference with
    level+2 is forbidden; otherwise it becomes BLOCKED.
    """
    if ordering is None:
        ordering = tuple(range(1, inst.graph.n + 1))
    if tau is None:
        tau = instance_tau(inst)
    pos_of = {v: i for i, v in enumerate(ordering)}
    next_label = level + 2
    out = list(vec)
    for i, sym in enumerate(vec):
        if sym != OPEN:  # a label, or BLOCKED: marking never unbars
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


def is_live(vec: Sequence[int], level: int, inst: Instance, ordering: Sequence[int]) -> bool:
    """True iff every unlabeled coordinate (OPEN or BLOCKED) of a level
    ``level`` vector belongs to a vertex whose list has a label above
    ``level``. A vector that is not live is dead: no later level can
    label that vertex, so none of its successors is complete."""
    return all(sym >= 1 or any(lab > level for lab in inst.lam[v])
               for v, sym in zip(ordering, vec))


def level_step(table: Iterable[Vector], indep: Iterable[Vector], inst: Instance,
               ordering: Sequence[int], tau: int, label: int) -> frozenset:
    """The level recurrence that gives label ``label``: every vector of
    ``table`` marked for it, direct_step by the independent sets
    ``indep``, every result marked for ``label + 1``, and the dead ones
    (is_live) dropped. Over OPEN and BLOCKED; the solver's table is its
    project."""
    before = frozenset(mark_blocked(vec, label - 2, inst, ordering, tau) for vec in table)
    return frozenset(mark_blocked(vec, label - 1, inst, ordering, tau)
                     for vec in direct_step(before, indep, tau)
                     if is_live(vec, label, inst, ordering))


def project(vec: Sequence[int]) -> Vector:
    """The solver's form of a reference vector: BLOCKED and OPEN both
    become OPEN, the one unlabeled symbol, and labels pass through.

    On the vectors of one level table the map is one to one, since
    whether an unlabeled position may take the next label follows from
    its list and its neighbours' recent labels, so the projected table
    holds exactly as many vectors.
    """
    return tuple(OPEN if sym == BLOCKED else sym for sym in vec)


def _feasible_prefixes(block: Block, tau: int, adjacency, tmap):
    """feasible_prefixes with the edges' forbidden sets ``tmap``, or with
    equality pruning only when ``tmap`` is None."""
    verts = block.vertices
    in_edges = []
    for i, j in itertools.combinations(range(len(verts)), 2):
        u, v = verts[i], verts[j]
        if v in adjacency[u]:
            in_edges.append((i, j, tmap[_edge_key(u, v)] if tmap is not None else ()))
    out = []
    for a in itertools.product(range(tau + 2), repeat=len(verts)):
        ok = True
        for i, j, diffs in in_edges:
            x, y = a[i], a[j]
            if x >= 2 and y >= 2:
                if x == y or abs(x - y) in diffs:
                    ok = False
                    break
        if ok:
            out.append(a)
    return out


def feasible_prefixes(block: Block, tau: int, inst: Instance,
                      strengthened: bool = True) -> list[tuple[int, ...]]:
    """Block prefixes over the labeled alphabet that can occur in a state vector.

    Symbols 2..tau+1 stand for exact labels, so two adjacent in-block
    vertices can never share one (difference 0 is always forbidden).
    With ``strengthened`` the known in-block label differences are also
    checked against the edge's forbidden set; this removes prefixes that
    no proper partial labeling can produce. Output is in lexicographic
    order. The solver never lists prefixes; partition.predict_complexity
    counts them.
    """
    return _feasible_prefixes(block, tau, inst.graph.adjacency, inst.t if strengthened else None)
