"""Label-by-label dynamic program over state-vector sets kept as DAGs.

Level k holds the set of state vectors of all proper partial labelings
using labels 1..k, over tau+2 symbols per vertex: OPEN (0), the one
unlabeled symbol, and the labeled symbols 1..tau+1 (gltc.encoding).
Whether an unlabeled vertex may take the next label is not stored: it
follows from its list and its neighbours' recent labels, which the walk
reads on the way down. BLOCKED exists only on the reference side and in
the benchmark replay's tables. Labels that fail arc consistency, which
no proper labeling uses, are pruned first (instance.gap_compression),
and a component that pruning empties is NO with no level run. The
coordinates follow walk_order, defined here next to ComponentDP: a
greedy small-frontier order of the graph. A table's content does not
depend on the order, but the cost of the walk does. No partition is
built here; partition.predict_complexity bounds the table sizes from
outside.

Advancing to level k+1 is one memoized walk, _level_walk, over the
nodes of the table, which pairs each vector with every independent set
of unlabeled vertices free to take label k+1 without listing the sets.
It carries two bitmasks down: the later positions still free to take
k+1, and the earlier positions given k+1 that a later neighbour may
still bar. A later position stops being free when its list lacks k+1,
when an earlier neighbour's recent label bars it, or when an earlier
neighbour takes k+1 (the vertices receiving a label are pairwise
non-adjacent), so the walk reads _BarPass's neighbour masks and no
independent-set trie is built. Where two children of a table node age
to the same symbol, they are folded into one node by a memoized union
(the unique table and memoized OR of BDD packages), on the input store
where both leave the same masks, else on the output.

A level table is a hash-consed DAG, a trie in which equal subtrees are
one node (a reduced multi-valued decision diagram), kept in an integer
node store: each node is a uid whose shape is the tuple of its (symbol,
child uid) pairs, and every memo key of a store walk is one int. The
level-0 table is born as a store, a chain of one-child OPEN shapes. The
walk builds the next table's store, hash-consed once, and
encoding.tally, one pass over it, counts each node's vectors and flags
whether a complete vector (every vertex labeled) lies below it, so no
table is walked again to size it or to decide. The instance is YES iff
some level's table holds a complete vector; as completeness persists
from level to level, the last level run decides. An explicit labeling
is then reconstructed on the stores themselves: a retained level keeps
its store, the least complete vector is read off the last table's flags
by a descent that never backtracks, and the walk back carries the same
masks down each retained store. Dict nodes (gltc.vectorset) are for
tests and the benchmark replay's adapters only.

Every recursive walk here creates its memo, returns the memo's size when
a report needs it, takes one stack frame per position (solve raises the
recursion limit to fit), and deletes its own closure before returning,
so no reference cycle is left for the garbage collector. The union walk
is a module-level function with no closure; the level walk creates its
memos and hands them to it. As nothing a solve builds can form a cycle
(a store is a list of tuples of int pairs, a memo a dict of ints), solve
also switches the cyclic collector off while it runs, whose passes over
millions of memo entries and shapes would find nothing to free. So solve
changes two process-wide settings for its duration, the recursion limit
and the collector, and restores both; concurrent solves in threads of
one process are unsupported.
"""

from __future__ import annotations

import gc
import sys
from dataclasses import dataclass, field

from .encoding import BLOCKED, OPEN, aging_table, preimage_table, tally
from .instance import Graph, Instance, gap_compression, instance_tau, split_components
from .vectorset import VectorTrie, decode, encode

Witness = dict[int, int]


# The most table nodes, level-walk memo entries and unions one component's
# levels may make in all, checked after each level, before the solve is
# refused. The sum, not the number of vectors the tables stand for, is
# what a solve holds: 76 to 131 bytes of peak RSS per entry in witness
# solves of a million entries or more on CPython 3.11, so a solve within
# the cap peaks under about 2.2 GB, plus the level that passes it.
ENTRY_LIMIT = 1 << 24


class ResourceLimitError(RuntimeError):
    """One component's levels made more than ``ENTRY_LIMIT`` table nodes,
    walk memo entries and unions in all, summed after each level: the
    solve is refused, which is not a NO."""


@dataclass(frozen=True)
class SolveOptions:
    """``early_exit`` stops at the first level with a complete vector;
    ``store_parents`` keeps every level table for the witness walk.
    Labels that fail arc consistency are always pruned, differences no
    labeling gives dropped and dead label gaps compressed
    (instance.gap_compression). What a solve may hold is capped by the
    constant ``ENTRY_LIMIT``, not by an option."""

    early_exit: bool = True
    store_parents: bool = True


@dataclass
class LevelTable:
    """The state-vector set of one level of the dynamic program."""

    level: int
    vectors: VectorTrie


@dataclass
class ComponentReport:
    """Per-component diagnostics: the vertex order the walks followed and,
    per level, how big the table got (vectors and DAG nodes), how many
    entries the level walk memoized and how many unions it made, and the
    list entries pruned before the DP. A bound for the sizes comes from
    predict_complexity on a partition of ``instance``."""

    instance: Instance
    ordering: tuple[int, ...]
    pruned_labels: int = 0
    level_sizes: list[int] = field(default_factory=list)
    level_nodes: list[int] = field(default_factory=list)
    level_memo: list[int] = field(default_factory=list)
    level_unions: list[int] = field(default_factory=list)


@dataclass
class SolveStats:
    levels: int = 0
    max_table_size: int = 0
    components: list[ComponentReport] = field(default_factory=list)


@dataclass
class SolveResult:
    decision: bool
    witness: Witness | None
    stats: SolveStats


# ---------------------------------------------------------------------------
# the node store
#
# The level loop keeps each table in a node store: a list mapping each
# uid to its shape, the tuple of its (symbol, child uid) pairs in symbol
# order. Uid 0 is LEAF, with the empty shape. A store is built bottom-up
# and hash-consed on the shape, so children have smaller uids than their
# parents, equal subtrees share one uid, and a shape fixes its depth.


# ---------------------------------------------------------------------------
# the level walk


def _build_plan(blocks, tau: int, inst: Instance | None = None, strengthened: bool = True):
    """The plan tuple _combine takes, (vector length, tau), with the
    length summed over a partition's blocks.

    Only the benchmark's per-layer replay (perfbench/layers.py) calls it;
    ``inst`` and ``strengthened`` are unused and keep its call shape until
    the next change to the benchmark, as ``_BarPass.run`` does.
    """
    return sum(block.size for block in blocks), tau


def _union(u, v, shapes, unique, memo):
    """The uid of the union of the vector sets below uids ``u`` and ``v``
    of the node store ``shapes``, two nodes of the same height: a
    memoized OR, as in BDD packages (Brace, Rudell & Bryant 1990).

    The two shapes are merged by symbol, and a symbol both hold gets the
    union of its two children. Every result is hash-consed into the same
    store through its unique table ``unique`` (shape -> uid), so a union
    equal to a node already there is that node. ``memo`` maps each pair
    of uids to its union, keyed on one int with the lesser uid in the
    high bits (a store stays far below 2**32 nodes).
    """
    if u == v:
        return u
    key = u << 32 | v if u < v else v << 32 | u
    uid = memo.get(key)
    if uid is None:
        a, b = shapes[u], shapes[v]
        pairs = []
        i = j = 0
        while i < len(a) and j < len(b):
            sa, ca = a[i]
            sb, cb = b[j]
            if sa < sb:
                pairs.append(a[i])
                i += 1
            elif sb < sa:
                pairs.append(b[j])
                j += 1
            else:
                if ca != cb:
                    ca = _union(ca, cb, shapes, unique, memo)
                pairs.append((sa, ca))
                i += 1
                j += 1
        shape = (*pairs, *a[i:], *b[j:])
        uid = unique.get(shape)
        if uid is None:
            uid = unique[shape] = len(shapes)
            shapes.append(shape)
        memo[key] = uid
    return uid


def _level_walk(shapes, root, nbr_mask, tau: int, filters):
    """One level of the DP on node stores: every advance of a vector below
    uid ``root`` of the table store ``shapes`` by an independent set, of
    the graph whose neighbour masks are ``nbr_mask``, that gives the new
    label only to unlabeled positions free to take it. Returns the new
    table's store (hash-consed), its root uid, the entries the walk
    memoized, the unions it made and whether the root reaches every node
    of the store.

    The image operation of a decision diagram, filtered on the way down
    by ``filters``: _BarPass.filters for the label, or _unbarred. A call
    at depth d carries ``allow``, the positions >= d still free to take
    the new label, and ``pend``, the earlier positions given the new
    label that a later neighbour may still bar. ``allow`` starts as
    ``listed``, the positions whose list has the label; a recent
    label (2..tau+1) removes its ``later`` row (an AND with its
    complement, which ``not_later`` holds), and giving the label to
    position d removes d's neighbours. An unlabeled position (OPEN;
    BLOCKED never takes the label) ages to OPEN, and takes the label,
    symbol tau + 1, where ``allow`` holds it; it then waits in ``pend``
    if a later neighbour can bar it. A hit on ``pend`` from a recent
    label's ``earlier`` row cuts the branch: the call returns -1 where
    every branch is cut. The memo key ``u << n | allow | pend`` is one
    exact int: ``allow`` holds positions at or past d only, ``pend``
    those before it, and a uid fixes d. It is canonical too: every path
    that leaves the same positions free meets one entry, whether a
    neighbour given the label or a recent label's bar removed them.

    Children of a table node that age to one symbol (1 and 2 to 1) and
    leave one ``allow`` are first folded into one table uid by _union,
    hash-consed into the input store, whose unique table is built on the
    first such union; the store is cut back to its own nodes on return.
    Where they leave different masks, and for tau = 0 where the new label
    and an aged 1 both give 1, the output children are merged by _union
    on the output store. Only such a union can leave nodes the root does
    not reach, which encoding.tally drops when it counts the store; with
    none, every node the walk built is a child of a later one.
    """
    listed, not_later, earlier, not_closes, waiting = filters
    n = len(not_closes)
    top = tau + 1
    adv = aging_table(tau)  # assign 0 ages symbol x to adv[x]
    out: list[tuple] = [()]
    unique: dict[tuple, int] = {}
    unions: dict[int, int] = {}
    in_unique: dict[tuple, int] = {}
    in_unions: dict[int, int] = {}
    kept = len(shapes)
    # LEAF, where nothing is free or pending
    memo: dict[int, int] = {0: 0}

    def walk(u, d, allow, pend):
        bit = 1 << d
        allow_next = allow & ~bit
        pend_next = pend & not_closes[d]
        row_not_later, row_earlier = not_later[d], earlier[d]
        pairs = []
        # last: the symbol of the group being gathered; made: the symbol
        # of the last pair in pairs
        last = made = group = g_allow = opened = -1
        for x, child in shapes[u]:
            c_allow = allow_next
            if x > 0:
                if pend & row_earlier[x]:
                    continue
                c_allow &= row_not_later[x]
            elif x == OPEN:
                opened = child
            sym = adv[x]
            if sym == last and c_allow == g_allow:
                if not in_unique:
                    in_unique.update((shape, uid) for uid, shape in enumerate(shapes))
                group = _union(group, child, shapes, in_unique, in_unions)
                continue
            if group >= 0:
                key = group << n | g_allow | pend_next
                c = memo.get(key)
                if c is None:
                    c = memo[key] = walk(group, d + 1, g_allow, pend_next)
                if c >= 0:
                    if made == last:
                        c = _union(pairs.pop()[1], c, out, unique, unions)
                    pairs.append((last, c))
                    made = last
            last, group, g_allow = sym, child, c_allow
        if group >= 0:
            key = group << n | g_allow | pend_next
            c = memo.get(key)
            if c is None:
                c = memo[key] = walk(group, d + 1, g_allow, pend_next)
            if c >= 0:
                if made == last:
                    c = _union(pairs.pop()[1], c, out, unique, unions)
                pairs.append((last, c))
                made = last
        if opened >= 0 and allow & bit:
            c_allow = allow_next & ~nbr_mask[d]
            c_pend = pend_next | bit & waiting
            key = opened << n | c_allow | c_pend
            c = memo.get(key)
            if c is None:
                c = memo[key] = walk(opened, d + 1, c_allow, c_pend)
            if c >= 0:
                if made == top:  # tau = 0: the new label and aged 1 both give 1
                    c = _union(pairs.pop()[1], c, out, unique, unions)
                pairs.append((top, c))
        if not pairs:
            return -1
        shape = tuple(pairs)
        uid = unique.get(shape)
        if uid is None:
            uid = unique[shape] = len(out)
            out.append(shape)
        return uid

    out_root = walk(root, 0, listed, 0) if root else 0
    del walk  # walk refers to itself: end the cycle, which holds the memo
    del shapes[kept:]
    return out, out_root, len(memo) - 1, len(unions) + len(in_unions), not unions


def _unbarred(n: int, tau: int):
    """Filters that bar nothing, in _BarPass.filters' complemented form,
    for tables whose OPEN and BLOCKED already say which positions may
    take the label: the replay's adapters."""
    return (1 << n) - 1, [[-1] * (tau + 2)] * n, [[0] * (tau + 2)] * n, [-1] * n, 0


def _trie_neighbours(node, n: int) -> list[int]:
    """Each position's neighbours as a bitmask over positions, read off
    the dict trie ``node`` of a graph's independent sets, as the replay
    passes it: on the path that takes 1 only at position i, a later
    position j with no 1-child is a neighbour of i. For the replay's
    adapters only; it goes with them (ROADMAP item 1)."""
    nbr_mask = [0] * n
    for i in range(n):
        below = node[1]
        for j in range(i + 1, n):
            if 1 not in below:
                nbr_mask[i] |= 1 << j
                nbr_mask[j] |= 1 << i
            below = below[0]
        node = node[0]
    return nbr_mask


def _combine(a_nodes, p_node, depth, plan, memo):
    """_level_walk on a dict DAG with nothing barred, the table encoded
    and the output decoded on every call. An adapter with the call shape
    of the benchmark's per-layer replay (perfbench/layers.py), whose
    tables carry OPEN and BLOCKED: ``a_nodes`` holds one root, ``p_node``
    is the dict independent-set trie, read by _trie_neighbours, ``depth``
    is 0, ``plan`` is _build_plan's (length, tau) and ``memo`` is unused.
    It goes with the replay (ROADMAP item 1).
    """
    shapes, (root,) = encode(a_nodes)
    out, out_root, _, _, _ = _level_walk(shapes, root, _trie_neighbours(p_node, plan[0]),
                                         plan[1], _unbarred(*plan))
    return decode(out)[out_root]


# ---------------------------------------------------------------------------
# level pipeline


class _BarPass:
    """Per-position data, built once per component, on which positions a
    label is barred from: its list lacks it, or a neighbour's recent label
    lies at a forbidden difference from it. The one walk over the edges
    in position coordinates also records each position's neighbours,
    ``nbr_mask``, which the walks remove from the positions free to take
    a label once a neighbour takes it.

    ``filters`` gives the masks _level_walk and _walk_back filter with.
    The rows that take positions out of a mask are kept complemented, as
    the walks AND with them: one form, built once per component.
    ``run`` marks OPEN positions of one vector BLOCKED; only the
    benchmark's per-layer replay (perfbench/layers.py) still calls it, and
    it goes at the next change to the benchmark.
    """

    def __init__(self, inst: Instance, ordering, tau: int):
        # Bitmasks over positions: listed[lab] holds the positions whose
        # list has label lab; nbr_mask[j] holds position j's neighbours; a
        # symbol at position j bars the later positions later[j][sym] and
        # the earlier ones earlier[j][sym] (lists by symbol); closes[j]
        # holds the positions whose last barring neighbour sits at j;
        # waiting holds those with any later one. later and closes are
        # kept as their complements, not_later and not_closes.
        pos_of = {v: i for i, v in enumerate(ordering)}
        n = len(ordering)
        self.full = (1 << n) - 1
        self.listed = listed = {}
        later = [[0] * (tau + 2) for _ in range(n)]
        self.earlier = earlier = [[0] * (tau + 2) for _ in range(n)]
        self.nbr_mask = nbr_mask = [0] * n
        closes = [0] * n
        waiting = 0
        for i, v in enumerate(ordering):
            bit = 1 << i
            for lab in inst.lam[v]:
                listed[lab] = listed.get(lab, 0) | bit
        last = list(range(n))  # the last barring neighbour of each position, or itself
        for (u, v), diffs in inst.t.items():
            i, j = pos_of[u], pos_of[v]
            if i > j:
                i, j = j, i
            nbr_mask[i] |= 1 << j
            nbr_mask[j] |= 1 << i
            for d in diffs:
                # symbol b at one end: its label lies d = tau + 2 - b below the next one
                if 0 < d <= tau:
                    earlier[j][tau + 2 - d] |= 1 << i
                    later[i][tau + 2 - d] |= 1 << j
                    if j > last[i]:
                        last[i] = j
        for i, j in enumerate(last):
            if j > i:
                closes[j] |= 1 << i
                waiting |= 1 << i
        self.not_later = [[~mask for mask in row] for row in later]
        self.not_closes = [~mask for mask in closes]
        self.waiting = waiting

    def filters(self, label: int):
        """(listed, not_later, earlier, not_closes, waiting) for
        ``label``, read against a table of the level before it: ``listed``
        holds the positions whose list has the label; the rows are the
        static ones."""
        return (self.listed.get(label, 0), self.not_later, self.earlier, self.not_closes,
                self.waiting)

    def run(self, vec, level: int):
        """One vector's OPEN positions barred from label ``level + 2``
        marked BLOCKED; kept for the benchmark replay only."""
        blk = self.full & ~self.listed.get(level + 2, 0)
        not_later, earlier = self.not_later, self.earlier
        for j, sym in enumerate(vec):
            if sym > 1:  # only a recent label (2..tau+1) bars
                blk |= ~not_later[j][sym] | earlier[j][sym]
        out = list(vec)
        for i, sym in enumerate(vec):
            if sym == OPEN and blk >> i & 1:
                out[i] = BLOCKED
        return tuple(out)


# ---------------------------------------------------------------------------
# the coordinate order


def walk_order(g: Graph) -> tuple[int, ...]:
    """A vertex order with a small frontier, for the solver's walks.

    The frontier after a prefix of the order is the set of placed
    vertices that still have an unplaced neighbour; the cost of the
    level walk follows its largest size (the order's vertex
    separation). Greedy and deterministic: each step
    places the unplaced vertex v with the least key (frontier size after
    placing v, -(placed neighbours of v), v). Each vertex's count of
    unplaced neighbours is kept up to date, so a candidate costs
    O(deg(v)) and the whole order O(n * m).
    """
    adjacency = g.adjacency
    left = {v: len(adjacency[v]) for v in adjacency}  # unplaced neighbours
    unplaced = set(adjacency)
    order: list[int] = []
    frontier = 0
    while unplaced:
        best = None
        for v in unplaced:
            joined = closed = 0
            for w in adjacency[v]:
                if w not in unplaced:
                    joined += 1
                    closed += left[w] == 1  # v is w's last unplaced neighbour
            key = (frontier - closed + (left[v] > 0), -joined, v)
            if best is None or key < best:
                best = key
        frontier, _, v = best
        order.append(v)
        unplaced.remove(v)
        for w in adjacency[v]:
            left[w] -= 1
    return tuple(order)


class ComponentDP:
    """The dynamic program of one component, with its coordinates in a
    given vertex order (any permutation of the vertices; the solver uses
    walk_order). The tables hold the same vectors, up to the order of
    their coordinates, whatever the order; only cost varies.

    Built once per component: ``tau``, the coordinate ``ordering`` and
    the masks ``bar`` that say which positions each label is barred from
    and, in ``bar.nbr_mask``, each position's neighbours, which never
    take one label together. ``advance`` takes a table one level on as a
    node store, from ``base_store()`` on; nothing here builds dict nodes
    or an independent-set trie.
    """

    def __init__(self, inst: Instance, ordering):
        self.tau = tau = instance_tau(inst)
        self.ordering = ordering = tuple(ordering)
        self.bar = _BarPass(inst, ordering, tau)

    def base_store(self) -> list:
        """The level-0 table as ``advance`` takes it: its one vector, every
        position OPEN, as a chain of one-child shapes."""
        shapes = [(), *(((OPEN, i),) for i in range(len(self.ordering)))]
        return [shapes, len(shapes) - 1, None]

    def advance(self, store: list, level: int) -> tuple[int, int, bool, int, int]:
        """Advance the level ``level - 1`` table to level ``level`` in one
        _level_walk, filtered by the masks of label ``level``.

        ``store`` is the list [shapes, root uid, tally flags or None] of a
        nonempty table. It is replaced in place by the new table's, so the
        old store goes as soon as the walk is done with it, unless the
        caller keeps its shapes, which the walk only reads. Returns the new
        table's number of vectors and of DAG nodes, whether it holds a
        complete vector, the entries the walk memoized and the unions it
        made; the count and the flags come from encoding.tally.
        """
        shapes, root, _ = store
        store.clear()
        shapes, root, entries, unions, reached = _level_walk(shapes, root, self.bar.nbr_mask,
                                                             self.tau, self.bar.filters(level))
        shapes, root, count, full = tally(shapes, root, reached)
        store[:] = shapes, root, full
        return count[root], len(shapes) - 1, full[root], entries, unions


# ---------------------------------------------------------------------------
# witness reconstruction


def _least_complete(shapes, full, root: int):
    """The least vector below uid ``root`` of the node store ``shapes``
    with every coordinate labeled, or None: a descent to the first
    labeled child, in symbol order, that the store's tally flags ``full``
    mark complete. It never backtracks, one node per position.
    """
    if not full[root]:
        return None
    path: list[int] = []
    while root:  # uid 0 is LEAF
        for sym, child in shapes[root]:
            if sym > 0 and full[child]:
                path.append(sym)
                root = child
                break
    return tuple(path)


def _walk_back(levels, final, final_level, nbr_mask, tau: int, ordering, filters) -> Witness:
    """Walk the complete vector ``final`` of level ``final_level`` back
    through the retained levels, each a (node store, root uid) pair.

    At each level k the predecessor, a vector of the level below and an
    assign mask that advance to the current vector, is found by a
    depth-first walk of that level's store. A position takes label k
    only where _level_walk would let it: ``filters(k)``
    (_BarPass.filters, or _unbarred for every label on the replay's
    tables, whose BLOCKED already says it) and the neighbour masks
    ``nbr_mask`` give the same ``allow`` and ``pend`` masks.
    Deterministic: the first hit in canonical symbol order, assign bit 0
    before 1. States with no match below them are remembered, keyed as
    _level_walk's memo, so shared nodes are searched once per mask pair.
    The mask tells which vertices took that level's label. The walk
    stops at the first level k whose vector holds no aged label (symbol
    1): each label left is recent, k + sym - tau - 1 for its symbol
    sym >= 2, and the levels below only replay its aging.
    """
    n = len(final)
    ys = preimage_table(tau)
    labels: Witness = {}
    path: list[tuple[int, int]] = []
    dead: set[int] = set()
    shapes, options = [], []

    def dfs(i, u, allow, pend):
        if i == n:
            return True
        key = u << n | allow | pend
        if key in dead:
            return False
        bit = 1 << i
        allow_next, pend_next = allow & ~bit, pend & not_closes[i]
        by_x = options[i]
        for x, child in shapes[u]:
            ys_of_x = by_x.get(x)
            if ys_of_x is None:
                continue
            c_allow = allow_next
            if x > 0:
                if pend & earlier[i][x]:
                    continue
                c_allow &= not_later[i][x]
            for y in ys_of_x:
                if y and not allow & bit:
                    continue
                path.append((x, y))
                if y:
                    found = dfs(i + 1, child, c_allow & ~nbr_mask[i], pend_next | bit & waiting)
                else:
                    found = dfs(i + 1, child, c_allow, pend_next)
                if found:
                    return True
                path.pop()
        dead.add(key)
        return False

    vec, k = final, final_level
    while k and 1 in vec:  # an aged label (symbol 1) is read only by walking on down
        shapes, root = levels[k - 1]
        listed, not_later, earlier, not_closes, waiting = filters(k)
        options = [ys[sym] if sym > 0 else ys[OPEN] for sym in vec]
        path.clear()
        dead.clear()
        found = dfs(0, root, listed, 0)
        assert found, "table member lost its predecessor"
        for i, (_, y) in enumerate(path):
            if y:
                labels[ordering[i]] = k
        vec = tuple(x for x, _ in path)
        k -= 1
    del dfs  # dfs refers to itself: end the cycle, which holds ``dead``
    for i, sym in enumerate(vec):  # above level 0, each label left is recent: 2..tau+1
        if k and sym >= 2:
            labels[ordering[i]] = k + sym - tau - 1
    return labels


def _find_complete(trie: VectorTrie):
    """_least_complete on a dict trie, encoded and tallied on every call:
    an adapter for the benchmark's per-layer replay (perfbench/layers.py)
    that goes with the replay (ROADMAP item 1), as _combine does."""
    if trie.root is None:
        return None
    shapes, (root,) = encode((trie.root,))
    shapes, root, _, full = tally(shapes, root)
    return _least_complete(shapes, full, root)


def reconstruct_witness(tables: list[LevelTable], final, final_level: int,
                        indep: VectorTrie, tau: int, ordering) -> Witness:
    """_walk_back on dict tries, the level tables from level 0 on encoded
    and the neighbours read off the independent-set trie ``indep`` on
    every call: an adapter for the benchmark's per-layer replay
    (perfbench/layers.py) that goes with the replay (ROADMAP item 1), as
    _combine does. The replay's tables carry OPEN and BLOCKED, so nothing
    more is barred."""
    shapes, roots = encode([table.vectors.root for table in tables[:final_level]])
    unbarred = _unbarred(len(final), tau)
    return _walk_back([(shapes, root) for root in roots], final, final_level,
                      _trie_neighbours(indep.root, len(final)), tau, ordering, lambda _: unbarred)


def check_witness(inst: Instance, witness: Witness) -> bool:
    """True iff the labeling is total, list-respecting and difference-respecting."""
    if set(witness) != set(range(1, inst.graph.n + 1)):
        return False
    for v, lab in witness.items():
        if lab not in inst.lam[v]:
            return False
    for u, v in inst.graph.edges:
        if abs(witness[u] - witness[v]) in inst.t[(u, v)]:
            return False
    return True


# ---------------------------------------------------------------------------
# drivers


def _solve_component(inst: Instance, options: SolveOptions,
                     stats: SolveStats) -> tuple[bool, Witness | None]:
    """Run the DP on one connected (sub-)instance, walked in walk_order,
    with its unsupported labels pruned and its dead label gaps compressed."""
    ordering = walk_order(inst.graph)
    report = ComponentReport(instance=inst, ordering=ordering)
    stats.components.append(report)
    entries = sum(map(len, inst.lam.values()))
    inst, label_map = gap_compression(inst)
    report.pruned_labels = entries - sum(map(len, inst.lam.values()))
    if not label_map:  # pruning emptied every list: NO, and no level runs
        return False, None
    dp = ComponentDP(inst, ordering)
    store = dp.base_store()
    # a retained level keeps its store, as advance leaves it
    levels = [(store[0], store[1])] if options.store_parents else None

    held = 0  # the component's stores go when it returns, so the cap is per component
    # a component has a vertex, so the base vector is never complete
    for k in range(1, max(label_map) + 1):  # to the largest label, compressed
        size, nodes, complete, memo, unions = dp.advance(store, k)
        if levels is not None:
            levels.append((store[0], store[1]))
        stats.levels += 1
        stats.max_table_size = max(stats.max_table_size, size)
        report.level_sizes.append(size)
        report.level_nodes.append(nodes)
        report.level_memo.append(memo)
        report.level_unions.append(unions)
        held += nodes + memo + unions
        if held > ENTRY_LIMIT:
            raise ResourceLimitError(f"{held} table nodes and walk entries by level {k}, "
                                     f"past the limit of {ENTRY_LIMIT}")
        if complete and options.early_exit:
            break
    # completeness persists from level to level (the empty independent set
    # lets every vector skip a label), so with early exit on or off the
    # last level run decides, and its table anchors the witness
    if not complete:
        return False, None
    if levels is None:
        return True, None
    shapes, root, full = store
    found = _least_complete(shapes, full, root)
    witness = _walk_back(levels, found, k, dp.bar.nbr_mask, dp.tau, ordering, dp.bar.filters)
    return True, {v: label_map[lab] for v, lab in witness.items()}


def solve(inst: Instance, strategy: str = "auto",
          options: SolveOptions | None = None) -> SolveResult:
    """Decide the instance; on YES optionally return an explicit labeling.

    The instance is split into connected components once, and each is
    walked in walk_order, so a YES witness is the least complete vector
    in that order. ``strategy`` is accepted and ignored: it does not
    affect the solve, since a partition only bounds the tables (see
    build_partition and predict_complexity). It goes at the next change
    to the benchmark, which still passes it.

    The walks take one stack frame per position, and a union called from
    the level walk at most one more per position below it, so for the
    duration of the call the recursion limit, which is process-wide, is
    raised by twice the number of vertices and then restored. From
    CPython 3.11 on, calls from Python to Python do not grow the C stack.

    The cyclic garbage collector, process-wide too, is off for the
    duration of the call and switched back on after it only if the
    caller had it on, also when the solve raises: what a solve builds
    holds no reference cycle (tests/test_solver.py
    ::test_solves_leave_no_reference_cycles), so its passes would free
    nothing. The two settings make concurrent solves in threads of one
    process unsupported.
    """
    options = options or SolveOptions()
    stats = SolveStats()
    if not all(inst.lam.values()):  # a vertex with an empty list: NO
        return SolveResult(False, None, stats)
    limit = sys.getrecursionlimit()
    collecting = gc.isenabled()
    sys.setrecursionlimit(limit + 2 * inst.graph.n)
    gc.disable()
    try:
        witness: Witness | None = {}
        for sub, idmap in split_components(inst):
            ok, sub_witness = _solve_component(sub, options, stats)
            if not ok:
                return SolveResult(False, None, stats)
            if witness is not None and sub_witness is not None:
                for v, lab in sub_witness.items():
                    witness[idmap[v]] = lab
            else:
                witness = None
        return SolveResult(True, witness, stats)
    finally:
        if collecting:
            gc.enable()
        sys.setrecursionlimit(limit)
