"""Label-by-label dynamic program over state-vector sets kept as DAGs.

Level k holds the set of state vectors of all proper partial labelings
using labels 1..k. Advancing to level k+1 combines the table with the
independent-set vectors (the vertices receiving label k+1 must be
pairwise non-adjacent), then recomputes which unlabeled vertices can
still take label k+2. Labels that fail arc consistency, which no proper
labeling uses, are pruned first (instance.gap_compression), and a
component that pruning empties is NO with no level run. The coordinates
follow walk_order, defined here next to ComponentDP: a greedy
small-frontier order of the graph. A table's content does not depend on
the order, but the cost of the walks does. No partition is built here;
partition.predict_complexity bounds the table sizes from outside. The
combination is a product over single pairs of a table node and an
independent-set trie node, memoized on the pair. Where two children of a
table node age to the same symbol, they are first folded into one node
by a memoized union on the table's own node store (the unique table and
memoized OR of BDD packages), so every memo key stays one pair.

A level table is a hash-consed DAG, a trie in which equal subtrees are
one node (a reduced multi-valued decision diagram), kept in an integer
node store: each node is a uid whose shape is the tuple of its (symbol,
child uid) pairs, and every memo key of a store walk is one int. Both
inputs of a component's DP are born as node stores: the independent-set
trie (indsets.independent_set_trie), whose shapes hold a 0-child and
maybe a 1-child, and the level-0 table as a chain of one-child shapes.
The level loop owns the store and its unique table from one level to the
next, and each combine adds its unions to them. The OPEN/BLOCKED
recomputation, a memoized rewrite of the hash-consed combined DAG into
the next table, meets each distinct subtree once; one pass over its
output store then counts each node's vectors and notes whether a
complete vector (every vertex labeled) lies below it, so no table is
walked again to size it or to decide. The instance is YES iff some
level's table holds a complete vector. An explicit labeling is then
reconstructed on the stores themselves: a retained level keeps its
store, the least complete vector is found by a descent that remembers
dead uids, and the walk back pairs table uids with trie uids. Dict nodes
(gltc.vectorset) are for tests and the benchmark replay's adapters only.

Every recursive walk here creates its memo, returns the memo's size when
a report needs it, takes one stack frame per position, and deletes its
own closure before returning, so no reference cycle is left for the
garbage collector. The union walk is a module-level function with no
closure; the combine walk creates its memos and hands them to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .encoding import BLOCKED, OPEN, aging_table, preimage_table
from .indsets import independent_set_trie
from .instance import Graph, Instance, gap_compression, instance_tau, split_components
from .vectorset import VectorTrie, decode, encode

Witness = dict[int, int]


class ResourceLimitError(RuntimeError):
    """The sum of level sizes passed ``vector_limit`` (not a NO)."""


@dataclass(frozen=True)
class SolveOptions:
    """``early_exit`` stops at the first level with a complete vector;
    ``store_parents`` keeps every level table for the witness walk;
    ``vector_limit`` caps the sum of level sizes over all levels and
    components, checked after each level (ResourceLimitError).
    Labels that fail arc consistency are always pruned, differences no
    labeling gives dropped and dead label gaps compressed
    (instance.gap_compression)."""

    early_exit: bool = True
    store_parents: bool = True
    vector_limit: int = 1 << 26


@dataclass
class LevelTable:
    """The state-vector set of one level of the dynamic program."""

    level: int
    vectors: VectorTrie


@dataclass
class ComponentReport:
    """Per-component diagnostics: the vertex order the walks followed and,
    per level, how big the table got (vectors and DAG nodes), how many
    entries the combine and rewrite memos held together and how many
    unions the combine memoized, and the list entries pruned before the
    DP. A bound for the sizes comes from predict_complexity on a
    partition of ``instance``."""

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
    total_vectors: int = 0
    components: list[ComponentReport] = field(default_factory=list)


@dataclass
class SolveResult:
    decision: bool
    witness: Witness | None
    stats: SolveStats


# ---------------------------------------------------------------------------
# the node store
#
# The level loop keeps each table, and the independent-set trie, in a
# node store: a list mapping each uid to its shape, the tuple of its
# (symbol, child uid) pairs in symbol order. Uid 0 is LEAF, with the
# empty shape. A store is built bottom-up and hash-consed on the shape, so
# children have smaller uids than their parents, equal subtrees share one
# uid, and a shape fixes its depth.


# ---------------------------------------------------------------------------
# the combination step


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


def _image(shapes, trie, root, tau: int, unique=None):
    """The combination walk on node stores: every advance of a table
    vector below uid ``root`` of store ``shapes`` by a vector of the
    independent-set ``trie``, a (store, root uid) pair. Returns the store
    of the combined DAG, its root uid, the number of entries the image
    memo held and the number of unions the walk memoized.

    A product over single pairs, the image operation of a decision
    diagram: image(u, q) is the set of advances of the vectors below
    table uid u by those below trie node q, memoized on the int
    u * NP + q, NP the trie's store size. Assign 0 ages each symbol
    through one lookup table, and the children of u that age to the
    same symbol (BLOCKED and OPEN to OPEN, 1 and 2 to 1) are first
    folded into one table uid by _union, so each output child is one
    pair, image(group, q's 0-child). Assign 1 takes OPEN, and only
    OPEN, to tau + 1: image(OPEN child, q's 1-child) where q has one.
    For tau = 0 that symbol is 1, which aged 1 also gives; only there
    the two output children are merged by _union on the output store.

    The unions hash-cons into the input store itself, through its unique
    table ``unique``: pass the one the store was built with, or None to
    build it here. The store grows by the union nodes, past the reach of
    ``root``, so the table below ``root`` stays as it was. Every trie
    node at a depth below its length has a 0-child and every symbol
    ages, so a nonempty table has a nonempty image. The output is
    hash-consed too, so the bar rewrite meets each combined subtree once.
    """
    t_shapes, p_root = trie
    trie_size = len(t_shapes)
    top = tau + 1
    adv = aging_table(tau)  # assign 0 ages symbol x to adv[x]
    if unique is None:
        unique = {shape: uid for uid, shape in enumerate(shapes)}
    unions: dict[int, int] = {}
    out: list[tuple] = [()]
    out_unique: dict[tuple, int] = {}
    out_unions: dict[int, int] = {}
    # the pair (LEAF, the trie's LEAF) packs to 0 and advances to LEAF
    memo: dict[int, int] = {0: 0}

    def image(u, q):
        q_shape = t_shapes[q]
        q0 = q_shape[0][1]
        pairs = []
        last = group = opened = -1  # last: the symbol ``group`` ages to
        # the shape comes in symbol order and aging keeps that order, so
        # the children that age to one symbol are adjacent: each group is
        # folded by _union before its image is taken
        for x, child in shapes[u]:
            if x == OPEN:
                opened = child
            sym = adv[x]
            if sym == last:
                group = _union(group, child, shapes, unique, unions)
                continue
            if last >= 0:
                key = group * trie_size + q0
                c = memo.get(key)
                if c is None:
                    c = memo[key] = image(group, q0)
                pairs.append((last, c))
            last, group = sym, child
        key = group * trie_size + q0
        c = memo.get(key)
        if c is None:
            c = memo[key] = image(group, q0)
        pairs.append((last, c))
        if opened >= 0 and len(q_shape) == 2:
            q1 = q_shape[1][1]
            key = opened * trie_size + q1
            child = memo.get(key)
            if child is None:
                child = memo[key] = image(opened, q1)
            if last == top:  # tau = 0: assign and aged 1 both give symbol 1
                child = _union(pairs.pop()[1], child, out, out_unique, out_unions)
            pairs.append((top, child))
        shape = tuple(pairs)
        uid = out_unique.get(shape)
        if uid is None:
            uid = out_unique[shape] = len(out)
            out.append(shape)
        return uid

    out_root = image(root, p_root) if root else 0
    del image  # image refers to itself: end the cycle, which holds the memos
    return out, out_root, len(memo) - 1, len(unions) + len(out_unions)


def _combine(a_nodes, p_node, depth, plan, memo):
    """_image on dict DAGs, both inputs encoded and the output decoded
    on every call. An adapter with the call shape of the benchmark's
    per-layer replay (perfbench/layers.py): ``a_nodes`` holds one root,
    ``depth`` is 0, ``plan`` is _build_plan's (length, tau) and ``memo``
    is unused. It goes with the replay (ROADMAP item 1).
    """
    shapes, (root,) = encode(a_nodes)
    trie_shapes, (trie_root,) = encode((p_node,))
    out, out_root, _, _ = _image(shapes, (trie_shapes, trie_root), root, plan[1])
    return decode(out)[out_root]


# ---------------------------------------------------------------------------
# level pipeline


class _BarPass:
    """Precomputed per-position data for the OPEN/BLOCKED recomputation.

    The solver applies the pass to a whole combined table with
    ``rewrite``. ``run`` applies it to one vector; only the benchmark's
    per-layer replay (perfbench/layers.py) still calls it, and it goes
    at the next change to the benchmark.
    """

    def __init__(self, inst: Instance, ordering, tau: int):
        # Bitmasks over positions: listed[lab] holds the positions whose
        # list has label lab; a symbol at position j blocks the later
        # positions later[j][sym] and the earlier ones earlier[j][sym] (lists
        # by symbol); closes[j] holds the positions whose last blocking
        # neighbour sits at j; waiting holds those with any later one.
        pos_of = {v: i for i, v in enumerate(ordering)}
        n = len(ordering)
        self.full = (1 << n) - 1
        self.listed = listed = {}
        self.later = later = [[0] * (tau + 2) for _ in range(n)]
        self.earlier = earlier = [[0] * (tau + 2) for _ in range(n)]
        self.closes = [0] * n
        self.waiting = 0
        for i, v in enumerate(ordering):
            for lab in inst.lam[v]:
                listed[lab] = listed.get(lab, 0) | 1 << i
        last = list(range(n))  # the last blocking neighbour of each position, or itself
        for (u, v), diffs in inst.t.items():
            i, j = sorted((pos_of[u], pos_of[v]))
            for d in diffs:
                # symbol b at one end: its label lies d = tau + 2 - b below the next one
                if 0 < d <= tau:
                    earlier[j][tau + 2 - d] |= 1 << i
                    later[i][tau + 2 - d] |= 1 << j
                    last[i] = max(last[i], j)
        for i, j in enumerate(last):
            if j > i:
                self.closes[j] |= 1 << i
                self.waiting |= 1 << i

    def _closed(self, level: int) -> int:
        """Positions whose list lacks label ``level + 2``: no OPEN survives there."""
        return self.full & ~self.listed.get(level + 2, 0)

    def run(self, vec, level: int):
        """One vector through the pass; kept for the benchmark replay only."""
        blk = self._closed(level)
        later, earlier = self.later, self.earlier
        for j, sym in enumerate(vec):
            if sym > 1:  # only a recent label (2..tau+1) blocks
                blk |= later[j][sym] | earlier[j][sym]
        out = list(vec)
        for i, sym in enumerate(vec):
            if sym == OPEN and blk >> i & 1:
                out[i] = BLOCKED
        return tuple(out)

    def rewrite(self, shapes, root: int, level: int):
        """The pass applied to every vector below uid ``root`` of the node
        store ``shapes`` in one walk.

        Returns the store of the barred table (exactly the nodes its
        root reaches), its unique table (shape -> uid, for the next
        combine's unions), the root's uid, its number of vectors, whether
        it holds a complete vector and the entries the walk memoized;
        the last three come from one pass over the store after the walk.

        A call at depth d carries ``blk``, the positions >= d already
        blocked by an earlier neighbour's symbol, and ``pend``, the
        earlier OPEN positions still waiting on a later neighbour. It
        maps each subset of ``pend`` its suffixes block to the output uid
        of those suffixes; the caller settles OPEN or BLOCKED for its own
        pending coordinate. With ``pend`` empty, as at the root, all lands
        under the empty subset, so that call (``one``) returns one uid and
        builds no map. The memo key ``uid << n | blk | pend`` is exact, as
        a uid fixes d; LEAF's is 0, as nothing waits at or lies past the
        last position. Positions the level closes are masked out of
        ``later`` once per call, so ``blk`` never holds them.
        Output children come in symbol order without sorting: the input's
        do and hold no BLOCKED, and BLOCKED, the least symbol, only ever
        replaces OPEN, the first one.
        """
        closed = self._closed(level)
        n, earlier, closes, waiting = len(self.closes), self.earlier, self.closes, self.waiting
        later = [[mask & ~closed for mask in row] for row in self.later]
        out: list[tuple] = [()]
        unique: dict[tuple, int] = {}
        memo: dict[int, object] = {0: 0}

        def node(shape):
            uid = unique.get(shape)
            if uid is None:
                uid = unique[shape] = len(out)
                out.append(shape)
            return uid

        def one(uid, d, blk):
            bit = 1 << d
            blk_next = blk & ~bit
            row = later[d]
            children = []
            for sym, child in shapes[uid]:
                c_blk = blk_next
                if sym != OPEN:
                    c_blk |= row[sym]
                elif (blk | closed) & bit:
                    sym = BLOCKED
                elif waiting & bit:
                    # the suffixes settle this OPEN: those that block it
                    # give a BLOCKED child, before the OPEN one
                    key = child << n | c_blk | bit
                    sub = memo.get(key)
                    if sub is None:
                        sub = memo[key] = go(child, d + 1, c_blk, bit)
                    if bit in sub:
                        children.append((BLOCKED, sub[bit]))
                    if 0 in sub:
                        children.append((OPEN, sub[0]))
                    continue
                key = child << n | c_blk
                out_child = memo.get(key)
                if out_child is None:
                    out_child = memo[key] = one(child, d + 1, c_blk)
                children.append((sym, out_child))
            shape = tuple(children)
            out_uid = unique.get(shape)
            if out_uid is None:  # node(shape), inlined on the hot path
                out_uid = unique[shape] = len(out)
                out.append(shape)
            return out_uid

        def go(uid, d, blk, pend):
            bit = 1 << d
            blk_next = blk & ~bit
            pend_next = pend & ~closes[d]
            row_later, row_earlier = later[d], earlier[d]
            groups: dict[int, list] = {}
            for sym, child in shapes[uid]:
                hits, own, c_blk, c_pend = 0, 0, blk_next, pend_next
                if sym != OPEN:
                    hits = pend & row_earlier[sym]
                    c_blk, c_pend = c_blk | row_later[sym], c_pend & ~hits
                elif (blk | closed) & bit:
                    sym = BLOCKED
                elif waiting & bit:
                    own = bit
                    c_pend |= bit
                if not c_pend:
                    key = child << n | c_blk
                    out_child = memo.get(key)
                    if out_child is None:
                        out_child = memo[key] = one(child, d + 1, c_blk)
                    groups.setdefault(hits, []).append((sym, out_child))
                    continue
                key = child << n | c_blk | c_pend
                sub = memo.get(key)
                if sub is None:
                    sub = memo[key] = go(child, d + 1, c_blk, c_pend)
                for mask, out_child in sub.items():
                    mask |= hits
                    if mask & own:
                        # BLOCKED goes before an OPEN this group may hold
                        groups.setdefault(mask ^ own, []).insert(0, (BLOCKED, out_child))
                    else:
                        groups.setdefault(mask, []).append((sym, out_child))
            return {mask: node(tuple(children)) for mask, children in groups.items()}

        barred = one(root, 0, 0) if root else 0
        del go, one, node  # go and one refer to each other: end the cycle, as _image does
        # vectors below each uid and whether a complete one is among them,
        # in one pass, as the store holds children before parents
        count, full = [1], [True]
        for shape in out[1:]:
            total, whole = 0, False
            for sym, c in shape:
                total += count[c]
                whole = whole or sym > 0 and full[c]
            count.append(total)
            full.append(whole)
        return out, unique, barred, count[barred], full[barred], len(memo) - 1


# ---------------------------------------------------------------------------
# the coordinate order


def walk_order(g: Graph) -> tuple[int, ...]:
    """A vertex order with a small frontier, for the solver's walks.

    The frontier after a prefix of the order is the set of placed
    vertices that still have an unplaced neighbour; the cost of the
    combine and OPEN/BLOCKED walks follows its largest size (the
    order's vertex separation). Greedy and deterministic: each step
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

    Built once per component: ``tau``, the coordinate ``ordering``, the
    independent-set ``trie`` as (node store, root uid), the form of each
    retained level, the OPEN/BLOCKED pass ``bar`` and the level-0 vector
    (OPEN where label 1 is permitted, BLOCKED otherwise).
    ``advance`` takes a table one level on as a node store, from
    ``base_store()`` on; nothing here builds dict nodes.
    """

    def __init__(self, inst: Instance, ordering):
        self.tau = tau = instance_tau(inst)
        self.ordering = ordering = tuple(ordering)
        self.bar = _BarPass(inst, ordering, tau)
        self._base = tuple(OPEN if 1 in inst.lam[v] else BLOCKED for v in ordering)
        self.trie = independent_set_trie(inst.graph, ordering)

    def base_store(self) -> list:
        """The level-0 table as ``advance`` takes it, a chain of one-child shapes."""
        shapes = [(), *(((sym, i),) for i, sym in enumerate(reversed(self._base)))]
        return [shapes, None, len(shapes) - 1]

    def advance(self, store: list, level: int) -> tuple[int, int, bool, int, int]:
        """Advance the level ``level - 1`` table to level ``level``: the
        combine (_image), then the bar pass (_BarPass.rewrite).

        ``store`` is the list [shapes, unique table or None, root uid] of
        a nonempty table. It is replaced in place by the new table's, so
        the old store goes as soon as the combine is done with it, unless
        the caller keeps its shapes, which then come back as they were:
        the unions the combine appends are cut off. Returns the new
        table's number of vectors and of DAG nodes, whether it holds a
        complete vector, the entries the image and rewrite memos held and
        the unions the combine memoized.
        """
        shapes, unique, root = store
        store.clear()
        kept = len(shapes)
        combined, croot, entries, unions = _image(shapes, self.trie, root, self.tau, unique)
        del shapes[kept:], shapes, unique  # the unions, then the store unless the caller keeps it
        shapes, unique, root, size, complete, bar_entries = self.bar.rewrite(
            combined, croot, level - 1)
        store[:] = shapes, unique, root
        return size, len(shapes) - 1, complete, entries + bar_entries, unions


# ---------------------------------------------------------------------------
# witness reconstruction


def _least_complete(shapes, root: int):
    """The least vector below uid ``root`` of the node store ``shapes``
    with every coordinate labeled, or None: shapes list their children in
    symbol order, so the first hit is the lexicographically least. Uids
    found to lead to no complete vector are remembered, so a DAG is
    walked in time linear in its nodes, not in its paths.
    """
    path: list[int] = []
    dead: set[int] = set()

    def go(uid):
        if not uid:  # LEAF
            return True
        if uid in dead:
            return False
        for sym, child in shapes[uid]:
            if sym >= 1:
                path.append(sym)
                if go(child):
                    return True
                path.pop()
        dead.add(uid)
        return False

    complete = go(root)
    del go  # go refers to itself: end the cycle, which holds ``dead``
    return tuple(path) if complete else None


def _walk_back(levels, final, final_level: int, trie, tau: int, ordering) -> Witness:
    """Walk the complete vector ``final`` of level ``final_level`` back
    through the retained levels, each a (node store, root uid) pair.

    At each level the predecessor, a vector of the level below and an
    assign mask that advance to the current vector (its OPEN and BLOCKED
    both read as OPEN, the symbol before the bar pass), is found by
    walking that level's store and the independent-set ``trie``, a
    (store, root uid) pair, in lockstep over (table uid, trie uid)
    pairs; a trie node may lack either child. Deterministic: the first
    hit in canonical symbol order. Pairs with no match below them are
    remembered, so shared nodes are searched once. The mask tells which
    vertices took that level's label.
    """
    t_shapes, p_root = trie
    trie_size, n = len(t_shapes), len(final)
    ys = preimage_table(tau)
    labels: Witness = {}
    path: list[tuple[int, int]] = []
    dead: set[int] = set()
    shapes, options = [], []

    def dfs(i, u, q):
        if i == n:
            return True
        key = u * trie_size + q
        if key in dead:
            return False
        by_x = options[i]
        for x, child in shapes[u]:
            ys_of_x = by_x.get(x, ())
            for y, c in t_shapes[q]:
                if y in ys_of_x:
                    path.append((x, y))
                    if dfs(i + 1, child, c):
                        return True
                    path.pop()
        dead.add(key)
        return False

    vec = final
    for k in range(final_level, 0, -1):
        shapes, root = levels[k - 1]
        options = [ys[sym] if sym > 0 else ys[OPEN] for sym in vec]
        path.clear()
        dead.clear()
        found = dfs(0, root, p_root)
        assert found, "table member lost its predecessor"
        for i, (_, y) in enumerate(path):
            if y:
                labels[ordering[i]] = k
        vec = tuple(x for x, _ in path)
    del dfs  # dfs refers to itself: end the cycle, which holds ``dead``
    return labels


def _find_complete(trie: VectorTrie):
    """_least_complete on a dict trie, encoded on every call: an adapter
    for the benchmark's per-layer replay (perfbench/layers.py) that goes
    with the replay (ROADMAP item 1), as _combine does."""
    if trie.root is None:
        return None
    shapes, (root,) = encode((trie.root,))
    return _least_complete(shapes, root)


def reconstruct_witness(tables: list[LevelTable], final, final_level: int,
                        indep: VectorTrie, tau: int, ordering) -> Witness:
    """_walk_back on dict tries, the level tables from level 0 on and
    the independent-set trie ``indep``, all encoded on every call: an
    adapter for the benchmark's per-layer replay (perfbench/layers.py)
    that goes with the replay (ROADMAP item 1), as _combine does."""
    shapes, roots = encode([table.vectors.root for table in tables[:final_level]])
    trie_shapes, (trie_root,) = encode((indep.root,))
    return _walk_back([(shapes, root) for root in roots], final, final_level,
                      (trie_shapes, trie_root), tau, ordering)


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
    levels = [(store[0], store[2])] if options.store_parents else None
    found_level = None

    # a component has a vertex, so the base vector is never complete
    for k in range(1, max(label_map) + 1):  # to the largest label, compressed
        size, nodes, complete, memo, unions = dp.advance(store, k)
        if levels is not None:
            levels.append((store[0], store[2]))
        stats.levels += 1
        stats.total_vectors += size
        stats.max_table_size = max(stats.max_table_size, size)
        report.level_sizes.append(size)
        report.level_nodes.append(nodes)
        report.level_memo.append(memo)
        report.level_unions.append(unions)
        if stats.total_vectors > options.vector_limit:
            raise ResourceLimitError(
                f"stored vectors exceeded the limit of {options.vector_limit}")
        # completeness persists from level to level, so without early exit
        # the last level decides, and its vector anchors the witness
        if complete:
            found_level = k
            if options.early_exit:
                break
    if found_level is None:
        return False, None
    if levels is None:
        return True, None
    found = _least_complete(*levels[found_level])
    witness = _walk_back(levels, found, found_level, dp.trie, dp.tau, ordering)
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
    """
    options = options or SolveOptions()
    stats = SolveStats()
    if not all(inst.lam.values()):  # a vertex with an empty list: NO
        return SolveResult(False, None, stats)
    witness: Witness | None = {}
    decision = True
    for sub, idmap in split_components(inst):
        ok, sub_witness = _solve_component(sub, options, stats)
        if not ok:
            decision = False
            witness = None
            break
        if witness is not None and sub_witness is not None:
            for v, lab in sub_witness.items():
                witness[idmap[v]] = lab
        else:
            witness = None
    return SolveResult(decision, witness, stats)
