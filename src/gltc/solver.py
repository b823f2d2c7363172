"""Label-by-label dynamic program over state-vector sets kept as DAGs.

Level k holds the set of state vectors of all proper partial labelings
using labels 1..k. Advancing to level k+1 combines the table with the
independent-set vectors (the vertices receiving label k+1 must be
pairwise non-adjacent), then recomputes which unlabeled vertices can
still take label k+2. The combination is evaluated block by block over
a vertex partition: per block only the feasible prefixes are expanded,
and the matching suffix sets are unioned as trie subtree handles, so
shared suffixes are processed once.

A level table is a hash-consed DAG: a trie in which equal subtrees are
one node (a reduced multi-valued decision diagram). The OPEN/BLOCKED
recomputation is a memoized rewrite of the combined DAG into the next
one, so no level is ever expanded into its vectors; completeness checks
and the witness walk remember dead nodes and so stay linear in nodes.

The instance is YES iff some level's table contains a vector with every
vertex labeled; an explicit labeling is then reconstructed by walking
the level tables backwards.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .encoding import BLOCKED, OPEN, advance_preimage_pairs
from .indsets import independent_set_vectors
from .instance import Instance, gap_compression, instance_tau, split_components, validate
from .partition import Partition, build_partition, feasible_prefixes
from .vectorset import LEAF, VectorTrie, node_count, node_restrict, node_union

Witness = dict[int, int]


class ResourceLimitError(RuntimeError):
    """The configured cap on stored state vectors was exceeded (not a NO)."""


@dataclass(frozen=True)
class SolveOptions:
    early_exit: bool = True
    store_parents: bool = True
    strengthened_pruning: bool = True
    gap_compress: bool = True
    vector_limit: int = 1 << 26


@dataclass
class LevelTable:
    """The state-vector set of one level of the dynamic program."""

    level: int
    vectors: VectorTrie


@dataclass
class ComponentReport:
    """Per-component diagnostics: which partition ran and how big tables got."""

    instance: Instance
    partition: Partition
    level_sizes: list[int] = field(default_factory=list)
    level_nodes: list[int] = field(default_factory=list)


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
# the block-decomposed combination step


def _prefix_options(block_prefixes, tau: int):
    """Expand each feasible prefix into (prefix, assign-mask, per-coordinate
    state preimages).

    For tau >= 1 the assign mask is forced: a coordinate takes the new
    label exactly when its prefix symbol is tau+1. For tau = 0 the
    symbol 1 also survives from older labels, so both mask bits must be
    explored there.
    """
    options = []
    for a in block_prefixes:
        mask_choices = []
        for sym in a:
            if sym == tau + 1 and tau == 0:
                mask_choices.append((0, 1))
            elif sym == tau + 1:
                mask_choices.append((1,))
            else:
                mask_choices.append((0,))
        for mask in itertools.product(*mask_choices):
            per_coord = []
            ok = True
            for sym, bit in zip(a, mask):
                xs = tuple(x for x, y in advance_preimage_pairs(sym, tau) if y == bit)
                if not xs:
                    ok = False
                    break
                per_coord.append(xs)
            if ok:
                options.append((a, mask, tuple(per_coord)))
    return options


def _build_plan(blocks, tau: int, inst: Instance, strengthened: bool):
    return [
        _prefix_options(feasible_prefixes(block, tau, inst, strengthened), tau)
        for block in blocks
    ]


def _descend(nodes, per_coord):
    """All distinct trie nodes reachable from ``nodes`` along any symbol
    sequence drawn from the per-coordinate option sets."""
    for options in per_coord:
        if len(nodes) == 1:
            # children of one trie node are distinct, no dedupe needed
            node = nodes[0]
            nxt = [child for sym in options if (child := node.get(sym)) is not None]
        else:
            nxt = []
            seen = set()
            for node in nodes:
                for sym in options:
                    child = node.get(sym)
                    if child is not None and id(child) not in seen:
                        seen.add(id(child))
                        nxt.append(child)
        if not nxt:
            return ()
        nodes = nxt
    return tuple(nodes)


def _combine(a_nodes, p_node, depth, plan, memo):
    """Union over the plan's prefix options; returns a result node or None."""
    if depth == len(plan):
        return LEAF
    key = (depth, tuple(id(h) for h in a_nodes), id(p_node))
    if key in memo:
        return memo[key]
    result = None
    for a, mask, per_coord in plan[depth]:
        p_sub = node_restrict(p_node, mask)
        if p_sub is None:
            continue
        subs = _descend(a_nodes, per_coord)
        if not subs:
            continue
        child = _combine(tuple(sorted(subs, key=id)), p_sub, depth + 1, plan, memo)
        if child is None:
            continue
        if result is None:
            result = {}
        node = result
        for sym in a[:-1]:
            node = node.setdefault(sym, {})
        prev = node.get(a[-1])
        node[a[-1]] = child if prev is None else node_union(prev, child)
    memo[key] = result
    return result


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
        pos_of = {v: i for i, v in enumerate(ordering)}
        self.lists = [inst.lam[v] for v in ordering]
        self.nbrs: list[list[tuple[int, frozenset[int]]]] = []
        for v in ordering:
            row = []
            for w in sorted(inst.graph.adjacency[v]):
                blocking = frozenset(
                    b for b in range(2, tau + 2) if (tau - b + 2) in inst.t_of(v, w)
                )
                if blocking:
                    row.append((pos_of[w], blocking))
            self.nbrs.append(row)
        # Bitmasks over positions for rewrite: a symbol at position j blocks
        # the later positions later[j][sym] and the earlier ones
        # earlier[j][sym]; closes[j] holds the positions whose last blocking
        # neighbour sits at j; waiting holds those with any later one.
        n = len(ordering)
        self.later: list[dict[int, int]] = [{} for _ in range(n)]
        self.earlier: list[dict[int, int]] = [{} for _ in range(n)]
        self.closes = [0] * n
        self.waiting = 0
        for i, row in enumerate(self.nbrs):
            for j, blocking in row:
                side = self.earlier[j] if j > i else self.later[j]
                for b in blocking:
                    side[b] = side.get(b, 0) | 1 << i
            last = max((j for j, _ in row), default=-1)
            if last > i:
                self.closes[last] |= 1 << i
                self.waiting |= 1 << i

    def run(self, vec, level: int):
        """One vector through the pass; kept for the benchmark replay only."""
        next_label = level + 2
        out = list(vec)
        for i, sym in enumerate(vec):
            if sym != OPEN:
                continue
            if next_label not in self.lists[i]:
                out[i] = BLOCKED
                continue
            for j, blocking in self.nbrs[i]:
                if vec[j] in blocking:
                    out[i] = BLOCKED
                    break
        return tuple(out)

    def rewrite(self, root, level: int):
        """The pass applied to every vector below ``root`` in one walk.

        Returns the root of the barred table, hash-consed into a reduced
        DAG (no two nodes with equal children), and its number of nodes.

        A call at depth d carries ``blk``, the positions >= d already
        blocked by an earlier neighbour's symbol, and ``pend``, the
        earlier OPEN positions still waiting on a later neighbour. It
        returns a map from the subset of ``pend`` its suffixes block to
        the output node of those suffixes; the caller then settles OPEN
        or BLOCKED for its own pending coordinate.
        """
        next_label = level + 2
        closed = 0
        for i, labels in enumerate(self.lists):
            if next_label not in labels:
                closed |= 1 << i
        later, earlier, closes, waiting = self.later, self.earlier, self.closes, self.waiting
        unique: dict[tuple, dict] = {}
        memo: dict[tuple, dict] = {}

        def go(node, d, blk, pend):
            if node is LEAF:
                return {0: LEAF}
            key = (id(node), d, blk, pend)
            out = memo.get(key)
            if out is not None:
                return out
            bit = 1 << d
            blk_next = blk & ~bit
            pend_next = pend & ~closes[d]
            groups: dict[int, dict] = {}
            for sym, child in node.items():
                hits = own = 0
                if sym != OPEN:
                    hits = pend & earlier[d].get(sym, 0)
                    sub = go(child, d + 1, blk_next | later[d].get(sym, 0), pend_next & ~hits)
                elif (blk | closed) & bit:
                    sym = BLOCKED
                    sub = go(child, d + 1, blk_next, pend_next)
                elif waiting & bit:
                    own = bit
                    sub = go(child, d + 1, blk_next, pend_next | bit)
                else:
                    sub = go(child, d + 1, blk_next, pend_next)
                for mask, out_child in sub.items():
                    mask |= hits
                    if mask & own:
                        groups.setdefault(mask ^ own, {})[BLOCKED] = out_child
                    else:
                        groups.setdefault(mask, {})[sym] = out_child
            out = {}
            for mask, children in groups.items():
                shape = tuple(sorted((s, id(c)) for s, c in children.items()))
                out[mask] = unique.setdefault(shape, children)
            memo[key] = out
            return out

        return go(root, 0, 0, 0)[0], len(unique)


def level_step(table: VectorTrie, indep: VectorTrie, plan, bar: _BarPass,
               level: int) -> tuple[VectorTrie, int, int]:
    """Advance the level ``level - 1`` table to level ``level``.

    Combines the table with the independent-set vectors along the prefix
    plan (see _build_plan), then rewrites the combined DAG through the
    bar pass (see _BarPass.rewrite). Returns the new table, its number
    of vectors and its number of distinct DAG nodes.
    """
    step = None if table.root is None else _combine((table.root,), indep.root, 0, plan, {})
    if step is None:
        return VectorTrie(table.length), 0, 0
    root, nodes = bar.rewrite(step, level - 1)
    return VectorTrie(table.length, root), node_count(root), nodes


def _find_complete(trie: VectorTrie):
    """Lexicographically least member with every coordinate labeled, or None.

    Nodes found to lead to no complete vector are remembered, so a DAG
    is walked in time linear in its nodes, not in its paths.
    """
    path: list[int] = []
    dead: set[int] = set()

    def go(node):
        if node is LEAF:
            return True
        if id(node) in dead:
            return False
        for sym in sorted(k for k in node if k >= 1):
            path.append(sym)
            if go(node[sym]):
                return True
            path.pop()
        dead.add(id(node))
        return False

    if trie.root is not None and go(trie.root):
        return tuple(path)
    return None


# ---------------------------------------------------------------------------
# witness reconstruction


def _predecessor(reduced, prev_root, p_root, tau: int):
    """Find (state vector in the previous table, assign mask) producing
    ``reduced``, walking both tries in lockstep. Deterministic: first hit
    in canonical symbol order. Node pairs with no match below them are
    remembered, so shared DAG nodes are searched once."""
    n = len(reduced)
    options = [advance_preimage_pairs(sym, tau) for sym in reduced]
    dead: set[tuple[int, int]] = set()

    def child(node, sym):
        if node is None or node is LEAF:
            return None
        return node.get(sym)

    def dfs(i, tnode, pnode):
        if i == n:
            return ()
        key = (id(tnode), id(pnode))
        if key in dead:
            return None
        for x, y in options[i]:
            tc = child(tnode, x)
            pc = child(pnode, y)
            if tc is None or pc is None:
                continue
            rest = dfs(i + 1, tc, pc)
            if rest is not None:
                return ((x, y),) + rest
        dead.add(key)
        return None

    return dfs(0, prev_root, p_root)


def reconstruct_witness(tables: list[LevelTable], final, final_level: int,
                        indep: VectorTrie, tau: int, ordering) -> Witness:
    """Walk a complete vector back through the retained level tables.

    At each level the assign mask recovered from the tries tells which
    vertices took that level's label. Requires tables for levels
    0..final_level.
    """
    labels: Witness = {}
    vec = final
    for k in range(final_level, 0, -1):
        reduced = tuple(sym if sym >= 1 else OPEN for sym in vec)
        pairs = _predecessor(reduced, tables[k - 1].vectors.root, indep.root, tau)
        assert pairs is not None, "table member lost its predecessor"
        for i, (_, y) in enumerate(pairs):
            if y == 1:
                labels[ordering[i]] = k
        vec = tuple(x for x, _ in pairs)
    return labels


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


def _solve_component(inst: Instance, part: Partition, options: SolveOptions,
                     stats: SolveStats) -> tuple[bool, Witness | None]:
    """Run the DP on one (sub-)instance with an explicit partition."""
    report = ComponentReport(instance=inst, partition=part)
    stats.components.append(report)
    label_map: dict[int, int] = {}
    if options.gap_compress:
        inst, label_map = gap_compression(inst)
    tau = instance_tau(inst)
    lmax = max((max(ls) for ls in inst.lam.values() if ls), default=0)
    ordering = part.ordering
    indep = independent_set_vectors(inst.graph, ordering)
    bar = _BarPass(inst, ordering, tau)
    base = tuple(OPEN if 1 in inst.lam[v] else BLOCKED for v in ordering)
    tables = [LevelTable(0, VectorTrie.from_vectors(len(ordering), [base]))]
    plan = _build_plan(part.blocks, tau, inst, options.strengthened_pruning)

    found = _find_complete(tables[0].vectors)  # complete at level 0 only when n == 0
    found_level = 0
    for k in range(1, lmax + 1):
        table, size, nodes = level_step(tables[-1].vectors, indep, plan, bar, k)
        if options.store_parents:
            tables.append(LevelTable(k, table))
        else:
            tables = [LevelTable(k, table)]
        stats.levels += 1
        stats.total_vectors += size
        stats.max_table_size = max(stats.max_table_size, size)
        report.level_sizes.append(size)
        report.level_nodes.append(nodes)
        if stats.total_vectors > options.vector_limit:
            raise ResourceLimitError(
                f"stored vectors exceeded the limit of {options.vector_limit}"
            )
        # completeness persists from level to level, so without early exit
        # the last level decides, and its vector anchors the witness
        found, found_level = _find_complete(table), k
        if found is not None and options.early_exit:
            break
    if found is None:
        return False, None
    if not options.store_parents:
        return True, None
    witness = reconstruct_witness(tables, found, found_level, indep, tau, ordering)
    if label_map:
        witness = {v: label_map[lab] for v, lab in witness.items()}
    return True, witness


def solve(inst: Instance, partition: Partition | None = None,
          strategy: str = "auto",
          options: SolveOptions | None = None) -> SolveResult:
    """Decide the instance; on YES optionally return an explicit labeling.

    Without an explicit partition the instance is split into connected
    components, each solved with a partition built by ``strategy``
    (see build_partition). An explicit partition must cover the whole
    vertex set and disables component splitting.
    """
    options = options or SolveOptions()
    stats = SolveStats()
    info = validate(inst)
    if info.empty_lists:
        return SolveResult(False, None, stats)
    if partition is not None:
        ok, witness = _solve_component(inst, partition, options, stats)
        return SolveResult(ok, witness, stats)
    witness: Witness | None = {}
    decision = True
    for sub, idmap in split_components(inst):
        part = build_partition(sub, strategy)
        ok, sub_witness = _solve_component(sub, part, options, stats)
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
