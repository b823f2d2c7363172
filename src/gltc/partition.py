"""Vertex partitions and the table-size bound they prove.

Every state vector restricted to a block is one of the block's feasible
prefixes, so the smaller the number of feasible per-block prefixes, the
smaller the state tables. A block is a singleton, a star (first vertex
adjacent to all others) or a clique. This module builds partitions of all
three kinds and predicts the resulting table-size bound (the product of
per-block prefix counts and its n-th root, the "base"), counting the
prefixes without listing them; reference.feasible_prefixes lists them.
It serves ``gltc predict`` and ``gltc bases``: the solver builds no
partition, and a table's content does not depend on the order of its
coordinates, so the bound holds whatever order the solver walks.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

from .instance import Graph, Instance, _edge_key, instance_tau, split_components

SINGLETON = "singleton"
STAR = "star"
CLIQUE = "clique"


class NotK1dFreeError(ValueError):
    """The star-partition procedure found an induced star K_{1,d}."""


@dataclass(frozen=True)
class Block:
    """An ordered group of vertices processed as one trie level range."""

    vertices: tuple[int, ...]
    kind: str

    @property
    def center(self) -> int:
        return self.vertices[0]

    @property
    def size(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class Partition:
    """Ordered blocks covering all vertices; ``ordering`` lists them block
    by block. The solver walks its own order (solver.walk_order)."""

    blocks: tuple[Block, ...]

    @property
    def ordering(self) -> tuple[int, ...]:
        return tuple(v for block in self.blocks for v in block.vertices)


def validate_partition(g: Graph, part: Partition) -> None:
    """Check cover/disjointness and the per-kind structural promises."""
    seen: set[int] = set()
    for block in part.blocks:
        for v in block.vertices:
            if v in seen:
                raise ValueError(f"vertex {v} appears in two blocks")
            seen.add(v)
        if block.kind == SINGLETON:
            if block.size != 1:
                raise ValueError("singleton block must have exactly one vertex")
        elif block.kind == STAR:
            if block.size < 2:
                raise ValueError("star block needs at least two vertices")
            center = block.center
            for v in block.vertices[1:]:
                if not g.adjacent(center, v):
                    raise ValueError(f"star center {center} not adjacent to {v}")
        elif block.kind == CLIQUE:
            if block.size < 2:
                raise ValueError("clique block needs at least two vertices")
            for u, v in itertools.combinations(block.vertices, 2):
                if not g.adjacent(u, v):
                    raise ValueError(f"clique block misses edge {u}-{v}")
        else:
            raise ValueError(f"unknown block kind {block.kind!r}")
    if seen != set(range(1, g.n + 1)):
        raise ValueError("blocks do not cover the vertex set")


# ---------------------------------------------------------------------------
# spanning-tree machinery shared by the star partitions


def bfs_spanning_tree(g: Graph, root: int) -> dict[int, set[int]]:
    """Adjacency of a BFS spanning tree of root's component (neighbors by id)."""
    tree: dict[int, set[int]] = {root: set()}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in sorted(g.adjacency[v]):
            if w not in tree:
                tree[w] = set()
                tree[v].add(w)
                tree[w].add(v)
                queue.append(w)
    return tree


def _tree_farthest(tree: dict[int, set[int]], start: int) -> tuple[int, dict[int, int]]:
    """BFS returning the farthest vertex (ties to minimum id) and parent links."""
    parent = {start: 0}
    depth = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in sorted(tree[v]):
            if w not in parent:
                parent[w] = v
                depth[w] = depth[v] + 1
                queue.append(w)
    return min(depth, key=lambda v: (-depth[v], v)), parent


def tree_longest_path(tree: dict[int, set[int]]) -> list[int]:
    """A longest path (double BFS), oriented to start at its min-id endpoint."""
    root = min(tree)
    a, _ = _tree_farthest(tree, root)
    b, parent = _tree_farthest(tree, a)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    if path[0] > path[-1]:
        path.reverse()
    return path


# ---------------------------------------------------------------------------
# partition constructions


def singleton_partition(g: Graph) -> Partition:
    """One block per vertex, in id order."""
    part = Partition(tuple(Block((v,), SINGLETON) for v in range(1, g.n + 1)))
    validate_partition(g, part)
    return part


def star_partition_spanning_tree(g: Graph) -> Partition:
    """Star partition peeled off a BFS spanning tree.

    Repeatedly takes the neighbor u of an endpoint of a longest path in
    the current tree and emits u together with its leaf neighbors (u is
    the center); once the remaining tree is itself a star it becomes the
    final block. Non-final blocks have at most Delta(tree) vertices and
    the final one at most Delta(tree)+1.
    """
    return _star_partition(g, None)


def star_partition_k1d(g: Graph, d: int) -> Partition:
    """Star partition with non-final blocks of size <= d-1 and final <= d.

    Works on graphs with no induced star on d leaves. Take the neighbor
    u of an endpoint of a longest tree path and keep shrinking its leaf
    set while it is too large: two of its leaves adjacent in g form a
    2-block of their own, and a leaf adjacent in g to u's inner
    neighbor x re-hangs below x. If neither move applies, u together
    with d of its pairwise non-adjacent neighbors is an induced K_{1,d}
    and NotK1dFreeError is raised. Every move removes vertices or
    strictly shrinks u's leaf count, and u never gains non-leaf
    neighbors, so the loop terminates and the residual stays connected.
    After a pair peel that took x (when the residual is a star, x is one
    of u's leaves) or left at most d vertices, the path is taken anew.
    Once at most d vertices are left, the peeling is the spanning-tree one.
    """
    if d < 3:
        raise ValueError(f"requires d >= 3, got {d}")
    return _star_partition(g, d)


def _star_partition(g: Graph, d: int | None) -> Partition:
    """The star peeling of both entry points; ``d=None`` bounds no block."""
    if g.n == 0:
        return Partition(())
    tree = bfs_spanning_tree(g, root=1)
    if len(tree) != g.n:
        raise ValueError("star partition requires a connected graph")
    blocks: list[Block] = []

    def peel(vertices, kind=STAR):
        blocks.append(Block(vertices, kind))
        for v in vertices:
            for w in tree.pop(v):
                tree[w].discard(v)

    while tree:
        if d is None or len(tree) <= d:
            # the min-id vertex adjacent to all others, if the tree is a star
            center = min((v for v, nbrs in tree.items() if len(nbrs) == len(tree) - 1),
                         default=None)
            if center is not None:
                rest = tuple(sorted(set(tree) - {center}))
                peel((center, *rest), STAR if rest else SINGLETON)
                break
        path = tree_longest_path(tree)
        u = path[1]
        x = path[2]
        while True:
            leaves = sorted(w for w in tree[u] if len(tree[w]) == 1)
            if d is None or len(leaves) <= d - 2:
                if leaves:
                    peel((u, *leaves))
                # with no leaves left u is itself a leaf now; leave it for later
                break
            pair = next(
                (
                    (vi, vj)
                    for vi, vj in itertools.combinations(leaves, 2)
                    if g.adjacent(vi, vj)
                ),
                None,
            )
            if pair is not None:
                peel(pair)
                if x not in tree or len(tree) <= d:
                    break
                continue
            mover = next(
                (vi for vi in leaves if vi != x and g.adjacent(vi, x)), None
            )
            if mover is None:
                raise NotK1dFreeError(f"input not K_{{1,{d}}}-free (center {u})")
            tree[u].discard(mover)  # mover is a leaf: x becomes its one neighbour
            tree[mover] = {x}
            tree[x].add(mover)
    part = Partition(tuple(blocks))
    validate_partition(g, part)
    return part


def clique_partition(g: Graph) -> Partition:
    """Greedy clique packing: maximal matching plus triangle upgrades.

    Vertices are scanned by ascending degree (ties to min id) to build a
    maximal matching; matched edges sharing an unused common neighbor
    are then upgraded to triangles. Edge blocks come first, then
    triangle blocks, then the uncovered vertices as singletons. The
    packing is heuristic: it lower-bounds the optimal packing order and
    affects only the predicted runtime, never correctness.
    """
    rank = {v: (g.degree(v), v) for v in range(1, g.n + 1)}
    partner: dict[int, int] = {}
    for v in sorted(range(1, g.n + 1), key=lambda v: rank[v]):
        if v in partner:
            continue
        candidates = [w for w in g.adjacency[v] if w not in partner]
        if candidates:
            w = min(candidates, key=lambda w: rank[w])
            partner[v] = w
            partner[w] = v
    pairs = sorted({_edge_key(v, w) for v, w in partner.items()})
    in_triangle: set[int] = set()
    triangles: list[tuple[int, int, int]] = []
    edge_blocks: list[tuple[int, int]] = []
    for u, v in pairs:
        common = sorted(
            w
            for w in g.adjacency[u] & g.adjacency[v]
            if w not in partner and w not in in_triangle
        )
        if common:
            w = common[0]
            in_triangle.add(w)
            triangles.append(tuple(sorted((u, v, w))))
        else:
            edge_blocks.append((u, v))
    covered = set(partner) | in_triangle
    blocks = [Block(pair, CLIQUE) for pair in edge_blocks]
    blocks += [Block(tri, CLIQUE) for tri in triangles]
    blocks += [Block((v,), SINGLETON) for v in range(1, g.n + 1) if v not in covered]
    part = Partition(tuple(blocks))
    validate_partition(g, part)
    return part


# ---------------------------------------------------------------------------
# complexity prediction


def _count_prefixes(block: Block, tau: int, adjacency) -> int:
    """``len(reference._feasible_prefixes(block, tau, adjacency, None))``
    without listing the prefixes.

    A memoized DP over the block's positions: symbols 0 and 1 constrain
    nothing and count twice, and a symbol in 2..tau+1 must differ from
    those of its earlier in-block neighbours. The state after a position
    is the symbols of the earlier positions that still have a later
    neighbour (0 standing for both free symbols).
    """
    verts = block.vertices
    s = len(verts)
    if s == 1:
        return tau + 2
    earlier = [[j for j in range(i) if verts[j] in adjacency[verts[i]]] for i in range(s)]
    last = [max((i for i in range(s) if j in earlier[i]), default=j) for j in range(s)]
    live = [tuple(j for j in range(i) if last[j] >= i) for i in range(s + 1)]
    memo: dict[tuple, int] = {}

    def count(i, state):
        if i == s:
            return 1
        key = (i, state)
        total = memo.get(key)
        if total is None:
            known = dict(zip(live[i], state))
            taken = {known[j] for j in earlier[i]}
            total = 0
            for sym in range(tau + 1):
                if sym and sym in taken:
                    continue
                known[i] = sym
                rest = count(i + 1, tuple(known[j] for j in live[i + 1]))
                total += rest if sym else 2 * rest
            memo[key] = total
        return total

    counted = count(0, ())
    del count  # count refers to itself: end the cycle, which holds the memo
    return counted


def star_prefix_bound(size: int, tau: int) -> int:
    """Feasible-prefix count of a size-s star block with independent leaves."""
    if size < 2:
        raise ValueError("star blocks have at least two vertices")
    return 2 * (tau + 2) ** (size - 1) + tau * (tau + 1) ** (size - 1)


def star_block_base(tau: int, size: int) -> float:
    """Per-vertex table-growth base achieved by star blocks of a given size."""
    if size < 2:
        raise ValueError("defined for block sizes >= 2")
    return star_prefix_bound(size, tau) ** (1.0 / size)


@dataclass(frozen=True)
class ComplexityEstimate:
    """Per-block prefix counts and the resulting table-size bound."""

    per_block_f: tuple[int, ...]
    product: int
    base: float
    rho: int | None


def predict_complexity(g: Graph, part: Partition, tau: int) -> ComplexityEstimate:
    """Prefix counts per block (equality pruning only, for comparability),
    their product, and the per-vertex base (product ** (1/n))."""
    fs = [_count_prefixes(block, tau, g.adjacency) for block in part.blocks]
    product = math.prod(fs)
    if g.n == 0:
        base = 1.0
    else:
        base = math.exp(sum(math.log(f) for f in fs) / g.n)
    rho = None
    if any(b.kind == CLIQUE for b in part.blocks):
        rho = sum(b.size for b in part.blocks if b.kind == CLIQUE)
    return ComplexityEstimate(tuple(fs), product, base, rho)


def base_table_row(tau: int) -> dict[str, float]:
    """Worst-case bases for one tau: general graphs, subcubic graphs,
    graphs with a perfect matching / claw-free / regular / clique-partition
    graphs, and unit-disk graphs."""
    if tau < 1:
        raise ValueError("base table rows are defined for tau >= 1")
    try:
        return {
            "general": float(tau + 2),
            "subcubic": star_block_base(tau, 3),
            "matching": star_block_base(tau, 2),
            "unit_disk": max(star_block_base(tau, 2), star_block_base(tau, 6)),
        }
    except OverflowError:
        raise ValueError("tau too large: a base overflows a float") from None


# ---------------------------------------------------------------------------
# strategy dispatch

_STRATEGIES = "singleton|star|k1d:<d>|clique|auto"


def _check_strategy(strategy: str) -> int | None:
    """The d of a ``k1d:<d>`` strategy, None for the other names of
    ``_STRATEGIES``; ValueError for anything else, on every graph."""
    if strategy in (SINGLETON, STAR, CLIQUE, "auto"):
        return None
    if strategy.startswith("k1d:"):
        try:
            d = int(strategy.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad k1d parameter in {strategy!r}") from None
        if d < 3:
            raise ValueError("k1d needs d >= 3")
        return d
    raise ValueError(f"expected one of {_STRATEGIES}")


def build_partition(inst: Instance, strategy: str = "auto") -> Partition:
    """Build a partition of the whole vertex set by strategy name.

    Strategies: ``singleton``, ``star``, ``k1d:<d>``, ``clique`` and
    ``auto`` (smallest predicted prefix-count product per component,
    ties going singleton < star < clique). Star-based strategies are
    applied per connected component and concatenated.
    """
    d = _check_strategy(strategy)
    g = inst.graph
    if strategy == SINGLETON:
        return singleton_partition(g)
    if strategy == CLIQUE:
        return clique_partition(g)
    tau = instance_tau(inst)
    blocks: list[Block] = []
    for sub_inst, idmap in split_components(inst):
        sub = sub_inst.graph
        if strategy == STAR:
            chosen = star_partition_spanning_tree(sub)
        elif d is not None:
            chosen = star_partition_k1d(sub, d)
        else:
            candidates = [
                singleton_partition(sub),
                star_partition_spanning_tree(sub),
                clique_partition(sub),
            ]
            chosen = min(
                candidates,
                key=lambda p: predict_complexity(sub, p, tau).product,
            )
        blocks.extend(
            Block(tuple(idmap[v] for v in b.vertices), b.kind) for b in chosen.blocks
        )
    part = Partition(tuple(blocks))
    validate_partition(g, part)
    return part
