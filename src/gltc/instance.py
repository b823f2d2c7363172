"""Problem instances for the generalized list T-coloring problem.

An instance couples a simple undirected graph with a finite list of
permitted labels per vertex and a finite set of forbidden differences
per edge. Every difference set contains 0, so adjacent vertices can
never share a label. The module owns the data model, the line-based
GLTC file format, validation, connected-component splitting, label
pruning and gap compression, and the reductions from four classical
labeling models (list coloring, L(p,q)-labeling, channel assignment,
T-coloring).

File format (UTF-8, line based, '#' starts a comment, blank lines
ignored)::

    gltc <n> <m>
    v <id> <label>...      n lines, id in 1..n each exactly once
    e <u> <v> <diff>...    m lines, u != v, diffs include 0

Serialization is canonical: vertices in id order, labels and diffs
ascending, edges in (min, max) lexicographic order, single spaces.
"""

from __future__ import annotations

import heapq
import itertools
import re
from collections import deque
from dataclasses import dataclass, field

Edge = tuple[int, int]
_ECHO = 20  # characters of a record kind or digits of an integer a ParseError repeats
_LONG_INT = re.compile(r"\d{%d,}" % (_ECHO + 1))
# The widest label bitmask gap_compression builds. Up to it the mask steps
# cost within 1.7x of what they cost on narrow labels; past it their cost
# doubles with each doubling of the width (60 random instances of n <= 10
# with labels and differences scaled up, CPython 3.11: 46 us each at 2^3
# bits, 77 us at 2^12, 229 us at 2^15, 5.4 ms at 2^20), while the set-based
# steps cost about 44 us at any width
_WIDEST_MASK = 1 << 12


class ParseError(ValueError):
    """Malformed instance document; the message carries the offending line,
    with every integer longer than _ECHO digits cut short."""

    def __init__(self, message: str):
        super().__init__(_LONG_INT.sub(lambda m: m[0][:_ECHO] + "...", message))


def _edge_key(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass
class Graph:
    """Simple undirected graph on vertices 1..n. Immutable by convention."""

    n: int
    edges: frozenset[Edge]
    adjacency: dict[int, frozenset[int]] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"edge {u}-{v}: self-loops not allowed")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge {u}-{v}: vertex id out of range 1..{self.n}")
            if u > v:
                raise ValueError(f"edge {u}-{v}: edges must be stored as (min, max)")
        self.adjacency = _adjacency(self.n, self.edges)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        seen: set[Edge] = set()
        for u, v in edges:
            key = _edge_key(u, v)
            if key in seen:
                raise ValueError(f"duplicate edge {key[0]}-{key[1]}")
            seen.add(key)
        return cls(n=n, edges=frozenset(seen))

    def adjacent(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


@dataclass
class Instance:
    """Graph plus per-vertex permitted labels and per-edge forbidden differences."""

    graph: Graph
    lam: dict[int, frozenset[int]]
    t: dict[Edge, frozenset[int]]

    def __post_init__(self):
        if self.lam.keys() != set(range(1, self.graph.n + 1)):
            raise ValueError("label lists must cover exactly the vertices 1..n")
        for v, labels in self.lam.items():
            if labels and min(labels) < 1:
                raise ValueError(f"vertex {v}: labels must be >= 1")
        if self.t.keys() != self.graph.edges:
            raise ValueError("difference sets must cover exactly the edge set")
        for (u, v), diffs in self.t.items():
            if 0 not in diffs:
                raise ValueError(f"edge {u}-{v}: 0 not in difference set")
            if min(diffs) < 0:
                raise ValueError(f"edge {u}-{v}: differences must be >= 0")

    def t_of(self, u: int, v: int) -> frozenset[int]:
        return self.t[_edge_key(u, v)]


def _adjacency(n: int, edges) -> dict[int, frozenset[int]]:
    nbrs: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return {v: frozenset(s) for v, s in nbrs.items()}


def _unchecked(n: int, adjacency: dict[int, frozenset[int]], lam: dict[int, frozenset[int]],
               t: dict[Edge, frozenset[int]]) -> Instance:
    """An Instance from parts already known to be valid, with none of the
    public constructors' checks: what parse_instance has checked field by
    field, or a subset or renumbering of a checked instance (induced_instance,
    gap_compression). ``adjacency`` must be the edge set ``t``'s."""
    graph = object.__new__(Graph)
    graph.n, graph.edges, graph.adjacency = n, frozenset(t), adjacency
    inst = object.__new__(Instance)
    inst.graph, inst.lam, inst.t = graph, lam, t
    return inst


@dataclass(frozen=True)
class InstanceStats:
    """Summary quantities of an instance, as ``validate`` reports them
    (``solve`` does not call it, and works out what it needs itself)."""

    tau: int
    lambda_max: int
    connected: bool
    empty_lists: tuple[int, ...]


# ---------------------------------------------------------------------------
# parsing and serialization

def parse_instance(text: str) -> Instance:
    """Parse a GLTC document. Raises ParseError with a line number on bad input."""
    n = m = None
    lam: dict[int, frozenset[int]] = {}
    tsets: dict[Edge, frozenset[int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        kind = tokens[0]
        if kind == "gltc":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate gltc header")
            if len(tokens) != 3:
                raise ParseError(f"line {lineno}: header must be 'gltc <n> <m>'")
            try:
                n, m = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise ParseError(f"line {lineno}: header counts must be integers") from None
            if n < 0 or m < 0:
                raise ParseError(f"line {lineno}: counts must be nonnegative")
            continue
        if n is None:
            raise ParseError(f"line {lineno}: 'gltc <n> <m>' header must come first")
        if kind == "v":
            if len(tokens) < 2:
                raise ParseError(f"line {lineno}: vertex line needs an id")
            try:
                vid = int(tokens[1])
                labels = frozenset(map(int, tokens[2:]))
            except ValueError:
                raise ParseError(f"line {lineno}: vertex fields must be integers") from None
            if not 1 <= vid <= n:
                raise ParseError(f"line {lineno}: vertex id {vid} out of range 1..{n}")
            if vid in lam:
                raise ParseError(f"line {lineno}: duplicate vertex {vid}")
            if min(labels, default=1) < 1:
                raise ParseError(f"line {lineno}: vertex {vid}: labels must be >= 1")
            lam[vid] = labels
        elif kind == "e":
            if len(tokens) < 3:
                raise ParseError(f"line {lineno}: edge line needs two endpoints")
            try:
                u, v = int(tokens[1]), int(tokens[2])
                diffs = frozenset(map(int, tokens[3:]))
            except ValueError:
                raise ParseError(f"line {lineno}: edge fields must be integers") from None
            if u == v:
                raise ParseError(f"line {lineno}: edge {u}-{v}: self-loops not allowed")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"line {lineno}: edge {u}-{v}: vertex id out of range")
            key = (u, v) if u < v else (v, u)
            if key in tsets:
                raise ParseError(f"line {lineno}: duplicate edge {key[0]}-{key[1]}")
            if min(diffs, default=0) < 0:
                raise ParseError(f"line {lineno}: edge {u}-{v}: differences must be >= 0")
            if 0 not in diffs:
                raise ParseError(f"line {lineno}: edge {key[0]}-{key[1]}: 0 not in difference set")
            tsets[key] = diffs
        else:
            shown = kind if len(kind) <= _ECHO else kind[:_ECHO] + "..."
            raise ParseError(f"line {lineno}: unknown record '{shown}'")
    if n is None:
        raise ParseError("missing 'gltc <n> <m>' header")
    if len(lam) != n:
        # scanning stops after a few ids, so a huge n costs no memory
        first = list(itertools.islice((v for v in range(1, n + 1) if v not in lam), 5))
        raise ParseError(f"missing vertex lines for {n - len(lam)} ids, first {first}")
    if len(tsets) != m:
        raise ParseError(f"header declares {m} edges but {len(tsets)} were given")
    return _unchecked(n, _adjacency(n, tsets), lam, tsets)


def serialize_instance(inst: Instance) -> str:
    """Canonical GLTC document; bit-exact and diff-friendly."""
    g = inst.graph
    lines = [f"gltc {g.n} {len(g.edges)}"]
    for v in range(1, g.n + 1):
        labels = " ".join(str(lab) for lab in sorted(inst.lam[v]))
        lines.append(f"v {v} {labels}".rstrip())
    for u, v in sorted(g.edges):
        diffs = " ".join(str(d) for d in sorted(inst.t[(u, v)]))
        lines.append(f"e {u} {v} {diffs}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# validation and structural helpers


def validate(inst: Instance) -> InstanceStats:
    """Compute tau, the largest label, connectivity and the empty-list vertices.

    Empty lists are flagged rather than rejected: such instances are an
    immediate NO for the solver.
    """
    lambda_max = 0
    for labels in inst.lam.values():
        if labels:
            lambda_max = max(lambda_max, max(labels))
    empty = tuple(v for v in range(1, inst.graph.n + 1) if not inst.lam[v])
    return InstanceStats(
        tau=instance_tau(inst),
        lambda_max=lambda_max,
        connected=len(_component_vertex_sets(inst.graph)) <= 1,
        empty_lists=empty,
    )


def instance_tau(inst: Instance) -> int:
    """Largest forbidden difference over all edges (0 when there are none)."""
    return max(map(max, filter(None, inst.t.values())), default=0)


def _component_vertex_sets(g: Graph) -> list[list[int]]:
    comps = []
    seen: set[int] = set()
    for start in range(1, g.n + 1):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in g.adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def induced_instance(inst: Instance, vertices: list[int]) -> tuple[Instance, dict[int, int]]:
    """Vertex-induced sub-instance on ids 1..k plus the map new id -> original id."""
    vertices = sorted(vertices)
    to_new = {v: i + 1 for i, v in enumerate(vertices)}
    adjacency, edges = {}, {}
    for u in vertices:
        nbrs = [w for w in inst.graph.adjacency[u] if w in to_new]
        adjacency[to_new[u]] = frozenset(map(to_new.__getitem__, nbrs))
        # renumbering keeps the order of ids, so every edge stays (min, max)
        for w in nbrs:
            if u < w:
                edges[to_new[u], to_new[w]] = inst.t[u, w]
    lam = {to_new[v]: inst.lam[v] for v in vertices}
    return _unchecked(len(vertices), adjacency, lam, edges), dict(enumerate(vertices, 1))


def split_components(inst: Instance) -> list[tuple[Instance, dict[int, int]]]:
    """One renumbered sub-instance per connected component, with id maps.

    A connected instance is returned as itself with the identity map, since
    renumbering all of its vertices changes nothing.
    """
    comps = _component_vertex_sets(inst.graph)
    if len(comps) == 1:
        return [(inst, {v: v for v in comps[0]})]
    return [induced_instance(inst, comp) for comp in comps]


# ---------------------------------------------------------------------------
# label pruning and gap compression


def _prune_unsupported(masks: dict[int, int], nbrs, arcs) -> dict[int, int]:
    """Arc consistency (AC-3, Mackworth 1977) on label bitmasks, bit a set
    where label a is on the list: drop each label a of v that some
    neighbour u cannot sit beside (no b of u's list has |a - b| outside
    T(uv)) until none goes; no proper labeling uses a dropped label.
    ``arcs`` holds the (v, u, T(uv)) to check first, ``nbrs`` each
    vertex's (neighbour, T) pairs. As 0 is in T, a label rules out at
    most 2|T| - 1 labels of u, so only an arc with |L(u)| < 2|T| is ever
    checked, and the scan of an arc stops once every label of v has
    support. An emptied list empties its whole component. Updates
    ``masks`` in place and returns it."""
    while arcs:
        v, u, diffs = arcs.pop()
        rest = masks[u]
        bad = masks[v]  # the labels of v that no label of u seen so far supports
        while rest and bad:
            b = rest & -rest
            rest ^= b
            near = 0
            for d in diffs:
                near |= b << d | b >> d
            bad &= near
        if bad:
            masks[v] = mask = masks[v] ^ bad
            size = mask.bit_count()
            # u needs no recheck: a label of v that supports one of u's is supported by it
            arcs += [(w, v, dw) for w, dw in nbrs[v] if w != u and size < 2 * len(dw)]
    return masks


def _fix_free_labels(masks: dict[int, int], nbrs) -> dict[int, int]:
    """Cut a list to its least free label, where it has one: a label a of
    v is free when no label b on a neighbour u's list lies at a
    difference |a - b| in T(uv). Any proper labeling stays proper with v
    moved to a free label, so the cut keeps every decision, though not
    every witness (neighbourhood substitutability, Freuder 1991; the
    zero-load case of degree-choosability, Erdos, Rubin & Taylor 1979).
    It keeps arc consistency too: a free label supports every label of
    every neighbour. Vertices are visited in ascending id, in passes
    repeated until one cuts nothing, since a cut may free a label of a
    neighbour; the fixpoint depends on that order. A pass after the
    first visits only the vertices beside a cut made since their last
    visit, as the others would find what they found, so each cut costs
    one visit per neighbour. ``masks`` and ``nbrs`` as for
    _prune_unsupported; updates ``masks`` in place and returns it."""
    todo = sorted(masks)  # this pass's vertices, a heap
    while todo:
        queued, later = set(todo), set()
        while todo:
            v = heapq.heappop(todo)
            free = masks[v]
            if not free & free - 1:  # one label or none: nothing to cut
                continue
            for u, diffs in nbrs[v]:
                taken = masks[u]
                for d in diffs:
                    free &= ~(taken << d | taken >> d)
                if not free:
                    break
            else:
                masks[v] = free & -free
                for w, _ in nbrs[v]:
                    if w < v:  # visited this pass already
                        later.add(w)
                    elif w not in queued:
                        queued.add(w)
                        heapq.heappush(todo, w)
        todo = sorted(later)
    return masks


def _clip_differences(t: dict[Edge, frozenset[int]], masks: dict[int, int]) -> dict:
    """Drop from each T(uv) of ``t`` the differences above the edge's span
    under the label bitmasks ``masks``, max(max L(u) - min L(v), max L(v)
    - min L(u)): no labeling gives them. 0 stays, as a span is never
    negative; an edge with an empty list, which no labeling covers, keeps
    only 0. Returns ``t`` itself if no difference goes."""
    clipped = t
    for (u, v), diffs in t.items():
        mu, mv = masks[u], masks[v]
        # a mask's bit_length is its largest label + 1; its lowest bit's, its least + 1
        span = max(mu.bit_length() - (mv & -mv).bit_length(),
                   mv.bit_length() - (mu & -mu).bit_length()) if mu and mv else 0
        if max(diffs) > span:
            clipped = dict(t) if clipped is t else clipped
            clipped[u, v] = frozenset(d for d in diffs if d <= span)
    return clipped


def _capped_gaps(used: list[int], tau: int) -> dict[int, int]:
    """The map old -> new label that sends the least of the ascending
    labels ``used`` to 1 and caps the gap between consecutive ones at
    tau + 1."""
    remap = {used[0]: 1} if used else {}
    for prev, cur in zip(used, used[1:]):
        remap[cur] = remap[prev] + min(cur - prev, tau + 1)
    return remap


def _mask_width(lam: dict[int, frozenset[int]]) -> int:
    """The bits a bitmask of the lists ``lam`` needs: the largest label + 1."""
    return max(map(max, filter(None, lam.values())), default=0) + 1


def _compress_on_sets(inst: Instance) -> tuple[Instance, dict[int, int]]:
    """gap_compression without the free-label step, on the frozensets
    themselves, so its cost follows the sizes of the lists and not their
    labels: arc consistency (as _prune_unsupported), the clipping of
    _clip_differences, then the gap shrink."""
    lam, t, adjacency = inst.lam, inst.t, inst.graph.adjacency
    arcs = [(v, u, diffs) for (u, v), diffs in t.items()]
    arcs += [(u, v, diffs) for v, u, diffs in arcs]
    while arcs:
        v, u, diffs = arcs.pop()
        if len(lam[u]) >= 2 * len(diffs):
            continue
        bad = lam[v]  # the labels of v that no label of u seen so far supports
        for b in lam[u]:
            bad = [a for a in bad if abs(a - b) in diffs]
            if not bad:
                break
        if bad:
            lam = dict(lam) if lam is inst.lam else lam
            lam[v] = lam[v].difference(bad)
            arcs += [(w, v, inst.t_of(w, v)) for w in adjacency[v] if w != u]
    for (u, v), diffs in inst.t.items():
        span = max(max(lam[u]) - min(lam[v]), max(lam[v]) - min(lam[u])) \
            if lam[u] and lam[v] else 0
        if max(diffs) > span:
            t = dict(t) if t is inst.t else t
            t[u, v] = frozenset(d for d in diffs if d <= span)
    remap = _capped_gaps(sorted(set().union(*lam.values())), max(map(max, t.values()), default=0))
    lam = {v: frozenset(map(remap.__getitem__, labels)) for v, labels in lam.items()}
    return _unchecked(inst.graph.n, adjacency, lam, t), {new: old for old, new in remap.items()}


def gap_compression(inst: Instance) -> tuple[Instance, dict[int, int]]:
    """Prune the labels that fail arc consistency (_prune_unsupported), cut
    each list that has a free label to its least one (_fix_free_labels),
    drop the differences no labeling gives (_clip_differences), then
    shrink dead label gaps (_capped_gaps); returns the instance and the
    map new -> old label, {} when pruning empties the lists.

    All of it runs on one int bitmask per list, bit a for label a, and
    only the lists that change are rebuilt as sets, once. A difference at
    or above the masks' width, one more than the largest label, separates
    no two labels and is skipped, so no shift builds an int wider than
    the masks. Where a label lies past _WIDEST_MASK, arc consistency, the
    clipping and the gap shrink run first on the sets themselves
    (_compress_on_sets), and the masks are built only if the shrunk
    labels then fit in _WIDEST_MASK bits; where a difference that arc
    consistency keeps holds them wider, the lists skip the free-label step.

    Labels below the smallest used label are dropped entirely and any run
    of unused labels between two used ones is capped so consecutive used
    labels end up at most tau+1 apart, tau taken after the clipping.
    Differences <= tau between labels are preserved exactly and
    differences > tau stay > tau, so no forbidden-difference constraint
    changes. Neither pruning step changes the YES/NO answer; a free label
    changes which labeling a witness finds. The clipping keeps tau, and
    with it the DP's alphabet, within the lists' span however large a
    forbidden difference the input names.
    """
    lam, t = inst.lam, inst.t
    width = _mask_width(lam)
    if width > _WIDEST_MASK:
        inst, back = _compress_on_sets(inst)
        if _mask_width(inst.lam) > _WIDEST_MASK:
            return inst, back
        inst, mid = gap_compression(inst)
        return inst, {new: back[old] for new, old in mid.items()}
    nbrs: dict[int, list] = {v: [] for v in lam}
    arcs = []
    for (u, v), diffs in t.items():
        if max(diffs) >= width:
            diffs = [d for d in diffs if d < width]
        nbrs[u].append((v, diffs))
        nbrs[v].append((u, diffs))
        if len(lam[u]) < 2 * len(diffs):
            arcs.append((v, u, diffs))
        if len(lam[v]) < 2 * len(diffs):
            arcs.append((u, v, diffs))
    masks = {v: sum(map((1).__lshift__, labels)) for v, labels in lam.items()}
    masks = _fix_free_labels(_prune_unsupported(masks, nbrs, arcs), nbrs)
    t = _clip_differences(t, masks)
    used, rest = [], 0
    for mask in masks.values():
        rest |= mask
    while rest:
        low = rest & -rest
        rest ^= low
        used.append(low.bit_length() - 1)
    remap = _capped_gaps(used, max(map(max, t.values()), default=0))
    cut = {v: frozenset(a for a in labels if mask >> a & 1)  # masks keeps lam's vertex order
           for (v, labels), mask in zip(lam.items(), masks.values())
           if mask.bit_count() < len(labels)}
    if cut:
        lam = {**lam, **cut}
    if list(remap) != list(remap.values()):
        lam = {v: frozenset(map(remap.__getitem__, labels)) for v, labels in lam.items()}
    if lam is not inst.lam or t is not inst.t:
        inst = _unchecked(inst.graph.n, inst.graph.adjacency, lam, t)
    return inst, {new: old for old, new in remap.items()}


# ---------------------------------------------------------------------------
# reductions from classical labeling models


def graph_square(g: Graph) -> Graph:
    """Graph on the same vertices with u~v iff their distance in g is 1 or 2."""
    edges: set[Edge] = set(g.edges)
    for v in range(1, g.n + 1):
        for u in g.adjacency[v]:
            for w in g.adjacency[u]:
                if w != v:
                    edges.add(_edge_key(v, w))
    return Graph(n=g.n, edges=frozenset(edges))


def reduce_list_coloring(g: Graph, lam: dict[int, frozenset[int]]) -> Instance:
    """List coloring: adjacent vertices must differ, nothing else forbidden."""
    t = {e: frozenset({0}) for e in g.edges}
    return Instance(graph=g, lam=dict(lam), t=t)


def reduce_lpq(g: Graph, p: int, q: int, lam: dict[int, frozenset[int]]) -> Instance:
    """L(p,q)-labeling: distance-1 pairs differ by >= p, distance-2 by >= q.

    Built on the square of g, with interval difference sets {0..p-1} on
    original edges and {0..q-1} on the new distance-2 edges.
    """
    if not p >= q >= 1:
        raise ValueError(f"requires p >= q >= 1, got p={p}, q={q}")
    sq = graph_square(g)
    t = {
        e: frozenset(range(p)) if e in g.edges else frozenset(range(q))
        for e in sq.edges
    }
    return Instance(graph=sq, lam=dict(lam), t=t)


def reduce_channel(g: Graph, omega: dict[Edge, int], lam: dict[int, frozenset[int]]) -> Instance:
    """Channel assignment: endpoint labels of edge e must differ by >= omega(e)."""
    t = {}
    for e in g.edges:
        w = omega.get(e)
        if w is None:
            raise ValueError(f"edge {e[0]}-{e[1]}: no weight given")
        if w < 1:
            raise ValueError(f"edge {e[0]}-{e[1]}: weight must be >= 1, got {w}")
        t[e] = frozenset(range(w))
    return Instance(graph=g, lam=dict(lam), t=t)


def reduce_tcoloring(g: Graph, tset, lam: dict[int, frozenset[int]]) -> Instance:
    """T-coloring: one shared set of forbidden differences on every edge."""
    tset = frozenset(tset)
    if 0 not in tset:
        raise ValueError("the forbidden set must contain 0")
    t = {e: tset for e in g.edges}
    return Instance(graph=g, lam=dict(lam), t=t)
