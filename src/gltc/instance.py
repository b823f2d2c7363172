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

import itertools
import re
from collections import deque
from dataclasses import dataclass, field

Edge = tuple[int, int]
_ECHO = 20  # characters of a record kind or digits of an integer a ParseError repeats
_LONG_INT = re.compile(r"\d{%d,}" % (_ECHO + 1))


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
        nbrs: dict[int, set[int]] = {v: set() for v in range(1, self.n + 1)}
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"edge {u}-{v}: self-loops not allowed")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge {u}-{v}: vertex id out of range 1..{self.n}")
            if u > v:
                raise ValueError(f"edge {u}-{v}: edges must be stored as (min, max)")
            nbrs[u].add(v)
            nbrs[v].add(u)
        self.adjacency = {v: frozenset(s) for v, s in nbrs.items()}

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
                labels = list(map(int, tokens[2:]))
            except ValueError:
                raise ParseError(f"line {lineno}: vertex fields must be integers") from None
            if not 1 <= vid <= n:
                raise ParseError(f"line {lineno}: vertex id {vid} out of range 1..{n}")
            if vid in lam:
                raise ParseError(f"line {lineno}: duplicate vertex {vid}")
            if min(labels, default=1) < 1:
                raise ParseError(f"line {lineno}: vertex {vid}: labels must be >= 1")
            lam[vid] = frozenset(labels)
        elif kind == "e":
            if len(tokens) < 3:
                raise ParseError(f"line {lineno}: edge line needs two endpoints")
            try:
                u, v = int(tokens[1]), int(tokens[2])
                diffs = list(map(int, tokens[3:]))
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
            tsets[key] = frozenset(diffs)
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
    graph = Graph(n=n, edges=frozenset(tsets))
    return Instance(graph=graph, lam=lam, t=tsets)


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
    # renumbering keeps the order of ids, so every edge stays (min, max)
    edges = {(to_new[u], to_new[w]): inst.t[u, w]
             for u in vertices for w in inst.graph.adjacency[u] if u < w and w in to_new}
    graph = Graph(n=len(vertices), edges=frozenset(edges))
    lam = {to_new[v]: inst.lam[v] for v in vertices}
    return Instance(graph=graph, lam=lam, t=edges), dict(enumerate(vertices, 1))


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


def _prune_unsupported(inst: Instance) -> dict[int, frozenset[int]]:
    """Arc consistency (AC-3, Mackworth 1977): drop each label a of L(v)
    that some neighbour u cannot sit beside (no b in L(u) has |a - b|
    outside T(uv)) until none goes; no proper labeling uses a dropped
    label. As 0 is in T, a label rules out at most 2|T| - 1 labels of u,
    so an arc with |L(u)| >= 2|T| is not checked. An emptied list empties
    its whole component. Returns the lists, ``inst.lam`` itself if no
    label goes."""
    lam, adjacency = inst.lam, inst.graph.adjacency
    arcs = [(v, u, diffs) for (u, v), diffs in inst.t.items()]
    arcs += [(u, v, diffs) for v, u, diffs in arcs]
    while arcs:
        v, u, diffs = arcs.pop()
        if len(lam[u]) >= 2 * len(diffs):
            continue
        bad = lam[v]  # the labels of v that no label of u seen so far supports
        for b in lam[u]:
            bad = [a for a in bad if abs(a - b) in diffs]
        if bad:
            lam = dict(lam) if lam is inst.lam else lam
            lam[v] = lam[v].difference(bad)
            # u needs no recheck: a label of v that supports one of u's is supported by it
            arcs += [(w, v, inst.t_of(w, v)) for w in adjacency[v] if w != u]
    return lam


def _clip_differences(inst: Instance, lam: dict[int, frozenset[int]]) -> dict[Edge, frozenset]:
    """Drop from each T(uv) the differences above the edge's span under
    the lists ``lam``, max(max L(u) - min L(v), max L(v) - min L(u)):
    no labeling gives them. 0 stays, as a span is never negative; an
    edge with an empty list, which no labeling covers, keeps only 0.
    Returns ``inst.t`` itself if no difference goes."""
    lo, hi = {}, {}
    for v, labels in lam.items():
        if labels:
            lo[v], hi[v] = min(labels), max(labels)
    t = inst.t
    for (u, v), diffs in inst.t.items():
        span = max(hi[u] - lo[v], hi[v] - lo[u]) if u in lo and v in lo else 0
        if max(diffs) > span:
            t = dict(t) if t is inst.t else t
            t[u, v] = frozenset(d for d in diffs if d <= span)
    return t


def gap_compression(inst: Instance) -> tuple[Instance, dict[int, int]]:
    """Prune unsupported labels (_prune_unsupported), drop the
    differences no labeling gives (_clip_differences), then shrink dead
    label gaps; returns the instance and the map new -> old label, {}
    when pruning empties the lists.

    Labels below the smallest used label are dropped entirely and any run
    of unused labels between two used ones is capped so consecutive used
    labels end up at most tau+1 apart, tau taken after the clipping.
    Differences <= tau between labels are preserved exactly and
    differences > tau stay > tau, so no forbidden-difference constraint
    changes and the YES/NO answer is unaffected. The clipping keeps
    tau, and with it the DP's alphabet, within the lists' span however
    large a forbidden difference the input names.
    """
    lam = _prune_unsupported(inst)
    t = _clip_differences(inst, lam)
    used = sorted(set().union(*lam.values())) if lam else []
    remap = {used[0]: 1} if used else {}
    tau = max(map(max, t.values()), default=0)
    for prev, cur in zip(used, used[1:]):
        remap[cur] = remap[prev] + min(cur - prev, tau + 1)
    if list(remap) != list(remap.values()):
        lam = {v: frozenset(map(remap.__getitem__, labels)) for v, labels in lam.items()}
    if lam is not inst.lam or t is not inst.t:
        inst = Instance(graph=inst.graph, lam=lam, t=t)
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
