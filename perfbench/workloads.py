"""Seeded corpora for the three benchmark workloads.

A corpus is a list of ``Item``s: a name, the serialized instance text and
how the instance is solved. Everything is drawn from ``random.Random``
with ``random()`` calls only (as ``gltc.gen`` does), so one seed always
gives the same documents byte for byte. The solver later sees only the
text.

Run as a script, this module is the set-up step: it imports gltc, builds
one workload's corpus and writes it to a directory, one file per
instance plus a manifest.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from gltc import (
    Graph,
    Instance,
    random_instance,
    reduce_channel,
    reduce_lpq,
    serialize_instance,
)

DEFAULT_SEED = 2024
FILE_NAME = "{:04d}.gltc"  # the i-th item's file in a written corpus

# Criterion 7 of the acceptance suite and the ROADMAP baseline instance.
ANCHOR = dict(n=16, density=0.3, tau=1, lmax=20, seed=2024)


@dataclass(frozen=True)
class Item:
    name: str
    text: str
    partition: str   # strategy passed to the solver
    witness: bool    # solve with retained tables and reconstruct a labeling
    cli: bool = False  # solve through ``gltc solve`` instead of the library


def _draw(rng: random.Random, lo: int, hi: int) -> int:
    """Uniform integer in lo..hi from a single random() call."""
    return lo + int(rng.random() * (hi - lo + 1))


def _seed(rng: random.Random) -> int:
    return int(rng.random() * 2**31)


def large_tau1(seed: int) -> list[Item]:
    """The criterion-7 instance under a seed-drawn global label shift; star + witness.

    Its retained tables are huge (694,656 vectors at the largest level).
    The shift changes the text the solver reads but not the work, since
    gap compression maps the shifted labels straight back; the default
    seed keeps the instance unshifted. Fresh n = 15-16 instances would not
    do: their solve times range from 5 to 32 s by seed.
    """
    shift = 0 if seed == DEFAULT_SEED else _draw(random.Random(seed), 1, 20)
    anchor = random_instance(**ANCHOR)
    lam = {v: frozenset(lab + shift for lab in labels) for v, labels in anchor.lam.items()}
    inst = Instance(graph=anchor.graph, lam=lam, t=anchor.t)
    return [Item(f"criterion7-shift{shift}", serialize_instance(inst), "star", True, cli=True)]


SMALL_DENSITIES = (0.25, 0.35, 0.45, 0.55, 0.65)
SMALL_PER_CELL = 12
# No (n, tau) cell whose state space (tau+2)^n exceeds 4^7. Above it the
# spanning-tree star candidate that ``auto`` prices can be one block of
# all n vertices, whose prefix enumeration alone adds up to 11 MB to the
# peak RSS; whether a corpus happened to draw such a graph moved
# peak_rss_mb by a third from seed to seed.
SMALL_MAX_STATES = 4**7


def small_mixed(seed: int) -> list[Item]:
    """~1000 small instances over a stratified grid of n, tau and density.

    n runs 4-8 and tau 0-3 under the state-space cap above; every
    (n, tau, density) cell gets the same number of instances, so the mix
    does not move with the seed; only lmax and the instance seeds are
    drawn.
    """
    rng = random.Random(seed)
    items = []
    for n in range(4, 9):
        for tau in range(4):
            if (tau + 2) ** n > SMALL_MAX_STATES:
                continue
            for density in SMALL_DENSITIES:
                for _ in range(SMALL_PER_CELL):
                    lmax = _draw(rng, 3, 12)
                    s = _seed(rng)
                    inst = random_instance(n, density, tau, lmax, s)
                    items.append(Item(f"n{n}-t{tau}-d{density}-l{lmax}-s{s}",
                                      serialize_instance(inst), "auto", True))
    return items


# (model, carrier vertices, extra edges, list size, label range) per family.
REDUCTION_FAMILIES = (
    ("l21", 9, 1, 3, 7),
    ("l31", 7, 1, 3, 7),
    ("channel", 9, 1, 3, 7),
)
REDUCTION_ROUNDS = 64


def _carrier(rng: random.Random, n: int, extra: int, size: int, lmax: int):
    """A connected carrier: a random tree plus ``extra`` edges, and lists of
    exactly ``size`` labels from 1..lmax.

    Fixing the edge count and the list sizes keeps the cost of one instance
    from swinging with the seed as much as free density and lists would.
    """
    edges: set[tuple[int, int]] = set()
    for v in range(2, n + 1):
        edges.add((_draw(rng, 1, v - 1), v))
    while len(edges) < n - 1 + extra:
        u, v = _draw(rng, 1, n), _draw(rng, 1, n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    lam = {}
    for v in range(1, n + 1):
        labels = list(range(1, lmax + 1))
        for i in range(size):  # partial Fisher-Yates shuffle
            j = _draw(rng, i, lmax - 1)
            labels[i], labels[j] = labels[j], labels[i]
        lam[v] = frozenset(labels[:size])
    return Graph.from_edges(n, edges), lam


def reductions(seed: int) -> list[Item]:
    """L(2,1) and L(3,1) on graph squares and channel assignment, decision-only.

    Each round adds one instance of each model, every one on a fresh
    carrier; channel weights are drawn from {1, 2, 3} per edge.
    """
    rng = random.Random(seed)
    items = []
    for i in range(REDUCTION_ROUNDS):
        for model, n, extra, size, lmax in REDUCTION_FAMILIES:
            g, lam = _carrier(rng, n, extra, size, lmax)
            if model == "l21":
                inst = reduce_lpq(g, 2, 1, lam)
            elif model == "l31":
                inst = reduce_lpq(g, 3, 1, lam)
            else:
                inst = reduce_channel(g, {e: _draw(rng, 1, 3) for e in sorted(g.edges)}, lam)
            items.append(Item(f"{model}-{i}", serialize_instance(inst), "auto", False))
    return items


WORKLOADS = {
    "large_tau1": large_tau1,
    "small_mixed": small_mixed,
    "reductions": reductions,
}


def write(items: list[Item], out: Path) -> None:
    """One ``.gltc`` file per item plus ``manifest.json`` listing them in order."""
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    for i, item in enumerate(items):
        path = out / FILE_NAME.format(i)
        path.write_text(item.text, encoding="utf-8")
        entry = asdict(item)
        del entry["text"]
        entry["file"] = path.name
        manifest.append(entry)
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def read(out: Path) -> list[Item]:
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return [
        Item(e["name"], (out / e["file"]).read_text(encoding="utf-8"),
             e["partition"], e["witness"], e["cli"])
        for e in manifest
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    write(WORKLOADS[args.workload](args.seed), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
