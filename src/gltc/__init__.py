"""Exact solver for the generalized list T-coloring decision problem.

Given a graph, a finite list of permitted labels per vertex and a set of
forbidden label differences per edge (always containing 0), decide
whether a labeling exists that respects every list and avoids every
forbidden difference — and produce one when it does. The solver is a
label-by-label dynamic program over trie-compressed state-vector sets,
decomposed over a pluggable vertex partition; reductions from list
coloring, L(p,q)-labeling, channel assignment and T-coloring are
included. The brute-force reference solver lives in ``gltc.reference``.
"""

from .encoding import BLOCKED, OPEN
from .gen import random_instance
from .indsets import independent_set_vectors
from .instance import (
    Graph,
    Instance,
    InstanceStats,
    ParseError,
    gap_compression,
    graph_square,
    instance_tau,
    parse_instance,
    reduce_channel,
    reduce_list_coloring,
    reduce_lpq,
    reduce_tcoloring,
    serialize_instance,
    split_components,
    validate,
)
from .partition import (
    CLIQUE,
    SINGLETON,
    STAR,
    Block,
    NotK1dFreeError,
    Partition,
    base_table_row,
    bfs_spanning_tree,
    build_partition,
    clique_partition,
    feasible_prefixes,
    predict_complexity,
    singleton_partition,
    star_block_base,
    star_partition_k1d,
    star_partition_spanning_tree,
    star_prefix_bound,
    validate_partition,
)
from .reference import brute_force_solve  # answer checks in perfbench/run.py
from .solver import (
    ComponentDP,
    LevelTable,
    ResourceLimitError,
    SolveOptions,
    SolveResult,
    SolveStats,
    check_witness,
    reconstruct_witness,
    solve,
)
from .vectorset import LEAF, VectorTrie

__version__ = "0.1.0"

__all__ = [
    "BLOCKED", "OPEN", "LEAF", "VectorTrie", "random_instance", "independent_set_vectors",
    "Graph", "Instance", "InstanceStats", "ParseError", "gap_compression", "graph_square",
    "instance_tau", "parse_instance", "reduce_channel", "reduce_list_coloring", "reduce_lpq",
    "reduce_tcoloring", "serialize_instance", "split_components", "validate",
    "CLIQUE", "SINGLETON", "STAR", "Block", "NotK1dFreeError", "Partition", "base_table_row",
    "bfs_spanning_tree", "build_partition", "clique_partition", "feasible_prefixes",
    "predict_complexity", "singleton_partition", "star_block_base", "star_partition_k1d",
    "star_partition_spanning_tree", "star_prefix_bound", "validate_partition",
    "brute_force_solve", "ComponentDP", "LevelTable", "ResourceLimitError", "SolveOptions",
    "SolveResult", "SolveStats", "check_witness", "reconstruct_witness", "solve",
]
