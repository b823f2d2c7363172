"""Exact solver for the generalized list T-coloring decision problem.

Given a graph, a finite list of permitted labels per vertex and a set of
forbidden label differences per edge (always containing 0), decide
whether a labeling exists that respects every list and avoids every
forbidden difference — and produce one when it does. The solver is a
label-by-label dynamic program over trie-compressed state-vector sets,
one per connected component; vertex partitions bound the table sizes
(``predict_complexity``) without steering the solve. Reductions from list
coloring, L(p,q)-labeling, channel assignment and T-coloring are
included. The brute-force reference solver lives in ``gltc.reference``.
"""

from .encoding import BLOCKED, OPEN
from .gen import random_instance
from .indsets import independent_set_vectors
from .instance import (
    Graph,
    Instance,
    ParseError,
    gap_compression,
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
    NotK1dFreeError,
    base_table_row,
    build_partition,
    clique_partition,
    predict_complexity,
    singleton_partition,
    star_partition_k1d,
    star_partition_spanning_tree,
)
from .reference import brute_force_solve, feasible_prefixes
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
    walk_order,
)
from .vectorset import LEAF, VectorTrie

__version__ = "0.1.0"

# What the CLI, the demos and perfbench/ import from gltc, plus the public
# exceptions and result types; everything else is imported from its module.
__all__ = [
    "BLOCKED", "OPEN", "LEAF", "VectorTrie", "random_instance", "independent_set_vectors",
    "Graph", "Instance", "ParseError", "gap_compression", "instance_tau", "parse_instance",
    "reduce_channel", "reduce_list_coloring", "reduce_lpq", "reduce_tcoloring",
    "serialize_instance", "split_components", "validate",
    "NotK1dFreeError", "base_table_row", "build_partition", "clique_partition",
    "predict_complexity", "singleton_partition", "star_partition_k1d",
    "star_partition_spanning_tree",
    "brute_force_solve", "feasible_prefixes",
    "ComponentDP", "LevelTable", "ResourceLimitError", "SolveOptions", "SolveResult",
    "SolveStats", "check_witness", "reconstruct_witness", "solve", "walk_order",
]
