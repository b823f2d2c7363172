"""Inside the dynamic program: level tables on a tiny instance.

The solver never enumerates labelings. It tracks, per label level k, the
set of state vectors of all proper partial labelings with labels 1..k,
less those that leave a vertex unlabeled whose list has no label above
k: they can never become complete, so the last level keeps only complete
vectors. Each vertex holds one of tau+2 symbols: '0' (unlabeled), '1'
(labeled long ago, inert), or 2..tau+1 (a recent label, still
constraining its neighbors). Whether an unlabeled vertex may take the
next label follows from its list and its neighbors' recent labels, so
the tables do not store it. This script prints every level table for a
3-path and shows where the YES verdict appears.
"""

from gltc import (
    ComponentDP,
    VectorTrie,
    build_partition,
    independent_set_vectors,
    parse_instance,
    solve,
    validate,
    walk_order,
)
from gltc.encoding import format_vector, is_complete
from gltc.vectorset import decode

# A 3-path where neighbors must differ by more than 1, frequencies 1..4.
inst = parse_instance(
    "gltc 3 2\n"
    "v 1 1 2 3 4\n"
    "v 2 1 2 3 4\n"
    "v 3 1 2 3 4\n"
    "e 1 2 0 1\n"
    "e 2 3 0 1\n"
)
stats = validate(inst)
part = build_partition(inst, "star")
# built once per component, as the solver does: tau, the vertex order of
# the coordinates (walk_order, chosen from the graph to keep the walk
# narrow; the solver builds no partition, which only bounds the table
# sizes) and the per-vertex masks that say which vertices each label is
# barred from and which vertices are adjacent
dp = ComponentDP(inst, walk_order(inst.graph))
print(f"tau={dp.tau}, labels up to {stats.lambda_max}")
print("blocks (bound only):", [b.vertices for b in part.blocks])
print("vertex order of the walk:", dp.ordering)
print()


def vectors(shapes, root):
    """The vectors below uid ``root`` of a node store, the form in which the
    solver keeps its tables."""
    return VectorTrie(len(dp.ordering), decode(shapes)[root])


# the sets of vertices that may take one label together; the walk never
# lists them, it reads the adjacency masks position by position
indep = independent_set_vectors(inst.graph, dp.ordering)
print(f"{len(indep)} independent-set vectors:", " ".join(format_vector(p) for p in indep))
print()

store = dp.base_store()  # [node store, root uid, complete flags]
print("level 0:", " ".join(format_vector(v) for v in vectors(store[0], store[1])))
for k in range(1, stats.lambda_max + 1):
    # one walk: every vector meets every independent set whose vertices
    # are unlabeled and free to take label k, in place
    dp.advance(store, k)
    rendered = [
        format_vector(v) + ("*" if is_complete(v) else "")
        for v in vectors(store[0], store[1])
    ]
    print(f"level {k}:", " ".join(rendered))

print()
print("a starred vector has every vertex labeled, so the instance is YES;")
result = solve(inst)
print("the walk back through the tables yields:", result.witness)
