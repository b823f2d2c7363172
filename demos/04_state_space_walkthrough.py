"""Inside the dynamic program: level tables on a tiny instance.

The solver never enumerates labelings. It tracks, per label level k, the
set of state vectors of all proper partial labelings with labels 1..k.
Each vertex holds one symbol: 'B' (blocked for the next label), '0'
(open for the next label), '1' (labeled long ago, inert), or 2..tau+1
(a recent label, still constraining its neighbors). This script prints
every level table for a 3-path and shows where the YES verdict appears.
"""

from gltc import ComponentDP, build_partition, parse_instance, solve, validate, walk_order
from gltc.encoding import format_vector, is_complete

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
# sizes), the independent-set vectors in that order, the moves of the
# combination walk, the per-vertex data of the open/blocked pass and the
# level-0 table
dp = ComponentDP(inst, walk_order(inst.graph))
print(f"tau={dp.tau}, labels up to {stats.lambda_max}")
print("blocks (bound only):", [b.vertices for b in part.blocks])
print("vertex order of the walk:", dp.ordering)
print()

print(f"{len(dp.indep)} independent-set vectors:",
      " ".join(format_vector(p) for p in dp.indep))
print()

table = dp.base
print("level 0:", " ".join(format_vector(v) for v in table))
for k in range(1, stats.lambda_max + 1):
    table, _, _, _, _ = dp.step(table, k)
    rendered = [
        format_vector(v) + ("*" if is_complete(v) else "")
        for v in table
    ]
    print(f"level {k}:", " ".join(rendered))

print()
print("a starred vector has every vertex labeled, so the instance is YES;")
result = solve(inst)
print("the walk back through the tables yields:", result.witness)
