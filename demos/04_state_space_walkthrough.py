"""Inside the dynamic program: level tables on a tiny instance.

The solver never enumerates labelings. It tracks, per label level k, the
set of state vectors of all proper partial labelings with labels 1..k.
Each vertex holds one symbol: 'B' (blocked for the next label), '0'
(open for the next label), '1' (labeled long ago, inert), or 2..tau+1
(a recent label, still constraining its neighbors). This script prints
every level table for a 3-path and shows where the YES verdict appears.
"""

from gltc import (
    BLOCKED,
    OPEN,
    VectorTrie,
    build_partition,
    independent_set_vectors,
    instance_tau,
    level_step,
    parse_instance,
    solve,
    validate,
)
from gltc.encoding import format_vector, is_complete
from gltc.solver import _BarPass, _build_plan

# A 3-path where neighbors must differ by more than 1, frequencies 1..4.
inst = parse_instance(
    "gltc 3 2\n"
    "v 1 1 2 3 4\n"
    "v 2 1 2 3 4\n"
    "v 3 1 2 3 4\n"
    "e 1 2 0 1\n"
    "e 2 3 0 1\n"
)
tau = instance_tau(inst)
stats = validate(inst)
part = build_partition(inst, "star")
ordering = part.ordering
print(f"tau={tau}, labels up to {stats.lambda_max}")
print("blocks:", [b.vertices for b in part.blocks], "=> vertex order", ordering)
print()

indep = independent_set_vectors(inst.graph, ordering)
# built once per instance, as the solver does: the per-block prefix plan
# for the combination and the per-vertex data for the open/blocked pass
plan = _build_plan(part.blocks, tau, inst, True)
bar = _BarPass(inst, ordering, tau)
print(f"{len(indep)} independent-set vectors:",
      " ".join(format_vector(p) for p in indep))
print()

table = VectorTrie.from_vectors(
    3, [tuple(OPEN if 1 in inst.lam[v] else BLOCKED for v in ordering)]
)
print("level 0:", " ".join(format_vector(v) for v in table))
for k in range(1, stats.lambda_max + 1):
    table, _, _ = level_step(table, indep, plan, bar, k)
    rendered = [
        format_vector(v) + ("*" if is_complete(v) else "")
        for v in table
    ]
    print(f"level {k}:", " ".join(rendered))

print()
print("a starred vector has every vertex labeled, so the instance is YES;")
result = solve(inst)
print("the walk back through the tables yields:", result.witness)
