"""Vertex partitions and what they buy.

The solver's table sizes are bounded by the product of per-block
feasible-prefix counts, so grouping adjacent vertices into stars or
cliques tightens the bound: a clique block can never repeat an exact
label, a star block constrains every leaf against its center. The
partition never steers the solve; it only bounds it from outside. This
script compares the partition strategies on sample graphs, measures each
bound against the largest table of one solve, and prints the per-vertex
growth bases they achieve.
"""

from gltc import (
    Graph,
    base_table_row,
    build_partition,
    clique_partition,
    instance_tau,
    predict_complexity,
    random_instance,
    singleton_partition,
    solve,
    star_partition_k1d,
    star_partition_spanning_tree,
)

inst = random_instance(n=10, density=0.45, tau=1, lmax=10, seed=7)
g = inst.graph
tau = instance_tau(inst)
print(f"random graph: n={g.n}, edges={len(g.edges)}, tau={tau}")
print()

for name, part in [
    ("singleton", singleton_partition(g)),
    ("star", build_partition(inst, "star")),
    ("clique", clique_partition(g)),
]:
    est = predict_complexity(g, part, tau)
    shapes = "+".join(str(b.size) for b in part.blocks)
    print(f"{name:10s} blocks {shapes:22s} product {est.product:>8} base {est.base:.4f}")

# One solve, whatever the strategy; each partition's bound holds for it.
result = solve(inst)
largest = result.stats.max_table_size
print()
print(f"solve: {'YES' if result.decision else 'NO'}, largest table {largest}")
for strategy in ("singleton", "star", "clique", "auto"):
    bound = predict_complexity(g, build_partition(inst, strategy), tau).product
    print(f"  {strategy:10s} bound {bound:>8}  size/bound {largest / bound:.4f}")

# Graphs with no big induced stars admit partitions into small stars. A
# 6-cycle is claw-free, so blocks of at most 2 vertices suffice.
c6 = Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
part = star_partition_k1d(c6, 3)
print()
print("claw-free 6-cycle, bounded-star blocks:",
      [b.vertices for b in part.blocks])

# Worst-case per-vertex bases by graph class, for small tau.
print()
print("tau  general  subcubic  matching  unit-disk")
for tau in range(1, 6):
    row = base_table_row(tau)
    print(f"{tau:3d}  {row['general']:7.4f}  {row['subcubic']:8.4f}"
          f"  {row['matching']:8.4f}  {row['unit_disk']:9.4f}")
