"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

from gltc import (
    SolveOptions,
    brute_force_solve,
    build_partition,
    check_witness,
    clique_partition,
    feasible_prefixes,
    instance_tau,
    predict_complexity,
    random_instance,
    solve,
    star_partition_k1d,
    star_partition_spanning_tree,
    validate,
)
from gltc.partition import (
    CLIQUE,
    SINGLETON,
    Block,
    bfs_spanning_tree,
    star_block_base,
    star_prefix_bound,
    validate_partition,
)
from support import (
    complete_graph,
    cycle_graph,
    line_graph,
    path_graph,
    recurrence_mismatch,
    star_graph,
    uniform_instance,
)

DENSITIES = (0.2, 0.5, 0.8)


def _corpus_instance(seed: int):
    return random_instance(
        n=2 + seed % 7,                 # 2..8
        density=DENSITIES[seed % 3],
        tau=seed % 4,                   # 0..3
        lmax=4 + seed % 9,              # 4..12
        seed=seed,
    )


def _report(num: int, name: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status}")
    assert not failures, f"criterion {num} failed: {failures[:5]}"


def test_criterion_1_oracle_equivalence():
    failures = []
    start = time.time()
    for seed in range(500):
        inst = _corpus_instance(seed)
        expected = brute_force_solve(inst)[0]
        for strategy in ("singleton", "star", "clique"):
            result = solve(inst, strategy=strategy)
            if result.decision != expected:
                failures.append((seed, strategy, expected, result.decision))
            elif result.decision and not check_witness(inst, result.witness):
                failures.append((seed, strategy, "bad witness"))
    elapsed = time.time() - start
    if elapsed > 300:
        failures.append(("runtime", elapsed))
    _report(1, "oracle equivalence on 500 instances", failures)


def test_criterion_2_level_recurrence_conformance():
    failures = []
    for seed in range(100):
        inst = random_instance(
            n=3 + seed % 4,             # 3..6
            density=(0.3, 0.6, 0.9)[seed % 3],
            tau=seed % 3,
            lmax=4 + seed % 3,
            seed=20_000 + seed,
        )
        # the reference recurrence keeps OPEN and BLOCKED; the solver's
        # tables are its projection, one to one
        k = recurrence_mismatch(inst, ("singleton", "star", "clique")[seed % 3])
        if k is not None:
            failures.append((seed, k))
    _report(2, "level recurrence equals pairwise reference", failures)


def test_criterion_3_closed_form_prefix_counts():
    failures = []
    for tau in range(1, 6):
        single = uniform_instance(path_graph(1), {1}, set())
        n1 = len(feasible_prefixes(Block((1,), SINGLETON), tau, single, strengthened=False))
        if n1 != tau + 2:
            failures.append(("singleton", tau, n1))
        edge = uniform_instance(path_graph(2), {1}, {0})
        n2 = len(feasible_prefixes(Block((1, 2), CLIQUE), tau, edge, strengthened=False))
        if n2 != tau * tau + 3 * tau + 4:
            failures.append(("edge", tau, n2))
        tri = uniform_instance(complete_graph(3), {1}, {0})
        n3 = len(feasible_prefixes(Block((1, 2, 3), CLIQUE), tau, tri, strengthened=False))
        if n3 != tau ** 3 + 3 * tau ** 2 + 8 * tau + 8:
            failures.append(("triangle", tau, n3))
        for size in range(2, 6):
            star = uniform_instance(star_graph(size - 1), {1}, {0})
            block = Block(tuple(range(1, size + 1)), "star")
            ns = len(feasible_prefixes(block, tau, star, strengthened=False))
            if ns != star_prefix_bound(size, tau):
                failures.append(("star", tau, size, ns))
    _report(3, "closed-form prefix counts", failures)


# printed reference values for the base comparison table; rows are tau 1..5,
# columns: general, subcubic, claw-free, regular, clique-partition, unit-disk
PRINTED_BASES = {
    1: (3.0000, 2.8021, 2.8285, 2.8285, 2.8285, 2.8340),
    2: (4.0000, 3.6841, 3.7417, 3.7417, 3.7417, 3.7417),
    3: (5.0000, 4.6105, 4.6905, 4.6905, 4.6905, 4.6905),
    4: (6.0000, 5.5613, 5.6569, 5.6569, 5.6569, 5.6569),
    5: (7.0000, 6.5266, 6.6333, 6.6333, 6.6333, 6.6333),
}


def test_criterion_4_base_table_reproduction():
    tolerance = 1.5e-4
    failures = []
    for tau, row in PRINTED_BASES.items():
        computed = (
            float(tau + 2),
            star_block_base(tau, 3),
            star_block_base(tau, 2),
            star_block_base(tau, 2),
            star_block_base(tau, 2),
            max(star_block_base(tau, 2), star_block_base(tau, 6)),
        )
        for col, (got, want) in enumerate(zip(computed, row)):
            if abs(got - want) > tolerance:
                failures.append((tau, col, got, want))
    _report(4, "base table within 1.5e-4", failures)


def test_criterion_5_flag_invariance():
    failures = []
    alternatives = (
        ("auto", SolveOptions(early_exit=False)),
        ("singleton", SolveOptions()),
        ("clique", SolveOptions(early_exit=False)),
    )
    for seed in range(500):
        inst = _corpus_instance(seed)
        baseline = solve(inst).decision
        for strategy, opts in alternatives:
            if solve(inst, strategy=strategy, options=opts).decision != baseline:
                failures.append((seed, strategy, opts))
    _report(5, "flag invariance", failures)


def test_criterion_6_partition_structural_properties():
    failures = []
    # spanning-tree stars: non-final blocks bounded by the tree's max degree
    for seed in range(60):
        g = random_instance(n=3 + seed % 8, density=0.55, tau=0, lmax=1,
                            seed=30_000 + seed).graph
        if not validate(uniform_instance(g, {1}, {0})).connected or g.n < 2:
            continue
        tree = bfs_spanning_tree(g, 1)
        delta = max(len(nbrs) for nbrs in tree.values())
        part = star_partition_spanning_tree(g)
        try:
            validate_partition(g, part)
        except ValueError as exc:
            failures.append(("star-invalid", seed, str(exc)))
            continue
        if any(b.size > delta for b in part.blocks[:-1]) or part.blocks[-1].size > delta + 1:
            failures.append(("star-bound", seed))
    # bounded stars on verified claw-free graphs
    claw_free = [cycle_graph(4), cycle_graph(5), cycle_graph(6), cycle_graph(7),
                 line_graph(path_graph(5)), line_graph(star_graph(4)),
                 line_graph(complete_graph(4)), line_graph(cycle_graph(5))]
    for idx, g in enumerate(claw_free):
        part = star_partition_k1d(g, 3)
        try:
            validate_partition(g, part)
        except ValueError as exc:
            failures.append(("k1d-invalid", idx, str(exc)))
            continue
        if any(b.size > 2 for b in part.blocks[:-1]) or part.blocks[-1].size > 3:
            failures.append(("k1d-bound", idx))
    # clique partitions: 2p + 3q <= n and every block induces a clique
    for seed in range(60):
        g = random_instance(n=3 + seed % 8, density=0.5, tau=0, lmax=1,
                            seed=31_000 + seed).graph
        part = clique_partition(g)
        try:
            validate_partition(g, part)  # includes the induced-clique check
        except ValueError as exc:
            failures.append(("clique-invalid", seed, str(exc)))
            continue
        packed = sum(b.size for b in part.blocks if b.kind == CLIQUE)
        if packed > g.n:
            failures.append(("clique-packing", seed))
    _report(6, "partition structural properties", failures)


def test_criterion_7_performance_smoke():
    failures = []
    inst = random_instance(n=16, density=0.3, tau=1, lmax=20, seed=2024)
    start = time.time()
    result = solve(inst, strategy="star")
    elapsed = time.time() - start
    if elapsed >= 60:
        failures.append(("runtime", elapsed))
    if not result.stats.components:
        failures.append("no component reports")
    sizes = [comp.level_sizes for comp in result.stats.components]
    if sizes != [[85, 594, 4018, 36163, 62427, 207528, 238692, 694656]]:
        failures.append(("level sizes", sizes))
    for comp in result.stats.components:
        part = build_partition(comp.instance, "star")
        bound = predict_complexity(comp.instance.graph, part, instance_tau(comp.instance)).product
        oversized = [s for s in comp.level_sizes if s > bound]
        if oversized:
            failures.append(("table over bound", oversized, bound))
    print(f"  (n=16 star solve took {elapsed:.1f}s, decision={result.decision})")
    _report(7, "performance smoke test", failures)
