"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload small_mixed --seed 2024 --seconds 30 --trace 0

Run it from anywhere inside a source checkout; it solves with the gltc in
that checkout's ``src/`` and nothing else. Steps, one process at a time:

1. set-up: a fresh interpreter imports gltc, builds the workload's corpus
   from the seed and writes it under ``.perfbench_work/`` (nine times,
   each scaled by a reference sample taken just before it; ``setup_s`` is
   the median);
2. the measurement, in one more fresh interpreter: ``endtoend.py`` with
   ``--trace 0``, the traced replica ``layers.py`` with ``--trace 1``.
   ``--seconds`` is a floor as much as a budget: ``endtoend.py`` always
   makes two passes over the corpus, which on ``large_tau1`` take 30 to
   45 s, and adds passes only while the next fits in ``--seconds``;
3. verification, untimed, in this process: every YES witness goes through
   ``check_witness`` and every decision on n <= 12 is compared with
   ``brute_force_solve``.

Prints one line per metric, then a JSON summary as the last line. Exits 0
when every answer checked out, 1 when one did not, 2 when the checkout
has no gltc sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 9
ORACLE_MAX_N = 12
RUN_LIMIT_S = 170  # the whole run, set-up and verification included

# The end-to-end metrics of BENCHMARK.json. solve_tail_ms and failed_frac
# are printed too but left out of the summary: the tail is an extreme of a
# few instances and moved by a third or more from seed to seed, more than
# any bound can hold, and failed_frac is 0 whenever a run is correct.
END_TO_END = (
    ("corpus_s", "s"),
    ("solve_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def _child(args: list[str]) -> float:
    """Run a benchmark script in a fresh interpreter; returns its wall time.

    No ``timeout=`` here: with one, ``subprocess`` polls in 50 ms steps and
    the set-up times come out quantized. The run-wide alarm bounds the wait
    instead, and ``subprocess.run`` kills and reaps the child when the
    alarm's exception interrupts it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, *args], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def _out_of_time(signum, frame):
    raise TimeoutError(f"the run took more than {RUN_LIMIT_S} s")


def _check(item, answer: dict) -> str | None:
    """Why an answer is wrong, or None when it checks out."""
    # gltc imports only once main() has put the checkout's src/ on sys.path.
    from gltc import brute_force_solve, check_witness, parse_instance

    if "error" in answer:
        return answer["error"]
    inst = parse_instance(item.text)
    if answer["decision"] and item.witness:
        raw = answer["witness"]
        if raw is None or not check_witness(inst, {int(v): lab for v, lab in raw.items()}):
            return "witness rejected by check_witness"
    if inst.graph.n <= ORACLE_MAX_N:
        expected, _ = brute_force_solve(inst)
        if expected != answer["decision"]:
            return f"answered {answer['decision']}, brute force says {expected}"
    return None


def _print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name} {value:.6g} {unit}{note}")


def _end_to_end(report: dict, setup: list[tuple[float, float]]) -> dict:
    from endtoend import tail_percentile

    latency, raw = report["scaled_latency_s"], report["latency_s"]
    tail = tail_percentile(latency)
    if tail is None:  # too few instances for ten samples beyond any percentile
        tail = (100, max(latency), 0)
    pct, tail_s, beyond = tail
    values = {
        "corpus_s": sum(latency),
        "solve_p50_ms": statistics.median(latency) * 1e3,
        "peak_rss_mb": report["peak_rss_mb"],
        "setup_s": statistics.median(scaled for _, scaled in setup),
    }
    notes = {
        "corpus_s": f" (median of {report['passes']} passes per instance, summed;"
                    f" {sum(raw):.6g} s unscaled)",
        "solve_p50_ms": f" ({statistics.median(raw) * 1e3:.6g} ms unscaled)",
        "setup_s": f" (median of {len(setup)};"
                   f" {statistics.median(wall for wall, _ in setup):.6g} s unscaled)",
    }
    for name, unit in END_TO_END:
        _print_metric(name, values[name], unit, notes.get(name, ""))
    _print_metric("solve_tail_ms", tail_s * 1e3, "ms",
                  f" (p{pct}, {beyond} of {len(latency)} samples beyond)")
    print(f"reference {report['reference_s'] * 1e3:.4g} ms, median of "
          f"{report['reference_samples']} samples")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _layers(report: dict) -> dict:
    from layers import PER_LAYER, SHARES

    values = report["metrics"]
    for name, unit in PER_LAYER:
        _print_metric(name, values[name], unit)
    print(f"traced {report['traced_s']:.3f} s against untraced solve() "
          f"{report['untraced_s']:.3f} s")
    work = sum(values[name] for name in SHARES)
    for name in SHARES:
        print(f"share {name} {100 * values[name] / work:.1f} % of {work:.3f} s")
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(RUN_LIMIT_S)
    if not (SRC / "gltc" / "__init__.py").is_file():
        print(f"error: no gltc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gltc
    import workloads

    if Path(gltc.__file__).resolve().parent != SRC / "gltc":
        print(f"error: imported gltc from {gltc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    corpus = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(corpus, ignore_errors=True)
    from endtoend import REFERENCE_S, Reference

    # Each set-up is scaled by a reference sample taken just before it, in
    # this process, as endtoend.py scales each pass by that pass's samples.
    ref, setup = Reference(), []
    for _ in range(SETUP_REPEATS):
        ref.sample()
        wall = _child([str(HERE / "workloads.py"), "--workload", args.workload,
                       "--seed", str(args.seed), "--out", str(corpus)])
        setup.append((wall, wall * REFERENCE_S / ref.samples[-1]))
    result = corpus / "result.json"
    if args.trace:
        cmd = [str(HERE / "layers.py")]
    else:
        cmd = [str(HERE / "endtoend.py"), "--seconds", str(args.seconds)]
    _child(cmd + ["--corpus", str(corpus), "--out", str(result)])
    report = json.loads(result.read_text(encoding="utf-8"))

    items = workloads.read(corpus)
    failures = [(item.name, why) for item, answer in zip(items, report["answers"])
                if (why := _check(item, answer)) is not None]
    if args.trace:
        failures += [(name, "replica level sizes differ from solve()")
                     for name in report["mismatches"]]
        if report["metrics"]["solver.over_bound"]:
            failures.append(("*", "a level table exceeds the predicted bound"))
        metrics = _layers(report)
    else:
        metrics = _end_to_end(report, setup)
    for name, why in failures[:20]:
        print(f"FAILED {name}: {why}")
    failed = len({name for name, _ in failures})
    print(f"failed_frac {failed / len(items):.6g} ratio ({failed} of {len(items)} instances)")
    signal.alarm(0)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(items),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
