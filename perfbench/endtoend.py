"""End-to-end measurement: parse and solve every corpus instance, timed.

run.py starts this script in a fresh interpreter for one workload, so the
peak RSS it reports belongs to that workload alone. It uses no threads
or worker processes. It repeats whole passes over the corpus, at least
two, and more while the next is expected to fit in the time budget, and
writes each instance's time and the answers of the first pass to a JSON
file. The answers are checked by run.py, outside the timed region.

The host the benchmark was written on runs the same code up to 1.7 times
slower for seconds to minutes at a time. So an interval timer interrupts
the passes every half second to time a fixed reference task that does
not use gltc, and each pass's times are scaled by ``REFERENCE_S`` over
the median reference time of that pass: they are the times the pass
would have taken at the reference speed. An instance's time is the median over the passes of its
scaled times; medians and percentiles are then taken across instances.
The reference's own time is taken out of the instance it interrupted.

Items marked ``cli`` go through the command-line front end in-process,
as ``gltc solve FILE --partition P [--witness]``; the rest are library
calls.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import fractions
import io
import json
import math
import pprint
import random
import resource
import signal
import statistics
import sys
import textwrap
import time
from pathlib import Path

from gltc import SolveOptions, parse_instance, solve
from gltc.cli import main as cli_main

import workloads

TAIL_MIN_BEYOND = 10
MIN_PASSES = 2  # every instance gets a repeat, and answers are compared across passes

REFERENCE_EVERY_S = 0.5
REFERENCE_REPEATS = 2
# A typical reference sample on the 2-vCPU host the benchmark was written
# on: the speed that scaled times refer to.
REFERENCE_S = 0.030


def tail_percentile(values: list[float]):
    """Highest whole percentile with at least ``TAIL_MIN_BEYOND`` samples above it.

    Returns ``(percentile, value, beyond)`` using the nearest-rank value
    at that percentile, or None when there are too few samples for any
    percentile from 50 up (at 1000 samples this is p99 with 10 beyond).
    """
    ordered = sorted(values)
    count = len(ordered)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct / 100 * count)  # nearest-rank, 1-based
        beyond = count - rank
        if rank >= 1 and beyond >= TAIL_MIN_BEYOND:
            return pct, ordered[rank - 1], beyond
    return None


class Reference:
    """Times the reference task whenever the interval timer fires.

    The task is a fixed mix of pure-Python standard library work (difflib,
    pprint, statistics, textwrap, fractions): ordinary interpreted code
    with many small calls and objects, as in gltc, but none of it gltc's.
    The timer signal is handled in the main thread between bytecodes, so
    no thread runs beside the solver; ``spent`` is the seconds taken from
    the measurement so far.
    """

    def __init__(self):
        rng = random.Random(0)
        self.strings = ["".join(rng.choice("abcd") for _ in range(1500)) for _ in range(2)]
        self.data = [rng.random() for _ in range(2000)]
        self.nested = {f"k{i}": [(j, str(j), {"x": j / 7}) for j in range(8)] for i in range(40)}
        self.text = " ".join(rng.choice(["solve", "label", "vertex", "trie"]) for _ in range(1500))
        self.samples: list[float] = []
        self.spent = 0.0

    def _task(self) -> None:
        difflib.SequenceMatcher(None, *self.strings).ratio()
        pprint.pformat(self.nested)
        statistics.variance(self.data)
        textwrap.fill(self.text, 60)
        total = fractions.Fraction(0)
        for i in range(1, 400):
            total += fractions.Fraction(1, i)

    def sample(self, *signal_args) -> None:
        t0 = time.perf_counter()
        for _ in range(REFERENCE_REPEATS):
            self._task()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        self.spent += elapsed

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def _run_cli(item, path: Path):
    argv = ["solve", str(path), "--partition", item.partition]
    if item.witness:
        argv.append("--witness")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def _answer_from_cli(code: int, stdout: str, stderr: str) -> dict:
    lines = stdout.splitlines()
    if code not in (0, 1) or not lines or lines[0] != ("YES" if code == 0 else "NO"):
        return {"error": f"exit {code}: {stderr.strip()[:200]}"}
    witness = {}
    for line in lines[1:]:
        _, v, lab = line.split()
        witness[v] = int(lab)
    return {"decision": code == 0, "witness": witness if code == 0 else None}


def _one_pass(items, files, ref: Reference):
    """Solve every item once; returns (wall seconds, per-item seconds, raw outputs).

    The per-item seconds leave out the reference samples taken meanwhile.
    """
    latencies, raw = [], []
    start = time.perf_counter()
    for item, path in zip(items, files):
        spent = ref.spent
        t0 = time.perf_counter()
        try:
            if item.cli:
                out = ("cli",) + _run_cli(item, path)
            else:
                inst = parse_instance(item.text)
                result = solve(inst, strategy=item.partition,
                               options=SolveOptions(store_parents=item.witness))
                out = ("lib", result.decision, result.witness)
        except Exception as exc:  # ResourceLimitError or a crash: a failed instance
            out = ("error", f"{type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t0 - (ref.spent - spent))
        raw.append(out)
    return time.perf_counter() - start, latencies, raw


def _answers(raw) -> list[dict]:
    answers = []
    for out in raw:
        if out[0] == "cli":
            answers.append(_answer_from_cli(*out[1:]))
        elif out[0] == "lib":
            witness = None if out[2] is None else {str(v): lab for v, lab in out[2].items()}
            answers.append({"decision": out[1], "witness": witness})
        else:
            answers.append({"error": out[1]})
    return answers


def measure(corpus: Path, seconds: float) -> dict:
    items = workloads.read(corpus)
    files = [corpus / workloads.FILE_NAME.format(i) for i in range(len(items))]
    passes, first_raw = [], None  # (per-item seconds, the pass's scale) per pass
    ref = Reference()
    budget_start = time.perf_counter()
    with ref.sampling():
        while True:
            first = len(ref.samples)
            ref.sample()  # so that every pass has a sample of its own
            wall, latencies, raw = _one_pass(items, files, ref)
            passes.append((latencies, REFERENCE_S / statistics.median(ref.samples[first:])))
            if first_raw is None:
                first_raw = raw
            elif _answers(raw) != _answers(first_raw):
                raise RuntimeError("answers changed between passes")
            if (len(passes) >= MIN_PASSES
                    and time.perf_counter() - budget_start + wall > seconds):
                break
    return {
        "passes": len(passes),
        "latency_s": [statistics.median(lat[i] for lat, _ in passes)
                      for i in range(len(items))],
        "scaled_latency_s": [statistics.median(lat[i] * scale for lat, scale in passes)
                             for i in range(len(items))],
        "reference_s": statistics.median(ref.samples),
        "reference_samples": len(ref.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "answers": _answers(first_raw),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    report = measure(args.corpus, args.seconds)
    args.out.write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
