"""Command-line behavior: reports, exit codes, determinism."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from gltc import (check_witness, gap_compression, instance_tau, parse_instance,
                  serialize_instance)
from gltc import solver as solver_module
from gltc.cli import main
from gltc.partition import star_prefix_bound

SRC = Path(__file__).resolve().parents[1] / "src"

YES_DOC = "gltc 2 1\nv 1 1 2 3\nv 2 1 2 3\ne 1 2 0 1\n"
NO_DOC = "gltc 2 1\nv 1 1 2\nv 2 1 2\ne 1 2 0 1\n"


@pytest.fixture
def yes_file(tmp_path):
    path = tmp_path / "yes.gltc"
    path.write_text(YES_DOC)
    return str(path)


@pytest.fixture
def no_file(tmp_path):
    path = tmp_path / "no.gltc"
    path.write_text(NO_DOC)
    return str(path)


def test_solve_yes_exit_code_and_witness(yes_file, capsys):
    code = main(["solve", yes_file, "--witness"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "YES"
    witness = {}
    for line in out[1:]:
        _, v, lab = line.split()
        witness[int(v)] = int(lab)
    assert check_witness(parse_instance(YES_DOC), witness)


def test_solve_no_exit_code(no_file, capsys):
    code = main(["solve", no_file])
    assert code == 1
    assert capsys.readouterr().out.splitlines()[0] == "NO"


def test_solve_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.gltc"
    path.write_text("gltc 1 0\nv 2 1\n")
    assert main(["solve", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_solve_missing_file_exits_2(capsys):
    assert main(["solve", "/no/such/file.gltc"]) == 2


def test_solve_long_unknown_record_gives_a_short_error(tmp_path, capsys):
    path = tmp_path / "long.gltc"
    path.write_text("gltc 1 0\n" + "x" * 100000 + "\n")
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 1024
    assert "line 2: unknown record" in err


def test_solve_huge_header_gives_a_short_error(tmp_path, capsys):
    path = tmp_path / "huge.gltc"
    path.write_text("gltc 3000000 0\n")
    assert main(["solve", str(path)]) == 2
    assert len(capsys.readouterr().err.encode()) < 1024


@pytest.mark.parametrize("text", [
    "gltc 1 0\nv " + "9" * 4300 + " 1\n",
    "gltc " + "9" * 4300 + " 0\nv 2 1\n",
], ids=["vertex-id", "header-count"])
def test_solve_long_integer_gives_a_short_error(tmp_path, capsys, text):
    path = tmp_path / "long.gltc"
    path.write_text(text)
    assert main(["solve", str(path)]) == 2
    assert len(capsys.readouterr().err.encode()) < 1024


def test_solve_internal_failure_exits_2_not_no(yes_file, monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("gltc.cli.solve", out_of_memory)
    assert main(["solve", yes_file]) == 2
    err = capsys.readouterr().err
    assert "MemoryError" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("flag", ["--witness", "--trace"])
def test_solve_flags_do_not_change_the_answer(yes_file, no_file, flag, capsys):
    assert main(["solve", yes_file, flag]) == 0
    assert main(["solve", no_file, flag]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("part", ["singleton", "star", "clique", "auto", "k1d:3"])
def test_solve_partition_flags(yes_file, part, capsys):
    assert main(["solve", yes_file, "--partition", part]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("part", ["bogus", "k1d:2"])
def test_solve_rejects_a_bad_partition_flag(yes_file, part, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", yes_file, "--partition", part])
    assert exc.value.code == 2
    assert "--partition" in capsys.readouterr().err


@pytest.mark.parametrize("part, message", [
    ("k1d:2", "k1d needs d >= 3"),
    ("k1d:abc", "bad k1d parameter in 'k1d:abc'"),
    ("bogus", "expected one of singleton|star|k1d:<d>|clique|auto"),
])
def test_predict_reports_the_strategy_checker_message(yes_file, part, message, capsys):
    with pytest.raises(SystemExit):
        main(["predict", yes_file, "--partition", part])
    assert capsys.readouterr().err.rstrip().endswith(f"argument --partition: {message}")


CLAW_DOC = "gltc 4 3\nv 1 1 2\nv 2 1 2\nv 3 1 2\nv 4 1 2\ne 1 2 0\ne 1 3 0\ne 1 4 0\n"


def test_solve_ignores_the_partition_flag_on_a_claw(tmp_path, capsys):
    path = tmp_path / "claw.gltc"
    path.write_text(CLAW_DOC)
    assert main(["solve", str(path), "--partition", "k1d:3", "--witness"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "YES"
    witness = {int(v): int(lab) for _, v, lab in (line.split() for line in out[1:])}
    assert check_witness(parse_instance(CLAW_DOC), witness)


def test_predict_still_refuses_k1d_on_a_claw(tmp_path, capsys):
    path = tmp_path / "claw.gltc"
    path.write_text(CLAW_DOC)
    assert main(["predict", str(path), "--partition", "k1d:3"]) == 2
    assert "not K_{1,3}-free" in capsys.readouterr().err


def test_solve_trace_goes_to_stderr(yes_file, capsys):
    main(["solve", yes_file, "--trace"])
    captured = capsys.readouterr()
    rows = [line for line in captured.err.splitlines() if not line.startswith("#")]
    assert rows, "trace rows expected"
    for row in rows:
        k, size, cum = row.split("\t")
        assert int(k) >= 1 and int(size) >= 0 and int(cum) >= int(size)


def test_solve_trace_ends_on_the_level_that_empties_the_table(tmp_path, capsys):
    # the level-2 table of a 5-cycle with lists {1, 2} and a pendant with
    # list {1..6} is empty, so the trace has two rows, the last of size 0
    # (pinned with the free-label step off; by default the pendant keeps
    # its least free label, 3, and the level-1 table holds 11 vectors)
    from support import free_labels_off, odd_cycle_with_pendant

    path = tmp_path / "c5.gltc"
    path.write_text(serialize_instance(odd_cycle_with_pendant()))
    with free_labels_off():
        for flags in ([], ["--witness"]):
            assert main(["solve", str(path), "--trace", *flags]) == 1
            captured = capsys.readouterr()
            assert captured.out == "NO\n"
            rows = [line.split("\t") for line in captured.err.splitlines()
                    if not line.startswith("#")]
            assert rows == [["1", "19", "19"], ["2", "0", "19"]]
    for flags in ([], ["--witness"]):
        assert main(["solve", str(path), "--trace", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == "NO\n"
        rows = [line.split("\t") for line in captured.err.splitlines() if not line.startswith("#")]
        assert rows == [["1", "11", "11"], ["2", "0", "11"]]


def test_solve_trace_headers_count_the_pruned_labels(yes_file, no_file, capsys):
    # label 2 has no support on the edge in either document; in NO_DOC
    # every label goes, so no level runs
    assert main(["solve", yes_file, "--trace"]) == 0
    assert capsys.readouterr().err.splitlines()[0] == "# component 1 pruned 2"
    assert main(["solve", no_file, "--trace"]) == 1
    assert capsys.readouterr().err.splitlines() == ["# component 1 pruned 4"]


def test_solve_limit_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(solver_module, "ENTRY_LIMIT", 2)
    path = tmp_path / "wide.gltc"
    labels = " ".join(str(i) for i in range(1, 9))
    path.write_text(f"gltc 3 2\nv 1 {labels}\nv 2 {labels}\nv 3 {labels}\ne 1 2 0\ne 2 3 0\n")
    assert main(["solve", str(path)]) == 2  # the first level makes 9 entries
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("limit: ")


def test_repeated_in_process_calls_share_one_parser_and_leak_no_state(tmp_path, capsys):
    # main reuses one parser per process; each call still starts from the
    # defaults, and a call that exits on a bad flag spoils none after it
    from gltc.cli import build_parser

    assert build_parser() is build_parser()
    path = tmp_path / "early.gltc"
    path.write_text("gltc 2 1\nv 1 1 2 3\nv 2 1 2 3\ne 1 2 0\n")  # complete from level 2 of 3

    def run(*flags):
        code = main(["solve", str(path), *flags])
        captured = capsys.readouterr()
        rows = [line for line in captured.err.splitlines() if not line.startswith("#")]
        return code, captured.out.splitlines(), len(rows)

    # --witness prints YES and two witness lines; --trace two levels, as the
    # solve stops at the first complete one
    witnessed = (0, ["YES", "v 1 2", "v 2 1"], 0)
    assert run("--witness") == witnessed
    assert run("--trace") == (0, ["YES"], 2)
    assert run("--witness") == witnessed
    assert run() == (0, ["YES"], 0)
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(path), "--partition", "bogus"])
    assert exc.value.code == 2
    assert "--partition" in capsys.readouterr().err
    assert run("--trace") == (0, ["YES"], 2)
    assert run("--witness") == witnessed


def test_oracle_agrees_with_solve(yes_file, no_file, capsys):
    assert main(["oracle", yes_file]) == 0
    assert main(["oracle", no_file]) == 1
    capsys.readouterr()


def test_oracle_warns_on_large_instances(tmp_path, capsys):
    lines = ["gltc 13 0"] + [f"v {v} 1" for v in range(1, 14)]
    path = tmp_path / "big.gltc"
    path.write_text("\n".join(lines) + "\n")
    assert main(["oracle", str(path)]) == 0
    assert "warning" in capsys.readouterr().err


def test_reduce_coloring(tmp_path, capsys):
    path = tmp_path / "carrier.gltc"
    path.write_text("gltc 3 3\nv 1 1 2 3\nv 2 1 2 3\nv 3 1 2 3\ne 1 2 0 5\ne 1 3 0\ne 2 3 0 1\n")
    assert main(["reduce", "coloring", str(path)]) == 0
    inst = parse_instance(capsys.readouterr().out)
    assert all(diffs == frozenset({0}) for diffs in inst.t.values())


def test_reduce_lpq_builds_the_square(tmp_path, capsys):
    path = tmp_path / "p3.gltc"
    path.write_text("gltc 3 2\nv 1 1 2 3\nv 2 1 2 3\nv 3 1 2 3\ne 1 2 0\ne 2 3 0\n")
    assert main(["reduce", "lpq", str(path), "--p", "2", "--q", "1"]) == 0
    inst = parse_instance(capsys.readouterr().out)
    assert inst.t[(1, 2)] == frozenset({0, 1})
    assert inst.t[(2, 3)] == frozenset({0, 1})
    assert inst.t[(1, 3)] == frozenset({0})


def test_reduce_lpq_rejects_bad_parameters(tmp_path, capsys):
    path = tmp_path / "p3.gltc"
    path.write_text("gltc 2 1\nv 1 1\nv 2 1\ne 1 2 0\n")
    assert main(["reduce", "lpq", str(path), "--p", "1", "--q", "2"]) == 2


def test_reduce_channel_weights(tmp_path, capsys):
    path = tmp_path / "p3.gltc"
    path.write_text("gltc 3 2\nv 1 1 2\nv 2 1 2\nv 3 1 2\ne 1 2 0\ne 2 3 0\n")
    code = main(["reduce", "channel", str(path), "--omega-default", "1",
                 "--omega", "2,3,3"])
    assert code == 0
    inst = parse_instance(capsys.readouterr().out)
    assert inst.t[(1, 2)] == frozenset({0})
    assert inst.t[(2, 3)] == frozenset({0, 1, 2})


def test_reduce_tcoloring_uhf(tmp_path, capsys):
    path = tmp_path / "k2.gltc"
    path.write_text("gltc 2 1\nv 1 1\nv 2 1\ne 1 2 0\n")
    assert main(["reduce", "tcoloring", str(path), "--t-set", "0,7,14,15"]) == 0
    inst = parse_instance(capsys.readouterr().out)
    assert inst.t[(1, 2)] == frozenset({0, 7, 14, 15})
    assert main(["reduce", "tcoloring", str(path), "--t-set", "7,14"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["gen", "--n", "3", "--density", "1.5"], "density must lie in [0, 1]"),
    (["gen", "--n", "3", "--lmax", "0"], "need n >= 0, tau >= 0, lmax >= 1"),
    (["reduce", "channel", "P3", "--omega", "1,2"], "--omega expects 'u,v,w', got '1,2'"),
    (["reduce", "channel", "P3", "--omega", "1,3,2"], "--omega names missing edge 1-3"),
    (["reduce", "tcoloring", "P3", "--t-set", "x"], "--t-set expects 'd,d,...', got 'x'"),
], ids=["density_past_1", "lmax_0", "omega_of_two_fields", "omega_on_a_non_edge", "t_set_not_integers"])
def test_bad_option_values_exit_2_with_one_error_line(argv, message, tmp_path, capsys):
    path = tmp_path / "p3.gltc"
    path.write_text("gltc 3 2\nv 1 1 2\nv 2 1 2\nv 3 1 2\ne 1 2 0\ne 2 3 0\n")
    assert main([str(path) if arg == "P3" else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_gen_is_deterministic(capsys):
    main(["gen", "--n", "6", "--density", "0.5", "--tau", "2", "--lmax", "9", "--seed", "11"])
    first = capsys.readouterr().out
    main(["gen", "--n", "6", "--density", "0.5", "--tau", "2", "--lmax", "9", "--seed", "11"])
    second = capsys.readouterr().out
    assert first == second
    parse_instance(first)  # well-formed


def test_gen_density_extremes(capsys):
    main(["gen", "--n", "4", "--density", "0", "--seed", "1"])
    empty = parse_instance(capsys.readouterr().out)
    assert len(empty.graph.edges) == 0
    main(["gen", "--n", "4", "--density", "1", "--seed", "1"])
    full = parse_instance(capsys.readouterr().out)
    assert len(full.graph.edges) == 6


def test_predict_report(yes_file, capsys):
    assert main(["predict", yes_file, "--partition", "singleton"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "partition singleton"
    assert lines[1] == "f 3 3"
    assert lines[2] == "product 9"
    assert lines[3] == "base 3.0000"


def test_bases_row(capsys):
    assert main(["bases", "--tau", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "tau 1"
    assert lines[1] == "general 3.0000"
    assert lines[2] == "subcubic 2.8020"
    assert lines[3] == "matching 2.8284"
    assert lines[4] == "unit_disk 2.8339"


def test_bases_huge_tau_gives_a_short_error(capsys):
    # a 400-digit tau overflows a float base: bad input, not an internal error
    assert main(["bases", "--tau", "9" * 400]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err) < 100


# a 3-path with lists {1, 2}: no labeling gives edge 1-2 a difference of 10^6
HUGE_DIFF_DOC = "gltc 3 2\nv 1 1 2\nv 2 1 2\nv 3 1 2\ne 1 2 0 1000000\ne 2 3 0\n"


def test_solve_a_difference_beyond_every_label_span(tmp_path, capsys):
    # the DP sizes its alphabet and masks by tau, so the difference no
    # labeling gives is dropped first; checked before the solve, which
    # would otherwise build masks for a million symbols
    inst = parse_instance(HUGE_DIFF_DOC)
    assert instance_tau(inst) == 1_000_000
    assert instance_tau(gap_compression(inst)[0]) == 0
    path = tmp_path / "huge.gltc"
    path.write_text(HUGE_DIFF_DOC)
    assert main(["solve", str(path), "--witness"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "YES"
    witness = {int(v): int(lab) for _, v, lab in map(str.split, out[1:])}
    assert check_witness(inst, witness)


def test_predict_a_difference_beyond_every_label_span(tmp_path):
    # predict prices the instance solve runs, where the difference no
    # labeling gives is dropped and tau is 0, not the raw tau = 10**6 (its
    # bound would be f 1000004000009000008); in a subprocess, so work that
    # grows with the raw tau times out instead of hanging the suite
    path = tmp_path / "huge.gltc"
    path.write_text(HUGE_DIFF_DOC)
    proc = subprocess.run([sys.executable, "-m", "gltc.cli", "predict", str(path)],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=5)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:2] == ["partition auto", "f 2 2 2"]
    assert f"f {star_prefix_bound(3, 1_000_000)}" not in proc.stdout



# label 1 of vertex 1 lies 10**12 - 1 from vertex 2's one label, a
# difference T forbids, so arc consistency drops it; the lists span 10**12
WIDE_LABEL_DOC = "gltc 2 1\nv 1 1 2\nv 2 1000000000000\ne 1 2 0 999999999999\n"
# the same difference between {1, 2} and {10**12, 10**12 + 1}, where each
# label has support: pruning keeps every label and the span
STILL_WIDE_DOC = "gltc 2 1\nv 1 1 2\nv 2 1000000000000 1000000000001\ne 1 2 0 999999999999\n"


def _run_capped(*args):
    """gltc in a subprocess held to 5 s and 1 GiB of address space, so
    work or memory that grows with the labels' size fails the test
    instead of hanging the suite or filling the machine."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    return subprocess.run([sys.executable, "-m", "gltc.cli", *map(str, args)],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), preexec_fn=cap,
                          capture_output=True, text=True, timeout=5)


def test_labels_far_apart_are_pruned_without_masks_as_wide(tmp_path):
    # a label bitmask as wide as these labels would take 125 GB
    path = tmp_path / "wide.gltc"
    path.write_text(WIDE_LABEL_DOC)
    proc = _run_capped("solve", path, "--witness")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["YES", "v 1 2", "v 2 1000000000000"]
    proc = _run_capped("predict", path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:2] == ["partition auto", "f 2 2"]
    # pruning keeps both lists whole here, so predict prices tau = 10**12 - 1
    path.write_text(STILL_WIDE_DOC)
    proc = _run_capped("predict", path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1] == "f 1000000000001000000000002"


def test_predict_prices_the_instance_solve_runs(tmp_path, capsys):
    # the huge difference, dropped, gives the report of the same path
    # without it, for every strategy that applies to a path
    inst, _ = gap_compression(parse_instance(HUGE_DIFF_DOC))
    assert instance_tau(inst) == 0
    raw, clipped = tmp_path / "huge.gltc", tmp_path / "clipped.gltc"
    raw.write_text(HUGE_DIFF_DOC)
    clipped.write_text(serialize_instance(inst))
    for part in ("auto", "singleton", "star", "k1d:3", "clique"):
        reports = []
        for path in (raw, clipped):
            assert main(["predict", str(path), "--partition", part]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert "1000004000009000008" not in reports[0]


def test_solve_on_a_long_path_never_exits_1(tmp_path):
    # a YES: a 1,200-vertex path with lists {1, 2, 3} and T = {0, 1}. A
    # solve that runs out of stack exits 2 with one line, never 1 (NO);
    # one that finishes prints a witness that checks. In a subprocess, so
    # the exit code is the process's own
    n = 1200
    doc = "".join([f"gltc {n} {n - 1}\n", *(f"v {v} 1 2 3\n" for v in range(1, n + 1)),
                   *(f"e {v} {v + 1} 0 1\n" for v in range(1, n))])
    path = tmp_path / "path.gltc"
    path.write_text(doc)
    proc = subprocess.run([sys.executable, "-m", "gltc.cli", "solve", str(path), "--witness"],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode in (0, 2), proc.stderr
    if proc.returncode == 2:
        assert len(proc.stderr.splitlines()) == 1
    else:
        out = proc.stdout.splitlines()
        assert out[0] == "YES"
        witness = {int(v): int(lab) for _, v, lab in map(str.split, out[1:])}
        assert check_witness(parse_instance(doc), witness)


@pytest.mark.parametrize("n, labels, diffs", [
    (26, "1 2", "0"),  # 317,811 vectors at level 1, in 51 table nodes
    (100, "1 2 3", "0 1"),  # about 2**69 vectors at levels 1 and 2, in 199 each
    (1200, "1 2 3", "0 1"),  # walks 1,200 positions deep
])
def test_solve_long_paths_at_default_options(tmp_path, n, labels, diffs):
    # YES instances whose tables hold far more vectors than the solve
    # holds entries; the exit code is the process's own
    doc = "".join([f"gltc {n} {n - 1}\n", *(f"v {v} {labels}\n" for v in range(1, n + 1)),
                   *(f"e {v} {v + 1} {diffs}\n" for v in range(1, n))])
    path = tmp_path / "path.gltc"
    path.write_text(doc)
    proc = subprocess.run([sys.executable, "-m", "gltc.cli", "solve", str(path), "--witness"],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    assert out[0] == "YES"
    witness = {int(v): int(lab) for _, v, lab in map(str.split, out[1:])}
    assert check_witness(parse_instance(doc), witness)


def test_solve_and_oracle_agree_on_generated_fixtures(tmp_path, capsys):
    for seed in range(8):
        main(["gen", "--n", "6", "--density", "0.5", "--tau", "1",
              "--lmax", "6", "--seed", str(seed)])
        doc = capsys.readouterr().out
        path = tmp_path / f"g{seed}.gltc"
        path.write_text(doc)
        got = main(["solve", str(path)])
        want = main(["oracle", str(path)])
        capsys.readouterr()
        assert got == want
