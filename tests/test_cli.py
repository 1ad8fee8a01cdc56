"""Command-line behavior: flags, file contracts, exit codes, pipelines."""

import ast
import inspect
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import traceinv
from traceinv import (
    Dataset, SolverConfig, TrainConfig, load_trace, solve, train, verify_reconstruction,
)
from traceinv.cli import build_parser, load_dataset, main
from traceinv.trace import TraceParseError, TraceValidationError, save_dataset

from conftest import package_env, reference_loop

DEMO = {
    1: ([0.6], [0.5]),
    2: ([0.6, 0.2], [0.5, 0.4]),
    3: ([0.6, 0.2, 0.1], [0.5, 0.4, 0.3]),
    4: ([0.6, 0.2, 0.1, 0.9], [0.5, 0.4, 0.3, 0.6]),
}


def run(*argv):
    return main(list(argv))


# --- dataset / report files -------------------------------------------------


def test_dataset_file_round_trip(tmp_path):
    data = Dataset([0.6, 0.2], [0.5, 0.4])
    path = tmp_path / "d.dataset"
    save_dataset(data, path)
    assert load_dataset(path) == data


def test_dataset_file_validation(tmp_path):
    def load_text(text):
        path = tmp_path / "bad.dataset"
        path.write_text(text)
        return load_dataset(path)

    with pytest.raises(TraceValidationError) as excinfo:
        load_text("traceinv-dataset 1\ninstance 0 0.6 0.5\n")
    assert excinfo.value.rule == "missing-field"
    with pytest.raises(TraceValidationError) as excinfo:
        load_text("traceinv-dataset 1\nn 2\ninstance 0 0.6 0.5\n")
    assert excinfo.value.rule == "instance-count"
    with pytest.raises(TraceValidationError) as excinfo:
        load_text(
            "traceinv-dataset 1\nn 2\ninstance 0 0.6 0.5\ninstance 2 0.2 0.4\n"
        )
    assert excinfo.value.rule == "instance-contiguous"
    with pytest.raises(TraceValidationError) as excinfo:
        load_text(
            "traceinv-dataset 1\nn 2\ninstance 1 0.6 0.5\ninstance 1 0.2 0.4\n"
        )
    assert excinfo.value.rule == "instance-contiguous"
    # a huge declared count is rejected without building a list of that size
    with pytest.raises(TraceValidationError) as excinfo:
        load_text("traceinv-dataset 1\nn 4611686018427387904\ninstance 0 0.6 0.5\n")
    assert excinfo.value.rule == "instance-count"
    # the declared count is checked as a trace's n is, in both formats
    for magic in ("traceinv-dataset", "traceinv-report"):
        for n in ("0", "-1"):
            with pytest.raises(TraceValidationError, match=f"n must be >= 1, got {n}") as excinfo:
                load_text(f"{magic} 1\nn {n}\n")
            assert excinfo.value.rule == "n-positive"
    # instance records may come in any order
    assert load_text(
        "traceinv-dataset 1\nn 2\ninstance 1 0.2 0.4\ninstance 0 0.6 0.5\n"
    ) == Dataset([0.6, 0.2], [0.5, 0.4])
    with pytest.raises(TraceParseError):
        load_text("traceinv-dataset 1\nn 1\nmystery 0 0.6 0.5\n")
    with pytest.raises(ValueError):
        load_text("traceinv-dataset 1\nn 1\ninstance 0 nan 0.5\n")
    # a report's own fields are optional, but each takes one value, once
    report = "traceinv-report 1\nn 1\ninstance 0 0.6 0.5\n"
    assert load_text(report) == Dataset([0.6], [0.5])
    with pytest.raises(TraceParseError):
        load_text(report + "converged maybe banana\n")
    with pytest.raises(TraceValidationError) as excinfo:
        load_text(report + "starts_tried 1\nstarts_tried 2\n")
    assert excinfo.value.rule == "duplicate-field"
    with pytest.raises(TraceParseError):  # report fields are unknown to a dataset
        load_text("traceinv-dataset 1\nn 1\ninstance 0 0.6 0.5\nconverged true\n")


# --- train ------------------------------------------------------------------


def test_train_writes_trace_file(tmp_path):
    out = tmp_path / "run.trace"
    code = run("train", "--x", "0.6", "--y", "0.5", "--eta", "0.1",
               "--epochs", "5", "-o", str(out))
    assert code == 0
    tr = load_trace(out)
    ws, bs, _, _ = reference_loop([0.6], [0.5], 0.1, 5)
    np.testing.assert_allclose(tr.ws, ws, rtol=1e-13)
    np.testing.assert_allclose(tr.bs, bs, rtol=1e-13)


def test_train_to_stdout(capsys):
    assert run("train", "--x", "0.6", "--y", "0.5") == 0
    out = capsys.readouterr().out
    assert out.startswith("traceinv-trace 1\n")
    assert "epochs 5" in out


def test_train_single_epoch(tmp_path):
    out = tmp_path / "one.trace"
    assert run("train", "--x", "0.6", "--y", "0.5", "--epochs", "1",
               "-o", str(out)) == 0
    tr = load_trace(out)
    assert tr.epochs == 1
    assert tr.ws[0] == 0.5


def test_train_seven_digit_precision(tmp_path):
    out = tmp_path / "seven.trace"
    assert run("train", "--x", "0.6", "--y", "0.5", "--x", "0.2", "--y", "0.4",
               "--precision", "7", "-o", str(out)) == 0
    tr = load_trace(out)
    assert tr.ws[1] == float("0.4925472")


def test_train_from_dataset_file(tmp_path):
    dpath = tmp_path / "d.dataset"
    save_dataset(Dataset([0.6, 0.2], [0.5, 0.4]), dpath)
    out = tmp_path / "run.trace"
    assert run("train", "--dataset", str(dpath), "-o", str(out)) == 0
    assert load_trace(out).n == 2


def test_train_debug_block(tmp_path):
    out = tmp_path / "dbg.trace"
    assert run("train", "--x", "0.6", "--y", "0.5", "--debug",
               "-o", str(out)) == 0
    tr = load_trace(out)
    assert tr.debug is not None
    assert tr.debug.yhat.shape == (5, 1)


def test_train_usage_errors(tmp_path, capsys):
    assert run("train", "--x", "0.6") == 2  # no --y
    assert run("train") == 2  # no data at all
    assert run("train", "--x", "0.6", "--y", "0.5", "--y", "0.4") == 2
    dpath = tmp_path / "d.dataset"
    save_dataset(Dataset([0.6], [0.5]), dpath)
    assert run("train", "--dataset", str(dpath), "--x", "0.6") == 2
    assert run("train", "--dataset", str(tmp_path / "missing.dataset")) == 2
    assert run("train", "--x", "0.6", "--y", "0.5", "--eta", "-1") == 2
    out = tmp_path / "never.trace"
    for digits in ("0", "-1"):
        assert run("train", "--x", "0.6", "--y", "0.5", "--precision", digits,
                   "-o", str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "error:" in err


def test_train_divergence_exit_code(capsys):
    code = run("train", "--x", "0.6", "--y", "-0.9", "--eta", "1e9")
    assert code == 1
    assert "diverged at epoch 1" in capsys.readouterr().err


# --- tables -----------------------------------------------------------------


def test_tables_prints_all_demo_runs(capsys):
    assert run("tables") == 0
    out = capsys.readouterr().out
    for n in range(1, 5):
        assert f"demo dataset n={n}:" in out
    # spot-check one row of the single-instance run
    assert "0.500  0.500  0.664  0.027" in out


# --- reconstruct ------------------------------------------------------------


def test_reconstruct_writes_report_and_exits_zero(tmp_path, capsys):
    tpath = tmp_path / "run.trace"
    assert run("train", "--x", "0.6", "--y", "0.5", "--x", "0.2", "--y", "0.4",
               "--epochs", "3", "-o", str(tpath)) == 0
    rpath = tmp_path / "run.report"
    assert run("reconstruct", str(tpath), "-o", str(rpath)) == 0
    assert "converged" in capsys.readouterr().out
    data = load_dataset(rpath)
    assert sorted(np.round(data.xs, 6)) == [0.2, 0.6]
    text = rpath.read_text()
    assert text.startswith("traceinv-report 1\n")
    assert "converged true" in text


def test_reconstruct_report_to_stdout(tmp_path, capsys):
    tpath = tmp_path / "run.trace"
    run("train", "--x", "0.6", "--y", "0.5", "-o", str(tpath))
    assert run("reconstruct", str(tpath)) == 0
    out = capsys.readouterr().out
    assert out.startswith("traceinv-report 1\n")


def test_reconstruct_short_trace_message(tmp_path, capsys):
    tpath = tmp_path / "one.trace"
    run("train", "--x", "0.6", "--y", "0.5", "--epochs", "1", "-o", str(tpath))
    assert run("reconstruct", str(tpath)) == 2
    assert "need at least 2 epochs" in capsys.readouterr().err


def test_reconstruct_input_errors(tmp_path, capsys):
    assert run("reconstruct", str(tmp_path / "missing.trace")) == 2
    bad = tmp_path / "bad.trace"
    bad.write_text("traceinv-trace 1\neta 0.1\nn 1\nepochs 1\nepoch 0 a b\n")
    assert run("reconstruct", str(bad)) == 2
    bad.write_text("traceinv-trace 1\neta 0.1\nn 1\nepochs 1\nepoch 0 0.5\n")
    assert run("reconstruct", str(bad)) == 2
    tpath = tmp_path / "ok.trace"
    run("train", "--x", "0.6", "--y", "0.5", "-o", str(tpath))
    assert run("reconstruct", str(tpath), "--multistart-count", "0") == 2
    assert run("reconstruct", str(tpath), "--max-iterations", "1073741824") == 2
    assert run("reconstruct", str(tpath), "--seed", "-1") == 2
    assert run("reconstruct", str(tpath), "--box-bounds", "1", "-1") == 2
    assert run("reconstruct", str(tpath), "--box-bounds", "0.5", "0.5") == 2
    for flag in ("--residual-tolerance", "--step-tolerance"):
        for value in ("nan", "inf"):
            assert run("reconstruct", str(tpath), flag, value) == 2
    # n/(2 eta) overflows converting a 400-digit n to a float
    bad.write_text(f"traceinv-trace 1\neta 0.1\nn {10**400}\nepochs 2\n"
                   "epoch 0 0.5 0.5\nepoch 1 0.4 0.4\n")
    assert run("reconstruct", str(bad)) == 2
    # n/(2 eta) * (w_0 - w_1) overflows to inf
    huge = tmp_path / "huge.trace"
    huge.write_text(
        "traceinv-trace 1\neta 0.1\nn 1\nepochs 2\n"
        "epoch 0 1e308 0.5\nepoch 1 -1e308 0.4\n"
    )
    assert run("reconstruct", str(huge)) == 2
    assert run("reconstruct", str(huge), "--box-bounds", "-1", "1") == 2
    # declares 2**62 epochs but holds one record
    long = tmp_path / "long.trace"
    long.write_text("traceinv-trace 1\neta 0.1\nn 1\nepochs 4611686018427387904\n"
                    "epoch 0 0.5 0.5\n")
    assert run("reconstruct", str(long)) == 2
    # declares 2**62 instances: the start point cannot be allocated
    big = tmp_path / "big.trace"
    big.write_text("traceinv-trace 1\neta 0.1\nn 4611686018427387904\nepochs 2\n"
                   "epoch 0 0.5 0.5\nepoch 1 0.4 0.4\n")
    report = tmp_path / "big.report"
    assert run("reconstruct", str(big), "--allow-underdetermined", "-o", str(report)) == 2
    assert not report.exists()
    capsys.readouterr()


def test_reconstruct_passes_every_solver_flag_to_solve(tmp_path, monkeypatch, capsys):
    # each flag is named after the SolverConfig field it sets
    configs = []

    def recording_solve(problem, cfg):
        configs.append(cfg)
        return solve(problem, cfg)

    monkeypatch.setattr("traceinv.cli.solve", recording_solve)
    tpath = tmp_path / "ok.trace"
    run("train", "--x", "0.6", "--y", "0.5", "-o", str(tpath))
    assert run("reconstruct", str(tpath)) == 0
    assert run("reconstruct", str(tpath), "--max-iterations", "7",
               "--residual-tolerance", "1e-6", "--step-tolerance", "1e-9",
               "--multistart-count", "3", "--seed", "5", "--box-bounds", "-2", "2",
               "--allow-underdetermined") == 0
    capsys.readouterr()
    assert configs == [
        SolverConfig(),
        SolverConfig(max_iterations=7, residual_tolerance=1e-6, step_tolerance=1e-9,
                     multistart_count=3, seed=5, box_bounds=(-2.0, 2.0),
                     allow_underdetermined=True),
    ]


def test_train_errors_come_from_dataset_and_save_trace(tmp_path, capsys):
    assert run("train", "--x", "0.6", "--y", "0.5", "--y", "0.4") == 2
    assert ("xs and ys must be non-empty 1-d arrays of equal length, got shapes (1,) and (2,)"
            in capsys.readouterr().err)
    out = tmp_path / "never.trace"
    assert run("train", "--x", "0.6", "--y", "0.5", "--precision", "0", "-o", str(out)) == 2
    assert "digits must be None or >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_output_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing"
    assert run("train", "--x", "0.6", "--y", "0.5", "-o", str(missing / "x.trace")) == 1
    tpath = tmp_path / "ok.trace"
    run("train", "--x", "0.6", "--y", "0.5", "-o", str(tpath))
    assert run("reconstruct", str(tpath), "-o", str(missing / "r.report")) == 1
    assert capsys.readouterr().err.count("error:") == 2


def test_reconstruct_nonconvergence_exit_code(tmp_path, capsys):
    tpath = tmp_path / "rounded.trace"
    run("train", "--x", "0.6", "--y", "0.5", "--x", "0.2", "--y", "0.4",
        "--precision", "7", "-o", str(tpath))
    rpath = tmp_path / "rounded.report"
    code = run("reconstruct", str(tpath), "--multistart-count", "2",
               "-o", str(rpath))
    assert code == 3
    out = capsys.readouterr().out
    assert "did not converge" in out
    # the loaded 7-digit trace stops at the first start within its rounding
    assert "did not converge (within trace precision, quantum " in out
    assert "1 start(s)" in out
    assert "converged false" in rpath.read_text()  # report still written
    # n=1 over 4 epochs at 7 digits has no exact root; verify still checks every epoch
    tpath = tmp_path / "n1.trace"
    run("train", "--x", "0.6", "--y", "0.5", "--epochs", "4", "--precision", "7",
        "-o", str(tpath))
    assert run("reconstruct", str(tpath), "-o", str(rpath)) == 3
    capsys.readouterr()
    assert run("verify", str(tpath), str(rpath)) in (0, 1)
    assert sum(line.startswith("epoch ") for line in capsys.readouterr().out.splitlines()) == 4


def test_reconstruct_underdetermined_flag(tmp_path, capsys):
    tpath = tmp_path / "short.trace"
    run("train", "--x", "0.6", "--y", "0.5", "--x", "0.2", "--y", "0.4",
        "--epochs", "2", "-o", str(tpath))
    assert run("reconstruct", str(tpath)) == 2
    capsys.readouterr()
    code = run("reconstruct", str(tpath), "--allow-underdetermined")
    assert code in (0, 3)
    capsys.readouterr()


# --- verify -----------------------------------------------------------------


def test_verify_pass_and_fail(tmp_path, capsys):
    tpath = tmp_path / "run.trace"
    run("train", "--x", "0.6", "--y", "0.5", "--x", "0.2", "--y", "0.4",
        "-o", str(tpath))
    good = tmp_path / "good.dataset"
    save_dataset(Dataset([0.2, 0.6], [0.4, 0.5]), good)  # permuted is fine
    assert run("verify", str(tpath), str(good)) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "epoch 4" in out

    bad = tmp_path / "bad.dataset"
    save_dataset(Dataset([0.61, 0.2], [0.5, 0.4]), bad)
    assert run("verify", str(tpath), str(bad)) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_prints_one_line_per_epoch_then_the_verdict(tmp_path, capsys):
    tpath = tmp_path / "run.trace"
    run("train", "--x", "0.6", "--y", "0.5", "--epochs", "7", "-o", str(tpath))
    near = tmp_path / "near.dataset"
    save_dataset(Dataset([0.6 + 1e-9], [0.5]), near)
    assert run("verify", str(tpath), str(near)) == 0
    report = verify_reconstruction(load_trace(tpath), load_dataset(near))
    want = [f"epoch {j}  |dw| {float(report.dw[j]):.3e}  |db| {float(report.db[j]):.3e}"
            for j in range(7)]
    want.append(f"PASS: max deviation {report.max_deviation:.3e} vs threshold 1.0e-08")
    assert capsys.readouterr().out.splitlines() == want


def test_verify_threshold_flag(tmp_path, capsys):
    tpath = tmp_path / "run.trace"
    run("train", "--x", "0.6", "--y", "0.5", "-o", str(tpath))
    off = tmp_path / "off.dataset"
    save_dataset(Dataset([0.6 + 1e-6], [0.5]), off)
    assert run("verify", str(tpath), str(off)) == 1
    capsys.readouterr()
    assert run("verify", str(tpath), str(off), "--threshold", "0.1") == 0
    capsys.readouterr()
    exact = tmp_path / "exact.dataset"
    save_dataset(Dataset([0.6], [0.5]), exact)
    assert run("verify", str(tpath), str(exact)) == 0
    for threshold in ("nan", "-1", "inf"):
        assert run("verify", str(tpath), str(exact), "--threshold", threshold) == 2
    assert "threshold must be >= 0" in capsys.readouterr().err


def test_verify_size_mismatch(tmp_path, capsys):
    tpath = tmp_path / "run.trace"
    run("train", "--x", "0.6", "--y", "0.5", "-o", str(tpath))
    two = tmp_path / "two.dataset"
    save_dataset(Dataset([0.6, 0.2], [0.5, 0.4]), two)
    assert run("verify", str(tpath), str(two)) == 2
    assert "does not match" in capsys.readouterr().err


def test_verify_retraining_diverged(tmp_path, capsys):
    tpath = tmp_path / "run.trace"
    run("train", "--x", "0.6", "--y", "0.5", "-o", str(tpath))
    wild = tmp_path / "wild.dataset"
    save_dataset(Dataset([0.0], [1e12]), wild)
    assert run("verify", str(tpath), str(wild)) == 1
    assert "retraining on the recovered dataset diverged" in capsys.readouterr().err


# --- feasibility ------------------------------------------------------------


def test_feasibility_output(capsys):
    assert run("feasibility", "--width", "1", "--layers", "2",
               "--instances", "2", "--epochs", "5") == 0
    out = capsys.readouterr().out
    assert "unknowns   4" in out
    assert "equations  10" in out
    assert "feasible   yes" in out
    assert "min_epochs 2" in out
    assert "instances/width = 2" in out
    assert "heuristic" in out


def test_feasibility_infeasible(capsys):
    assert run("feasibility", "--width", "1", "--layers", "2",
               "--instances", "5", "--epochs", "3") == 0
    assert "feasible   no" in capsys.readouterr().out


def test_feasibility_bad_shape(capsys):
    assert run("feasibility", "--width", "0", "--layers", "2",
               "--instances", "1", "--epochs", "1") == 2
    assert run("feasibility", "--width", "1", "--layers", "1",
               "--instances", "1", "--epochs", "1") == 2
    capsys.readouterr()
    # instances/width is too large for a float
    assert run("feasibility", "--width", "3", "--layers", "2",
               "--instances", str(10**400), "--epochs", "1") == 2
    assert capsys.readouterr().err.startswith("error: ")


# --- argparse plumbing ------------------------------------------------------


def test_usage_errors_exit_two(tmp_path):
    tpath = tmp_path / "t.trace"
    assert run("train", "--x", "0.6", "--y", "0.5", "-o", str(tpath)) == 0
    # the last argv names a flag removed in 0.2.0
    for argv in ((), ("not-a-command",), ("reconstruct", str(tpath), "--damping-init", "0.01")):
        with pytest.raises(SystemExit) as excinfo:
            run(*argv)
        assert excinfo.value.code == 2


@pytest.mark.parametrize("argv, code", [
    (("reconstruct", "T", "--box-bounds", "-inf", "inf"), 0),
    (("reconstruct", "T", "--box-bounds", "-1e-3", "1"), 0),
    (("reconstruct", "T", "--box-bounds", "-Infinity", "1E3"), 0),
    (("reconstruct", "T", "--box-bounds", "-nan", "1"), 2),
    (("train", "--x", "-1e-3", "--y", "0.5"), 0),
], ids=["-inf", "-1e-3", "-Infinity", "-nan", "train"])
def test_negative_float_spellings_are_values(argv, code, tmp_path, capsys):
    # every spelling float() takes is a value, not an option; a NaN bound
    # parses and is then rejected by SolverConfig
    tpath = tmp_path / "t.trace"
    assert run("train", "--x", "0.6", "--y", "0.5", "-o", str(tpath)) == 0
    argv = [str(tpath) if a == "T" else a for a in argv]
    assert run(*argv, "-o", str(tmp_path / "out")) == code
    err = capsys.readouterr().err
    assert err.startswith("error: box_bounds") if code else err == ""


@pytest.mark.parametrize(
    "subcommand", ["train", "tables", "reconstruct", "verify", "feasibility"]
)
def test_subcommand_help_exits_zero(subcommand, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(subcommand, "--help")
    assert excinfo.value.code == 0
    assert f"usage: traceinv {subcommand}" in capsys.readouterr().out


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    parser = build_parser()
    assert build_parser() is parser  # built once per process
    help_before = parser.format_help()
    # append lists start empty again on the next call
    two, one = tmp_path / "two.trace", tmp_path / "one.trace"
    assert run("train", "--x", "0.6", "--y", "0.5", "--x", "0.2", "--y", "0.4",
               "-o", str(two)) == 0
    assert run("train", "--x", "0.3", "--y", "0.1", "-o", str(one)) == 0
    assert load_trace(one).n == 1
    args = parser.parse_args(["train"])
    assert args.x == [] and args.y == []
    # reconstruct flags leave the defaults of the next call alone
    assert run("reconstruct", str(two), "--seed", "5", "--multistart-count", "3",
               "--box-bounds", "-1", "1", "--allow-underdetermined",
               "--residual-tolerance", "1e-6", "-o", str(tmp_path / "r.report")) == 0
    args = parser.parse_args(["reconstruct", str(two)])
    assert (args.seed, args.multistart_count, args.box_bounds) == (
        SolverConfig.seed, SolverConfig.multistart_count, None)
    assert args.residual_tolerance == SolverConfig.residual_tolerance
    assert not args.allow_underdetermined and args.output == "-"
    assert parser.format_help() == help_before
    capsys.readouterr()


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "traceinv", "tables"],
        capture_output=True,
        text=True,
        env=package_env(),
    )
    assert proc.returncode == 0
    assert "demo dataset n=1" in proc.stdout


def test_import_loads_no_scipy():
    # scipy is imported by the first solve that runs MINPACK, not by the package
    code = "import sys, traceinv, traceinv.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True,
        text=True,
        env=package_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


SCORED_ATTACK = """
import sys
from traceinv import Dataset, match_solutions
from traceinv.trace import load_dataset
from traceinv.cli import build_parser, main

at = sys.argv.index("reconstruct")  # train flags, then "reconstruct" and its flags
train, flags = sys.argv[1:at], sys.argv[at + 1:]
secret = build_parser().parse_args(["train", *train])
assert main(["train", *train, "-o", "t.trace"]) == 0
code = main(["reconstruct", "t.trace", *flags, "-o", "r.report"])
lossless = secret.precision is None
if lossless:  # converged, and retraining reproduces the trace
    assert code == 0 and main(["verify", "t.trace", "r.report"]) == 0
print("scipy.optimize" in sys.modules)
# scored after the print: at n >= 2 the pairing loads scipy
error = match_solutions(load_dataset("r.report"), Dataset(secret.x, secret.y)).max_abs_error
assert not lossless or error < (1e-12 if len(secret.x) == 1 else 1e-10)
"""


@pytest.mark.parametrize("digits, flags, loaded", [
    ([], [], False),
    (["--precision", "7"], [], False),
    (["--precision", "7"], ["--box-bounds", "0", "1"], True),
], ids=["lossless", "7-digit", "7-digit-boxed"])
def test_scoring_an_n1_attack_loads_scipy_only_for_minpack(tmp_path, digits, flags, loaded):
    # a lossless n=1 attack, verified and scored, never runs MINPACK, so it
    # never loads scipy.optimize; a 7-digit trace has no exact root, but the
    # Gauss-Newton polish of the closed form lands within its precision, so
    # MINPACK does not run and scipy.optimize stays unloaded there too; in a
    # box, which the polish does not respect, the start runs dogbox and
    # loads it
    train = ["--x", "0.6", "--y", "0.5", "--epochs", "4", *digits]
    assert scored_attack(tmp_path, train, flags) == str(loaded)


@pytest.mark.parametrize("data, loaded", [
    (["--x", "0.6", "--y", "0.5", "--x", "0.2", "--y", "0.4"], False),
    (["--x", "0.1", "--y", "0.3", "--x", "0.3", "--y", "0.8"], True),
], ids=["polished", "minpack"])
def test_scoring_an_n2_attack_loads_scipy_only_for_minpack(tmp_path, data, loaded):
    # every unboxed start is polished first: from the default start the
    # polish ends the first lossless n=2 trace at its root, so MINPACK never
    # runs; on the second it stalls far outside precision, so lmder runs
    # and loads scipy.optimize
    assert scored_attack(tmp_path, [*data, "--epochs", "3"], []) == str(loaded)


def scored_attack(tmp_path, train, flags):
    """Run SCORED_ATTACK in a fresh process: train with ``train``, then
    reconstruct with ``flags``; its last line: "True" if that loaded
    scipy.optimize, else "False"."""
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", SCORED_ATTACK, *train, "reconstruct", *flags],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=package_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_each_public_name_has_one_home():
    namespace = {}
    exec("from traceinv import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(traceinv.__all__)
    homes = {}
    for module in (traceinv.model, traceinv.solver, traceinv.system, traceinv.tables,
                   traceinv.trace):
        assigned = {target.id for node in ast.parse(inspect.getsource(module)).body
                    if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)}
        for name in module.__all__:
            assert name not in homes, f"{name} is listed by {homes[name]} and {module.__name__}"
            homes[name] = module.__name__
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, name
            else:  # a constant: assigned at the module's top level
                assert name in assigned, name
            assert getattr(traceinv, name) is obj, name
    assert sorted([*homes, "__version__"]) == sorted(traceinv.__all__)


def test_readme_quickstart_runs(tmp_path):
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=package_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[0.6 0.2]", "[0.5 0.4]"]


def test_readme_cli_block_runs(tmp_path):
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("```sh\ntraceinv ", 1)[1].split("```", 1)[0]
    lines = ("traceinv " + block).splitlines()
    assert len(lines) == 5
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "traceinv"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "traceinv", *argv[1:]],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=package_env(),
        )
        assert proc.returncode == 0, (line, proc.stderr)
        if argv[1] == "verify":
            assert "PASS" in proc.stdout


def test_package_version_matches_pyproject():
    # a regex, not tomllib, which Python 3.10 lacks
    root = Path(__file__).resolve().parent.parent
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^version = "([^"]+)"$', pyproject, re.M) == [traceinv.__version__]


# --- the full pipeline ------------------------------------------------------


@pytest.mark.parametrize("n, epochs", [
    *(pytest.param(n, 5, id=str(n)) for n in DEMO),
    pytest.param(1, 500, id="1-500-epochs"),
])
def test_pipeline_train_reconstruct_verify(n, epochs, tmp_path, capsys):
    xs, ys = DEMO[n]
    tpath, rpath = tmp_path / "p.trace", tmp_path / "p.report"
    args = ["train", "--epochs", str(epochs), "-o", str(tpath)]
    for x, y in zip(xs, ys):
        args += ["--x", str(x), "--y", str(y)]
    assert run(*args) == 0
    assert run("reconstruct", str(tpath), "-o", str(rpath)) == 0
    if n == 1:  # lossless n=1: the closed form is the first start and already a root
        assert "iterations 0" in rpath.read_text().splitlines()
    # epoch records may come in any order: reversed, they give the same report
    lines = tpath.read_text().splitlines(keepends=True)
    first = next(k for k, line in enumerate(lines) if line.startswith("epoch "))
    reversed_trace = tmp_path / "reversed.trace"
    reversed_trace.write_text("".join(lines[:first] + lines[first:][::-1]))
    assert run("reconstruct", str(reversed_trace), "-o", str(tmp_path / "reversed.report")) == 0
    assert (tmp_path / "reversed.report").read_bytes() == rpath.read_bytes()
    capsys.readouterr()
    assert run("verify", str(tpath), str(rpath)) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1].startswith("PASS")
    assert sum(line.startswith("epoch ") for line in out) == epochs
