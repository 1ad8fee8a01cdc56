"""Workloads, the per-case attack pipeline and the checks on its outputs.

A case is one secret dataset.  The victim trains on it and writes the
trace file; the attacker then runs ``traceinv reconstruct`` and
``traceinv verify`` through ``cli.main``, exactly as from a shell.  The
checks compare the report with the secret, which the attacker never has,
so they run outside the timed span.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
import traceback
from dataclasses import dataclass

import numpy as np

from traceinv import Dataset, TrainConfig, cli, match_solutions, save_trace, train

ETA = 0.1
SECRET_RANGE = (0.05, 0.95)
RECONSTRUCT_CODES = (0, 3)  # converged / finished without converging
VERIFY_CODES = (0, 1)  # PASS / FAIL

load_dataset = cli.load_dataset  # bound before any hook replaces it


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: tuple  # n of successive cases, cycled
    epochs: object  # n -> recorded epochs E
    digits: int | None  # significant digits written to the trace; None is lossless
    match_tol: float  # largest error against the secret that counts as recovered
    nominal_case_s: float  # per-case wall time at the baseline, sizes fixed runs


# Why each workload exists is recorded in BENCHMARK.json.  Each keeps its
# per-case cost narrow: n>=2 lossless attacks were left out because a few
# cases in a thousand take 50-300x the median (up to 3.4 s against 50 ms
# on long-trace at n=2, one case alone 17% of a 30 s run), so cases_per_s
# swings with the seed.  Rarer 2-3 s cases that end in solver failure
# remain on every workload (about one 30 s run in five has one).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("attack-n1", (1,), lambda n: n + 1, None, 1e-6, 0.007),
        Workload("long-trace", (1,), lambda n: 500, None, 1e-6, 0.045),
        Workload("float32-trace", (1,), lambda n: n + 3, 7, 1e-3, 0.032),
    )
}


@dataclass(frozen=True)
class Case:
    index: int  # also the reconstruct --seed
    secret: Dataset
    epochs: int


def make_cases(workload, seed, count):
    """The first ``count`` cases of a workload; a pure function of ``seed``."""
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(count):
        n = workload.sizes[k % len(workload.sizes)]
        xs = rng.uniform(*SECRET_RANGE, n)
        ys = rng.uniform(*SECRET_RANGE, n)
        cases.append(Case(k, Dataset(xs, ys), workload.epochs(n)))
    return cases


@dataclass
class Outcome:
    wall: float
    rc: int | None  # reconstruct exit code; None if it never returned
    vc: int | None  # verify exit code; None if it never ran
    last_line: str  # last line the two commands printed: verify's verdict
    error: str | None  # traceback of an exception, if one escaped


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        return exc.code if isinstance(exc.code, int) else 2


@contextlib.contextmanager
def untraced(name):
    """Stands in for ``Tracer.span`` when nothing is recorded."""
    yield {}


def run_case(case, workload, trace_path, report_path, span=untraced):
    """Run one case through the real pipeline; ``wall`` spans all of it."""
    for path in (trace_path, report_path):
        if os.path.exists(path):
            os.remove(path)
    out = io.StringIO()
    rc = vc = error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            with span("model.train") as attrs:
                trace = train(case.secret, TrainConfig(eta=ETA, epochs=case.epochs))
                attrs["epochs"] = trace.epochs
            with span("trace.save") as attrs:
                save_trace(trace, trace_path, digits=workload.digits)
            attrs["bytes"] = os.path.getsize(trace_path)
            with span("cli.reconstruct"):
                rc = _exit_code(
                    ["reconstruct", trace_path, "-o", report_path, "--seed", str(case.index)]
                )
            if rc in RECONSTRUCT_CODES:
                with span("cli.verify"):
                    vc = _exit_code(["verify", trace_path, report_path])
    except Exception:
        error = traceback.format_exc(limit=4)
    wall = time.perf_counter() - t0
    return Outcome(wall, rc, vc, out.getvalue().strip().rpartition("\n")[2], error)


@dataclass
class Check:
    failure: str | None  # why the case counts as failed
    recovered: bool = False
    false_accept: bool = False
    error: float | None = None  # max_abs_error against the secret


def check_case(case, workload, outcome, report_path):
    """Judge one case's outputs against the documented contract and the secret."""
    if outcome.error is not None:
        return Check(f"exception: {outcome.error.strip().splitlines()[-1]}")
    if outcome.rc not in RECONSTRUCT_CODES:
        return Check(f"reconstruct exited {outcome.rc}")
    if outcome.vc not in VERIFY_CODES:
        return Check(f"verify exited {outcome.vc}")
    passed = outcome.last_line.startswith("PASS")
    if passed != (outcome.vc == 0):
        return Check(f"verify exited {outcome.vc} but printed {outcome.last_line!r}")
    try:
        with open(report_path, encoding="utf-8") as fh:
            text = fh.read()
        recovered = load_dataset(io.StringIO(text))
    except (OSError, ValueError) as exc:
        return Check(f"report does not parse: {exc}")
    if recovered.n != case.secret.n:
        return Check(f"report has n={recovered.n}, secret has n={case.secret.n}")
    if ("\nconverged true\n" in text) != (outcome.rc == 0):
        return Check(f"reconstruct exited {outcome.rc} but the report disagrees")
    err = match_solutions(recovered, case.secret).max_abs_error
    ok = err < workload.match_tol
    return Check(None, ok, outcome.rc == 0 and passed and not ok, err)
