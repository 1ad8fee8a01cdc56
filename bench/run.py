"""Closed-loop benchmark of the trace-inversion attack.

Run from the repository root:

    python3 bench/run.py --workload attack-n1 --seed 1 --seconds 30 --trace 0

One client in one process and thread: each case starts only after the
previous one has finished.  A case is one secret dataset drawn from the
seed.  The victim runs ``train`` and writes the trace file with
``save_trace``; the attacker runs ``cli.main(["reconstruct", ...])`` and
``cli.main(["verify", ...])``.  The checks in ``pipeline.check_case`` run
outside the timed span.

``--trace 0`` loops over cases for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` runs a fixed list of cases (its length
follows from ``--seconds``) twice each, untraced and traced, and reports
the per-layer metrics from the spans in ``tracer.py`` together with the
tracing overhead.

The case times behind ``case_s_p50``, ``case_s_tail`` and ``cases_per_s``
are scaled to a nominal host speed by a reference loop timed between
cases (``hostspeed.py``); each is printed beside its raw value, and the
result file keeps both.  ``setup_s`` is raw wall time.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full result, the environment and, for a traced run,
every span are written under ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
# case_s_tail: p99 has 10+ cases beyond it on attack-n1 but swings with
# rare host stalls; p95 has 30+ beyond it on every workload.
TAIL_PCT = 95
TAIL_MIN_BEYOND = 10

# name -> (unit, better) of the eight end-to-end metrics, all printed.  The
# result line carries only those BENCHMARK.json bounds.  false_accept_frac
# and failed_frac are 0 on most runs, so no bound relative to a baseline
# applies (failed_frac reaches the result line as failed / attempted, and
# false_accept_frac is also the per-layer solver.verify.false_accept_frac).
# case_s_tail is left out: even scaled by the reference loop its p95
# spread 0.18 of its median over ten 30 s runs of float32-trace.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "case_s_p50": ("s", "lower"),
    "case_s_tail": ("s", "lower"),
    "cases_per_s": ("1/s", "higher"),
    "recovered_frac": ("frac", "higher"),
    "false_accept_frac": ("frac", "lower"),
    "failed_frac": ("frac", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
REPORTED_END_TO_END = ["setup_s", "case_s_p50", "cases_per_s", "recovered_frac", "peak_rss_mb"]

PER_LAYER = {
    "solver.solve.s": ("s", "lower"),
    "solver.solve.self_s": ("s", "lower"),
    "solver.starts_tried": ("count", "lower"),
    "solver.starts_per_case": ("count", "lower"),
    "solver.converged_frac": ("frac", "higher"),
    "solver.useful_start_ratio": ("ratio", "higher"),
    "system.residuals.calls": ("count", "lower"),
    "system.residuals.s": ("s", "lower"),
    "system.residuals.calls_per_case": ("count", "lower"),
    "system.residuals.s_per_case": ("s", "lower"),
    "system.jacobian.calls": ("count", "lower"),
    "system.jacobian.s": ("s", "lower"),
    "system.jacobian.calls_per_case": ("count", "lower"),
    "system.jacobian.s_per_case": ("s", "lower"),
    "model.train.calls": ("count", "lower"),
    "model.train.s": ("s", "lower"),
    "model.train.us_per_epoch": ("us", "lower"),
    "solver.verify.s": ("s", "lower"),
    "solver.verify.self_s": ("s", "lower"),
    "solver.verify.false_accept_frac": ("frac", "lower"),
    "trace.save.calls": ("count", "lower"),
    "trace.save.s": ("s", "lower"),
    "trace.save.bytes": ("bytes", "lower"),
    "trace.load.calls": ("count", "lower"),
    "trace.load.s": ("s", "lower"),
    "trace.load.us_per_epoch": ("us", "lower"),
    "cli.reconstruct.s": ("s", "lower"),
    "cli.verify.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "bench.self_s": ("s", "lower"),
    "case.s": ("s", "lower"),
    "tracing.untraced_cases_per_s": ("1/s", "higher"),
    "tracing.traced_cases_per_s": ("1/s", "higher"),
    "tracing.slowdown": ("ratio", "lower"),
}

# spans whose time is counted in each layer's self time
LAYER_SPANS = {
    "bench": ("case",),
    "cli": ("cli.reconstruct", "cli.verify", "cli.save_report", "cli.load_dataset"),
    "model": ("model.train",),
    "trace": ("trace.save", "trace.load"),
    "solver": ("solver.solve", "solver.verify"),
    "system": ("system.residuals", "system.jacobian"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


def environment(numpy, scipy):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": "/".join(os.environ[var] for var in THREAD_VARS),
        "git_sha": git_sha(),
    }


def git_sha():
    """HEAD of the repository, read from .git; 'unknown' outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail_percentile(walls):
    """Nearest-rank percentile TAIL_PCT of ``walls``, stepped down to 90,
    75 or 50 while fewer than TAIL_MIN_BEYOND cases lie beyond it."""
    ordered = sorted(walls)
    n = len(ordered)
    for p in (TAIL_PCT, 90, 75, 50):
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= TAIL_MIN_BEYOND or p == 50:
            return p, ordered[rank - 1], n - rank


def measure_setup(args):
    """Median of SETUP_PROBES fresh processes, from spawn to 'ready'."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited {code} after printing {line!r}")
        times.append(elapsed)
    return times


class Bench:
    """One benchmark process: its cases, scratch files and results."""

    def __init__(self, args):
        import pipeline

        self.args = args
        self.pipeline = pipeline
        self.workload = pipeline.WORKLOADS[args.workload]
        wl = self.workload
        self.fixed_count = max(2, math.ceil(args.seconds / (2 * wl.nominal_case_s)))
        pool = max(self.fixed_count, math.ceil(2 * args.seconds / wl.nominal_case_s))
        self.cases = pipeline.make_cases(wl, args.seed, pool)
        self.work = OUT_DIR / f"tmp-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.trace_path = str(self.work / "case.trace")
        self.report_path = str(self.work / "case.report")
        self._warm_up()

    def _warm_up(self):
        """One tiny case through the whole pipeline and its checks, so lazy
        imports and first-call costs are paid before timing starts; the
        timed cases report any failure."""
        p = self.pipeline
        case = p.Case(0, p.Dataset([0.3], [0.6]), 3)
        outcome = p.run_case(case, self.workload, self.trace_path, self.report_path)
        p.check_case(case, self.workload, outcome, self.report_path)

    def run_one(self, case, span=None):
        p = self.pipeline
        outcome = p.run_case(case, self.workload, self.trace_path, self.report_path,
                             span or p.untraced)
        check = p.check_case(case, self.workload, outcome, self.report_path)
        try:
            report = Path(self.report_path).read_bytes()
        except FileNotFoundError:
            report = b""
        return outcome, check, report

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def case_rows(results, scaled=None):
    scaled = scaled or [None] * len(results)
    return [
        {"case": case.index, "n": case.secret.n, "wall_s": o.wall, "scaled_wall_s": w, "rc": o.rc, "vc": o.vc,
         "failure": c.failure, "recovered": c.recovered, "false_accept": c.false_accept,
         "max_abs_error": c.error}
        for (case, o, c), w in zip(results, scaled)
    ]


def failures_of(results):
    return [(case.index, c.failure) for case, _, c in results if c.failure is not None]


def end_to_end(bench, setup_times):
    """Closed loop over the case pool until ``--seconds`` have passed.

    Timings are scaled to nominal host speed (see hostspeed.py); the raw
    ones go to the result file."""
    import hostspeed

    args = bench.args
    results = []
    clock = hostspeed.Clock()
    deadline = time.perf_counter() + args.seconds
    k = 0
    while True:
        case = bench.cases[k % len(bench.cases)]
        outcome, check, _ = bench.run_one(case)
        results.append((case, outcome, check))
        clock.add(outcome.wall)
        k += 1
        if time.perf_counter() >= deadline:
            break
    raw_walls = [o.wall for _, o, _ in results]
    walls = clock.scaled()
    attempted = len(results)
    failures = failures_of(results)
    completed = attempted - len(failures)
    pct, tail, beyond = tail_percentile(walls)
    values = {
        "setup_s": statistics.median(setup_times),
        "case_s_p50": statistics.median(walls),
        "case_s_tail": tail,
        "cases_per_s": completed / sum(walls),
        "recovered_frac": sum(c.recovered for _, _, c in results) / attempted,
        "false_accept_frac": sum(c.false_accept for _, _, c in results) / attempted,
        "failed_frac": len(failures) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "case_s_p50": statistics.median(raw_walls),
        "case_s_tail": tail_percentile(raw_walls)[1],
        "cases_per_s": completed / sum(raw_walls),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh processes",
        "case_s_p50": f"{attempted} cases",
        "case_s_tail": f"p{pct}, {beyond} of {attempted} cases beyond it",
        "cases_per_s": f"{completed} completed in {sum(walls):.2f} s of case time",
    }
    for name, value in raw.items():
        notes[name] = f"raw {value:.6g}; " + notes[name]
    extra = {"raw_metrics": raw, "setup_s_samples": setup_times,
             "host_reference_s": clock.refs,
             "tail_percentile": pct, "tail_cases_beyond": beyond,
             "cases": case_rows(results, walls)}
    return attempted, failures, values, notes, extra


def traced(bench):
    """The fixed case list, each case untraced and traced; per-layer metrics."""
    from tracer import Tracer, self_times

    args = bench.args
    cases = bench.cases[: bench.fixed_count]
    tracer = Tracer()
    results, untraced_walls, failures = [], [], []
    cap = time.perf_counter() + 4 * args.seconds
    for k, case in enumerate(cases):
        if time.perf_counter() > cap:
            print(f"warning: traced run stopped after {k} of {len(cases)} cases "
                  f"at {4 * args.seconds:g} s", file=sys.stderr)
            break
        runs = {}
        # alternate which pass runs first, so warm-up effects cancel
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                tracer.case = case.index
                tracer.install()
                try:
                    with tracer.span("case"):
                        runs[True] = bench.run_one(case, tracer.span)
                finally:
                    tracer.uninstall()
            else:
                runs[False] = bench.run_one(case)
        outcome, check, report = runs[True]
        plain_outcome, plain_check, plain_report = runs[False]
        results.append((case, outcome, check))
        untraced_walls.append(plain_outcome.wall)
        if plain_check.failure is not None:
            failures.append((case.index, f"untraced: {plain_check.failure}"))
        elif plain_report != report:
            failures.append((case.index, "traced and untraced reports differ"))
    failures += failures_of(results)
    values, layer_self, absent = layer_metrics(tracer, results, untraced_walls)
    for name in absent:
        print(f"warning: {name} is absent", file=sys.stderr)
    spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(spans_file, "w", encoding="utf-8") as fh:
        for sp, own in zip(tracer.spans, self_times(tracer.spans)):
            fh.write(json.dumps({**sp.as_dict(), "self": own}) + "\n")
    notes = {
        "case.s": f"{len(results)} traced cases; spans in {spans_file.name}",
        "bench.self_s": f"layer self times sum to {sum(layer_self.values()):.6f} s "
                        f"of {values['case.s']:.6f} s case time",
    }
    extra = {"cases": case_rows(results), "missing_hooks": tracer.missing,
             "layer_self_s": layer_self}
    return len(results) + len(untraced_walls), failures, values, notes, extra


def layer_metrics(tracer, results, untraced_walls):
    """Per-layer metrics from the spans of the traced cases.

    Returns (values, self time per layer, names of absent metrics)."""
    from tracer import self_times

    spans = tracer.spans
    agg = collections.defaultdict(lambda: dict.fromkeys(
        ("calls", "s", "self", "epochs", "starts", "converged", "bytes"), 0))
    for sp, own in zip(spans, self_times(spans)):
        a = agg[sp.name]
        a["calls"] += 1
        a["s"] += sp.end - sp.start
        a["self"] += own
        for key, value in (sp.attrs or {}).items():
            a[key] += value
    ncase = max(1, len(results))
    solve, res, jac = agg["solver.solve"], agg["system.residuals"], agg["system.jacobian"]
    train, verify = agg["model.train"], agg["solver.verify"]
    save, load = agg["trace.save"], agg["trace.load"]
    traced_s = agg["case"]["s"]
    untraced_s = sum(untraced_walls)
    values = {
        "solver.solve.s": solve["s"],
        "solver.solve.self_s": solve["self"],
        "solver.starts_tried": solve["starts"],
        "solver.starts_per_case": solve["starts"] / ncase,
        "solver.converged_frac": solve["converged"] / max(1, solve["calls"]),
        "solver.useful_start_ratio": solve["converged"] / max(1, solve["starts"]),
        "system.residuals.calls": res["calls"],
        "system.residuals.s": res["s"],
        "system.residuals.calls_per_case": res["calls"] / ncase,
        "system.residuals.s_per_case": res["s"] / ncase,
        "system.jacobian.calls": jac["calls"],
        "system.jacobian.s": jac["s"],
        "system.jacobian.calls_per_case": jac["calls"] / ncase,
        "system.jacobian.s_per_case": jac["s"] / ncase,
        "model.train.calls": train["calls"],
        "model.train.s": train["s"],
        "model.train.us_per_epoch": 1e6 * train["s"] / max(1, train["epochs"]),
        "solver.verify.s": verify["s"],
        "solver.verify.self_s": verify["self"],
        "solver.verify.false_accept_frac": sum(c.false_accept for _, _, c in results) / ncase,
        "trace.save.calls": save["calls"],
        "trace.save.s": save["s"],
        "trace.save.bytes": save["bytes"],
        "trace.load.calls": load["calls"],
        "trace.load.s": load["s"],
        "trace.load.us_per_epoch": 1e6 * load["s"] / max(1, load["epochs"]),
        "cli.reconstruct.s": agg["cli.reconstruct"]["s"],
        "cli.verify.s": agg["cli.verify"]["s"],
        "cli.self_s": sum(agg[name]["self"] for name in LAYER_SPANS["cli"]),
        "bench.self_s": agg["case"]["self"],
        "case.s": traced_s,
        "tracing.untraced_cases_per_s": len(untraced_walls) / untraced_s,
        "tracing.traced_cases_per_s": len(results) / traced_s,
        "tracing.slowdown": (traced_s / len(results)) / (untraced_s / len(untraced_walls)),
    }
    layer_self = {layer: sum(agg[name]["self"] for name in names)
                  for layer, names in LAYER_SPANS.items()}
    # a metric is absent when a span it is computed from was not recorded
    needs = {
        "solver.solve": ("solver.solve", "solver.starts", "solver.converged",
                         "solver.useful", "cli.self_s"),
        "system.residuals": ("system.residuals", "solver.solve.self_s"),
        "system.jacobian": ("system.jacobian", "solver.solve.self_s"),
        "model.train": ("model.train", "solver.verify.self_s"),
        "solver.verify": ("solver.verify", "cli.self_s"),
        "trace.load": ("trace.load", "cli.self_s"),
        "cli.save_report": ("cli.self_s",),
        "cli.load_dataset": ("cli.self_s",),
    }
    absent = sorted({m for span in tracer.missing for prefix in needs[span]
                     for m in PER_LAYER if m.startswith(prefix)})
    for name in absent:
        del values[name]
    return values, layer_self, absent


def print_metrics(values, notes, table):
    print(f"{'metric':34s} {'value':>14s} {'unit':6s} better")
    for name, (unit, better) in table.items():
        if name in values:
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"{name:34s} {values[name]:14.6g} {unit:6s} {better}{note}")


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "traceinv" / "__init__.py").is_file():
        print(f"error: no traceinv package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy is imported
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    import traceinv

    if Path(traceinv.__file__).resolve().parent != (src / "traceinv").resolve():
        print(f"error: imported traceinv from {traceinv.__file__}, not {src}", file=sys.stderr)
        return 2
    import pipeline

    if args.workload not in pipeline.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(pipeline.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        Bench(args).close()
        print("ready", flush=True)
        return 0

    env = environment(numpy, scipy)
    setup_times = None if args.trace else measure_setup(args)
    bench = Bench(args)
    try:
        if args.trace:
            attempted, failures, values, notes, extra = traced(bench)
            reported, table = list(PER_LAYER), PER_LAYER
        else:
            attempted, failures, values, notes, extra = end_to_end(bench, setup_times)
            reported, table = REPORTED_END_TO_END, END_TO_END
    finally:
        bench.close()
    failed = len(failures)
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    mode = "each case untraced and traced" if args.trace else "untraced"
    print(f"# workload {args.workload} seed {args.seed}: {attempted} case runs, "
          f"closed loop, 1 client, {mode}")
    for index, why in failures[:10]:
        print(f"# case {index} failed: {why}")
    print_metrics(values, notes, table)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": table[name][0]}
                    for name in reported if name in values},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"args": vars(args), "environment": env, **result,
                                    "all_metrics": values, "notes": notes, **extra},
                                   indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
