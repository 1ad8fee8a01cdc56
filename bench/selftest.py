"""Self-test of the benchmark at a tiny size.

Run from the repository root:

    python3 bench/selftest.py

For every workload it runs ``bench/run.py`` untraced once and traced
twice with the same seed, and checks that

* the last stdout line has exactly the keys correct/attempted/failed/metrics,
  with every case correct;
* every metric BENCHMARK.json declares appears there with its unit, and
  every metric of ``run.END_TO_END`` / ``run.PER_LAYER`` is printed with
  its unit and direction, matching BENCHMARK.json where it declares one;
* fractions lie in [0, 1];
* count metrics repeat exactly between the two traced runs;
* the layers' self times add up to the traced case time.

Finally it runs the benchmark in a directory holding only BENCHMARK.json
and the benchmark, where it must fail without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 3
SECONDS = "0.3"


def bench(cwd, workload, trace):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(proc, declared, table, problems, label):
    """Checks of one run's output; returns its metrics."""
    if proc.returncode != 0:
        problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return {}
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: {result['failed']} of {result['attempted']} cases failed")
    metrics = result["metrics"]
    for name, spec in declared.items():
        if metrics.get(name, {}).get("unit") != spec["unit"]:
            problems.append(f"{label}: {name} missing or not in {spec['unit']}")
    for name in set(metrics) - set(declared):
        problems.append(f"{label}: {name} is reported but not declared")
    rows = {}  # printed table: name -> [value, unit, better]
    for ln in lines[:-1]:
        if ln and not ln.startswith("#"):
            rows[ln.split()[0]] = ln.split()[1:4]
    for name, (unit, better) in table.items():
        if name in declared and [declared[name]["unit"], declared[name]["better"]] != [unit, better]:
            problems.append(f"{label}: {name} differs between run.py and BENCHMARK.json")
        row = rows.get(name)
        if row is None or row[1:] != [unit, better]:
            problems.append(f"{label}: {name} printed as {row}, expected {unit} {better}")
        elif unit == "frac" and not 0.0 <= float(row[0]) <= 1.0:
            problems.append(f"{label}: {name}={row[0]} outside [0, 1]")
    return {name: m["value"] for name, m in metrics.items()}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    problems = []
    for wl in spec["workloads"]:
        name = wl["name"]
        check_run(bench(ROOT, name, 0), e2e, run.END_TO_END, problems, f"{name} trace 0")
        first = check_run(bench(ROOT, name, 1), layers, run.PER_LAYER, problems, f"{name} trace 1")
        second = check_run(bench(ROOT, name, 1), layers, run.PER_LAYER, problems, f"{name} trace 1")
        for metric, value in first.items():
            if layers[metric]["unit"] in ("count", "bytes") and second.get(metric) != value:
                problems.append(f"{name}: {metric} {value} then {second.get(metric)}")
        saved = json.loads((ROOT / ".bench_out" / f"{name}-seed{SEED}-trace1.json").read_text())
        total = sum(saved["layer_self_s"].values())
        case_s = saved["all_metrics"]["case.s"]
        if abs(total - case_s) > 1e-9 * case_s or min(saved["layer_self_s"].values()) < 0:
            problems.append(f"{name}: layer self times {saved['layer_self_s']} vs case.s {case_s}")
        print(f"{name}: checked", flush=True)

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("benchmark without the program did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
