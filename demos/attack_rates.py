"""Count the attack per n: how often it converges, and how often it recovers.

Every case draws a secret of n instances with x and y uniform in
[0.05, 0.95], trains it at eta 0.1, and solves the trace with
``SolverConfig(seed=case)``.  "Recovered" means every recovered
coordinate lies within 1e-6 of the secret under the best pairing.  At
n >= 3 "converged" (a root of the trace's equations) does not mean
"recovered": the equations have roots other than the secret.

The data sets:

- criterion-5: the 50 cases per n of the acceptance test's round-trip
  attack, E = n + 1 epochs, one generator seeded 20260823 and drawn in
  order for n = 1..4;
- held-out: 100 cases per n, E = n + 1, seed 777 restarted for each n;
- fresh: 600 cases per n, E = n + 1, seed 31337 restarted for each n;
- 7-digit: 40 cases per n, E = n + 2, seed 5 restarted for each n, each
  trace rounded to 7 significant digits through the text format.

Per data set and n the table gives converged and within_precision
(within the trace's rounding quantum), recovered, the count with error
below 1e-3, the starts tried and the ``iterations`` (Jacobian
evaluations of the returned start), summed over the cases, and the
total, median and tail solve wall time.  The tail is the highest
percentile with at least 10 cases beyond it.  No number is checked.

    python3 demos/attack_rates.py                  # criterion-5 data (seconds)
    python3 demos/attack_rates.py --full           # every data set (about a minute)
    python3 demos/attack_rates.py --full --json BENCH_5.json
"""

import argparse
import json
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np
import scipy

from traceinv import (
    Dataset,
    ReconstructionProblem,
    SolverConfig,
    TrainConfig,
    dumps_trace,
    loads_trace,
    match_solutions,
    solve,
    train,
)

NS = (1, 2, 3, 4)

# name: (seed, restarted for each n, cases per n, epochs - n, digits)
DATA = {
    "criterion-5": (20260823, False, 50, 1, None),
    "held-out": (777, True, 100, 1, None),
    "fresh": (31337, True, 600, 1, None),
    "7-digit": (5, True, 40, 2, 7),
}


def count(name, n, rng):
    """One row of the table: the cases of data set ``name`` at ``n``,
    drawn from ``rng``."""
    _, _, cases, extra_epochs, digits = DATA[name]
    converged = within = recovered = close = starts = iterations = 0
    times = []
    for case in range(cases):
        secret = Dataset(rng.uniform(0.05, 0.95, n), rng.uniform(0.05, 0.95, n))
        trace = train(secret, TrainConfig(eta=0.1, epochs=n + extra_epochs))
        if digits is not None:
            trace = loads_trace(dumps_trace(trace, digits=digits))
        problem = ReconstructionProblem(trace)
        start = time.perf_counter()
        res = solve(problem, SolverConfig(seed=case))
        times.append(time.perf_counter() - start)
        error = match_solutions(res.recovered, secret).max_abs_error
        converged += res.converged
        within += res.within_precision
        recovered += bool(error < 1e-6)
        close += bool(error < 1e-3)
        starts += res.starts_tried
        iterations += res.iterations
    tail = 100 * (cases - 10) // cases
    return {
        "data": name, "n": n, "epochs": n + extra_epochs, "digits": digits, "cases": cases,
        "converged": converged, "within_precision": within, "recovered": recovered,
        "error_below_1e-3": close, "starts": starts, "iterations": iterations,
        "solve_s": sum(times), "solve_p50_s": float(np.percentile(times, 50)),
        "tail_percentile": tail, "solve_tail_s": float(np.percentile(times, tail)),
    }


def rows(names):
    for name in names:
        seed, restarted = DATA[name][:2]
        rng = np.random.default_rng(seed)
        for n in NS:
            if restarted:
                rng = np.random.default_rng(seed)
            yield count(name, n, rng)


def git(*args):
    """The output of ``git args`` in the checkout, or None outside a git
    checkout."""
    try:
        out = subprocess.run(["git", *args], cwd=Path(__file__).parent,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--full", action="store_true",
                        help="run every data set, not only criterion-5 data")
    parser.add_argument("--json", metavar="PATH", help="also write the rows and versions here")
    args = parser.parse_args()

    print(f"{'data':12s} {'n':>2s} {'converged':>9s} {'in prec.':>8s} {'recovered':>9s} "
          f"{'<1e-3':>5s} {'starts':>6s} {'iters':>6s} {'solve s':>8s} {'p50 ms':>7s} "
          f"{'tail ms':>11s}")
    table = []
    for row in rows(DATA if args.full else ["criterion-5"]):
        table.append(row)
        cases = row["cases"]
        print(f"{row['data']:12s} {row['n']:2d} {row['converged']:>5d}/{cases:<3d} "
              f"{row['within_precision']:>4d}/{cases:<3d} {row['recovered']:>9d} "
              f"{row['error_below_1e-3']:>5d} {row['starts']:>6d} {row['iterations']:>6d} "
              f"{row['solve_s']:8.3f} {1e3 * row['solve_p50_s']:7.2f} "
              f"p{row['tail_percentile']} {1e3 * row['solve_tail_s']:7.2f}")

    if args.json:
        status = git("status", "--porcelain")
        record = {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "git_sha": git("rev-parse", "HEAD"),
            # true when the rows come from uncommitted changes on top of git_sha
            "git_dirty": None if status is None else bool(status),
            "rows": table,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.json}")


if __name__ == "__main__":
    main()
