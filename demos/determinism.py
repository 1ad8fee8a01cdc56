"""Count the answers of ``solve`` that differ between processes.

glibc fills each fresh heap allocation with the byte given in
``MALLOC_PERTURB_``, so a program that reads no uninitialised memory
gives the same answer under every byte.  This script solves one seeded
case set in three fresh child processes, under ``MALLOC_PERTURB_`` = 0,
85 and 170 (set in the children's environment only), and counts the
cases whose answer differs: the bytes of the recovered xs and ys, or
``starts_tried``.  Where it counts any, scipy's lmder appears to read
uninitialised memory when the Jacobian is singular or nearly so.

Each case draws, from one ``default_rng(18)`` in this order, n
instances with x uniform in [-1, 1] and y in [-0.9, 0.9]; eta from
{0.1, 1, 4.5}; initial parameters (w, b) uniform in [-1, 1]; and E
from n+1 to n+5 epochs.  n alternates between 3 and 4.  Each trace is
solved with ``SolverConfig(multistart_count=4, max_iterations=60,
seed=case)``.  The count is a measurement, not a check: the script
exits 0 whatever it counts.

    python3 demos/determinism.py          # 60 cases (a few seconds)
    python3 demos/determinism.py --full   # 300 cases (under half a minute)
"""

import argparse
import os
import subprocess
import sys
from collections import Counter

import numpy as np

from traceinv import Dataset, Params, ReconstructionProblem, SolverConfig, TrainConfig, solve, train

BYTES = (0, 85, 170)


def answers(cases):
    """Print one line per case: n, then the hex bytes of the recovered
    xs and ys and ``starts_tried``."""
    rng = np.random.default_rng(18)
    for case in range(cases):
        n = 3 + case % 2
        secret = Dataset(rng.uniform(-1, 1, n), rng.uniform(-0.9, 0.9, n))
        eta = float(rng.choice([0.1, 1.0, 4.5]))
        init = Params(*rng.uniform(-1, 1, 2))
        epochs = int(rng.integers(n + 1, n + 6))
        trace = train(secret, TrainConfig(eta=eta, epochs=epochs, init=init))
        cfg = SolverConfig(multistart_count=4, max_iterations=60, seed=case)
        res = solve(ReconstructionProblem(trace), cfg)
        print(n, res.recovered.xs.tobytes().hex(), res.recovered.ys.tobytes().hex(),
              res.starts_tried)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--full", action="store_true", help="solve 300 cases, not 60")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    cases = 300 if args.full else 60
    if args.child:
        answers(cases)
        return

    argv = [sys.executable, *(f"-W{w}" for w in sys.warnoptions), __file__, "--child"]
    argv += ["--full"] if args.full else []
    children = [
        subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                         env=dict(os.environ, MALLOC_PERTURB_=str(byte)))
        for byte in BYTES
    ]
    runs = [child.communicate()[0].splitlines() for child in children]
    if any(child.returncode for child in children):
        sys.exit("a child process failed")
    differ, total = Counter(), Counter()
    for lines in zip(*runs, strict=True):
        n = lines[0].split()[0]
        total[n] += 1
        differ[n] += len(set(lines)) > 1
    print(f"{cases} cases, each solved under MALLOC_PERTURB_ = "
          f"{', '.join(map(str, BYTES))} in fresh processes")
    for n in sorted(total):
        print(f"n={n}: {differ[n]} of {total[n]} answers differ")
    print(f"total: {sum(differ.values())} of {cases} answers differ")


if __name__ == "__main__":
    main()
