"""Command-line front-end for the trace-inversion pipeline.

Subcommands: ``train`` (fit the one-neuron model, write its parameter
trace), ``tables`` (print the built-in reference runs), ``reconstruct``
(recover a dataset from a trace), ``verify`` (retrain on a recovered
dataset and compare traces), and ``feasibility`` (equation/unknown
counting for wider networks).

Exit codes: 0 success; 1 runtime failure (training diverged,
verification FAIL, output could not be written); 2 usage or input
error, including an input too large to allocate or to convert to a
float; 3 reconstruction finished without converging, including a stop
within the trace's precision, which on a lossless trace is 16 digits
(the report is still written).
``main`` maps exceptions to these codes: a handler raises
``RuntimeError`` for 1 and ``OSError``/``ValueError`` for 2, and a
``MemoryError`` or ``OverflowError`` also gives 2.

The flags of ``reconstruct`` and ``feasibility`` are named after the
fields of ``SolverConfig`` and ``NetworkShape``, which ``_config`` builds
from them, so the parser is the one list of those flags.  A flag's
default is read from its config: ``SolverConfig``'s fields for
``reconstruct``, and ``TrainConfig.init`` for ``train --w0/--b0``.
Each config, and ``Dataset`` and ``save_trace`` for ``train``, checks
its own values.

The trace, dataset, and report file formats live in ``trace``.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from dataclasses import fields

from .model import Dataset, Params, TrainConfig, TrainingDivergedError, train
from .solver import SolverConfig, solve, verify_reconstruction
from .system import NetworkShape, ReconstructionProblem, feasibility
from .tables import demo_tables
from .trace import load_dataset, load_trace, save_report, save_trace


def _save(save, obj, path, **kwargs):
    """Write ``obj`` with ``save`` to ``path`` ("-" is stdout); a failed
    write is a runtime failure (exit 1), not an input error."""
    try:
        save(obj, sys.stdout if path == "-" else path, **kwargs)
    except OSError as exc:
        raise RuntimeError(exc) from exc


def _config(cls, args):
    """The dataclass ``cls`` built from the parsed flags named after its
    fields; a field with no flag keeps its default."""
    flags = vars(args)
    return cls(**{f.name: flags[f.name] for f in fields(cls) if f.name in flags})


def cmd_train(args):
    if args.dataset is not None and (args.x or args.y):
        raise ValueError("give either --dataset or inline --x/--y values, not both")
    if args.dataset is not None:
        data = load_dataset(args.dataset)
    elif not args.x or not args.y:
        raise ValueError("no dataset: pass --dataset FILE or --x/--y pairs")
    else:
        data = Dataset(args.x, args.y)
    cfg = TrainConfig(eta=args.eta, epochs=args.epochs, init=Params(args.w0, args.b0))
    trace = train(data, cfg, debug=args.debug)
    _save(save_trace, trace, args.output, digits=args.precision)
    return 0


def cmd_tables(args):
    print(demo_tables())
    return 0


def cmd_reconstruct(args):
    problem = ReconstructionProblem(load_trace(args.trace))
    result = solve(problem, _config(SolverConfig, args))
    _save(save_report, result, args.output)
    if args.output != "-":
        status = "converged" if result.converged else "did not converge"
        if result.within_precision and not result.converged:
            status += f" (within trace precision, quantum {problem.quantum:.3e})"
        print(
            f"{status}: residual max-norm {result.residual_norm:.3e} after "
            f"{result.iterations} iteration(s), {result.starts_tried} start(s); "
            f"report written to {args.output}"
        )
    return 0 if result.converged else 3


def cmd_verify(args):
    trace = load_trace(args.trace)
    data = load_dataset(args.dataset)
    try:
        report = verify_reconstruction(trace, data, threshold=args.threshold)
    except TrainingDivergedError as exc:
        raise RuntimeError(f"retraining on the recovered dataset diverged: {exc}") from exc
    rows = zip(range(len(report.dw)), report.dw.tolist(), report.db.tolist())
    print("\n".join(map("epoch %d  |dw| %.3e  |db| %.3e".__mod__, rows)))
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"{verdict}: max deviation {report.max_deviation:.3e} "
        f"vs threshold {report.threshold:.1e}"
    )
    return 0 if report.passed else 1


def cmd_feasibility(args):
    report = feasibility(_config(NetworkShape, args))
    bound = args.instances / args.width  # OverflowError (exit 2) beyond float range
    print(f"unknowns   {report.unknowns}")
    print(f"equations  {report.equations}")
    print(f"feasible   {'yes' if report.feasible else 'no'}")
    print(f"min_epochs {report.min_epochs}")
    print(f"rough bound: epochs >= instances/width = {bound:g}")
    print(report.label)
    return 0


# every float spelling of a negative value; argparse's own pattern takes
# only "-1" and "-.5", so it reads "-inf" or "-1e-3" as an option
_NEGATIVE_NUMBER = re.compile(r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)$", re.I)


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser():
    parser = argparse.ArgumentParser(
        prog="traceinv",
        description=(
            "Train a one-neuron tanh model while recording its per-epoch "
            "parameter trace, then reconstruct the training data from the "
            "trace alone."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("train", help="train the model and write a parameter trace")
    p.add_argument("--x", action="append", type=float, default=[], metavar="X",
                   help="input value; repeat for more instances")
    p.add_argument("--y", action="append", type=float, default=[], metavar="Y",
                   help="target value; one per --x")
    p.add_argument("--dataset", metavar="FILE",
                   help="read instances from a dataset file instead")
    p.add_argument("--eta", type=float, default=0.1, help="learning rate (default %(default)s)")
    p.add_argument("--epochs", type=int, default=5,
                   help="number of recorded epochs (default %(default)s)")
    p.add_argument("--w0", type=float, default=TrainConfig.init.w,
                   help="initial weight (default %(default)s)")
    p.add_argument("--b0", type=float, default=TrainConfig.init.b,
                   help="initial bias (default %(default)s)")
    p.add_argument("--precision", type=int, default=None, metavar="DIGITS",
                   help="significant digits (>= 1) written to the trace "
                        "(default: lossless)")
    p.add_argument("--debug", action="store_true",
                   help="also record per-epoch predictions and loss")
    p.add_argument("-o", "--output", default="-", metavar="FILE",
                   help="trace destination (default stdout)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tables", help="print the built-in reference training runs")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("reconstruct", help="recover the training data behind a trace")
    p.add_argument("trace", help="trace file to invert")
    p.add_argument("--max-iterations", type=int, default=SolverConfig.max_iterations,
                   help="each start stops after 2x this many residual evaluations; "
                        "an integer in 1..1073741823 (default %(default)s)")
    p.add_argument("--residual-tolerance", type=float,
                   default=SolverConfig.residual_tolerance,
                   help="max-norm required for convergence (default %(default)s)")
    p.add_argument("--step-tolerance", type=float, default=SolverConfig.step_tolerance,
                   help="relative step tolerance, MINPACK xtol (default %(default)s)")
    p.add_argument("--multistart-count", type=int,
                   default=SolverConfig.multistart_count,
                   help="start points to try before giving up, >= 1 (default %(default)s)")
    p.add_argument("--seed", type=int, default=SolverConfig.seed,
                   help="seed for the random start points, >= 0 (default %(default)s)")
    p.add_argument("--box-bounds", nargs=2, type=float, metavar=("LO", "HI"),
                   default=None,
                   help="keep iterates inside [LO, HI]; needs LO < HI")
    p.add_argument("--allow-underdetermined", action="store_true",
                   help="solve in least-squares sense even with fewer equations than unknowns")
    p.add_argument("-o", "--output", default="-", metavar="FILE",
                   help="report destination (default stdout)")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("verify",
                       help="retrain on a recovered dataset and compare traces")
    p.add_argument("trace", help="observed trace file")
    p.add_argument("dataset", help="recovered dataset (dataset or report file)")
    p.add_argument("--threshold", type=float, default=1e-8,
                   help="largest per-epoch deviation allowed for PASS; finite, >= 0 "
                        "(default %(default)s)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("feasibility",
                       help="equation/unknown counting for wider networks")
    p.add_argument("--width", type=int, required=True, help="neurons per layer")
    p.add_argument("--layers", type=int, required=True,
                   help="layer count including the output layer (at least 2)")
    p.add_argument("--instances", type=int, required=True, help="training instances")
    p.add_argument("--epochs", type=int, required=True,
                   help="observed parameter updates, one per epoch transition "
                        "(recorded epochs minus 1)")
    p.set_defaults(func=cmd_feasibility)

    for p in sub.choices.values():
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RuntimeError as exc:  # includes TrainingDivergedError
        code, message = 1, exc
    except (OSError, ValueError, OverflowError) as exc:  # unreadable, invalid or too large
        code, message = 2, exc
    except MemoryError as exc:  # an input size too large to allocate
        code, message = 2, str(exc) or "input too large to allocate"
    print(f"error: {message}", file=sys.stderr)
    return code


def entry():
    sys.exit(main())
