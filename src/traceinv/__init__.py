"""Recover a private training set from a broadcast parameter trace.

The package trains a minimal one-input tanh neuron by full-batch
gradient descent while recording (w, b) per epoch, then inverts that
trace: each epoch transition pins the batch gradient, and solving the
resulting nonlinear system returns the training instances that produced
it.  Anyone who observes the per-epoch parameters (plus the public
learning rate and dataset size) can run the same inversion, which is
the privacy point the demos and tests exercise.
"""

from .model import (
    DIVERGENCE_LIMIT,
    Dataset,
    Params,
    TrainConfig,
    TrainingDivergedError,
    forward,
    gradients,
    mse,
    train,
)
from .solver import (
    DegenerateTraceError,
    MatchReport,
    ReconstructionResult,
    SolverConfig,
    VerifyReport,
    match_solutions,
    solve,
    solve_n1,
    verify_reconstruction,
)
from .system import (
    FeasibilityReport,
    InsufficientTraceError,
    NetworkShape,
    ReconstructionProblem,
    feasibility,
    jacobian,
    pack,
    residuals,
    unpack,
)
from .tables import DEMO_CONFIG, DEMO_XS, DEMO_YS, demo_dataset, demo_tables, training_table
from .trace import (
    ParamTrace,
    TraceDebug,
    TraceParseError,
    TraceValidationError,
    dumps_trace,
    load_trace,
    loads_trace,
    save_trace,
)

__version__ = "0.2.0"

__all__ = [
    "DIVERGENCE_LIMIT",
    "Dataset",
    "Params",
    "TrainConfig",
    "TrainingDivergedError",
    "forward",
    "gradients",
    "mse",
    "train",
    "DegenerateTraceError",
    "MatchReport",
    "ReconstructionResult",
    "SolverConfig",
    "VerifyReport",
    "match_solutions",
    "solve",
    "solve_n1",
    "verify_reconstruction",
    "FeasibilityReport",
    "InsufficientTraceError",
    "NetworkShape",
    "ReconstructionProblem",
    "feasibility",
    "jacobian",
    "pack",
    "residuals",
    "unpack",
    "DEMO_CONFIG",
    "DEMO_XS",
    "DEMO_YS",
    "demo_dataset",
    "demo_tables",
    "training_table",
    "ParamTrace",
    "TraceDebug",
    "TraceParseError",
    "TraceValidationError",
    "dumps_trace",
    "load_trace",
    "loads_trace",
    "save_trace",
    "__version__",
]
