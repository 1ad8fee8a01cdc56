"""Recover a private training set from a broadcast parameter trace.

The package trains a minimal one-input tanh neuron by full-batch
gradient descent while recording (w, b) per epoch, then inverts that
trace: each epoch transition pins the batch gradient, and solving the
resulting nonlinear system returns the training instances that produced
it.  Anyone who observes the per-epoch parameters (plus the public
learning rate and dataset size) can run the same inversion, which is
the privacy point the demos and tests exercise.
"""

from . import model, solver, system, tables, trace
from .model import *
from .solver import *
from .system import *
from .tables import *
from .trace import *

__version__ = "0.2.0"

__all__ = [*model.__all__, *solver.__all__, *system.__all__, *tables.__all__, *trace.__all__,
           "__version__"]
