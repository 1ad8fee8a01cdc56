"""The minimal neuron: 1 input, 1 output, tanh activation, MSE loss.

The network computes ``yhat_i = T_i = tanh(w * x_i + b)``, trained by
full-batch gradient descent on the mean squared error.  With d/dz tanh =
1 - tanh^2 and ``Z_i = (T_i - y_i) * (1 - T_i^2)`` the exact gradient is

    d mse / d w = (2/n) * sum_i x_i * Z_i
    d mse / d b = (2/n) * sum_i       Z_i

and each epoch applies ``w -= eta * dw; b -= eta * db``.  ``train``
records the parameters *before* each update, so epoch j of the trace
holds the values used in epoch j's forward pass.  With one instance the
mean of a value is the value itself, so ``train`` steps on Python floats
through the same kernel, ``_tanh_terms``, and gets the same bits as the
one-element array path at a fraction of numpy's per-call cost: the
kernel turns the scalar that ``np.tanh`` returns into a Python float, so
every scalar of a step stays a Python float.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Dataset: train's input, also importable from here (trace.__all__ lists it)
from .trace import Dataset, ParamTrace, TraceDebug, _checked, _checked_vectors

__all__ = [
    "DIVERGENCE_LIMIT",
    "Params",
    "TrainConfig",
    "TrainingDivergedError",
    "forward",
    "gradients",
    "mse",
    "train",
]

# training aborts once |w| or |b| leaves this range
DIVERGENCE_LIMIT = 1e6


class TrainingDivergedError(RuntimeError):
    """Parameters became non-finite or unreasonably large during training."""

    def __init__(self, epoch, w, b):
        self.epoch = epoch
        super().__init__(
            f"training diverged at epoch {epoch}: w={w!r}, b={b!r} "
            f"(limit {DIVERGENCE_LIMIT:g})"
        )


@dataclass(frozen=True)
class Params:
    """Weight and bias of the neuron, each a finite real number."""

    w: float
    b: float

    def __post_init__(self):
        _checked("w", self.w, "a finite real number")
        _checked("b", self.b, "a finite real number")


@dataclass(frozen=True)
class TrainConfig:
    """Learning rate ``eta`` (finite, > 0), number of recorded ``epochs``
    (an integer >= 1), and initial parameters ``init``, by default
    ``Params(0.5, 0.5)``: one frozen instance, ``TrainConfig.init``,
    which the ``train`` flags' defaults also read."""

    eta: float
    epochs: int
    init: Params = Params(0.5, 0.5)

    def __post_init__(self):
        _checked("eta", self.eta, "a finite real number > 0", gt=0)
        _checked("epochs", self.epochs, "an integer >= 1", ge=1, integer=True)


def _tanh_terms(w, b, x, y):
    """T = tanh(w*x + b), S = 1 - T^2 and Z = (T - y) S.  ``w`` and ``b``
    broadcast: scalars give one epoch, columns ``ws[:, None]`` one per row.
    A float64 scalar T is turned into a Python float, so S and Z are
    Python floats too, with the bits of one-element arrays."""
    T = np.tanh(w * x + b)
    if type(T) is np.float64:  # same IEEE bits; Python float arithmetic is cheaper
        T = float(T)
    S = 1.0 - T * T  # T**2 is square() on arrays but pow() on scalars
    return T, S, (T - y) * S


def _gradient(w, b, xs, ys):
    _, _, Z = _tanh_terms(w, b, xs, ys)
    if isinstance(xs, float):  # one instance: the mean of v is v
        return 2.0 * (xs * Z), 2.0 * Z
    return 2.0 * float(np.mean(xs * Z)), 2.0 * float(np.mean(Z))


def _mean_square_error(yhat, ys):
    """The mean of (yhat - ys)^2 over the last axis: one loss per row of a
    2-d ``yhat``, the loss of a 1-d one."""
    return np.mean((yhat - ys) ** 2, axis=-1)


def forward(params, xs):
    """Network outputs tanh(w*x + b) for a non-empty 1-d vector (a scalar
    is one input) of finite real numbers; ``ValueError`` naming ``xs``
    and its shape otherwise.

    Outputs lie in (-1, 1); note that in floating point tanh saturates to
    exactly +-1.0 once |w*x + b| exceeds about 19.
    """
    xs, = _checked_vectors(xs=xs)
    return _tanh_terms(params.w, params.b, xs, 0.0)[0]


def mse(yhat, ys):
    """Mean squared error between computed and real labels, two
    non-empty 1-d vectors of finite real numbers and of equal length (a
    scalar is one label); ``ValueError`` naming the bad field, or both
    fields and their shapes, otherwise."""
    yhat, ys = _checked_vectors(yhat=yhat, ys=ys)
    return float(_mean_square_error(yhat, ys))


def gradients(params, data):
    """Exact partial derivatives (d mse/d w, d mse/d b) at ``params``."""
    return _gradient(params.w, params.b, data.xs, data.ys)


def train(data, cfg, debug=False):
    """Run full-batch gradient descent and return the parameter trace.

    The trace records (w, b) before each of the ``cfg.epochs`` updates;
    with ``debug=True`` it also carries each epoch's predictions and loss.
    Raises TrainingDivergedError (naming the offending epoch) if the
    parameters blow up.  A one-instance dataset steps on Python floats
    instead of one-element arrays; the trace has the same bits.
    """
    # float64 steps for any Real config value (an np.float32 would step in float32)
    w, b, eta = float(cfg.init.w), float(cfg.init.b), float(cfg.eta)
    xs, ys = data.xs, data.ys
    if data.n == 1:
        xs, ys = float(xs[0]), float(ys[0])
    ws = np.empty(cfg.epochs)
    bs = np.empty(cfg.epochs)
    ws[0], bs[0] = w, b
    # the update after the last recorded epoch is unobservable, so E-1 steps
    for j in range(1, cfg.epochs):
        dw, db = _gradient(w, b, xs, ys)
        w = w - eta * dw
        b = b - eta * db
        if not (abs(w) <= DIVERGENCE_LIMIT and abs(b) <= DIVERGENCE_LIMIT):  # NaN fails too
            raise TrainingDivergedError(j, w, b)
        ws[j], bs[j] = w, b

    trace_debug = None
    if debug:
        yhat = _tanh_terms(ws[:, None], bs[:, None], data.xs, 0.0)[0]
        trace_debug = TraceDebug(yhat, _mean_square_error(yhat, data.ys))
    return ParamTrace(eta=cfg.eta, n=data.n, ws=ws, bs=bs, debug=trace_debug)
