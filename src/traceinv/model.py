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
one-element array path at a fraction of numpy's per-call cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .trace import Dataset, ParamTrace, TraceDebug, _checked  # Dataset: train's input, re-exported

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
    (an integer >= 1), and initial parameters."""

    eta: float
    epochs: int
    init: Params = field(default_factory=lambda: Params(0.5, 0.5))

    def __post_init__(self):
        _checked("eta", self.eta, "a finite real number > 0", gt=0)
        _checked("epochs", self.epochs, "an integer >= 1", ge=1, integer=True)


def _tanh_terms(w, b, x, y):
    """T = tanh(w*x + b), S = 1 - T^2 and Z = (T - y) S.  ``w`` and ``b``
    broadcast: scalars give one epoch, columns ``ws[:, None]`` one per row.
    Python floats give the bits of one-element arrays."""
    T = np.tanh(w * x + b)
    S = 1.0 - T * T  # T**2 is square() on arrays but pow() on scalars
    return T, S, (T - y) * S


def _gradient(w, b, xs, ys):
    _, _, Z = _tanh_terms(w, b, xs, ys)
    if isinstance(xs, float):  # one instance: the mean of v is v
        Z = float(Z)  # np.tanh gave an np.float64; Python floats step faster
        return 2.0 * (xs * Z), 2.0 * Z
    n = len(xs)
    # bitwise np.mean for float64 (add.reduce, then / count) without its wrapper
    return 2.0 * (float(np.add.reduce(xs * Z)) / n), 2.0 * (float(np.add.reduce(Z)) / n)


def forward(params, xs):
    """Network outputs tanh(w*x + b) for a vector of inputs.

    Outputs lie in (-1, 1); note that in floating point tanh saturates to
    exactly +-1.0 once |w*x + b| exceeds about 19.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if len(xs) == 0:
        raise ValueError("input vector must be non-empty")
    if not np.all(np.isfinite(xs)):
        raise ValueError("inputs must be finite")
    return _tanh_terms(params.w, params.b, xs, 0.0)[0]


def mse(yhat, ys):
    """Mean squared error between computed and real labels."""
    yhat = np.atleast_1d(np.asarray(yhat, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if len(yhat) != len(ys):
        raise ValueError(
            f"length mismatch: yhat has {len(yhat)}, ys has {len(ys)}"
        )
    if len(ys) == 0:
        raise ValueError("vectors must be non-empty")
    return float(np.mean((yhat - ys) ** 2))


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
        trace_debug = TraceDebug(yhat, [mse(row, data.ys) for row in yhat])
    return ParamTrace(eta=cfg.eta, n=data.n, ws=ws, bs=bs, debug=trace_debug)
