"""Residual system linking a parameter trace to the unknown dataset.

Each epoch transition j -> j+1 of an observed trace pins the exact
gradient at epoch j, giving two equations in the 2n unknowns
``z = (x_0..x_{n-1}, y_0..y_{n-1})``:

    sum_i x_i * Z_j(x_i, y_i) = n/(2 eta) * (w_j - w_{j+1})
    sum_i       Z_j(x_i, y_i) = n/(2 eta) * (b_j - b_{j+1})

with ``T_j(x) = tanh(w_j x + b_j)`` and ``Z_j(x, y) = (T_j(x) - y) *
(1 - T_j(x)^2)``: the training gradient rescaled by n/(2 eta).
``residuals`` returns left minus right for every transition, interleaved
as (r_w(0), r_b(0), ...), and ``jacobian`` its exact derivative matrix;
both evaluate T and Z with the trainer's kernel, ``model._tanh_terms``.
Only ``pack`` and ``unpack`` join and split z, and only ``unpack``
checks its length; all other code calls them.

A trace observed with d significant digits moves each w_j and b_j by at
most half a unit in its d-th digit, so each right-hand side moves by at
most its quantum n/(2 eta) * 10^(1-d) * max(|w|, |b|): a rounded trace
has no exact root, and no residual below its quantum is meaningful.  The
quantum bounds only that right-hand-side term.  The rounded w_j and b_j
inside tanh move the left side too, by an amount that does not scale
with n/(2 eta), so the secret's own residual is not bounded by the
quantum: seeded secrets at n <= 3 stayed below 0.65 quanta at eta <= 1,
but reached about 2 quanta at eta 3 to 5.

``feasibility`` does the equation-vs-unknown counting for wider and
deeper fully connected networks.  The count is a necessary heuristic
only: a nonlinear system with as many equations as unknowns need not
have a unique (or any) solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import _tanh_terms
from .trace import ParamTrace, _checked

__all__ = [
    "FeasibilityReport",
    "InsufficientTraceError",
    "NetworkShape",
    "ReconstructionProblem",
    "feasibility",
    "jacobian",
    "pack",
    "residuals",
    "unpack",
]


class InsufficientTraceError(ValueError):
    """Trace has too few epochs for the requested reconstruction."""


@dataclass
class ReconstructionProblem:
    """A trace bundled with the derived residual-system dimensions.

    The solver reads only the public part of the trace (eta, n, ws, bs);
    any debug block is deliberately ignored.  ``rhs`` holds the
    right-hand sides n/(2 eta) * (w_j - w_{j+1}) and n/(2 eta) * (b_j -
    b_{j+1}), interleaved like the residuals.  ``quantum`` bounds how far
    the trace's rounding moves any right-hand side, n/(2 eta) *
    10^(1-d) * max(|ws|, |bs|) for a trace of precision d, where a
    lossless trace (precision None) counts as d = 16, the digits at
    which ``trace._precision`` marks a trace lossless.  It leaves out the
    rounding of the parameters inside tanh, so at large eta the secret's
    own residual can exceed it (see the module docstring).  Raises InsufficientTraceError
    below 2 epochs, and ValueError when a right-hand side overflows to a
    non-finite value, also when n itself is beyond float64's range.
    """

    trace: ParamTrace
    rhs: np.ndarray = field(init=False, repr=False, compare=False)
    quantum: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tr = self.trace
        if tr.epochs < 2:
            raise InsufficientTraceError(
                f"need at least 2 epochs to form equations, trace has {tr.epochs}"
            )
        self.rhs = np.empty(self.num_residuals)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                c = tr.n / (2.0 * tr.eta)
            except OverflowError:  # an int n beyond float64's range
                c = np.inf
            self.rhs[0::2] = c * (tr.ws[:-1] - tr.ws[1:])
            self.rhs[1::2] = c * (tr.bs[:-1] - tr.bs[1:])
        if not np.all(np.isfinite(self.rhs)):
            raise ValueError(
                "trace equations overflow: n/(2 eta) times a parameter step "
                "is not finite"
            )
        # Python floats: no overflow warning
        scale = max(float(np.max(np.abs(tr.ws))), float(np.max(np.abs(tr.bs))))
        self.quantum = c * 10.0 ** (1 - (tr.precision or 16)) * scale

    @property
    def n(self):
        return self.trace.n

    @property
    def num_unknowns(self):
        return 2 * self.trace.n

    @property
    def num_residuals(self):
        return 2 * (self.trace.epochs - 1)

    @property
    def is_determined(self):
        """True when there are at least as many equations as unknowns."""
        return self.num_residuals >= self.num_unknowns


def pack(xs, ys):
    """Stack (xs, ys) into the unknown vector z = (xs, ys)."""
    return np.concatenate([np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)])


def unpack(z, n):
    """Split an unknown vector back into views (xs, ys) of it.  Raises
    ValueError unless z has shape (2n,); no other code checks it."""
    z = np.asarray(z, dtype=float)
    if z.shape != (2 * n,):
        raise ValueError(f"unknown vector must have length {2 * n}, got shape {z.shape}")
    return z[:n], z[n:]


def residuals(z, problem):
    """Residual vector of the trace equations at ``z``, length 2*(E-1)."""
    x, y = unpack(z, problem.n)
    tr = problem.trace
    _, _, Z = _tanh_terms(tr.ws[:-1, None], tr.bs[:-1, None], x, y)  # (E-1, n)
    out = np.empty(problem.num_residuals)
    out[0::2] = Z @ x
    out[1::2] = Z.sum(axis=1)
    return out - problem.rhs


def jacobian(z, problem):
    """Exact derivative of ``residuals`` w.r.t. z, shape (2*(E-1), 2n).

    Uses dZ/dy = -(1 - T^2) and
    dZ/dx = w_j (1 - T^2) [(1 - T^2) - 2 T (T - y)], plus the product
    rule for the x_i * Z_j terms in the weight rows.
    """
    n = problem.n
    x, y = unpack(z, n)
    tr = problem.trace
    w = tr.ws[:-1, None]
    T, S, Z = _tanh_terms(w, tr.bs[:-1, None], x, y)
    dZdx = w * S * (S - 2.0 * T * (T - y))
    J = np.empty((problem.num_residuals, 2 * n))
    J[0::2, :n] = Z + x * dZdx
    J[0::2, n:] = -x * S
    J[1::2, :n] = dZdx
    J[1::2, n:] = -S
    return J


@dataclass(frozen=True)
class NetworkShape:
    """Fully connected network with ``layers`` layers of ``width`` nodes,
    trained on ``instances`` instances with ``epochs`` observed parameter
    updates, one per epoch transition: a trace that records E epochs
    shows E - 1 updates.  Each field is an integer, ``layers`` >= 2 and
    the others >= 1."""

    width: int
    layers: int
    instances: int
    epochs: int

    def __post_init__(self):
        _checked("width", self.width, ">= 1", ge=1, integer=True)
        _checked("layers", self.layers, ">= 2 (input and output)", ge=2, integer=True)
        _checked("instances", self.instances, ">= 1", ge=1, integer=True)
        _checked("epochs", self.epochs, ">= 1", ge=1, integer=True)


@dataclass(frozen=True)
class FeasibilityReport:
    """Counting heuristic: equations >= unknowns is necessary for the
    trace equations to pin down the dataset, but not sufficient."""

    unknowns: int
    equations: int
    feasible: bool
    min_epochs: int

    @property
    def label(self):
        return "counting heuristic (necessary, not sufficient)"


def feasibility(shape):
    """Count unknowns vs. equations for a trace of the given network.

    A width-l, depth-L network on I instances has l*L*I unknown node
    values; every observed parameter update (``shape.epochs`` counts
    them) contributes l*(l+1)*(L-1) equations (l weights plus one bias
    per receiving node).  ``min_epochs`` is the smallest update count
    that makes the count feasible, so a trace must record
    ``min_epochs + 1`` epochs.
    """
    # Python ints: numpy integer fields would wrap in int64
    l, L, I, E = (int(v) for v in (shape.width, shape.layers, shape.instances, shape.epochs))
    unknowns = l * L * I
    per_epoch = l * (l + 1) * (L - 1)
    equations = per_epoch * E
    return FeasibilityReport(
        unknowns=unknowns,
        equations=equations,
        feasible=equations >= unknowns,
        min_epochs=-(-unknowns // per_epoch),  # exact ceiling for any int
    )
