"""Residual system linking a parameter trace to the unknown dataset.

Each epoch transition j -> j+1 of an observed trace pins the exact
gradient at epoch j, giving two equations in the 2n unknowns
``z = (x_0..x_{n-1}, y_0..y_{n-1})``:

    sum_i x_i * Z_j(x_i, y_i) = n/(2 eta) * (w_j - w_{j+1})
    sum_i       Z_j(x_i, y_i) = n/(2 eta) * (b_j - b_{j+1})

with ``T_j(x) = tanh(w_j x + b_j)`` and ``Z_j(x, y) = (T_j(x) - y) *
(1 - T_j(x)^2)``.  ``residuals`` returns left minus right for every
transition, interleaved as (r_w(0), r_b(0), r_w(1), r_b(1), ...), and
``jacobian`` its exact derivative matrix.

``feasibility`` does the equation-vs-unknown counting for wider and
deeper fully connected networks.  The count is a necessary heuristic
only: a nonlinear system with as many equations as unknowns need not
have a unique (or any) solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .trace import ParamTrace


class InsufficientTraceError(ValueError):
    """Trace has too few epochs for the requested reconstruction."""


@dataclass
class ReconstructionProblem:
    """A trace bundled with the derived residual-system dimensions.

    The solver reads only the public part of the trace (eta, n, ws, bs);
    any debug block is deliberately ignored.  ``rhs`` holds the
    right-hand sides n/(2 eta) * (w_j - w_{j+1}) and n/(2 eta) * (b_j -
    b_{j+1}), interleaved like the residuals.  Raises
    InsufficientTraceError below 2 epochs, and ValueError when a
    right-hand side overflows to a non-finite value.
    """

    trace: ParamTrace
    rhs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tr = self.trace
        if tr.epochs < 2:
            raise InsufficientTraceError(
                f"need at least 2 epochs to form equations, trace has {tr.epochs}"
            )
        self.rhs = np.empty(self.num_residuals)
        with np.errstate(over="ignore", invalid="ignore"):
            c = tr.n / (2.0 * tr.eta)
            self.rhs[0::2] = c * (tr.ws[:-1] - tr.ws[1:])
            self.rhs[1::2] = c * (tr.bs[:-1] - tr.bs[1:])
        if not np.all(np.isfinite(self.rhs)):
            raise ValueError(
                "trace equations overflow: n/(2 eta) times a parameter step "
                "is not finite"
            )

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
    """Stack (xs, ys) into the unknown-vector layout."""
    return np.concatenate([np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)])


def unpack(z, n):
    """Split an unknown vector back into (xs, ys)."""
    z = np.asarray(z, dtype=float)
    return z[:n], z[n:]


def _check_z(z, problem):
    z = np.asarray(z, dtype=float)
    if z.shape != (problem.num_unknowns,):
        raise ValueError(
            f"unknown vector must have length {problem.num_unknowns}, got shape {z.shape}"
        )
    return z


def residuals(z, problem):
    """Residual vector of the trace equations at ``z``, length 2*(E-1)."""
    z = _check_z(z, problem)
    n = problem.n
    x, y = z[:n], z[n:]
    tr = problem.trace
    w, b = tr.ws[:-1], tr.bs[:-1]
    T = np.tanh(np.outer(w, x) + b[:, None])  # (E-1, n)
    Z = (T - y) * (1.0 - T**2)
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
    z = _check_z(z, problem)
    n = problem.n
    x, y = z[:n], z[n:]
    tr = problem.trace
    w = tr.ws[:-1]
    T = np.tanh(np.outer(w, x) + tr.bs[:-1, None])
    S = 1.0 - T**2
    Z = (T - y) * S
    dZdx = w[:, None] * S * (S - 2.0 * T * (T - y))
    J = np.empty((problem.num_residuals, 2 * n))
    J[0::2, :n] = Z + x * dZdx
    J[0::2, n:] = -x * S
    J[1::2, :n] = dZdx
    J[1::2, n:] = -S
    return J


@dataclass(frozen=True)
class NetworkShape:
    """Fully connected network with ``layers`` layers of ``width`` nodes,
    trained on ``instances`` instances for ``epochs`` observed epochs."""

    width: int
    layers: int
    instances: int
    epochs: int

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if self.layers < 2:
            raise ValueError(f"layers must be >= 2 (input and output), got {self.layers}")
        if self.instances < 1:
            raise ValueError(f"instances must be >= 1, got {self.instances}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


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
    values; every observed epoch contributes l*(l+1)*(L-1) equations
    (l weights plus one bias per receiving node).  ``min_epochs`` is the
    smallest epoch count that makes the count feasible.
    """
    l, L, I, E = shape.width, shape.layers, shape.instances, shape.epochs
    unknowns = l * L * I
    per_epoch = l * (l + 1) * (L - 1)
    equations = per_epoch * E
    return FeasibilityReport(
        unknowns=unknowns,
        equations=equations,
        feasible=equations >= unknowns,
        min_epochs=math.ceil(unknowns / per_epoch),
    )
