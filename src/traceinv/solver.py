"""Dataset recovery from a reconstruction problem.

Three routes:

* ``solve_n1`` -- closed form for a single instance: dividing the two
  epoch-0 equations eliminates the Z factor and yields x directly, then y
  follows from one back-substitution.
* ``solve`` -- damped least squares for general n: MINPACK's scaled
  trust-region Levenberg-Marquardt (lmder, Moré 1978) through
  ``scipy.optimize.leastsq``, restarted from multiple points because the
  squared residual landscape has many local minima.  With box bounds, or
  with fewer equations than unknowns, it runs scipy's dogleg method with
  rectangular trust regions (``least_squares(method="dogbox")``) instead,
  since lmder supports neither.
* ``verify_reconstruction`` -- the independent check: retrain on the
  recovered dataset and compare the resulting trace epoch by epoch.

``match_solutions`` pairs a recovered dataset against a reference one;
the residual system is invariant under any simultaneous permutation of
the (x_i, y_i) pairs, so recovery is only identifiable up to such a
permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares, leastsq, linear_sum_assignment

from .model import Dataset, Params, TrainConfig, train
from .system import InsufficientTraceError, ReconstructionProblem, jacobian, residuals


class DegenerateTraceError(ValueError):
    """A closed-form division is undefined: b never moved, or tanh
    saturates at the recovered x so that 1 - T(x)^2 is 0."""


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and multi-start policy for ``solve``.

    ``residual_tolerance`` is on the max-norm of the residual vector; a
    result counts as converged only below it.  ``step_tolerance`` is the
    solver's relative step tolerance (MINPACK ``xtol``), and
    ``max_iterations`` caps each start at ``2 * max_iterations`` residual
    evaluations.  ``damping_init`` is validated but unused: MINPACK sets
    its own initial step bound; the field remains so existing configs
    and flags keep working.  Start points: ``initial_guess`` if given,
    else (x_0=0.5, all else 0); the remaining ``multistart_count - 1``
    starts draw x uniformly from [0, 1] and y uniformly from [-0.9, 0.9]
    using ``seed``.  ``box_bounds = (lo, hi)``, with lo < hi, keeps every
    iterate inside the box; starts are clipped into it.
    """

    max_iterations: int = 200
    residual_tolerance: float = 1e-10
    step_tolerance: float = 1e-12
    damping_init: float = 1e-3
    multistart_count: int = 16
    seed: int = 0
    box_bounds: tuple | None = None
    allow_underdetermined: bool = False
    initial_guess: np.ndarray | None = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        for name in ("residual_tolerance", "step_tolerance", "damping_init"):
            if not getattr(self, name) > 0:  # also rejects NaN
                raise ValueError(f"{name} must be > 0")
        if self.multistart_count < 1:
            raise ValueError("multistart_count must be >= 1")
        if self.box_bounds is not None:
            lo, hi = self.box_bounds
            if not np.all(np.asarray(lo) < np.asarray(hi)):
                raise ValueError(f"box_bounds must have lo < hi, got ({lo}, {hi})")


@dataclass
class ReconstructionResult:
    """Recovered dataset plus convergence diagnostics."""

    recovered: Dataset
    residual_norm: float
    iterations: int
    converged: bool
    starts_tried: int


@dataclass
class MatchReport:
    """Best pairing of recovered vs. reference instances.

    ``pairing[i]`` is the reference index matched to recovered instance i;
    ``max_abs_error`` is the largest |coordinate difference| under that
    pairing.
    """

    pairing: tuple
    max_abs_error: float


@dataclass
class VerifyReport:
    """Per-epoch deviation between an observed trace and a retrained one."""

    dw: np.ndarray
    db: np.ndarray
    threshold: float
    passed: bool

    @property
    def max_deviation(self):
        return float(max(self.dw.max(), self.db.max()))


def _levenberg_marquardt(fun, jac, z0, cfg):
    """Damped least squares from a single start point.

    MINPACK's lmder by default.  When the iterates must stay in
    ``cfg.box_bounds``, or the system has fewer equations than unknowns,
    neither of which lmder handles: scipy's dogleg method with
    rectangular trust regions, from a start clipped into the box.
    Returns (z, r, iterations) where iterations counts Jacobian
    evaluations, 0 when the start is already a root.
    """
    lo, hi = cfg.box_bounds if cfg.box_bounds is not None else (-np.inf, np.inf)
    z0 = np.clip(z0, lo, hi)
    r = fun(z0)
    if np.max(np.abs(r)) <= cfg.residual_tolerance:
        return z0, r, 0
    if cfg.box_bounds is not None or r.size < z0.size:
        sol = least_squares(
            fun, z0, jac=jac, method="dogbox", bounds=(lo, hi), x_scale="jac",
            ftol=1e-15, xtol=cfg.step_tolerance, gtol=None,
            max_nfev=2 * cfg.max_iterations,
        )
        z, r, iterations = sol.x, sol.fun, sol.njev
    else:
        z, _, info, _, _ = leastsq(
            fun, z0, Dfun=jac, full_output=True, ftol=1e-15,
            xtol=cfg.step_tolerance, gtol=0.0, maxfev=2 * cfg.max_iterations,
        )
        r, iterations = info["fvec"], info["njev"]
    return z, r, iterations


def _start_points(problem, cfg):
    """Deterministic sequence of start vectors for the multi-start loop."""
    n = problem.n
    rng = np.random.default_rng(cfg.seed)
    for k in range(cfg.multistart_count):
        if k == 0:
            if cfg.initial_guess is not None:
                yield np.asarray(cfg.initial_guess, dtype=float).copy()
            else:
                z0 = np.zeros(2 * n)
                z0[0] = 0.5
                yield z0
        else:
            yield np.concatenate(
                [rng.uniform(0.0, 1.0, n), rng.uniform(-0.9, 0.9, n)]
            )


def solve(problem, cfg=SolverConfig()):
    """Recover the dataset behind ``problem`` by multi-start damped least
    squares.

    Requires at least n+1 trace epochs (2n equations) unless
    ``cfg.allow_underdetermined`` is set.  Stops at the first start whose
    residual max-norm reaches ``cfg.residual_tolerance``; if none does,
    returns the best start found with ``converged=False`` rather than
    raising.  Identical (problem, cfg) always yields identical results.
    """
    n = problem.n
    if not problem.is_determined and not cfg.allow_underdetermined:
        raise InsufficientTraceError(
            f"need at least {n + 1} epochs for {2 * n} unknowns, trace has "
            f"{problem.trace.epochs}; set allow_underdetermined to solve anyway"
        )
    fun = lambda z: residuals(z, problem)
    jac = lambda z: jacobian(z, problem)

    best = None  # (residual_norm, z, iterations)
    for starts_tried, z0 in enumerate(_start_points(problem, cfg), start=1):
        z, r, iterations = _levenberg_marquardt(fun, jac, z0, cfg)
        rnorm = float(np.max(np.abs(r)))
        converged = rnorm <= cfg.residual_tolerance
        if best is None or converged or rnorm < best[0]:
            best = (rnorm, z, iterations)
        if converged:
            break
    rnorm, z, iterations = best
    return ReconstructionResult(
        recovered=Dataset(z[:n].copy(), z[n:].copy()),
        residual_norm=rnorm,
        iterations=iterations,
        converged=converged,
        starts_tried=starts_tried,
    )


def solve_n1(problem, residual_tolerance=1e-10):
    """Closed-form recovery for a single-instance dataset.

    From the first transition, with t_w = n/(2 eta) (w0 - w1) and
    t_b = n/(2 eta) (b0 - b1):

        x = t_w / t_b        (the Z factors cancel)
        y = T(x) - t_b / (1 - T(x)^2)

    Later transitions act as consistency checks: the reported residual
    norm covers the whole system.  Raises DegenerateTraceError when
    |t_b| < 1e-14 (the bias never moved) or when 1 - T(x)^2 is 0 (tanh
    saturates at x), since either division is then undefined.
    """
    if problem.n != 1:
        raise ValueError(f"closed form applies to n=1 only, problem has n={problem.n}")
    tr = problem.trace
    t_w, t_b = problem.rhs[:2]
    if abs(t_b) < 1e-14:
        raise DegenerateTraceError(
            "bias did not move between epochs 0 and 1; x is undetermined by division"
        )
    x = t_w / t_b
    T = np.tanh(tr.ws[0] * x + tr.bs[0])
    S = 1.0 - T**2
    if S == 0.0:
        raise DegenerateTraceError(
            f"tanh saturates at the recovered x={x:g}; y is undetermined by division"
        )
    y = T - t_b / S
    z = np.array([x, y])
    rnorm = float(np.max(np.abs(residuals(z, problem))))
    return ReconstructionResult(
        recovered=Dataset([x], [y]),
        residual_norm=rnorm,
        iterations=0,
        converged=rnorm <= residual_tolerance,
        starts_tried=1,
    )


def match_solutions(recovered, truth):
    """Optimal pairing of recovered instances against reference instances.

    Minimizes the summed |dx| + |dy| over pairings via linear assignment
    and reports the largest coordinate error under the chosen pairing.
    """
    if recovered.n != truth.n:
        raise ValueError(
            f"datasets differ in size: {recovered.n} vs {truth.n}"
        )
    dx = np.abs(recovered.xs[:, None] - truth.xs[None, :])
    dy = np.abs(recovered.ys[:, None] - truth.ys[None, :])
    rows, cols = linear_sum_assignment(dx + dy)
    pairing = tuple(int(cols[np.argwhere(rows == i)[0, 0]]) for i in range(recovered.n))
    max_err = float(np.max(np.maximum(dx[rows, cols], dy[rows, cols])))
    return MatchReport(pairing=pairing, max_abs_error=max_err)


def verify_reconstruction(trace, recovered, threshold=1e-8):
    """Retrain on ``recovered`` from the trace's epoch-0 parameters and
    compare the resulting trace epoch by epoch.

    This is the ground-truth-free success check: a correct reconstruction
    (up to pair permutation) reproduces the observed trace exactly.
    ``threshold`` must be >= 0.
    """
    if not threshold >= 0:  # also rejects NaN
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    if recovered.n != trace.n:
        raise ValueError(
            f"dataset size {recovered.n} does not match trace metadata n={trace.n}"
        )
    cfg = TrainConfig(
        eta=trace.eta,
        epochs=trace.epochs,
        init=Params(float(trace.ws[0]), float(trace.bs[0])),
    )
    replay = train(recovered, cfg)
    dw = np.abs(replay.ws - trace.ws)
    db = np.abs(replay.bs - trace.bs)
    return VerifyReport(
        dw=dw,
        db=db,
        threshold=threshold,
        passed=bool(dw.max() <= threshold and db.max() <= threshold),
    )
