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
  since lmder supports neither.  Each step has one owner:
  ``_start_points`` builds every start and clips it into the box,
  ``solve`` chooses the routine once per call and keeps the best start
  (skipping one that is already a root), ``_levenberg_marquardt`` runs
  the chosen routine from one start, and ``_result`` judges every
  answer, for ``solve_n1`` too.
* ``verify_reconstruction`` -- the independent check: retrain on the
  recovered dataset and compare the resulting trace epoch by epoch.

``match_solutions`` pairs a recovered dataset against a reference one;
the residual system is invariant under any simultaneous permutation of
the (x_i, y_i) pairs, so recovery is only identifiable up to such a
permutation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import least_squares, leastsq, linear_sum_assignment

from .model import Dataset, Params, TrainConfig, _tanh_terms, train
from .system import InsufficientTraceError, ReconstructionProblem, jacobian, pack, residuals, unpack
from .trace import _checked, _fields_equal


class DegenerateTraceError(ValueError):
    """A closed-form division is undefined: b never moved, tanh saturates
    at the recovered x so that 1 - T(x)^2 is 0, or a quotient overflows."""


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and multi-start policy for ``solve``.

    Ranges, each checked on construction (``ValueError`` naming the
    field otherwise): ``max_iterations`` an integer in 1..2**30 - 1 (a
    start stops after ``2 * max_iterations`` residual evaluations,
    MINPACK's C-int ``maxfev``); ``residual_tolerance`` (on the residual
    max-norm; converged only below it) and ``step_tolerance`` (MINPACK
    ``xtol``) finite and > 0; ``multistart_count`` an integer >= 1;
    ``seed`` an integer >= 0; ``initial_guess`` None or finite numbers;
    ``box_bounds`` None or a pair ``(lo, hi)`` of numbers or arrays with
    lo < hi.  The first start is ``initial_guess``, else (x_0=0.5, all
    else 0); the other ``multistart_count - 1`` draw x from [0, 1] and y
    from [-0.9, 0.9] with ``default_rng(seed)``; every start is clipped
    into the box, which holds every iterate.  Configs compare by value,
    arrays elementwise, and hash by the six scalar fields alone.
    """

    max_iterations: int = 200
    residual_tolerance: float = 1e-10
    step_tolerance: float = 1e-12
    multistart_count: int = 16
    seed: int = 0
    box_bounds: tuple | None = None
    allow_underdetermined: bool = False
    initial_guess: np.ndarray | None = None

    def __post_init__(self):
        _checked("max_iterations", self.max_iterations,
                 "an integer in 1..1073741823 (2x is MINPACK's C-int maxfev)",
                 ge=1, le=2**30 - 1, integer=True)
        _checked("residual_tolerance", self.residual_tolerance, "a finite number > 0", gt=0)
        _checked("step_tolerance", self.step_tolerance, "a finite number > 0", gt=0)
        _checked("multistart_count", self.multistart_count, "an integer >= 1", ge=1, integer=True)
        _checked("seed", self.seed, "an integer >= 0", ge=0, integer=True)
        if self.initial_guess is not None:
            try:
                finite = np.isfinite(np.asarray(self.initial_guess, dtype=float)).all()
            except (TypeError, ValueError):  # not numbers
                finite = False
            if not finite:
                raise ValueError(f"initial_guess must be finite, got {self.initial_guess!r}")
        if self.box_bounds is not None:
            try:
                lo, hi = (np.asarray(bound, dtype=float) for bound in self.box_bounds)
                ordered = np.all(lo < hi)
            except (TypeError, ValueError):  # not a pair of numbers or of broadcastable arrays
                raise ValueError(
                    f"box_bounds must be a pair (lo, hi), got {self.box_bounds!r}"
                ) from None
            if not ordered:
                raise ValueError(f"box_bounds must have lo < hi, got ({lo}, {hi})")

    __eq__ = _fields_equal

    def __hash__(self):
        return hash((self.max_iterations, self.residual_tolerance, self.step_tolerance,
                     self.multistart_count, self.seed, self.allow_underdetermined))


@dataclass
class ReconstructionResult:
    """Recovered dataset plus convergence diagnostics.

    ``converged`` means the residual max-norm is within the configured
    tolerance; ``within_precision`` means converged or within the trace's
    quantum, the most that rounding alone explains.
    """

    recovered: Dataset
    residual_norm: float
    iterations: int
    converged: bool
    starts_tried: int
    within_precision: bool


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

    __eq__ = _fields_equal


def _levenberg_marquardt(problem, z0, cfg, bounds):
    """One damped least-squares run on ``problem`` from ``z0``, one scipy
    call: MINPACK's lmder when ``bounds`` is None, else scipy's dogleg
    method with rectangular trust regions inside ``bounds = (lo, hi)``.
    Returns (z, r, iterations) where iterations counts Jacobian
    evaluations.
    """
    if bounds is None:
        z, _, info, _, _ = leastsq(
            residuals, z0, args=(problem,), Dfun=jacobian, full_output=True,
            ftol=1e-15, xtol=cfg.step_tolerance, gtol=0.0,
            maxfev=2 * cfg.max_iterations,
        )
        return z, info["fvec"], info["njev"]
    sol = least_squares(
        residuals, z0, jac=jacobian, args=(problem,), method="dogbox",
        bounds=bounds, x_scale="jac", ftol=1e-15, xtol=cfg.step_tolerance, gtol=None,
        max_nfev=2 * cfg.max_iterations,
    )
    return sol.x, sol.fun, sol.njev


def _start_points(problem, cfg):
    """The start vectors of the multi-start loop, in order:
    ``initial_guess`` if given, else (x_0=0.5, all else 0), then
    ``multistart_count - 1`` draws from one ``default_rng(cfg.seed)``.
    The generator is seeded on the first draw, after the first start is
    yielded, so a search that ends at the first start seeds none.  Every
    start is clipped into ``cfg.box_bounds``, or into (-inf, inf) when no
    box is given; no other code builds or clips a start."""
    n = problem.n
    lo, hi = (-np.inf, np.inf) if cfg.box_bounds is None else cfg.box_bounds
    if cfg.initial_guess is not None:
        z0 = np.asarray(cfg.initial_guess, dtype=float)
    else:
        z0 = pack([0.5] + [0.0] * (n - 1), np.zeros(n))
    yield np.minimum(np.maximum(z0, lo), hi)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.multistart_count - 1):
        z = pack(rng.uniform(0.0, 1.0, n), rng.uniform(-0.9, 0.9, n))
        yield np.minimum(np.maximum(z, lo), hi)


def _result(problem, z, r, iterations, tolerance):
    """The verdict on the unknown vector ``z`` with residual vector ``r``,
    the one rule of every route here: the residual max-norm, whether it
    is within ``tolerance`` (converged), and whether it is within
    ``tolerance`` or the trace's quantum (within precision).  Counts as
    one start; ``solve`` sets its own count."""
    rnorm = float(np.max(np.abs(r)))
    return ReconstructionResult(
        recovered=Dataset(*unpack(z, problem.n)),
        residual_norm=rnorm,
        iterations=iterations,
        converged=rnorm <= tolerance,
        starts_tried=1,
        within_precision=rnorm <= max(tolerance, problem.quantum),
    )


def solve(problem, cfg=SolverConfig()):
    """Recover the dataset behind ``problem`` by multi-start damped least
    squares.

    Requires at least n+1 trace epochs (2n equations) unless
    ``cfg.allow_underdetermined`` is set.  Stops at the first start whose
    residual max-norm reaches ``cfg.residual_tolerance`` or the problem's
    ``quantum``: on a rounded trace, which has no exact root, the first
    start within the rounding is as good an answer as the trace supports,
    and it is returned with ``within_precision=True`` but
    ``converged=False``.  If no start stops the loop, returns the best
    start found with ``converged=False`` rather than raising.  The routine
    is chosen once per call: dogbox when ``cfg.box_bounds`` is given or
    the problem is underdetermined, else lmder.  A start that is already
    a root is returned as it is, with 0 iterations.  The starts come from
    ``_start_points``, already clipped into the box, one at a time, so a
    search that stops at the first start seeds no random generator.  An
    exact trace has quantum 0, so only convergence stops it.  On hard
    instances the root found can differ between runs, because MINPACK's
    arithmetic in ``leastsq`` depends on memory layout.
    """
    if not problem.is_determined and not cfg.allow_underdetermined:
        raise InsufficientTraceError(
            f"need at least {problem.n + 1} epochs for {problem.num_unknowns} unknowns, "
            f"trace has {problem.trace.epochs}; set allow_underdetermined to solve anyway"
        )
    # lmder (bounds None) handles neither a box nor fewer equations than
    # unknowns; dogbox handles both
    bounds = cfg.box_bounds
    if bounds is None and not problem.is_determined:
        bounds = (-np.inf, np.inf)

    best = None
    for starts_tried, z0 in enumerate(_start_points(problem, cfg), start=1):
        result = _result(problem, z0, residuals(z0, problem), 0, cfg.residual_tolerance)
        if not result.converged:  # not already a root
            z, r, iterations = _levenberg_marquardt(problem, z0, cfg, bounds)
            result = _result(problem, z, r, iterations, cfg.residual_tolerance)
        if best is None or result.within_precision or result.residual_norm < best.residual_norm:
            best = result
        if result.within_precision:
            break
    return replace(best, starts_tried=starts_tried)


def solve_n1(problem, residual_tolerance=SolverConfig.residual_tolerance):
    """Closed-form recovery for a single-instance dataset.

    From the first transition, with t_w = n/(2 eta) (w0 - w1) and
    t_b = n/(2 eta) (b0 - b1):

        x = t_w / t_b        (the Z factors cancel)
        y = T(x) - t_b / (1 - T(x)^2)

    Later transitions act as consistency checks: the reported residual
    norm covers the whole system.  Raises DegenerateTraceError when
    |t_b| < 1e-14 (the bias never moved), or when y is not finite: tanh
    saturates at x, so 1 - T(x)^2 is 0, or a quotient overflows.
    """
    if problem.n != 1:
        raise ValueError(f"closed form applies to n=1 only, problem has n={problem.n}")
    tr = problem.trace
    t_w, t_b = problem.rhs[:2]
    if abs(t_b) < 1e-14:
        raise DegenerateTraceError(
            "bias did not move between epochs 0 and 1; x is undetermined by division"
        )
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = t_w / t_b
        T, S, _ = _tanh_terms(tr.ws[0], tr.bs[0], x, 0.0)
        y = T - t_b / S
    if not np.isfinite(y):
        raise DegenerateTraceError(
            f"tanh saturates at the recovered x={x:g} or a quotient overflows"
        )
    z = pack([x], [y])
    return _result(problem, z, residuals(z, problem), 0, residual_tolerance)


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
    pairing = tuple(cols.tolist())  # rows is arange(n) for a square matrix
    max_err = float(np.max(np.maximum(dx[rows, cols], dy[rows, cols])))
    return MatchReport(pairing=pairing, max_abs_error=max_err)


def verify_reconstruction(trace, recovered, threshold=1e-8):
    """Retrain on ``recovered`` from the trace's epoch-0 parameters and
    compare the resulting trace epoch by epoch.

    This is the ground-truth-free success check: a correct reconstruction
    (up to pair permutation) reproduces the observed trace exactly.
    ``threshold`` must be finite and >= 0.
    """
    _checked("threshold", threshold, ">= 0 and finite", ge=0)
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
