"""Dataset recovery from a reconstruction problem.

Three routes:

* ``solve_n1`` -- closed form for a single instance: dividing the two
  epoch-0 equations eliminates the Z factor and yields x directly, then y
  follows from one back-substitution.  ``_closed_form`` computes it, and
  it is also ``solve``'s first start at n=1, so on a lossless trace the
  two routes return the same answer.
* ``solve`` -- damped least squares for general n: MINPACK's scaled
  trust-region Levenberg-Marquardt (lmder, Moré 1978) through
  ``scipy.optimize.leastsq``, restarted from multiple points because the
  squared residual landscape has many local minima.  With box bounds, or
  with fewer equations than unknowns, it runs scipy's dogleg method with
  rectangular trust regions (``least_squares(method="dogbox")``) instead,
  since lmder supports neither.  Each step has one owner:
  ``_start_points`` builds every start and clips it into the box,
  ``_run_start`` runs one start, ``_polish`` takes full Gauss-Newton
  steps, ``_result`` judges every answer, for ``solve_n1`` too, and
  ``solve`` is only the multi-start policy: it keeps the best start and
  stops at the first within precision.  Every start takes one route,
  which ``_run_start``'s docstring gives in full; at n=1 the closed form,
  already a root or polished, usually ends the search without scipy, and
  at any n a polished start can end it.
* ``verify_reconstruction`` -- the independent check: retrain on the
  recovered dataset and compare the resulting trace epoch by epoch.

``match_solutions`` pairs a recovered dataset against a reference one;
the residual system is invariant under any simultaneous permutation of
the (x_i, y_i) pairs, so recovery is only identifiable up to such a
permutation.  The pairing is a linear assignment.  At n=1 there is only
one pairing, so scoring a single-instance attack loads no scipy, on a
lossless trace or a rounded one that the polish ends; at n >= 2
``match_solutions`` imports scipy's ``linear_sum_assignment`` when it
first runs, as ``_run_start`` imports lmder or dogbox.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .model import Dataset, Params, TrainConfig, _tanh_terms, train
from .system import InsufficientTraceError, ReconstructionProblem, jacobian, pack, residuals, unpack
from .trace import _checked, _checked_array, _fields_equal

__all__ = [
    "DegenerateTraceError",
    "MatchReport",
    "ReconstructionResult",
    "SolverConfig",
    "VerifyReport",
    "match_solutions",
    "solve",
    "solve_n1",
    "verify_reconstruction",
]


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
    ``seed`` an integer >= 0; ``initial_guess`` None or an array of
    finite real numbers; ``box_bounds`` None or a pair ``(lo, hi)`` of
    real numbers or arrays with lo < hi, where an infinite bound leaves
    that side open and NaN is rejected.  Arrays pass numpy's integer or
    float dtypes only, never bool, str or complex.  The first start is
    ``initial_guess``, else at n=1 the closed form where it is defined,
    else the default start: all y 0, and x_0=0.5 with every other x 0 at
    n <= 2, x_i = (i+1)/(n+1) at n >= 3, so that no two instances start
    on one point; the other ``multistart_count - 1`` draw
    x from [0, 1] and y from [-0.9, 0.9] with ``default_rng(seed)``;
    every start is clipped into the box, which holds every iterate.
    Configs compare by value, arrays elementwise, and hash by the six
    scalar fields alone.
    """

    max_iterations: int = 200
    residual_tolerance: float = 1e-10
    step_tolerance: float = 1e-12
    multistart_count: int = 16
    seed: int = 0
    box_bounds: tuple | None = field(default=None, hash=False)
    allow_underdetermined: bool = False
    initial_guess: np.ndarray | None = field(default=None, hash=False)

    def __post_init__(self):
        _checked("max_iterations", self.max_iterations,
                 "an integer in 1..1073741823 (2x is MINPACK's C-int maxfev)",
                 ge=1, le=2**30 - 1, integer=True)
        _checked("residual_tolerance", self.residual_tolerance, "a finite number > 0", gt=0)
        _checked("step_tolerance", self.step_tolerance, "a finite number > 0", gt=0)
        _checked("multistart_count", self.multistart_count, "an integer >= 1", ge=1, integer=True)
        _checked("seed", self.seed, "an integer >= 0", ge=0, integer=True)
        if self.initial_guess is not None:
            _checked_array("initial_guess", self.initial_guess)
        if self.box_bounds is not None:
            try:  # an infinite bound leaves that side of the box open
                lo, hi = self.box_bounds
                lo = _checked_array("lo", lo, finite=False)
                hi = _checked_array("hi", hi, finite=False)
                ordered = (lo < hi).all()
            except (TypeError, ValueError) as err:  # not a pair of numbers or broadcastable arrays
                raise ValueError(
                    f"box_bounds must be a pair (lo, hi) of real numbers or arrays: {err}"
                ) from None
            if not ordered:
                raise ValueError(f"box_bounds must have lo < hi, got ({lo}, {hi})")

    __eq__ = _fields_equal


@dataclass
class ReconstructionResult:
    """Recovered dataset plus convergence diagnostics.

    ``converged`` means the residual max-norm is within the configured
    tolerance; ``within_precision`` means converged or within the trace's
    quantum, the most that the rounding of the right-hand sides explains.
    The rounded parameters inside tanh are not covered, so at large eta
    even the secret can lie outside it (``system``'s docstring).
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


def _closed_form(problem):
    """The n=1 closed form from the first transition as z = (x, y), the
    one place it is computed.  With t_w = n/(2 eta) (w0 - w1) and t_b =
    n/(2 eta) (b0 - b1), the first two right-hand sides, dividing the
    weight equation by the bias equation cancels the Z factor and leaves
    x, then y = T(x) - t_b / (1 - T(x)^2).  Not finite where it is
    undefined: |t_b| < 1e-14 (the bias never moved), tanh saturates at x
    so that 1 - T(x)^2 is 0, or a quotient overflows."""
    t_w, t_b = problem.rhs[:2]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = t_w / t_b if abs(t_b) >= 1e-14 else np.nan
        T, S, _ = _tanh_terms(problem.trace.ws[0], problem.trace.bs[0], x, 0.0)
        return pack([x], [T - t_b / S])


def _start_points(problem, cfg):
    """The start vectors of the multi-start loop, in order:
    ``initial_guess`` if given, else at n=1 the closed form when it is
    finite, else the default start, then ``multistart_count - 1`` draws
    from one ``default_rng(cfg.seed)``.  The default start has every y 0;
    its x are (0.5, 0) cut to n at n <= 2, and x_i = (i+1)/(n+1) at
    n >= 3, where a start with two equal instances would give lmder a
    singular Jacobian at once.
    The generator is seeded on the first draw, after the first start is
    yielded, so a search that ends at the first start seeds none.  Every
    start is clipped into ``cfg.box_bounds``, or into (-inf, inf) when no
    box is given; no other code builds or clips a start."""
    n = problem.n
    lo, hi = (-np.inf, np.inf) if cfg.box_bounds is None else cfg.box_bounds
    z0 = cfg.initial_guess
    if z0 is None and n == 1:
        z0 = _closed_form(problem)
    if z0 is None or not np.isfinite(z0).all():  # no guess, or no closed form
        z0 = pack(np.arange(1, n + 1) / (n + 1) if n >= 3 else [0.5, 0.0][:n], np.zeros(n))
    yield np.minimum(np.maximum(np.asarray(z0, dtype=float), lo), hi)
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


def _polish(problem, z, r, xtol):
    """Up to 8 full Gauss-Newton steps from ``z``, whose residual vector
    is ``r``: each step is ``dz = lstsq(J(z), -r(z))``, and the residual
    after it is reused for the next, so r is evaluated once per step.
    Returns ``(z, r, steps)`` for the iterate with the lowest residual
    max-norm, ``z`` itself included and a later iterate winning a tie;
    ``steps`` counts Jacobian evaluations.  Stops early where r or J is
    not finite, and at the first iterate within the trace's quantum
    whose step is at most ``xtol`` times its size, MINPACK's ``xtol``
    test; a lossless trace has the 16-digit quantum, so a root found to
    float64 rounding stops it.  It respects no box.  A step that
    overflows is not warned about: it ends the polish instead."""
    rnorm = float(np.abs(r).max())
    best = z, r, rnorm
    steps = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while steps < 8 and math.isfinite(rnorm):
            J = jacobian(z, problem)
            steps += 1
            if not np.isfinite(J).all():
                break
            dz = np.linalg.lstsq(J, -r, rcond=None)[0]
            z = z + dz
            r = residuals(z, problem)
            rnorm = float(np.abs(r).max())
            if rnorm <= best[2]:
                best = z, r, rnorm
            if rnorm <= problem.quantum and math.hypot(*dz) <= xtol * math.hypot(*z):
                break
    return best[0], best[1], steps


def _run_start(problem, z0, cfg):
    """One start of ``solve`` from ``z0``, judged by ``_result``.  This
    docstring is the one full account of a start's route, the same for
    every start: ``initial_guess``, the n=1 closed form, the default
    start or a seeded draw.

    A start that is already a root is returned as it is, with 0
    iterations, before scipy is imported; so a lossless n=1 trace ends at
    the closed form.  Otherwise, with no box, the start is polished
    (``_polish``, which respects no box).  If the polished point is
    within precision it is returned, still before scipy is imported, and
    its iterations are the Gauss-Newton steps taken,
    ``cfg.step_tolerance`` ending them as it ends lmder; so a rounded n=1
    trace usually ends at its polished closed form.  Otherwise the start
    runs one scipy call from its unpolished point: MINPACK's lmder when
    there is no box and the problem is determined, else scipy's dogleg
    method with rectangular trust regions inside ``cfg.box_bounds`` or
    (-inf, inf), since lmder handles neither a box nor fewer equations
    than unknowns.  Iterations count Jacobian evaluations.  scipy is
    imported here, by the first start that runs it, so that importing
    the package loads none of it.  Dogbox squares the residual vector,
    which overflows (then gives inf - inf) once its entries pass about
    1e154; those warnings are silenced, so, as lmder does, it returns a
    start that did not converge.
    """
    r0 = residuals(z0, problem)
    result = _result(problem, z0, r0, 0, cfg.residual_tolerance)
    if result.converged:
        return result
    if cfg.box_bounds is None:
        result = _result(problem, *_polish(problem, z0, r0, cfg.step_tolerance),
                         cfg.residual_tolerance)
        if result.within_precision:
            return result
    from scipy.optimize import least_squares, leastsq

    if cfg.box_bounds is None and problem.is_determined:
        z, _, info, _, _ = leastsq(
            residuals, z0, args=(problem,), Dfun=jacobian, full_output=True,
            ftol=1e-15, xtol=cfg.step_tolerance, gtol=0.0, maxfev=2 * cfg.max_iterations,
        )
        return _result(problem, z, info["fvec"], info["njev"], cfg.residual_tolerance)
    with np.errstate(over="ignore", invalid="ignore"):
        sol = least_squares(
            residuals, z0, jac=jacobian, args=(problem,), method="dogbox",
            bounds=(-np.inf, np.inf) if cfg.box_bounds is None else cfg.box_bounds,
            x_scale="jac", ftol=1e-15, xtol=cfg.step_tolerance, gtol=None,
            max_nfev=2 * cfg.max_iterations,
        )
    return _result(problem, sol.x, sol.fun, sol.njev, cfg.residual_tolerance)


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
    start found with ``converged=False`` rather than raising.  The starts
    come from ``_start_points``, already clipped into the box, one at a
    time, so a search that stops at the first start seeds no random
    generator; ``_run_start`` runs each one by the same route, and its
    docstring gives it in full.  At n=1 with no ``initial_guess`` the
    first start is ``solve_n1``'s closed form, which usually ends the
    search with no scipy call.  A lossless trace has the 16-digit
    quantum, which is below ``cfg.residual_tolerance`` unless n/(2 eta)
    is large; there a start within the quantum stops it too.  On hard
    instances the root found can differ between processes: scipy's lmder
    appears to read uninitialised memory when the Jacobian is singular
    or nearly so.  The default start at n >= 3 puts no two instances on
    one point, which would make its Jacobian singular;
    ``demos/determinism.py`` counts the answers that still vary.
    """
    if not problem.is_determined and not cfg.allow_underdetermined:
        raise InsufficientTraceError(
            f"need at least {problem.n + 1} epochs for {problem.num_unknowns} unknowns, "
            f"trace has {problem.trace.epochs}; set allow_underdetermined to solve anyway"
        )
    best = None
    for starts_tried, z0 in enumerate(_start_points(problem, cfg), start=1):
        result = _run_start(problem, z0, cfg)
        if best is None or result.within_precision or result.residual_norm < best.residual_norm:
            best = result
        if result.within_precision:
            break
    return replace(best, starts_tried=starts_tried)


def solve_n1(problem, residual_tolerance=SolverConfig.residual_tolerance):
    """Closed-form recovery for a single-instance dataset.

    The first transition gives x and y exactly (``_closed_form``); later
    transitions act as consistency checks: the reported residual norm
    covers the whole system.  ``solve`` starts from the same point at
    n=1.  Raises DegenerateTraceError, naming t_b and x, where the closed
    form is not finite: |t_b| < 1e-14 (the bias never moved), tanh
    saturates at x so that 1 - T(x)^2 is 0, or a quotient overflows.
    ``residual_tolerance`` is checked as ``SolverConfig``'s is: a finite
    number > 0, ``ValueError`` otherwise.
    """
    if problem.n != 1:
        raise ValueError(f"closed form applies to n=1 only, problem has n={problem.n}")
    _checked("residual_tolerance", residual_tolerance, "a finite number > 0", gt=0)
    z = _closed_form(problem)
    if not np.isfinite(z).all():
        raise DegenerateTraceError(
            f"no closed form at t_b={problem.rhs[1]:g}, x={z[0]:g}: the bias did not move, "
            "tanh saturates at x, or a quotient overflows"
        )
    return _result(problem, z, residuals(z, problem), 0, residual_tolerance)


def match_solutions(recovered, truth):
    """Optimal pairing of recovered instances against reference instances.

    Minimizes the summed |dx| + |dy| over pairings and reports the
    largest coordinate error under the chosen pairing.  At n=1 the only
    pairing is taken and no scipy is loaded; at n >= 2 the pairing is
    ``scipy.optimize.linear_sum_assignment``'s, imported on first use.
    Among pairings of equal summed cost it returns one of them, and two
    such pairings may differ in ``max_abs_error``.

    The pairing holds for any finite coordinates: the differences are
    taken of the coordinates divided by 4, which is exact for normal
    floats, so no cost overflows.  The error is then scaled back as a
    Python float, so one beyond float64's range is reported as ``inf``.
    """
    if recovered.n != truth.n:
        raise ValueError(
            f"datasets differ in size: {recovered.n} vs {truth.n}"
        )
    dx = np.abs(recovered.xs[:, None] / 4 - truth.xs[None, :] / 4)
    dy = np.abs(recovered.ys[:, None] / 4 - truth.ys[None, :] / 4)
    rows = cols = np.arange(recovered.n)  # at n=1, the only pairing
    if recovered.n > 1:
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(dx + dy)
    pairing = tuple(cols.tolist())
    max_err = 4 * float(np.max(np.maximum(dx[rows, cols], dy[rows, cols])))
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
