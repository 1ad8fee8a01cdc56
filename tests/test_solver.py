"""Reconstruction: closed form, damped least squares, matching, verification."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from traceinv import (
    Dataset,
    DegenerateTraceError,
    InsufficientTraceError,
    Params,
    ParamTrace,
    ReconstructionProblem,
    SolverConfig,
    TrainConfig,
    dumps_trace,
    jacobian,
    loads_trace,
    match_solutions,
    pack,
    residuals,
    solve,
    solve_n1,
    train,
    unpack,
    verify_reconstruction,
)
from traceinv.solver import _polish, _start_points

from conftest import make_trace, random_dataset


def problem_for(data, epochs, eta=0.1, digits=None):
    tr = train(data, TrainConfig(eta=eta, epochs=epochs))
    if digits is not None:
        tr = loads_trace(dumps_trace(tr, digits=digits))
    return ReconstructionProblem(tr)


# --- closed form (n = 1) ----------------------------------------------------


def test_closed_form_recovers_exactly():
    p = problem_for(Dataset([0.6], [0.5]), epochs=5)
    res = solve_n1(p)
    assert res.converged
    assert abs(res.recovered.xs[0] - 0.6) < 1e-6
    assert abs(res.recovered.ys[0] - 0.5) < 1e-6
    assert res.residual_norm < 1e-10
    assert res.iterations == 0 and res.starts_tried == 1
    # the tolerance is checked as SolverConfig checks its own
    for tolerance in (0.0, -1.0, np.nan, np.inf, True, "1e-10"):
        with pytest.raises(ValueError, match="^residual_tolerance must be"):
            solve_n1(p, residual_tolerance=tolerance)


def test_closed_form_from_rounded_values():
    # three-decimal parameter values still land near the truth
    p = ReconstructionProblem(make_trace(0.1, 1, [0.500, 0.489], [0.500, 0.482]))
    res = solve_n1(p)
    assert res.recovered.xs[0] == pytest.approx(0.055 / 0.090, abs=1e-12)
    assert abs(res.recovered.xs[0] - 0.6) < 0.02
    assert abs(res.recovered.ys[0] - 0.5) < 0.02


def test_closed_form_uses_later_epochs_as_consistency_check():
    # corrupt a later epoch: the recovered point no longer explains it
    tr = train(Dataset([0.6], [0.5]), TrainConfig(eta=0.1, epochs=5))
    ws = tr.ws.copy()
    ws[3] += 0.05
    p = ReconstructionProblem(make_trace(0.1, 1, ws, tr.bs))
    res = solve_n1(p)
    assert not res.converged
    assert res.residual_norm > 1e-3


def test_closed_form_degenerate_when_bias_frozen():
    x = 0.3
    y = float(np.tanh(0.5 * x + 0.5))  # perfectly fit point, zero gradients
    frozen = problem_for(Dataset([x], [y]), epochs=3)
    # the bias barely moves, so x = 110 saturates tanh and 1 - T^2 is 0
    saturated = ReconstructionProblem(
        ParamTrace(eta=0.1, n=1, ws=[0.5, 0.489], bs=[0.5, 0.4999])
    )
    # the bias moves just past the cutoff, so x = t_w / t_b overflows
    overflowing = ReconstructionProblem(
        ParamTrace(eta=0.1, n=1, ws=[0.5, 0.5 - 1e299], bs=[0.5, 0.5 - 4e-15])
    )
    for p in (frozen, saturated, overflowing):
        with pytest.raises(DegenerateTraceError):
            solve_n1(p)


def test_closed_form_rejects_multi_instance(rng):
    p = problem_for(random_dataset(rng, 2), epochs=3)
    with pytest.raises(ValueError, match="n=1"):
        solve_n1(p)


# --- iterative solver -------------------------------------------------------


def test_solve_agrees_with_closed_form(rng):
    cases = [(random_dataset(rng, 1), SolverConfig()) for _ in range(10)]
    # a hard instance: lmder from (0.5, 0) misses the root, the polish
    # finds it
    hard = Dataset([0.3038739050748761], [0.5729710315850822])
    cases.append((hard, SolverConfig(seed=307)))
    for data, cfg in cases:
        p = problem_for(data, epochs=2)
        a = solve_n1(p)
        # the closed form is solve's first start at n=1, already a root
        b = solve(p, cfg)
        assert a.converged and b.converged
        assert b.iterations == 0 and b.starts_tried == 1
        assert b.recovered.xs.tobytes() == a.recovered.xs.tobytes()
        assert b.recovered.ys.tobytes() == a.recovered.ys.tobytes()
        assert b.residual_norm == a.residual_norm
        # from (0.5, 0) the Gauss-Newton polish finds the same root
        guess = pack([0.5], [0.0])
        c = solve(p, replace(cfg, initial_guess=guess))
        assert c.converged and c.starts_tried == 1 and 1 <= c.iterations <= 8
        assert abs(a.recovered.xs[0] - c.recovered.xs[0]) < 1e-8
        assert abs(a.recovered.ys[0] - c.recovered.ys[0]) < 1e-8
        # and so does MINPACK, wherever it converges from there
        if data is not hard:
            z, info = minpack(p, guess, cfg)
            assert np.max(np.abs(info["fvec"])) <= cfg.residual_tolerance
            assert abs(a.recovered.xs[0] - z[0]) < 1e-8
            assert abs(a.recovered.ys[0] - z[1]) < 1e-8


def test_solve_from_ground_truth_is_immediate(rng):
    data = random_dataset(rng, 3)
    p = problem_for(data, epochs=4)
    cfg = SolverConfig(initial_guess=pack(data.xs, data.ys))
    res = solve(p, cfg)
    assert res.converged
    assert res.iterations <= 2
    assert res.residual_norm < 1e-10
    assert res.starts_tried == 1


def test_solve_two_instances_from_default_start():
    data = Dataset([0.6, 0.2], [0.5, 0.4])
    res = solve(problem_for(data, epochs=3))
    assert res.converged and res.starts_tried == 1
    rep = match_solutions(res.recovered, data)
    assert rep.max_abs_error < 1e-6


def test_solve_overdetermined_trace(rng):
    data = random_dataset(rng, 2)
    res = solve(problem_for(data, epochs=6))  # 10 equations, 4 unknowns
    assert res.converged
    assert match_solutions(res.recovered, data).max_abs_error < 1e-6


def test_converged_results_satisfy_the_tolerance(rng):
    # soundness: converged means the residuals really are small
    for n in (1, 2, 3):
        data = random_dataset(rng, n)
        p = problem_for(data, epochs=n + 1)
        res = solve(p)
        if res.converged:
            r = residuals(pack(res.recovered.xs, res.recovered.ys), p)
            assert np.max(np.abs(r)) <= 1e-10


@pytest.mark.parametrize(
    "epochs, cfg",
    [
        (4, SolverConfig(seed=7)),
        (4, SolverConfig(seed=7, box_bounds=(-1.0, 1.0))),
        (3, SolverConfig(seed=7, allow_underdetermined=True)),
    ],
    ids=["default", "box_bounds", "underdetermined"],
)
def test_solve_is_deterministic(rng, epochs, cfg):
    data = random_dataset(rng, 3)
    p = problem_for(data, epochs=epochs)
    r1 = solve(p, cfg)
    r2 = solve(p, cfg)
    np.testing.assert_array_equal(r1.recovered.xs, r2.recovered.xs)
    np.testing.assert_array_equal(r1.recovered.ys, r2.recovered.ys)
    assert (r1.iterations, r1.converged, r1.starts_tried) == (
        r2.iterations,
        r2.converged,
        r2.starts_tried,
    )


def test_solve_requires_enough_epochs(rng):
    data = random_dataset(rng, 2)
    p = problem_for(data, epochs=2)  # 2 equations, 4 unknowns
    with pytest.raises(InsufficientTraceError):
        solve(p)
    res = solve(p, SolverConfig(allow_underdetermined=True))
    assert res.recovered.n == 2
    assert np.isfinite(res.residual_norm)


def test_solve_nonconvergence_is_reported_not_raised(monkeypatch):
    # 7-digit rounding makes the 5-epoch system inconsistent; built in
    # memory, the rounded trace records no precision, so its quantum is a
    # lossless trace's 16-digit one and no start stops the loop early
    data = Dataset([0.6, 0.2], [0.5, 0.4])
    rounded = problem_for(data, epochs=5, digits=7).trace
    p = ReconstructionProblem(ParamTrace(rounded.eta, rounded.n, rounded.ws, rounded.bs))
    res = solve(p, SolverConfig(multistart_count=2))
    assert not res.converged
    assert res.starts_tried == 2
    assert res.residual_norm > 1e-10
    # every start, the first and each random draw, is evaluated once to
    # see whether it is already a root before its solver runs from it
    cfg = SolverConfig(multistart_count=3)
    starts = list(_start_points(p, cfg))
    calls = [0] * len(starts)

    def counting(z, problem):
        for k, start in enumerate(starts):
            calls[k] += np.array_equal(z, start)
        return residuals(z, problem)

    monkeypatch.setattr("traceinv.solver.residuals", counting)
    assert solve(p, cfg).starts_tried == 3
    assert calls[0] == calls[1] == calls[2]


@pytest.mark.parametrize("n, epochs", [(1, 4), (2, 5)])
def test_solve_stops_within_trace_precision(n, epochs, rng):
    # a 7-digit trace has no exact root; the first start that lands within
    # the rounding quantum ends the search
    for case in range(20):
        data = random_dataset(rng, n)
        for eta in (0.1, 1.0):
            p = problem_for(data, epochs=epochs, eta=eta, digits=7)
            assert p.trace.precision == 7 and p.quantum > 0
            res = solve(p, SolverConfig(seed=case))
            assert res.starts_tried == 1
            assert res.within_precision and not res.converged
            assert res.residual_norm <= p.quantum
            # the secret itself is only as exact as the trace; the quantum
            # bounds only the rounding of the right-hand sides, so this
            # holds at these etas, not at every eta
            secret_norm = np.max(np.abs(residuals(pack(data.xs, data.ys), p)))
            assert secret_norm <= p.quantum
            if n == 1:
                assert match_solutions(res.recovered, data).max_abs_error < 1e-4
    exact = problem_for(data, epochs=epochs)
    lossless = ReconstructionProblem(loads_trace(dumps_trace(exact.trace)))
    for q in (exact, lossless):
        # a lossless trace is taken as a 16-digit one
        scale = max(np.max(np.abs(q.trace.ws)), np.max(np.abs(q.trace.bs)))
        assert q.quantum == pytest.approx(n / (2 * 0.1) * 1e-15 * scale, rel=1e-12)
        res = solve(q)
        assert res.within_precision == res.converged


def minpack(p, z0, cfg):
    """lmder from ``z0`` with the arguments ``solve`` gives it."""
    from scipy.optimize import leastsq

    z, _, info, _, _ = leastsq(
        residuals, z0, args=(p,), Dfun=jacobian, full_output=True,
        ftol=1e-15, xtol=cfg.step_tolerance, gtol=0.0, maxfev=2 * cfg.max_iterations,
    )
    return z, info


def test_polish_ends_rounded_n1_traces_as_well_as_minpack(rng):
    # a 7-digit n=1 trace has no exact root: the Gauss-Newton polish of the
    # closed form ends within precision at the first start, and it lands
    # within 1e-3 of the secret at least as often as lmder from that start
    polished = minpacked = 0
    for case in range(200):
        data = random_dataset(rng, 1)
        p = problem_for(data, epochs=4, digits=7)
        cfg = SolverConfig(seed=case)
        res = solve(p, cfg)
        assert res.within_precision and res.starts_tried == 1
        assert 1 <= res.iterations <= 8
        polished += match_solutions(res.recovered, data).max_abs_error < 1e-3
        z, _ = minpack(p, next(_start_points(p, cfg)), cfg)
        minpacked += match_solutions(Dataset(*unpack(z, 1)), data).max_abs_error < 1e-3
    assert polished >= minpacked


def test_unpolished_rounded_start_runs_minpack_from_the_closed_form(monkeypatch, rng):
    # a polish that ends outside precision is discarded: lmder runs from
    # the closed form itself, as it does without the polish
    data = random_dataset(rng, 1)
    p = problem_for(data, epochs=4, digits=7)
    cfg = SolverConfig()
    z0 = next(_start_points(p, cfg))
    far = z0 + 1.0
    assert np.max(np.abs(residuals(far, p))) > p.quantum
    calls = []

    def outside(problem, z, r, xtol):
        calls.append(z.tobytes())
        return far, residuals(far, problem), 3

    monkeypatch.setattr("traceinv.solver._polish", outside)
    res = solve(p, cfg)
    assert calls == [z0.tobytes()]
    z, info = minpack(p, z0, cfg)
    assert (res.recovered.xs.tobytes(), res.recovered.ys.tobytes(), res.residual_norm,
            res.iterations, res.starts_tried) == (
        z[:1].tobytes(), z[1:].tobytes(), float(np.max(np.abs(info["fvec"]))), info["njev"], 1)


def test_polish_runs_only_on_unboxed_starts_that_are_not_roots(monkeypatch, rng):
    # an in-memory rounded trace records no precision, so its quantum is a
    # lossless trace's 16-digit one, far below its 7-digit rounding: the
    # polish runs at any n, ends outside precision, and lmder then runs
    # from the unpolished start
    one, two = random_dataset(rng, 1), random_dataset(rng, 2)
    cfg = SolverConfig(multistart_count=1)
    calls = []

    def recording(problem, z, r, xtol):
        calls.append(z.tobytes())
        return _polish(problem, z, r, xtol)

    monkeypatch.setattr("traceinv.solver._polish", recording)
    for data, epochs in ((one, 4), (two, 5)):
        rounded = problem_for(data, epochs=epochs, digits=7).trace
        in_memory = ReconstructionProblem(
            ParamTrace(rounded.eta, rounded.n, rounded.ws, rounded.bs))
        z0 = next(_start_points(in_memory, cfg))
        calls.clear()
        res = solve(in_memory, cfg)
        assert calls == [z0.tobytes()] and not res.within_precision
        z, info = minpack(in_memory, z0, cfg)
        n = data.n
        assert (res.recovered.xs.tobytes(), res.recovered.ys.tobytes(), res.residual_norm,
                res.iterations) == (
            z[:n].tobytes(), z[n:].tobytes(), float(np.max(np.abs(info["fvec"]))),
            info["njev"])

    # a lossless closed form, already a root, and a box, which the polish
    # would not respect, never reach it
    def refuse(*args):
        raise AssertionError("_polish called")

    monkeypatch.setattr("traceinv.solver._polish", refuse)
    cases = [
        (problem_for(one, epochs=2), SolverConfig()),
        (problem_for(one, epochs=500), SolverConfig()),
        (problem_for(one, epochs=4, digits=7), SolverConfig(box_bounds=(0.0, 1.0))),
    ]
    for p, cfg in cases:
        assert solve(p, cfg).residual_norm < 1e-4


def test_polish_stops_where_the_jacobian_overflows():
    # near w = 1e300 the Jacobian overflows where the residuals do not: the
    # polish stops there, with no warning and no non-finite matrix for lstsq
    p = ReconstructionProblem(loads_trace(dumps_trace(
        make_trace(0.1, 1, [1e300, 1e300 * (1 - 1e-10), 1e300 * (1 - 2e-10)], [0.5, 0.4, 0.3]),
        digits=7)))
    z0 = np.array([0.0, 1e10])
    r0 = residuals(z0, p)
    z, r, steps = _polish(p, z0, r0, SolverConfig.step_tolerance)
    assert z is z0 and r is r0 and steps == 1
    res = solve(p, SolverConfig(initial_guess=z0))
    assert res.within_precision and (res.iterations, res.starts_tried) == (1, 1)


def test_polish_stops_at_an_exact_root_of_a_lossless_trace(rng):
    # a lossless trace has the 16-digit quantum, which its root's rounding
    # stays within; the step from there is below xtol, so every polish
    # stops there, short of 8 steps
    for _ in range(20):
        data = random_dataset(rng, 1)
        p = problem_for(data, epochs=2)
        z0 = pack(data.xs, data.ys) + rng.uniform(-1e-3, 1e-3, 2)
        z, r, steps = _polish(p, z0, residuals(z0, p), SolverConfig.step_tolerance)
        assert np.max(np.abs(r)) <= p.quantum and steps < 8


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lossless_secret_is_within_the_quantum(n, rng):
    # a lossless trace is as exact as float64: the secret's own residual,
    # rounding alone, stays within the 16-digit quantum from eta 1e-7 to 5,
    # also where it is far above residual_tolerance
    for eta in (1e-7, 1e-6, 0.1, 5.0):
        for _ in range(10):
            data = random_dataset(rng, n)
            p = problem_for(data, epochs=n + 1, eta=eta)
            assert np.max(np.abs(residuals(pack(data.xs, data.ys), p))) <= p.quantum


def test_box_bounds_clip_the_iterates(rng):
    data = random_dataset(rng, 2)
    p = problem_for(data, epochs=3)
    res = solve(p, SolverConfig(box_bounds=(-1.0, 1.0)))
    assert np.all(res.recovered.xs >= -1.0) and np.all(res.recovered.xs <= 1.0)
    assert np.all(res.recovered.ys >= -1.0) and np.all(res.recovered.ys <= 1.0)
    if res.converged:
        assert match_solutions(res.recovered, data).max_abs_error < 1e-6
    # a bare 2-element array is the same box as the pair, to the bit
    same = solve(p, SolverConfig(box_bounds=np.array([-1.0, 1.0])))
    assert (same.recovered.xs.tobytes(), same.recovered.ys.tobytes(), same.residual_norm,
            same.iterations, same.converged, same.starts_tried) == (
        res.recovered.xs.tobytes(), res.recovered.ys.tobytes(), res.residual_norm,
        res.iterations, res.converged, res.starts_tried)
    # a box that holds neither the default start (0.5, 0) nor the given
    # guess: the start is clipped into it, and the secret is recovered
    secret = Dataset([0.7], [0.8])
    p = problem_for(secret, epochs=2)
    for guess in (None, [0.3, 0.2]):
        res = solve(p, SolverConfig(box_bounds=(0.6, 0.95), initial_guess=guess))
        z = pack(res.recovered.xs, res.recovered.ys)
        assert np.all((z >= 0.6) & (z <= 0.95))
        assert res.converged and res.starts_tried == 1
        assert match_solutions(res.recovered, secret).max_abs_error < 1e-6
    # right-hand sides near 1e238: dogbox's squared residual overflows, and
    # like lmder it returns a start that did not converge, without a warning
    huge = ReconstructionProblem(make_trace(10.0, 1, [-1.3e238, -2.5e237, 4.2e237, 1.1e238],
                                            [1.1e-18] * 4))
    for box in (None, (-1.0, 1.0)):
        res = solve(huge, SolverConfig(box_bounds=box))
        assert not res.converged and res.residual_norm == pytest.approx(5.25e236)
        z = pack(res.recovered.xs, res.recovered.ys)
        assert np.all((z >= -1.0) & (z <= 1.0))


def test_start_points_sequence(monkeypatch):
    # start 0 is the clipped guess, else at n=1 the closed form where it
    # is defined, else the default start, x_i = (i+1)/(n+1) at n = 3;
    # start k >= 1 is pack(x draws, y draws) from one default_rng(seed),
    # clipped
    x = 0.3
    frozen = Dataset([x], [float(np.tanh(0.5 * x + 0.5))])  # the bias never moves
    datasets = (Dataset([0.1], [0.4]), frozen, Dataset(np.linspace(0.1, 0.9, 3), np.full(3, 0.4)))
    for data, seed, given, box in itertools.product(
        datasets, (0, 7, 2**40), (False, True), (None, (-0.5, 0.6))
    ):
        n = data.n
        p = problem_for(data, epochs=n + 1)
        guess = np.linspace(-1.0, 1.0, 2 * n) if given else None
        if given:
            first = guess
        elif n == 1 and data is not frozen:
            closed = solve_n1(p).recovered
            first = pack(closed.xs, closed.ys)
        else:  # the default start: at n >= 3 no two instances share a point
            first = pack([0.5, 0.0][:n] if n <= 2 else [0.25, 0.5, 0.75], np.zeros(n))
        cfg = SolverConfig(seed=seed, multistart_count=5, initial_guess=guess, box_bounds=box)
        lo, hi = box or (-np.inf, np.inf)
        rng = np.random.default_rng(seed)
        draws = [pack(rng.uniform(0.0, 1.0, n), rng.uniform(-0.9, 0.9, n)) for _ in range(4)]
        expected = [np.clip(z, lo, hi).tobytes() for z in [first, *draws]]
        assert [z.tobytes() for z in _start_points(p, cfg)] == expected

    # the generator is seeded on its first draw, so a search that ends at
    # the first start seeds none
    def no_rng(seed):
        raise AssertionError("default_rng called")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    p = problem_for(Dataset([0.6], [0.5]), epochs=2)
    closed = solve_n1(p).recovered
    assert next(_start_points(p, SolverConfig())).tobytes() == pack(closed.xs, closed.ys).tobytes()
    res = solve(p)
    assert res.starts_tried == 1 and res.iterations == 0


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    # 2 * max_iterations is MINPACK's maxfev, a C int
    with pytest.raises(ValueError, match="max_iterations"):
        SolverConfig(max_iterations=2**30)
    SolverConfig(max_iterations=2**30 - 1)
    with pytest.raises(ValueError):
        SolverConfig(residual_tolerance=0.0)
    for name in ("residual_tolerance", "step_tolerance"):
        for value in (float("nan"), np.array([1e-10]), np.inf, 10**400, True):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{name: value})
        assert getattr(SolverConfig(**{name: np.float32(1e-6)}), name) == np.float32(1e-6)
    with pytest.raises(ValueError):
        SolverConfig(multistart_count=0)
    # the integer fields take integers only, numpy's included
    for name, value in (("max_iterations", 2.5), ("multistart_count", 2.5),
                        ("multistart_count", None), ("max_iterations", "5")):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: value})
    cfg = SolverConfig(max_iterations=np.int64(3), multistart_count=np.int64(3))
    assert (cfg.max_iterations, cfg.multistart_count) == (3, 3)
    # removed in 0.2.0: it never reached the solver
    with pytest.raises(TypeError, match="damping_init"):
        SolverConfig(damping_init=1e-3)
    for seed in (-1, 0.5, None):
        with pytest.raises(ValueError, match="seed"):
            SolverConfig(seed=seed)
    for guess in ([np.inf, 0.5, 0.1, 0.1], [0.0, np.nan], ["a", "b"]):
        with pytest.raises(ValueError, match="initial_guess"):
            SolverConfig(initial_guess=guess, multistart_count=1)
    for bounds in ((1.0, -1.0), (0.5, 0.5)):
        with pytest.raises(ValueError, match="lo < hi"):
            SolverConfig(box_bounds=bounds)
    for bounds in (("a", "b"), (0, None), (0, np.nan), (np.zeros(2), [1.0, np.nan]),
                   (0, 1, 2), 1.0, (np.zeros(2), np.ones(3))):
        with pytest.raises(ValueError, match="box_bounds must be a pair"):
            SolverConfig(box_bounds=bounds)
    # an infinite bound leaves that side of the box open
    for bounds in ((-np.inf, np.inf), (0, np.inf), (np.zeros(2), np.full(2, np.inf))):
        assert SolverConfig(box_bounds=bounds).box_bounds is bounds


@pytest.mark.parametrize("name", ["max_iterations", "multistart_count", "seed"])
def test_solver_config_rejects_bool_integers(name):
    # bool is a numbers.Integral, but True is no start count
    for value in (True, False):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: value})


def test_solver_config_hash_follows_equality():
    arrays = SolverConfig(initial_guess=np.ones(2), box_bounds=(np.zeros(2), np.ones(2)))
    lists = SolverConfig(initial_guess=[1.0, 1.0], box_bounds=([0.0, 0.0], [1.0, 1.0]))
    assert arrays == lists and hash(arrays) == hash(lists)
    assert len({arrays, lists, SolverConfig()}) == 2


# --- permutation-aware matching ---------------------------------------------


def brute_force_best_sum(recovered, truth):
    best = np.inf
    for perm in itertools.permutations(range(truth.n)):
        total = sum(
            abs(recovered.xs[i] - truth.xs[p]) + abs(recovered.ys[i] - truth.ys[p])
            for i, p in enumerate(perm)
        )
        best = min(best, total)
    return best


def test_match_identity():
    data = Dataset([0.6, 0.2], [0.5, 0.4])
    rep = match_solutions(data, data)
    assert rep.pairing == (0, 1)
    assert rep.max_abs_error == 0.0


def test_match_swapped_pairs():
    truth = Dataset([0.6, 0.2], [0.5, 0.4])
    swapped = Dataset([0.2, 0.6], [0.4, 0.5])
    rep = match_solutions(swapped, truth)
    assert rep.pairing == (1, 0)
    assert rep.max_abs_error == 0.0


def test_match_reports_worst_coordinate():
    truth = Dataset([0.6, 0.2], [0.5, 0.4])
    off = Dataset([0.6 + 1e-3, 0.2], [0.5, 0.4 - 2e-3])
    rep = match_solutions(off, truth)
    assert rep.pairing == (0, 1)
    assert rep.max_abs_error == pytest.approx(2e-3)


def paired_sum(rep, recovered, truth):
    cols = list(rep.pairing)
    return float(np.sum(np.abs(recovered.xs - truth.xs[cols]) + np.abs(recovered.ys - truth.ys[cols])))


def test_match_agrees_with_brute_force(rng):
    cases = []
    for _ in range(50):
        n = int(rng.integers(2, 5))
        truth = random_dataset(rng, n)
        perm = rng.permutation(n)
        noisy = Dataset(
            truth.xs[perm] + rng.normal(0, 0.01, n),
            truth.ys[perm] + rng.normal(0, 0.01, n),
        )
        cases.append((noisy, truth))
    for n in range(1, 8):
        for _ in range(3):
            # small integers: many pairings share the least sum
            small = [Dataset(rng.integers(0, 3, n).astype(float), rng.integers(0, 3, n).astype(float))
                     for _ in range(2)]
            # duplicate instances, the recovered side permuted
            dup = Dataset(rng.choice(rng.uniform(0, 1, 2), n), rng.choice(rng.uniform(0, 1, 2), n))
            perm = rng.permutation(n)
            cases += [tuple(small), (Dataset(dup.xs[perm], dup.ys[perm]), dup)]
    for recovered, truth in cases:
        rep = match_solutions(recovered, truth)
        assert sorted(rep.pairing) == list(range(truth.n))
        assert paired_sum(rep, recovered, truth) == pytest.approx(brute_force_best_sum(recovered, truth))


def test_match_total_equals_scipy(rng):
    from scipy.optimize import linear_sum_assignment

    for n in (8, 13, 21, 34, 50):
        for ties in (False, True):
            draw = (lambda: rng.integers(0, 4, n).astype(float)) if ties else (lambda: rng.uniform(-1, 1, n))
            recovered, truth = Dataset(draw(), draw()), Dataset(draw(), draw())
            cost = (np.abs(recovered.xs[:, None] - truth.xs[None, :])
                    + np.abs(recovered.ys[:, None] - truth.ys[None, :]))
            rows, cols = linear_sum_assignment(cost)
            rep = match_solutions(recovered, truth)
            assert sorted(rep.pairing) == list(range(n))
            assert paired_sum(rep, recovered, truth) == pytest.approx(cost[rows, cols].sum(), rel=1e-12)
            assert match_solutions(recovered, truth) == rep  # same input, same pairing


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1.0, 1e150, 4e307])
def test_match_pairs_any_scale_without_warning(rng, scale):
    # any finite coordinates pair without an overflow (a RuntimeWarning is an
    # error here): every cost and the pairing's potentials stay finite
    for _ in range(30):
        unit = [Dataset(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)) for _ in range(2)]
        rep = match_solutions(*(Dataset(d.xs * scale, d.ys * scale) for d in unit))
        assert paired_sum(rep, *unit) == pytest.approx(brute_force_best_sum(*unit))
        assert np.isfinite(rep.max_abs_error)
    # differences beyond float64's range: the exact pairing is still found,
    # and an error too large for a float64 is reported as inf
    rep = match_solutions(Dataset([1e308, -1e308, 0], [0, 0, 0]),
                          Dataset([-1e308, 0, 1e308], [0, 0, 0]))
    assert (rep.pairing, rep.max_abs_error) == ((2, 0, 1), 0.0)
    rep = match_solutions(Dataset([1e308], [0]), Dataset([-1e308], [0]))
    assert (rep.pairing, rep.max_abs_error) == ((0,), np.inf)


def test_match_size_mismatch():
    with pytest.raises(ValueError):
        match_solutions(Dataset([0.1], [0.2]), Dataset([0.1, 0.2], [0.2, 0.3]))


# --- retrain-and-compare verification ---------------------------------------


def test_verify_exact_reconstruction_passes(rng):
    data = random_dataset(rng, 3)
    tr = train(data, TrainConfig(eta=0.1, epochs=5))
    rep = verify_reconstruction(tr, data)
    assert rep.passed
    assert rep.max_deviation < 1e-12


def test_verify_is_permutation_invariant(rng):
    data = random_dataset(rng, 4)
    tr = train(data, TrainConfig(eta=0.1, epochs=5))
    perm = [2, 0, 3, 1]
    shuffled = Dataset(data.xs[perm], data.ys[perm])
    rep = verify_reconstruction(tr, shuffled)
    assert rep.passed
    assert rep.max_deviation < 1e-12


def test_verify_detects_perturbation(rng):
    data = random_dataset(rng, 2)
    tr = train(data, TrainConfig(eta=0.1, epochs=5))
    xs = data.xs.copy()
    xs[0] += 0.01
    rep = verify_reconstruction(tr, Dataset(xs, data.ys))
    assert not rep.passed
    assert rep.max_deviation > 1e-8
    assert rep.dw.shape == (5,) and rep.db.shape == (5,)


def test_verify_uses_trace_initial_parameters():
    data = Dataset([0.6], [0.5])
    cfg = TrainConfig(eta=0.2, epochs=4, init=Params(0.3, 0.7))
    tr = train(data, cfg)
    assert verify_reconstruction(tr, data).passed


def test_verify_size_mismatch(rng):
    data = random_dataset(rng, 2)
    tr = train(data, TrainConfig(eta=0.1, epochs=3))
    with pytest.raises(ValueError, match="does not match"):
        verify_reconstruction(tr, Dataset([0.1], [0.2]))
