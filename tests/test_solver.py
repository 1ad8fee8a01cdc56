"""Reconstruction: closed form, damped least squares, matching, verification."""

import itertools

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
    loads_trace,
    match_solutions,
    pack,
    residuals,
    solve,
    solve_n1,
    train,
    verify_reconstruction,
)
from traceinv.solver import _start_points

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
    # a hard instance: the first three starts miss, the fourth finds the root
    cases.append(
        (Dataset([0.3038739050748761], [0.5729710315850822]), SolverConfig(seed=307))
    )
    for data, cfg in cases:
        p = problem_for(data, epochs=2)
        a = solve_n1(p)
        b = solve(p, cfg)
        assert a.converged and b.converged
        assert abs(a.recovered.xs[0] - b.recovered.xs[0]) < 1e-8
        assert abs(a.recovered.ys[0] - b.recovered.ys[0]) < 1e-8


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


def test_solve_nonconvergence_is_reported_not_raised():
    # 7-digit rounding makes the 5-epoch system inconsistent; built in
    # memory, the rounded trace records no precision (quantum 0), so no
    # start stops the loop early
    data = Dataset([0.6, 0.2], [0.5, 0.4])
    rounded = problem_for(data, epochs=5, digits=7).trace
    p = ReconstructionProblem(ParamTrace(rounded.eta, rounded.n, rounded.ws, rounded.bs))
    res = solve(p, SolverConfig(multistart_count=2))
    assert not res.converged
    assert res.starts_tried == 2
    assert res.residual_norm > 1e-10


@pytest.mark.parametrize("n, epochs", [(1, 4), (2, 5)])
def test_solve_stops_within_trace_precision(n, epochs, rng):
    # a 7-digit trace has no exact root; the first start that lands within
    # the rounding quantum ends the search
    for case in range(20):
        data = random_dataset(rng, n)
        p = problem_for(data, epochs=epochs, digits=7)
        assert p.trace.precision == 7 and p.quantum > 0
        res = solve(p, SolverConfig(seed=case))
        assert res.starts_tried == 1
        assert res.within_precision and not res.converged
        assert res.residual_norm <= p.quantum
        # the secret itself is only as exact as the trace
        secret_norm = np.max(np.abs(residuals(pack(data.xs, data.ys), p)))
        assert secret_norm <= p.quantum
        if n == 1:
            assert match_solutions(res.recovered, data).max_abs_error < 1e-4
    exact = problem_for(data, epochs=epochs)
    lossless = ReconstructionProblem(loads_trace(dumps_trace(exact.trace)))
    for q in (exact, lossless):
        assert q.quantum == 0.0
        res = solve(q)
        assert res.within_precision == res.converged


def test_box_bounds_clip_the_iterates(rng):
    data = random_dataset(rng, 2)
    p = problem_for(data, epochs=3)
    res = solve(p, SolverConfig(box_bounds=(-1.0, 1.0)))
    assert np.all(res.recovered.xs >= -1.0) and np.all(res.recovered.xs <= 1.0)
    assert np.all(res.recovered.ys >= -1.0) and np.all(res.recovered.ys <= 1.0)
    if res.converged:
        assert match_solutions(res.recovered, data).max_abs_error < 1e-6
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


def test_start_points_sequence(monkeypatch):
    # start 0 is the clipped guess or default start; start k >= 1 is
    # pack(x draws, y draws) from one default_rng(seed), clipped
    for n, seed, given, box in itertools.product(
        (1, 3), (0, 7, 2**40), (False, True), (None, (-0.5, 0.6))
    ):
        p = problem_for(Dataset(np.linspace(0.1, 0.9, n), np.full(n, 0.4)), epochs=n + 1)
        guess = np.linspace(-1.0, 1.0, 2 * n) if given else None
        first = guess if given else pack([0.5] + [0.0] * (n - 1), np.zeros(n))
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
    assert next(_start_points(p, SolverConfig())).tobytes() == pack([0.5], [0.0]).tobytes()
    assert solve(p).starts_tried == 1


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
    for bounds in ((1.0, -1.0), (0.5, 0.5), (0, None)):
        with pytest.raises(ValueError, match="lo < hi"):
            SolverConfig(box_bounds=bounds)
    for bounds in (("a", "b"), (0, 1, 2), 1.0, (np.zeros(2), np.ones(3))):
        with pytest.raises(ValueError, match="box_bounds must be a pair"):
            SolverConfig(box_bounds=bounds)


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


def test_match_agrees_with_brute_force(rng):
    for _ in range(50):
        n = int(rng.integers(2, 5))
        truth = random_dataset(rng, n)
        perm = rng.permutation(n)
        noisy = Dataset(
            truth.xs[perm] + rng.normal(0, 0.01, n),
            truth.ys[perm] + rng.normal(0, 0.01, n),
        )
        rep = match_solutions(noisy, truth)
        hungarian_sum = sum(
            abs(noisy.xs[i] - truth.xs[rep.pairing[i]])
            + abs(noisy.ys[i] - truth.ys[rep.pairing[i]])
            for i in range(n)
        )
        assert hungarian_sum == pytest.approx(brute_force_best_sum(noisy, truth))


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
