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
    match_solutions,
    pack,
    residuals,
    solve,
    solve_n1,
    train,
    verify_reconstruction,
)

from conftest import make_trace, random_dataset


def problem_for(data, epochs, eta=0.1, digits=None):
    tr = train(data, TrainConfig(eta=eta, epochs=epochs))
    if digits is not None:
        from traceinv import dumps_trace, loads_trace

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
    for p in (frozen, saturated):
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
    # 7-digit rounding makes the 5-epoch system inconsistent
    data = Dataset([0.6, 0.2], [0.5, 0.4])
    p = problem_for(data, epochs=5, digits=7)
    res = solve(p, SolverConfig(multistart_count=2))
    assert not res.converged
    assert res.starts_tried == 2
    assert res.residual_norm > 1e-10


def test_box_bounds_clip_the_iterates(rng):
    data = random_dataset(rng, 2)
    p = problem_for(data, epochs=3)
    res = solve(p, SolverConfig(box_bounds=(-1.0, 1.0)))
    assert np.all(res.recovered.xs >= -1.0) and np.all(res.recovered.xs <= 1.0)
    assert np.all(res.recovered.ys >= -1.0) and np.all(res.recovered.ys <= 1.0)
    if res.converged:
        assert match_solutions(res.recovered, data).max_abs_error < 1e-6


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(residual_tolerance=0.0)
    for name in ("residual_tolerance", "step_tolerance", "damping_init"):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: float("nan")})
    with pytest.raises(ValueError):
        SolverConfig(multistart_count=0)
    for bounds in ((1.0, -1.0), (0.5, 0.5)):
        with pytest.raises(ValueError, match="lo < hi"):
            SolverConfig(box_bounds=bounds)


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
