"""Residual system construction, analytic Jacobian, and equation counting."""

import math

import numpy as np
import pytest

from traceinv import (
    InsufficientTraceError,
    NetworkShape,
    ReconstructionProblem,
    TrainConfig,
    feasibility,
    jacobian,
    pack,
    residuals,
    train,
    unpack,
)

from conftest import make_trace, random_dataset, reference_residuals


def random_problem(rng, n=None, epochs=None):
    n = n or int(rng.integers(1, 5))
    epochs = epochs or int(rng.integers(2, 7))
    data = random_dataset(rng, n)
    tr = train(data, TrainConfig(eta=0.1, epochs=epochs))
    return data, ReconstructionProblem(tr)


def test_pack_unpack_round_trip(rng):
    xs, ys = rng.normal(size=(2, 4))
    z = pack(xs, ys)
    xs2, ys2 = unpack(z, 4)
    np.testing.assert_array_equal(xs2, xs)
    np.testing.assert_array_equal(ys2, ys)


def test_problem_counts_and_determinedness():
    tr = train(random_dataset(np.random.default_rng(0), 3),
               TrainConfig(eta=0.1, epochs=4))
    p = ReconstructionProblem(tr)
    assert p.n == 3
    assert p.num_unknowns == 6
    assert p.num_residuals == 6  # 3 transitions, 2 equations each
    assert p.is_determined
    assert not ReconstructionProblem(tr.truncated(3)).is_determined


def test_short_trace_rejected():
    tr = make_trace(0.1, 1, [0.5], [0.5])
    with pytest.raises(InsufficientTraceError, match="need at least 2 epochs"):
        ReconstructionProblem(tr)


def test_ground_truth_zeroes_the_residuals(rng):
    for _ in range(20):
        data, p = random_problem(rng)
        r = residuals(pack(data.xs, data.ys), p)
        assert r.shape == (p.num_residuals,)
        assert np.max(np.abs(r)) < 1e-12


def test_residuals_match_scalar_reference(rng):
    for _ in range(20):
        data, p = random_problem(rng)
        # evaluate away from the root too
        z = pack(data.xs, data.ys) + rng.normal(0, 0.3, p.num_unknowns)
        got = residuals(z, p)
        xs, ys = unpack(z, p.n)
        want = reference_residuals(xs, ys, p.trace.ws, p.trace.bs, p.trace.eta)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_residual_interleaving_by_hand():
    # n=1, two epochs, small hand-checkable numbers
    tr = make_trace(0.1, 1, [0.5, 0.489], [0.5, 0.482])
    p = ReconstructionProblem(tr)
    x, y = 0.6, 0.5
    t = math.tanh(0.5 * 0.6 + 0.5)
    z_val = (t - y) * (1 - t * t)
    r = residuals(np.array([x, y]), p)
    assert r[0] == pytest.approx(x * z_val - 5 * (0.500 - 0.489), abs=1e-12)
    assert r[1] == pytest.approx(z_val - 5 * (0.500 - 0.482), abs=1e-12)


def test_epoch_zero_targets_match_published_arithmetic():
    # at x=0, y=tanh(b0) every epoch-0 summand vanishes, so the first two
    # residuals are minus the epoch-0 right-hand sides
    p1 = ReconstructionProblem(make_trace(0.1, 1, [0.500, 0.489], [0.500, 0.482]))
    r = residuals(np.array([0.0, math.tanh(0.5)]), p1)
    assert r[0] == pytest.approx(-0.055, abs=1e-12)
    assert r[1] == pytest.approx(-0.090, abs=1e-12)

    p2 = ReconstructionProblem(
        make_trace(0.1, 2, [0.5, 0.4925472, 0.4855530], [0.5, 0.4810773, 0.4634884])
    )
    z = np.array([0.0, 0.0, math.tanh(0.5), math.tanh(0.5)])
    r = residuals(z, p2)
    assert r[0] == pytest.approx(-10 * (0.5 - 0.4925472), abs=1e-12)
    assert r[1] == pytest.approx(-10 * (0.5 - 0.4810773), abs=1e-12)


def test_jacobian_structure_special_cases(rng):
    # n=1: the label column of every bias row is -(1 - T_j(x)^2)
    _, p = random_problem(rng, n=1, epochs=4)
    x = 0.37
    J = jacobian(np.array([x, 0.2]), p)
    T = np.tanh(p.trace.ws[:-1] * x + p.trace.bs[:-1])
    np.testing.assert_allclose(J[1::2, 1], -(1 - T**2), rtol=1e-15)

    # zero inputs: weight rows do not depend on the labels
    _, p = random_problem(rng, n=3, epochs=3)
    J = jacobian(np.concatenate([np.zeros(3), rng.uniform(-1, 1, 3)]), p)
    np.testing.assert_array_equal(J[0::2, 3:], np.zeros((2, 3)))


def test_wrong_z_length_rejected(rng):
    _, p = random_problem(rng, n=2)
    with pytest.raises(ValueError):
        residuals(np.zeros(3), p)
    with pytest.raises(ValueError):
        jacobian(np.zeros(5), p)


def test_jacobian_matches_central_differences(rng):
    for _ in range(30):
        _, p = random_problem(rng)
        z = rng.uniform(-1, 1, p.num_unknowns)
        J = jacobian(z, p)
        h = 1e-6
        fd = np.empty_like(J)
        for k in range(p.num_unknowns):
            e = np.zeros(p.num_unknowns)
            e[k] = h
            fd[:, k] = (residuals(z + e, p) - residuals(z - e, p)) / (2 * h)
        denom = max(1.0, np.max(np.abs(J)))
        assert np.max(np.abs(J - fd)) / denom < 1e-6


def test_residuals_affine_in_labels(rng):
    # the label columns of the Jacobian do not depend on y
    _, p = random_problem(rng, n=3)
    x = rng.uniform(0, 1, 3)
    J1 = jacobian(np.concatenate([x, rng.uniform(-1, 1, 3)]), p)
    J2 = jacobian(np.concatenate([x, rng.uniform(-1, 1, 3)]), p)
    np.testing.assert_allclose(J1[:, 3:], J2[:, 3:], rtol=0, atol=1e-15)


def test_pair_permutation_symmetry(rng):
    data, p = random_problem(rng, n=4)
    z = pack(data.xs, data.ys) + rng.normal(0, 0.1, 8)
    xs, ys = unpack(z, 4)
    perm = rng.permutation(4)
    r1 = residuals(z, p)
    r2 = residuals(pack(xs[perm], ys[perm]), p)
    np.testing.assert_allclose(r1, r2, rtol=0, atol=1e-14)


# --- counting ---------------------------------------------------------------


def test_feasibility_single_neuron_special_case():
    # width 1, two layers: 2I unknowns, 2 equations per epoch, so E >= I
    for instances in range(1, 9):
        for epochs in range(1, 9):
            rep = feasibility(NetworkShape(width=1, layers=2,
                                           instances=instances, epochs=epochs))
            assert rep.unknowns == 2 * instances
            assert rep.equations == 2 * epochs
            assert rep.feasible == (epochs >= instances)
            assert rep.min_epochs == instances


def test_feasibility_general_formula(rng):
    shapes = [(int(rng.integers(1, 12)), int(rng.integers(2, 9)), int(rng.integers(1, 200)),
               int(rng.integers(1, 100))) for _ in range(20)]
    # beyond 2**53 a float ceiling of unknowns / per_epoch gives 2**59
    shapes.append((3, 2, 2**60 + 1, 1))
    for ell, layers, instances, epochs in shapes:
        rep = feasibility(NetworkShape(ell, layers, instances, epochs))
        unknowns = ell * layers * instances
        per_epoch = ell * (ell + 1) * (layers - 1)
        assert rep.unknowns == unknowns
        assert rep.equations == per_epoch * epochs
        assert rep.feasible == (rep.equations >= rep.unknowns)
        assert rep.min_epochs == -(-unknowns // per_epoch)
        # feasibility flips exactly at min_epochs
        at_min = feasibility(NetworkShape(ell, layers, instances, rep.min_epochs))
        assert at_min.feasible
        if rep.min_epochs > 1:
            below = feasibility(
                NetworkShape(ell, layers, instances, rep.min_epochs - 1)
            )
            assert not below.feasible


def test_feasibility_epochs_count_updates(rng):
    # NetworkShape.epochs counts parameter updates: a trace of E recorded
    # epochs shows E - 1 of them, and is determined exactly when feasible
    for n in range(1, 5):
        data = random_dataset(rng, n)
        for epochs in range(2, 8):
            trace = train(data, TrainConfig(eta=0.1, epochs=epochs))
            rep = feasibility(NetworkShape(1, 2, n, epochs - 1))
            problem = ReconstructionProblem(trace)
            assert rep.feasible == problem.is_determined
            assert rep.min_epochs + 1 == n + 1


def test_feasibility_infeasible_example():
    rep = feasibility(NetworkShape(width=1, layers=2, instances=5, epochs=3))
    assert not rep.feasible
    assert rep.min_epochs == 5
    assert "heuristic" in rep.label


def test_network_shape_validation():
    with pytest.raises(ValueError):
        NetworkShape(width=0, layers=2, instances=1, epochs=1)
    with pytest.raises(ValueError):
        NetworkShape(width=1, layers=1, instances=1, epochs=1)
    with pytest.raises(ValueError):
        NetworkShape(width=1, layers=2, instances=0, epochs=1)
    with pytest.raises(ValueError):
        NetworkShape(width=1, layers=2, instances=1, epochs=0)
    for name in ("width", "layers", "instances", "epochs"):
        for value in (2.5, True, "3", np.array([3]), np.inf):
            with pytest.raises(ValueError, match=f"^{name} must be >= "):
                NetworkShape(**{"width": 1, "layers": 2, "instances": 1, "epochs": 1,
                                name: value})
    assert feasibility(NetworkShape(np.int64(1), np.int64(2), np.int64(3), 3)).feasible
    # an integer beyond float64's range counts exactly
    assert feasibility(NetworkShape(1, 2, 10**400, 1)).min_epochs == 10**400
