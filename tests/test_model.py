"""Trainer checks against the scalar reference loop and finite differences."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from traceinv import (
    DIVERGENCE_LIMIT,
    Dataset,
    Params,
    TrainConfig,
    TrainingDivergedError,
    demo_dataset,
    forward,
    gradients,
    mse,
    train,
    training_table,
)
from traceinv.model import _tanh_terms

from conftest import random_dataset, reference_loop


def test_forward_matches_scalar_tanh(rng):
    for _ in range(100):
        w, b = rng.normal(size=2)
        xs = rng.uniform(-2, 2, rng.integers(1, 7))
        got = forward(Params(w, b), xs)
        want = [math.tanh(w * x + b) for x in xs]
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
        assert np.all(np.abs(got) < 1.0)  # strictly inside (-1, 1) here


def test_forward_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        forward(Params(0.5, 0.5), [])
    with pytest.raises(ValueError):
        forward(Params(0.5, 0.5), [0.1, float("nan")])
    with pytest.raises(ValueError):
        forward(Params(float("inf"), 0.5), [0.1])


def test_forward_saturates_but_stays_finite():
    out = forward(Params(100.0, 0.0), [5.0, -5.0])
    assert out[0] == 1.0 and out[1] == -1.0


def test_mse_matches_scalar_mean(rng):
    for _ in range(100):
        n = rng.integers(1, 8)
        yhat = rng.uniform(-1, 1, n)
        ys = rng.uniform(-1, 1, n)
        want = sum((a - b) ** 2 for a, b in zip(yhat, ys)) / n
        assert abs(mse(yhat, ys) - want) < 1e-15
    with pytest.raises(ValueError, match="must be non-empty 1-d arrays of equal length"):
        mse([0.1, 0.2], [0.3])
    with pytest.raises(ValueError, match="non-empty"):
        mse([], [])


def test_gradients_match_scalar_sums(rng):
    for _ in range(200):
        n = int(rng.integers(1, 7))
        data = random_dataset(rng, n)
        params = Params(*rng.normal(0.5, 0.5, 2))
        dw, db = gradients(params, data)
        yhat = [math.tanh(params.w * x + params.b) for x in data.xs]
        want_dw = sum(2 * x * (yh - y) * (1 - yh * yh)
                      for x, yh, y in zip(data.xs, yhat, data.ys)) / n
        want_db = sum(2 * (yh - y) * (1 - yh * yh)
                      for yh, y in zip(yhat, data.ys)) / n
        assert abs(dw - want_dw) < 1e-14
        assert abs(db - want_db) < 1e-14


def test_gradients_match_central_differences(rng):
    h = 1e-6
    for _ in range(200):
        n = int(rng.integers(1, 7))
        data = random_dataset(rng, n)
        w, b = rng.normal(0.5, 0.5, 2)
        dw, db = gradients(Params(w, b), data)

        def loss_at(w_, b_):
            return mse(forward(Params(w_, b_), data.xs), data.ys)

        fd_w = (loss_at(w + h, b) - loss_at(w - h, b)) / (2 * h)
        fd_b = (loss_at(w, b + h) - loss_at(w, b - h)) / (2 * h)
        assert abs(dw - fd_w) < 1e-6 * max(1.0, abs(dw))
        assert abs(db - fd_b) < 1e-6 * max(1.0, abs(db))


def test_gradients_equal_trace_deltas():
    # the parameter moves divided by eta are exactly the gradients
    for xs, ys in ([(0.6,), (0.5,)], [(0.6, 0.2), (0.5, 0.4)]):
        data = Dataset(xs, ys)
        cfg = TrainConfig(eta=0.1, epochs=2)
        tr = train(data, cfg)
        dw, db = gradients(cfg.init, data)
        assert abs(dw - (tr.ws[0] - tr.ws[1]) / 0.1) < 1e-12
        assert abs(db - (tr.bs[0] - tr.bs[1]) / 0.1) < 1e-12
    # single-instance case lands near the published rounded deltas
    dw, db = gradients(Params(0.5, 0.5), Dataset([0.6], [0.5]))
    assert abs(dw - 0.110) < 0.005
    assert abs(db - 0.180) < 0.005


def test_loss_non_increasing_with_small_eta():
    datasets = [
        Dataset([0.6], [0.5]),
        Dataset([0.6, 0.2], [0.5, 0.4]),
        Dataset([0.6, 0.2, 0.1], [0.5, 0.4, 0.3]),
        Dataset([0.6, 0.2, 0.1, 0.9], [0.5, 0.4, 0.3, 0.6]),
    ]
    for data in datasets:
        tr = train(data, TrainConfig(eta=0.01, epochs=40), debug=True)
        assert np.all(np.diff(tr.debug.loss) <= 0)


def test_train_matches_reference_loop(rng):
    for _ in range(25):
        n = int(rng.integers(1, 6))
        data = random_dataset(rng, n)
        eta = float(rng.uniform(0.01, 0.5))
        epochs = int(rng.integers(1, 9))
        w0, b0 = rng.uniform(0, 1, 2)
        tr = train(data, TrainConfig(eta=eta, epochs=epochs, init=Params(w0, b0)),
                   debug=True)
        ws, bs, yhats, losses = reference_loop(data.xs, data.ys, eta, epochs, w0, b0)
        np.testing.assert_allclose(tr.ws, ws, rtol=1e-13)
        np.testing.assert_allclose(tr.bs, bs, rtol=1e-13)
        np.testing.assert_allclose(tr.debug.yhat, yhats, rtol=1e-13)
        np.testing.assert_allclose(tr.debug.loss, losses, rtol=1e-13)
        assert tr.eta == eta and tr.n == n and tr.epochs == epochs


def test_train_steps_are_exact_gradient_steps(rng):
    # each broadcast step is exactly -eta times the batch gradient, which is
    # the identity the attack inverts; the debug block is forward and mse,
    # also at n=300, where numpy sums each row pairwise
    for case in range(61):
        n = 300 if case == 60 else int(rng.integers(1, 7))
        data = random_dataset(rng, n)
        eta = float(rng.uniform(0.01, 2.0))
        epochs = int(rng.integers(1, 12))
        init = Params(*rng.uniform(-1, 1, 2))
        tr = train(data, TrainConfig(eta=eta, epochs=epochs, init=init), debug=True)
        for j in range(epochs):
            params = Params(tr.ws[j], tr.bs[j])
            assert np.array_equal(tr.debug.yhat[j], forward(params, data.xs))
            assert tr.debug.loss[j] == mse(forward(params, data.xs), data.ys)
            if j + 1 < epochs:
                dw, db = gradients(params, data)
                assert tr.ws[j + 1] == tr.ws[j] - eta * dw
                assert tr.bs[j + 1] == tr.bs[j] - eta * db


def test_tanh_terms_on_floats_match_one_element_arrays(rng):
    # train steps one instance on Python floats, so np.tanh's 0-d path must
    # give the bits of its one-element array loop, saturated and tiny too
    w = rng.normal(0.0, 2.0, 3000)
    b = rng.normal(0.0, 1.0, 3000)
    x = rng.uniform(-3.0, 3.0, 3000)
    y = rng.uniform(-1.0, 1.0, 3000)
    w[:1000] = rng.choice([-1.0, 1.0], 1000) * rng.uniform(10.0, 40.0, 1000)
    x[:1000] = rng.choice([-1.0, 1.0], 1000) * rng.uniform(2.0, 3.0, 1000)
    w[1000:2000] = 10.0 ** rng.uniform(-320.0, -5.0, 1000)  # subnormal to 1e-5
    b[1000:2000] = 0.0
    assert np.all(np.abs(w[:1000] * x[:1000] + b[:1000]) > 19.0)
    got = [_tanh_terms(*map(float, point)) for point in zip(w, b, x, y)]
    want = [[v[0] for v in _tanh_terms(float(wi), float(bi), np.array([xi]), np.array([yi]))]
            for wi, bi, xi, yi in zip(w, b, x, y)]
    assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))


def _np_mean_run(data, cfg):
    """train's loop on arrays, stepping through np.mean: (ws, bs), or the
    epoch and message of the divergence it raises."""
    w, b, eta = cfg.init.w, cfg.init.b, cfg.eta
    ws, bs = [w], [b]
    for j in range(1, cfg.epochs):
        T = np.tanh(w * data.xs + b)
        Z = (T - data.ys) * (1.0 - T**2)
        w = w - eta * (2.0 * float(np.mean(data.xs * Z)))
        b = b - eta * (2.0 * float(np.mean(Z)))
        if not (abs(w) <= DIVERGENCE_LIMIT and abs(b) <= DIVERGENCE_LIMIT):
            return j, str(TrainingDivergedError(j, w, b))
        ws.append(w)
        bs.append(b)
    return ws, bs


def _train_run(data, cfg):
    try:
        tr = train(data, cfg)
    except TrainingDivergedError as exc:
        return exc.epoch, str(exc)
    return tr.ws.tolist(), tr.bs.tolist()


@pytest.mark.parametrize("n", [1, 3, 8, 9, 20, 300])
def test_train_matches_np_mean_steps_bit_for_bit(n, rng):
    # the step through np.mean, compared in-process so the test holds for
    # any numpy version and tanh build; n >= 9 takes pairwise summation.
    # One instance steps on Python floats: at eta 2 and 4 its orbit is
    # chaotic, so one differing bit would grow, and huge etas diverge.
    cases = [(random_dataset(rng, n), TrainConfig(eta=0.7, epochs=60))]
    if n == 1:
        for eta in (2.0, 4.0) * 10 + (1e7, 1e9, 1.7e308):
            data = Dataset(rng.uniform(-1.0, 1.0, 1), rng.uniform(-0.9, 0.9, 1))
            init = Params(*map(float, rng.uniform(-1.0, 1.0, 2)))
            cases.append((data, TrainConfig(eta=eta, epochs=300, init=init)))
    outcomes = [_train_run(data, cfg) for data, cfg in cases]
    assert outcomes == [_np_mean_run(data, cfg) for data, cfg in cases]
    if n == 1:
        assert {type(first) for first, _ in outcomes} == {list, int}  # both kinds ran


def test_train_records_before_updating():
    data = Dataset([0.6], [0.5])
    cfg = TrainConfig(eta=0.1, epochs=2)
    tr = train(data, cfg)
    assert tr.ws[0] == cfg.init.w and tr.bs[0] == cfg.init.b
    dw, db = gradients(cfg.init, data)
    assert tr.ws[1] == pytest.approx(cfg.init.w - 0.1 * dw, abs=1e-16)
    assert tr.bs[1] == pytest.approx(cfg.init.b - 0.1 * db, abs=1e-16)


def test_train_single_epoch_is_just_the_init():
    tr = train(Dataset([0.6], [0.5]), TrainConfig(eta=0.1, epochs=1))
    assert tr.epochs == 1
    assert tr.ws.tolist() == [0.5] and tr.bs.tolist() == [0.5]


def test_train_without_debug_has_no_debug_block():
    tr = train(Dataset([0.6], [0.5]), TrainConfig(eta=0.1, epochs=3))
    assert tr.debug is None


def test_stationary_dataset_leaves_parameters_unchanged():
    # residual of a perfectly fit point is zero, so every epoch repeats
    x = 0.3
    y = math.tanh(0.5 * x + 0.5)
    tr = train(Dataset([x], [y]), TrainConfig(eta=0.1, epochs=4))
    assert tr.ws.tolist() == [0.5] * 4
    assert tr.bs.tolist() == [0.5] * 4


def test_train_config_rejects_bad_values():
    # a Python int beyond float64's range is no finite real number either
    for eta in (0.0, -0.1, math.inf, math.nan, np.array([0.1]), "0.1", None, True, 10**400,
                np.bool_(True), Decimal("0.1")):
        with pytest.raises(ValueError, match="^eta must be a finite real number > 0"):
            TrainConfig(eta=eta, epochs=5)
    for epochs in (0, -3, 2.5, 3.0, True, np.bool_(True), Decimal(3), np.array([3]), "3"):
        with pytest.raises(ValueError, match="^epochs must be an integer >= 1"):
            TrainConfig(eta=0.1, epochs=epochs)
    for w, b, name in ((np.array([0.5]), 0.5, "w"), (0.5, math.nan, "b"), (0.5, -math.inf, "b"),
                       (math.inf, 0.5, "w"), ("0.5", 0.5, "w"), (0.5, None, "b"),
                       (10**400, 0.5, "w"), (0.5, -10**400, "b"), (True, 0.5, "w")):
        with pytest.raises(ValueError, match=f"^{name} must be a finite real number"):
            Params(w, b)
    # numpy scalars, Python ints and fractions are numbers too, and train steps in float64
    want = TrainConfig(eta=0.5, epochs=4, init=Params(1.0, 0.25))
    for eta in (np.float32(0.5), Fraction(1, 2)):
        cfg = TrainConfig(eta=eta, epochs=np.int64(4), init=Params(1, np.float32(0.25)))
        for n in (1, 2):
            data = random_dataset(np.random.default_rng(n), n)
            assert np.array_equal(train(data, cfg).ws, train(data, want).ws)
            assert np.array_equal(train(data, cfg).bs, train(data, want).bs)


def test_train_divergence_raises_and_names_epoch():
    with pytest.raises(TrainingDivergedError) as excinfo:
        train(Dataset([0.6], [-0.9]), TrainConfig(eta=1e9, epochs=5))
    assert excinfo.value.epoch == 1
    assert "epoch 1" in str(excinfo.value)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset([], [])
    with pytest.raises(ValueError):
        Dataset([0.1, 0.2], [0.3])
    with pytest.raises(ValueError):
        Dataset([0.1], [float("nan")])
    with pytest.raises(ValueError, match="1-d"):
        Dataset([[0.1, 0.2]], [0.3, 0.4])
    for n in (0, 5, 2.5, True, "3", np.array([3])):  # the built-in demo data has 4 instances
        with pytest.raises(ValueError, match="between 1 and 4"):
            demo_dataset(n)
    assert demo_dataset(np.int64(2)) == demo_dataset(2)
    for decimals in (-1, True, 1.5, "3", None):
        with pytest.raises(ValueError, match="^decimals must be an integer >= 0"):
            training_table(demo_dataset(1), decimals=decimals)
    assert training_table(demo_dataset(1), decimals=np.int64(2)) == training_table(
        demo_dataset(1), decimals=2)
    data = Dataset([0.1, 0.2], [0.3, 0.4])
    assert data.n == 2
    assert data == Dataset([0.1, 0.2], [0.3, 0.4])
    assert data != Dataset([0.1, 0.2], [0.3, 0.5])
