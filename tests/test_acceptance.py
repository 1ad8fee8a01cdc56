"""End-to-end acceptance checks, one test per criterion.

Each test prints one ``ACCEPTANCE k (<name>): PASS|FAIL`` line directly
to the terminal (bypassing capture) and enforces both the numeric
tolerance and the runtime budget for that criterion.
"""

import re
import time
from contextlib import contextmanager

import numpy as np
import pytest

from traceinv import (
    Dataset,
    NetworkShape,
    ReconstructionProblem,
    SolverConfig,
    TrainConfig,
    demo_dataset,
    demo_tables,
    dumps_trace,
    feasibility,
    gradients,
    jacobian,
    loads_trace,
    match_solutions,
    mse,
    forward,
    Params,
    residuals,
    save_trace,
    solve,
    solve_n1,
    train,
)
from traceinv.cli import main as cli_main
from traceinv.trace import save_dataset

from conftest import make_trace


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def _criterion(number, name, budget_seconds):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\nACCEPTANCE {number} ({name}): FAIL")
            raise
        elapsed = time.perf_counter() - start
        status = "PASS" if elapsed < budget_seconds else "FAIL"
        with capsys.disabled():
            print(f"\nACCEPTANCE {number} ({name}): {status} [{elapsed:.2f}s"
                  f" of {budget_seconds:g}s budget]")
        assert elapsed < budget_seconds, (
            f"criterion {number} exceeded its {budget_seconds}s budget"
        )

    return _criterion


# every cell of the four reference runs, 3-decimal strings
GOLDEN = {
    1: dict(
        w=["0.500", "0.489", "0.479", "0.469", "0.460"],
        b=["0.500", "0.482", "0.464", "0.448", "0.433"],
        yhat=["0.664", "0.650", "0.636", "0.623", "0.610"],
        loss=["0.027", "0.022", "0.019", "0.015", "0.012"],
    ),
    2: dict(
        w=["0.500", "0.493", "0.486", "0.479", "0.473"],
        b=["0.500", "0.481", "0.463", "0.447", "0.432"],
        yhat=["(0.664, 0.537)", "(0.651, 0.522)", "(0.638, 0.508)",
              "(0.626, 0.495)", "(0.615, 0.483)"],
        loss=["0.023", "0.019", "0.015", "0.012", "0.010"],
    ),
    3: dict(
        w=["0.500", "0.494", "0.488", "0.483", "0.479"],
        b=["0.500", "0.477", "0.456", "0.437", "0.420"],
        yhat=["(0.664, 0.537, 0.501)", "(0.649, 0.520, 0.483)",
              "(0.635, 0.504, 0.466)", "(0.621, 0.488, 0.451)",
              "(0.609, 0.474, 0.436)"],
        loss=["0.029", "0.023", "0.019", "0.015", "0.012"],
    ),
    4: dict(
        w=["0.500", "0.493", "0.486", "0.479", "0.473"],
        b=["0.500", "0.480", "0.461", "0.444", "0.428"],
        yhat=["(0.664, 0.537, 0.501, 0.740)", "(0.650, 0.521, 0.485, 0.727)",
              "(0.637, 0.507, 0.470, 0.715)", "(0.624, 0.493, 0.455, 0.704)",
              "(0.612, 0.479, 0.442, 0.693)"],
        loss=["0.026", "0.022", "0.018", "0.015", "0.012"],
    ),
}


def test_criterion_1_golden_tables(criterion):
    with criterion(1, "golden tables", 1.0):
        blocks = demo_tables().split("\n\n")
        assert len(blocks) == 4
        for block in blocks:
            lines = block.splitlines()
            n = int(re.match(r"demo dataset n=(\d)", lines[0]).group(1))
            rows = lines[2:]
            assert len(rows) == 5
            for j, row in enumerate(rows):
                epoch, w, b, yhat, loss = (
                    c.strip() for c in re.split(r"\s{2,}", row.strip())
                )
                assert epoch == str(j)
                assert w == GOLDEN[n]["w"][j], (n, j, "w")
                assert b == GOLDEN[n]["b"][j], (n, j, "b")
                assert yhat == GOLDEN[n]["yhat"][j], (n, j, "yhat")
                assert loss == GOLDEN[n]["loss"][j], (n, j, "loss")


def test_criterion_2_single_instance_recovery(criterion):
    with criterion(2, "single-instance recovery", 1.0):
        # from the published 3-decimal values
        rounded = ReconstructionProblem(
            make_trace(0.1, 1, [0.500, 0.489], [0.500, 0.482])
        )
        res = solve_n1(rounded)
        assert abs(res.recovered.xs[0] - 0.6) < 0.02

        # from the regenerated full-precision trace, via both routes
        full = ReconstructionProblem(
            train(demo_dataset(1), TrainConfig(eta=0.1, epochs=5))
        )
        for res in (solve_n1(full), solve(full)):
            assert res.converged
            assert abs(res.recovered.xs[0] - 0.6) < 1e-6
            assert abs(res.recovered.ys[0] - 0.5) < 1e-6


def test_criterion_3_two_instance_recovery(criterion):
    import scipy.optimize  # the budget times the attack, not scipy's first import
    with criterion(3, "two-instance recovery at 7 digits", 1.0):
        tr = train(demo_dataset(2), TrainConfig(eta=0.1, epochs=5))
        observed = loads_trace(dumps_trace(tr, digits=7)).truncated(3)
        res = solve(ReconstructionProblem(observed))
        assert res.converged
        assert res.starts_tried == 1  # the fixed first start suffices
        published = Dataset([0.599961, 0.200118], [0.500027, 0.400007])
        assert match_solutions(res.recovered, published).max_abs_error < 5e-4


def test_criterion_4_derivative_property_suite(criterion):
    with criterion(4, "gradient and Jacobian vs finite differences", 10.0):
        rng = np.random.default_rng(42)
        h = 1e-6

        for _ in range(1000):
            n = int(rng.integers(1, 7))
            data = Dataset(rng.uniform(0.05, 0.95, n), rng.uniform(0.05, 0.95, n))
            w, b = rng.normal(0.5, 0.5, 2)
            dw, db = gradients(Params(w, b), data)

            def loss_at(w_, b_):
                return mse(forward(Params(w_, b_), data.xs), data.ys)

            fd_w = (loss_at(w + h, b) - loss_at(w - h, b)) / (2 * h)
            fd_b = (loss_at(w, b + h) - loss_at(w, b - h)) / (2 * h)
            assert abs(dw - fd_w) / max(1.0, abs(dw)) < 1e-6
            assert abs(db - fd_b) / max(1.0, abs(db)) < 1e-6

        for _ in range(1000):
            n = int(rng.integers(1, 5))
            epochs = int(rng.integers(2, 6))
            data = Dataset(rng.uniform(0.05, 0.95, n), rng.uniform(0.05, 0.95, n))
            p = ReconstructionProblem(train(data, TrainConfig(eta=0.1, epochs=epochs)))
            z = rng.uniform(-1, 1, 2 * n)
            J = jacobian(z, p)
            fd = np.empty_like(J)
            for k in range(2 * n):
                e = np.zeros(2 * n)
                e[k] = h
                fd[:, k] = (residuals(z + e, p) - residuals(z - e, p)) / (2 * h)
            assert np.max(np.abs(J - fd)) / max(1.0, np.max(np.abs(J))) < 1e-6


def test_criterion_5_round_trip_attack(criterion, tmp_path, capsys):
    with criterion(5, "round-trip attack on random datasets", 120.0):
        rng = np.random.default_rng(20260823)
        counts = {}
        for n in (1, 2, 3, 4):
            converged = 0
            for case in range(50):
                xs = rng.uniform(0.05, 0.95, n)
                ys = rng.uniform(0.05, 0.95, n)
                data = Dataset(xs, ys)
                tr = train(data, TrainConfig(eta=0.1, epochs=n + 1))
                res = solve(ReconstructionProblem(tr), SolverConfig(seed=case))
                if not res.converged:
                    continue
                converged += 1
                tpath = tmp_path / f"c5-{n}-{case}.trace"
                dpath = tmp_path / f"c5-{n}-{case}.dataset"
                save_trace(tr, tpath)
                save_dataset(res.recovered, dpath)
                assert cli_main(["verify", str(tpath), str(dpath)]) == 0
            counts[n] = converged
            assert converged >= 45, f"n={n}: only {converged}/50 converged"
        with capsys.disabled():
            print(f"\n  (criterion 5 convergence: "
                  + ", ".join(f"n={n}: {c}/50" for n, c in counts.items()) + ")")


def test_criterion_6_feasibility_counting(criterion):
    with criterion(6, "feasibility counting", 1.0):
        # single neuron special case: 2I unknowns, 2 equations per epoch
        for instances in range(1, 11):
            for epochs in range(1, 11):
                rep = feasibility(
                    NetworkShape(width=1, layers=2, instances=instances,
                                 epochs=epochs)
                )
                assert rep.unknowns == 2 * instances
                assert rep.equations == 2 * epochs
                assert rep.feasible == (epochs >= instances)
                assert rep.min_epochs == instances

        rng = np.random.default_rng(6)
        for _ in range(20):
            ell = int(rng.integers(1, 16))
            layers = int(rng.integers(2, 10))
            instances = int(rng.integers(1, 500))
            epochs = int(rng.integers(1, 200))
            rep = feasibility(NetworkShape(ell, layers, instances, epochs))
            unknowns = ell * layers * instances
            per_epoch = ell * (ell + 1) * (layers - 1)
            assert rep.unknowns == unknowns
            assert rep.equations == per_epoch * epochs
            assert rep.feasible == (per_epoch * epochs >= unknowns)
            assert rep.min_epochs == -(-unknowns // per_epoch)


def test_criterion_7_trace_round_trip(criterion, tmp_path):
    with criterion(7, "lossless trace serialization", 5.0):
        from traceinv import ParamTrace, TraceDebug, load_trace

        rng = np.random.default_rng(7)
        for case in range(1000):
            epochs = int(rng.integers(1, 11))
            n = int(rng.integers(1, 5))
            scale = 10.0 ** rng.integers(-8, 9)
            debug = None
            if case % 4 == 0:
                debug = TraceDebug(
                    yhat=rng.uniform(-1, 1, (epochs, n)),
                    loss=rng.uniform(0, 4, epochs),
                )
            tr = ParamTrace(
                eta=float(rng.uniform(1e-6, 10.0)),
                n=n,
                ws=rng.normal(0, scale, epochs),
                bs=rng.normal(0, scale, epochs),
                debug=debug,
            )
            assert loads_trace(dumps_trace(tr)) == tr
            if case % 40 == 0:
                path = tmp_path / "c7.trace"
                save_trace(tr, path)
                assert load_trace(path) == tr
