"""Shared helpers: a second, deliberately unvectorized implementation of
the training loop and the per-epoch equations, used to cross-check the
library's numpy versions.  Keep these in plain Python with math.tanh so
the two routes share no code.  ``package_env`` points the subprocess
tests at the package these tests import."""

import math
import os
from pathlib import Path

import numpy as np
import pytest

import traceinv
from traceinv import Dataset, ParamTrace


def reference_loop(xs, ys, eta, epochs, w0=0.5, b0=0.5):
    """Scalar gradient-descent loop; returns (ws, bs, yhats, losses)."""
    n = len(xs)
    w, b = float(w0), float(b0)
    ws, bs, yhats, losses = [], [], [], []
    for _ in range(epochs):
        yhat = [math.tanh(w * x + b) for x in xs]
        loss = sum((yh - y) ** 2 for yh, y in zip(yhat, ys)) / n
        ws.append(w)
        bs.append(b)
        yhats.append(yhat)
        losses.append(loss)
        dw = sum(2.0 * x * (yh - y) * (1.0 - yh * yh)
                 for x, yh, y in zip(xs, yhat, ys)) / n
        db = sum(2.0 * (yh - y) * (1.0 - yh * yh)
                 for yh, y in zip(yhat, ys)) / n
        w -= eta * dw
        b -= eta * db
    return ws, bs, yhats, losses


def reference_residuals(xs, ys, ws, bs, eta):
    """Per-transition equation defects, scalar loops, interleaved w/b."""
    n = len(xs)
    out = []
    for j in range(len(ws) - 1):
        sw = sb = 0.0
        for x, y in zip(xs, ys):
            t = math.tanh(ws[j] * x + bs[j])
            z = (t - y) * (1.0 - t * t)
            sw += x * z
            sb += z
        out.append(sw - n / (2.0 * eta) * (ws[j] - ws[j + 1]))
        out.append(sb - n / (2.0 * eta) * (bs[j] - bs[j + 1]))
    return out


def package_env():
    """Environment for a subprocess that imports the same traceinv as the
    tests: the checkout's or the installed one, whichever is imported here."""
    path = [str(Path(traceinv.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def make_trace(eta, n, ws, bs):
    return ParamTrace(eta=eta, n=n, ws=np.asarray(ws, float), bs=np.asarray(bs, float))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_dataset(rng, n, lo=0.05, hi=0.95):
    return Dataset(rng.uniform(lo, hi, n), rng.uniform(lo, hi, n))
