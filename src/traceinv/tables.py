"""Reference training runs on small fixed datasets.

The demo datasets are nested prefixes of four instances; every run uses
eta=0.1 for 5 epochs from (w, b) = (0.5, 0.5).  ``training_table``
renders any run as a fixed-point text table, which is how the expected
values in the test suite were frozen.
"""

from __future__ import annotations

from .model import Dataset, Params, TrainConfig, train
from .trace import _checked

__all__ = [
    "DEMO_CONFIG",
    "DEMO_XS",
    "DEMO_YS",
    "demo_dataset",
    "demo_tables",
    "training_table",
]

DEMO_XS = (0.6, 0.2, 0.1, 0.9)
DEMO_YS = (0.5, 0.4, 0.3, 0.6)

DEMO_CONFIG = TrainConfig(eta=0.1, epochs=5, init=Params(0.5, 0.5))


def demo_dataset(n):
    """First n instances of the built-in demo data (1 <= n <= 4)."""
    _checked("n", n, f"between 1 and {len(DEMO_XS)}", ge=1, le=len(DEMO_XS), integer=True)
    return Dataset(DEMO_XS[:n], DEMO_YS[:n])


def _cell(values, decimals):
    if len(values) == 1:
        return f"{values[0]:.{decimals}f}"
    return "(" + ", ".join(f"{v:.{decimals}f}" for v in values) + ")"


def training_table(data, cfg=DEMO_CONFIG, decimals=3):
    """Render a training run as an aligned text table.

    One row per epoch: parameters, per-instance predictions, and loss,
    all rounded to ``decimals`` places (an integer >= 0, ``ValueError``
    otherwise).  Multi-instance predictions are shown as a tuple cell.
    """
    _checked("decimals", decimals, "an integer >= 0", ge=0, integer=True)
    tr = train(data, cfg, debug=True)
    rows = [["epoch", "w", "b", "y_hat", "loss"]] + [  # the header is the first row
        [str(j), f"{tr.ws[j]:.{decimals}f}", f"{tr.bs[j]:.{decimals}f}",
         _cell(tr.debug.yhat[j], decimals), f"{tr.debug.loss[j]:.{decimals}f}"]
        for j in range(tr.epochs)
    ]
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join("  ".join(map(str.ljust, row, widths)) for row in rows)


def demo_tables():
    """All four demo runs, labelled, as one printable string."""
    blocks = []
    for n in range(1, len(DEMO_XS) + 1):
        data = demo_dataset(n)
        label = (
            f"demo dataset n={n}: "
            f"x=({', '.join(f'{x:.3f}' for x in data.xs)}) "
            f"y=({', '.join(f'{y:.3f}' for y in data.ys)})"
        )
        blocks.append(label + "\n" + training_table(data))
    return "\n\n".join(blocks)
