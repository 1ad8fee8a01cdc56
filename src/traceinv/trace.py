"""Parameter traces and their on-disk text format.

A trace is the eavesdropper's entire view of a training run: the learning
rate, the (public) dataset size, and the per-epoch weight/bias values.  An
optional debug block additionally stores per-epoch predictions and loss;
it exists for inspection and testing only and is never consumed by the
reconstruction code.

File format (line oriented, one token group per line)::

    traceinv-trace 1
    eta 0.1
    n 2
    epochs 5
    epoch 0 0.5 0.5
    epoch 1 0.4925472147292056 0.4810772733505563
    ...
    debug 0 0.0228489... 0.6640367702678489 0.5370495669980353
    ...

Blank lines and lines starting with ``#`` are ignored.  Floats are written
with their shortest round-trip representation by default, so a save/load
cycle is bit-exact; ``digits`` trades that exactness for a fixed number of
significant digits (``debug <j> <loss> <yhat...>`` lines follow the same
rendering).
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass

import numpy as np

MAGIC = "traceinv-trace"
FORMAT_VERSION = 1


class TraceParseError(ValueError):
    """Malformed trace file syntax; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class TraceValidationError(ValueError):
    """Structurally valid file whose content violates a trace invariant."""

    def __init__(self, message, rule):
        self.rule = rule
        super().__init__(f"{message} [rule: {rule}]")


@dataclass
class TraceDebug:
    """Per-epoch predictions and loss recorded alongside a trace."""

    yhat: np.ndarray  # shape (epochs, n)
    loss: np.ndarray  # shape (epochs,)

    def __post_init__(self):
        self.yhat = np.atleast_2d(np.asarray(self.yhat, dtype=float))
        self.loss = np.asarray(self.loss, dtype=float)

    def __eq__(self, other):
        if not isinstance(other, TraceDebug):
            return NotImplemented
        return np.array_equal(self.yhat, other.yhat) and np.array_equal(
            self.loss, other.loss
        )


@dataclass
class ParamTrace:
    """Observed per-epoch parameters plus the public metadata eta and n.

    Epoch ``j`` of ``ws``/``bs`` holds the parameter values used in that
    epoch's forward pass, i.e. the values before the j-th update.
    """

    eta: float
    n: int
    ws: np.ndarray
    bs: np.ndarray
    debug: TraceDebug | None = None

    def __post_init__(self):
        self.eta = float(self.eta)
        self.n = int(self.n)
        self.ws = np.asarray(self.ws, dtype=float)
        self.bs = np.asarray(self.bs, dtype=float)
        if not np.isfinite(self.eta) or self.eta <= 0:
            raise TraceValidationError(
                f"eta must be finite and > 0, got {self.eta}", rule="eta-positive"
            )
        if self.n < 1:
            raise TraceValidationError(
                f"n must be >= 1, got {self.n}", rule="n-positive"
            )
        if self.ws.ndim != 1 or self.bs.ndim != 1 or len(self.ws) != len(self.bs):
            raise TraceValidationError(
                "ws and bs must be 1-d arrays of equal length", rule="epoch-count"
            )
        if len(self.ws) < 1:
            raise TraceValidationError(
                "trace needs at least one epoch", rule="epoch-count"
            )
        if not (np.all(np.isfinite(self.ws)) and np.all(np.isfinite(self.bs))):
            raise TraceValidationError(
                "parameter values must be finite", rule="finite-values"
            )
        if self.debug is not None:
            if self.debug.yhat.shape != (self.epochs, self.n) or self.debug.loss.shape != (
                self.epochs,
            ):
                raise TraceValidationError(
                    f"debug block must hold one length-{self.n} yhat vector and one "
                    f"loss per epoch",
                    rule="debug-shape",
                )
            if not (
                np.all(np.isfinite(self.debug.yhat))
                and np.all(np.isfinite(self.debug.loss))
            ):
                raise TraceValidationError(
                    "debug values must be finite", rule="finite-values"
                )

    @property
    def epochs(self):
        return len(self.ws)

    def truncated(self, epochs):
        """Return the prefix of this trace with the first ``epochs`` entries."""
        if not 1 <= epochs <= self.epochs:
            raise ValueError(f"epochs must be in 1..{self.epochs}, got {epochs}")
        debug = None
        if self.debug is not None:
            debug = TraceDebug(self.debug.yhat[:epochs].copy(), self.debug.loss[:epochs].copy())
        return ParamTrace(self.eta, self.n, self.ws[:epochs].copy(), self.bs[:epochs].copy(), debug)

    def __eq__(self, other):
        if not isinstance(other, ParamTrace):
            return NotImplemented
        return (
            self.eta == other.eta
            and self.n == other.n
            and np.array_equal(self.ws, other.ws)
            and np.array_equal(self.bs, other.bs)
            and self.debug == other.debug
        )


def format_float(value, digits=None):
    """Render a float losslessly (default) or with fixed significant digits."""
    if digits is None:
        return repr(float(value))
    return f"{float(value):.{int(digits)}g}"


def save_trace(trace, destination, digits=None):
    """Write ``trace`` to a path or text file object.

    With ``digits=None`` every float round-trips bit-exactly; an integer
    keeps only that many significant digits (e.g. ``digits=7`` mimics a
    low-precision observer).
    """
    lines = [f"{MAGIC} {FORMAT_VERSION}"]
    lines.append(f"eta {format_float(trace.eta, digits)}")
    lines.append(f"n {trace.n}")
    lines.append(f"epochs {trace.epochs}")
    for j in range(trace.epochs):
        lines.append(
            f"epoch {j} {format_float(trace.ws[j], digits)} "
            f"{format_float(trace.bs[j], digits)}"
        )
    if trace.debug is not None:
        for j in range(trace.epochs):
            yhat = " ".join(format_float(v, digits) for v in trace.debug.yhat[j])
            lines.append(f"debug {j} {format_float(trace.debug.loss[j], digits)} {yhat}")
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(os.fspath(destination), "w", encoding="utf-8") as fh:
            fh.write(text)


def iter_records(source, magic):
    """Tokenize a line-oriented file, checking its magic/version header.

    Returns a list of ``(line_number, tokens)``, one for every non-blank,
    non-comment line after the header.  Shared by the trace, dataset, and
    report readers.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(os.fspath(source), "r", encoding="utf-8") as fh:
            text = fh.read()
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = text.splitlines()
    records = []
    header = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header is None:
            header = tokens
            if len(tokens) != 2 or tokens[0] != magic:
                raise TraceParseError(
                    f"expected header '{magic} <version>', got {raw!r}", line=lineno
                )
            if tokens[1] != str(FORMAT_VERSION):
                raise TraceParseError(
                    f"unsupported format version {tokens[1]!r}", line=lineno
                )
            continue
        records.append((lineno, tokens))
    if header is None:
        raise TraceParseError("empty file, missing header line")
    return records


def parse_float(token, lineno):
    try:
        value = float(token)
    except ValueError:
        raise TraceParseError(f"not a number: {token!r}", line=lineno) from None
    return value


def parse_int(token, lineno):
    try:
        return int(token)
    except ValueError:
        raise TraceParseError(f"not an integer: {token!r}", line=lineno) from None


def load_trace(source):
    """Read a trace from a path or file object, validating all invariants."""
    fields = {}
    epochs_seen = []
    debug_seen = {}
    for lineno, tokens in iter_records(source, MAGIC):
        key = tokens[0]
        if key in ("eta", "n", "epochs"):
            if len(tokens) != 2:
                raise TraceParseError(f"'{key}' takes one value", line=lineno)
            if key in fields:
                raise TraceValidationError(
                    f"duplicate field '{key}'", rule="duplicate-field"
                )
            if key == "eta":
                fields[key] = parse_float(tokens[1], lineno)
            else:
                fields[key] = parse_int(tokens[1], lineno)
        elif key == "epoch":
            if len(tokens) != 4:
                raise TraceParseError(
                    "'epoch' record needs: epoch <j> <w> <b>", line=lineno
                )
            j = parse_int(tokens[1], lineno)
            w = parse_float(tokens[2], lineno)
            b = parse_float(tokens[3], lineno)
            epochs_seen.append((j, w, b, lineno))
        elif key == "debug":
            if len(tokens) < 4:
                raise TraceParseError(
                    "'debug' record needs: debug <j> <loss> <yhat...>", line=lineno
                )
            j = parse_int(tokens[1], lineno)
            loss = parse_float(tokens[2], lineno)
            yhat = [parse_float(t, lineno) for t in tokens[3:]]
            if j in debug_seen:
                raise TraceValidationError(
                    f"duplicate debug record for epoch {j}", rule="debug-shape"
                )
            debug_seen[j] = (loss, yhat)
        else:
            raise TraceParseError(f"unknown record type {key!r}", line=lineno)

    for key in ("eta", "n", "epochs"):
        if key not in fields:
            raise TraceValidationError(
                f"missing required field '{key}'", rule="missing-field"
            )
    if fields["epochs"] < 1:
        raise TraceValidationError(
            f"epochs must be >= 1, got {fields['epochs']}", rule="epochs-positive"
        )
    indices = [j for j, _, _, _ in epochs_seen]
    if indices != list(range(fields["epochs"])):
        raise TraceValidationError(
            f"epoch records must be 0..{fields['epochs'] - 1} in order, got {indices}",
            rule="epoch-contiguous",
        )
    ws = np.array([w for _, w, _, _ in epochs_seen])
    bs = np.array([b for _, _, b, _ in epochs_seen])

    debug = None
    if debug_seen:
        if sorted(debug_seen) != list(range(fields["epochs"])):
            raise TraceValidationError(
                "debug records must cover every epoch exactly once",
                rule="debug-shape",
            )
        for j, (_, yhat) in debug_seen.items():
            if len(yhat) != fields["n"]:
                raise TraceValidationError(
                    f"debug yhat for epoch {j} has {len(yhat)} values, expected n={fields['n']}",
                    rule="debug-shape",
                )
        debug = TraceDebug(
            yhat=np.array([debug_seen[j][1] for j in range(fields["epochs"])]),
            loss=np.array([debug_seen[j][0] for j in range(fields["epochs"])]),
        )

    return ParamTrace(eta=fields["eta"], n=fields["n"], ws=ws, bs=bs, debug=debug)


def dumps_trace(trace, digits=None):
    """Serialize a trace to a string (convenience wrapper over save_trace)."""
    buf = io.StringIO()
    save_trace(trace, buf, digits=digits)
    return buf.getvalue()


def loads_trace(text):
    """Parse a trace from a string."""
    return load_trace(io.StringIO(text))
