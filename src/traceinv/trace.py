"""Datasets, parameter traces, and the on-disk text formats of traces,
datasets, and reconstruction reports.

A dataset is the secret; a trace is the eavesdropper's entire view of a
training run: the learning rate, the (public) dataset size, and the
per-epoch weight/bias values.  An optional debug block additionally
stores per-epoch predictions and loss; it exists for inspection and
testing only and is never consumed by the reconstruction code.

Trace file format (line oriented, one token group per line)::

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

``load_trace`` records the trace's precision: the most significant
digits that any ``epoch`` w or b token carries (leading zeros and the
exponent do not count).  A token of 16 or more digits marks the trace as
lossless, recorded as None, and ends the scan.  A trace built in memory
records none unless given one.  The precision is not part of the file
format and is left out of trace equality.

Dataset and report files share the trace file's line-oriented layout:
a ``magic version`` header, ``key value`` fields, and one
``instance i x y`` record per row.  A reconstruction report carries the
same instance records plus convergence fields, so ``load_dataset`` (and
``traceinv verify``) accepts ``reconstruct`` output directly.

Records of one type may come in any order, but their indices (``j`` of
``epoch`` and ``debug``, ``i`` of ``instance``) must cover 0..count-1
exactly once, the count being the declared ``epochs`` or ``n``.  A wrong
number of records or an index out of range or repeated raises
``TraceValidationError`` with rule ``epoch-contiguous`` for ``epoch``
records and ``debug-shape`` for ``debug`` records (which also raise it
unless each holds ``n`` yhat values).  For ``instance`` records a wrong
number raises ``instance-count`` and a bad index ``instance-contiguous``.
The debug block is optional; when present it covers every epoch.
"""

from __future__ import annotations

import io
import math
import numbers
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

MAGIC = "traceinv-trace"
DATASET_MAGIC = "traceinv-dataset"
REPORT_MAGIC = "traceinv-report"
FORMAT_VERSION = 1


class TraceParseError(ValueError):
    """Malformed trace, dataset, or report file syntax; carries the
    offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class TraceValidationError(ValueError):
    """Structurally valid file whose content violates a format invariant."""

    def __init__(self, message, rule):
        self.rule = rule
        super().__init__(f"{message} [rule: {rule}]")


def _equal(a, b):
    """One field's equality: an ndarray on either side compares
    elementwise (None or a list against an array compares unequal or by
    value, never raising), and two tuples, such as array ``box_bounds``,
    compare item by item under the same rule."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _fields_equal(self, other):
    """``__eq__`` of the dataclasses below and of ``SolverConfig`` and
    ``VerifyReport``: every compared field equal under ``_equal``;
    NotImplemented for another type."""
    if not isinstance(other, type(self)):
        return NotImplemented
    return all(_equal(getattr(self, f.name), getattr(other, f.name))
               for f in fields(self) if f.compare)


# the ABCs alone accept the same values; int and float first skip their slower lookup
_INTEGRAL = (int, numbers.Integral)
_REAL = (float, int, numbers.Real)


def _checked(name, value, expected, ge=-math.inf, le=math.inf, gt=None, integer=False,
             rule=None):
    """The one check of every numeric field: ``value`` unchanged if it is
    an integer (``numbers.Integral``) when ``integer``, else a finite real
    number (``numbers.Real``), never ``bool``, with ``ge <= value <= le``
    and, given ``gt``, ``value > gt``.  Otherwise raises ``ValueError``
    "<name> must be <expected>, got <value!r>", a ``TraceValidationError``
    with ``rule`` when one is given.  The default bounds are infinite
    floats, so an ``np.float32`` compares without a cast overflow."""
    try:
        ok = (isinstance(value, _INTEGRAL if integer else _REAL)
              and not isinstance(value, bool)
              and (integer or math.isfinite(value))
              and ge <= value <= le and (gt is None or value > gt))
    except OverflowError:  # math.isfinite of an int beyond float64's range
        ok = False
    if ok:
        return value
    message = f"{name} must be {expected}, got {value!r}"
    raise ValueError(message) if rule is None else TraceValidationError(message, rule)


@dataclass
class Dataset:
    """Paired input/label vectors; the secret the attack tries to recover."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        self.xs = np.atleast_1d(np.asarray(self.xs, dtype=float))
        self.ys = np.atleast_1d(np.asarray(self.ys, dtype=float))
        if self.xs.ndim != 1 or self.ys.ndim != 1:
            raise ValueError("xs and ys must be 1-d")
        if len(self.xs) != len(self.ys):
            raise ValueError(
                f"xs and ys must have equal length, got {len(self.xs)} and {len(self.ys)}"
            )
        if len(self.xs) == 0:
            raise ValueError("dataset must contain at least one instance")
        if not (np.all(np.isfinite(self.xs)) and np.all(np.isfinite(self.ys))):
            raise ValueError("dataset values must be finite")

    @property
    def n(self):
        return len(self.xs)

    __eq__ = _fields_equal


@dataclass
class TraceDebug:
    """Per-epoch predictions and loss recorded alongside a trace."""

    yhat: np.ndarray  # shape (epochs, n)
    loss: np.ndarray  # shape (epochs,)

    def __post_init__(self):
        self.yhat = np.atleast_2d(np.asarray(self.yhat, dtype=float))
        self.loss = np.asarray(self.loss, dtype=float)

    __eq__ = _fields_equal


@dataclass
class ParamTrace:
    """Observed per-epoch parameters plus the public metadata ``eta``
    (finite, > 0) and ``n`` (an integer >= 1).

    Epoch ``j`` of ``ws``/``bs`` (finite, equal lengths >= 1) holds the
    parameter values used in that epoch's forward pass, i.e. the values
    before the j-th update.  ``precision`` is None for exact values, or
    the integer >= 1 of significant digits they were observed with; it
    does not take part in equality.
    """

    eta: float
    n: int
    ws: np.ndarray
    bs: np.ndarray
    debug: TraceDebug | None = None
    precision: int | None = field(default=None, compare=False)

    def __post_init__(self):
        self.eta = float(_checked("eta", self.eta, "finite and > 0", gt=0, rule="eta-positive"))
        self.n = int(_checked("n", self.n, ">= 1", ge=1, integer=True, rule="n-positive"))
        self.ws = np.asarray(self.ws, dtype=float)
        self.bs = np.asarray(self.bs, dtype=float)
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
        if self.precision is not None:
            self.precision = int(_checked("precision", self.precision, "None or >= 1", ge=1,
                                          integer=True, rule="precision-positive"))
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
        """Return the prefix of this trace with the first ``epochs`` entries;
        every other field carries over."""
        _checked("epochs", epochs, f"in 1..{self.epochs}", ge=1, le=self.epochs, integer=True)
        debug = None
        if self.debug is not None:
            debug = TraceDebug(self.debug.yhat[:epochs].copy(), self.debug.loss[:epochs].copy())
        return replace(
            self, ws=self.ws[:epochs].copy(), bs=self.bs[:epochs].copy(), debug=debug
        )

    __eq__ = _fields_equal


def format_float(value, digits=None):
    """Render a float losslessly (default) or with ``digits`` >= 1
    significant digits."""
    if digits is None:
        return repr(float(value))
    _checked("digits", digits, "None or >= 1", ge=1, integer=True)
    return f"{float(value):.{int(digits)}g}"


def _write_records(destination, magic, lines):
    """Write the ``magic version`` header and ``lines`` to a path or text
    file object; shared by the trace, dataset, and report writers."""
    text = "\n".join([f"{magic} {FORMAT_VERSION}", *lines]) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(os.fspath(destination), "w", encoding="utf-8") as fh:
            fh.write(text)


def save_trace(trace, destination, digits=None):
    """Write ``trace`` to a path or text file object.

    With ``digits=None`` every float round-trips bit-exactly; an integer
    >= 1 keeps only that many significant digits (e.g. ``digits=7``
    mimics a low-precision observer).
    """
    lines = [
        f"eta {format_float(trace.eta, digits)}",
        f"n {trace.n}",
        f"epochs {trace.epochs}",
    ]
    lines += [
        f"epoch {j} {format_float(w, digits)} {format_float(b, digits)}"
        for j, (w, b) in enumerate(zip(trace.ws.tolist(), trace.bs.tolist()))
    ]
    if trace.debug is not None:
        for j in range(trace.epochs):
            yhat = " ".join(format_float(v, digits) for v in trace.debug.yhat[j])
            lines.append(f"debug {j} {format_float(trace.debug.loss[j], digits)} {yhat}")
    _write_records(destination, MAGIC, lines)


def _instance_lines(data):
    return [
        f"instance {i} {format_float(x)} {format_float(y)}"
        for i, (x, y) in enumerate(zip(data.xs.tolist(), data.ys.tolist()))
    ]


def save_dataset(data, destination):
    """Write a dataset file readable by ``load_dataset``."""
    _write_records(destination, DATASET_MAGIC, [f"n {data.n}", *_instance_lines(data)])


def save_report(result, destination):
    """Write a reconstruction report; its instance records make it
    loadable by ``load_dataset`` as well."""
    data = result.recovered
    _write_records(
        destination,
        REPORT_MAGIC,
        [
            f"n {data.n}",
            f"converged {'true' if result.converged else 'false'}",
            f"residual_norm {format_float(result.residual_norm)}",
            f"iterations {result.iterations}",
            f"starts_tried {result.starts_tried}",
            *_instance_lines(data),
        ],
    )


def iter_records(source, *magics):
    """Tokenize a line-oriented file whose header names one of ``magics``.

    ``source`` is a path or a text or bytes file object.  Returns
    ``(magic, records)``: the magic the header named, and a list of
    ``(line_number, tokens)``, one for every non-blank, non-comment line
    after the header.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(os.fspath(source), "r", encoding="utf-8") as fh:
            text = fh.read()
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = enumerate(map(str.strip, text.splitlines()), start=1)
    records = [(lineno, line.split()) for lineno, line in lines if line and line[0] != "#"]
    if not records:
        raise TraceParseError("empty file, missing header line")
    lineno, header = records[0]
    if len(header) != 2 or header[0] not in magics:
        expected = " or ".join(f"'{magic} <version>'" for magic in magics)
        raise TraceParseError(
            f"expected header {expected}, got {' '.join(header)!r}", line=lineno
        )
    if header[1] != str(FORMAT_VERSION):
        raise TraceParseError(f"unsupported format version {header[1]!r}", line=lineno)
    return header[0], records[1:]


def _number(kind, token, lineno):
    """``kind(token)`` for ``kind`` float or int, naming the line on failure."""
    try:
        return kind(token)
    except ValueError:
        raise TraceParseError(f"not a valid {kind.__name__}: {token!r}", line=lineno) from None


def _parse(records, fields, rows, ignore=()):
    """Sort ``records`` into one-value fields and multi-value rows.

    ``fields`` maps each required field to the type of its value.
    ``rows`` maps each row record to its usage line; a usage ending in
    ``...>`` takes any number of trailing values.  ``ignore`` names
    optional fields whose value is checked only for count and repetition.
    Returns the field values (None for an ignored one) and, for each row
    record, its ``(line_number, tokens)`` list for the caller to parse by
    column.
    """
    arity = {key: len(usage.split()) for key, usage in rows.items()}
    found = {key: [] for key in rows}
    values = {}
    for lineno, tokens in records:
        key = tokens[0]
        if key in found:
            if len(tokens) != arity[key] and not (
                len(tokens) > arity[key] and rows[key].endswith("...>")
            ):
                raise TraceParseError(f"'{key}' record needs: {rows[key]}", line=lineno)
            found[key].append((lineno, tokens))
        elif key in fields or key in ignore:
            if len(tokens) != 2:
                raise TraceParseError(f"'{key}' takes one value", line=lineno)
            if key in values:
                raise TraceValidationError(
                    f"duplicate field '{key}'", rule="duplicate-field"
                )
            values[key] = _number(fields[key], tokens[1], lineno) if key in fields else None
        else:
            raise TraceParseError(f"unknown record type {key!r}", line=lineno)
    for key in fields:
        if key not in values:
            raise TraceValidationError(
                f"missing required field '{key}'", rule="missing-field"
            )
    return values, found


def _precision(rows):
    """The most significant digits carried by any w or b token of the
    epoch ``rows``, counting the mantissa's digits without sign, point or
    leading zeros; None (lossless) once one token carries 16 or more, or
    when every value is an exact zero."""
    digits = 0
    for _, tokens in rows:
        for token in tokens[2:4]:
            mantissa = token.lower().partition("e")[0]
            digits = max(digits, len(mantissa.lstrip("+-0.").replace(".", "")))
            if digits >= 16:  # every digit of a float64; stop scanning
                return None
    return digits or None


def _indexed(rows, key, count, rule, count_rule=None):
    """The ``(line_number, tokens)`` rows of record ``key``, in index order.

    ``rows`` is the row map that ``_parse`` returns.  Each row's
    ``tokens[1]`` is its index, and the indices must be 0..count-1, each
    once, in any order; one loop places every row at its index, rows in
    file order included.  A number of rows other than ``count`` raises
    ``count_rule`` (default ``rule``); an index out of range or repeated
    raises ``rule``.  The count is checked first, so a huge declared
    count allocates nothing.
    """
    found = rows[key]
    if len(found) != count:
        raise TraceValidationError(
            f"expected {count} '{key}' records, found {len(found)}", rule=count_rule or rule
        )
    indices = [_number(int, t[1], ln) for ln, t in found]
    ordered = [None] * count
    for j, row in zip(indices, found):
        if not 0 <= j < count or ordered[j] is not None:
            raise TraceValidationError(
                f"line {row[0]}: '{key}' indices must cover 0..{count - 1} exactly once",
                rule=rule,
            )
        ordered[j] = row
    return ordered


def load_trace(source):
    """Read a trace from a path or file object, validating all invariants.

    ``epoch`` and ``debug`` records may come in any order and are stored
    by index.  The returned trace records the precision of its epoch
    values.
    """
    _, records = iter_records(source, MAGIC)
    fields, rows = _parse(
        records,
        {"eta": float, "n": int, "epochs": int},
        {"epoch": "epoch <j> <w> <b>", "debug": "debug <j> <loss> <yhat...>"},
    )
    epochs, n = fields["epochs"], fields["n"]
    if epochs < 1:
        raise TraceValidationError(
            f"epochs must be >= 1, got {epochs}", rule="epochs-positive"
        )
    epoch_rows = _indexed(rows, "epoch", epochs, "epoch-contiguous")
    ws = np.array([_number(float, t[2], ln) for ln, t in epoch_rows])
    bs = np.array([_number(float, t[3], ln) for ln, t in epoch_rows])

    debug = None
    if rows["debug"]:
        debug_rows = _indexed(rows, "debug", epochs, "debug-shape")
        if any(len(t) != n + 3 for _, t in debug_rows):
            raise TraceValidationError(
                f"debug records must give one loss and {n} yhat values", rule="debug-shape"
            )
        debug = TraceDebug(
            yhat=np.array([[_number(float, v, ln) for v in t[3:]] for ln, t in debug_rows]),
            loss=np.array([_number(float, t[2], ln) for ln, t in debug_rows]),
        )

    return ParamTrace(
        eta=fields["eta"], n=n, ws=ws, bs=bs, debug=debug, precision=_precision(epoch_rows)
    )


# the optional one-value fields a report adds to the dataset layout
_REPORT_FIELDS = ("converged", "residual_norm", "iterations", "starts_tried")


def load_dataset(source):
    """Read a dataset from a dataset file or a reconstruction report;
    ``instance`` records may come in any order and are stored by index."""
    magic, records = iter_records(source, DATASET_MAGIC, REPORT_MAGIC)
    fields, rows = _parse(
        records,
        {"n": int},
        {"instance": "instance <i> <x> <y>"},
        ignore=_REPORT_FIELDS if magic == REPORT_MAGIC else (),
    )
    instance_rows = _indexed(
        rows, "instance", fields["n"], "instance-contiguous", count_rule="instance-count"
    )
    return Dataset(
        [_number(float, t[2], ln) for ln, t in instance_rows],
        [_number(float, t[3], ln) for ln, t in instance_rows],
    )


def dumps_trace(trace, digits=None):
    """Serialize a trace to a string (convenience wrapper over save_trace)."""
    buf = io.StringIO()
    save_trace(trace, buf, digits=digits)
    return buf.getvalue()


def loads_trace(text):
    """Parse a trace from a string."""
    return load_trace(io.StringIO(text))
