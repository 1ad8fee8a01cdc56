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

The declared counts, ``n`` of all three formats and a trace's
``epochs``, must be integers >= 1 (``TraceValidationError`` with rule
``n-positive`` or ``epochs-positive``).  Records of one type may come in
any order, but their indices (``j`` of ``epoch`` and ``debug``, ``i`` of
``instance``) must cover 0..count-1 exactly once, the count being the
declared ``epochs`` or ``n``.  A wrong number of records or an index out
of range or repeated raises ``TraceValidationError`` with rule
``epoch-contiguous`` for ``epoch`` records and ``debug-shape`` for
``debug`` records (which also raise it unless each holds ``n`` yhat
values).  For ``instance`` records a wrong number raises
``instance-count`` and a bad index ``instance-contiguous``.
The debug block is optional; when present it covers every epoch.

Each file is read in one pass over its lines, which checks the header
and sorts every record.  Every column then converts in one ``map``: the
index, then w and b, of ``epoch`` records; the index, each yhat column
and the loss, in that order, of ``debug`` records; the index, then x and
y, of ``instance`` records; and a field's value as a one-row column.  A
token that is not a number raises ``TraceParseError`` naming its line,
the first bad line of the first bad column in that order.  So does a
token that ``int`` or ``float`` reads but the writers never produce: one
holding ``_``, a leading ``+`` (an exponent's ``+`` is valid) or a
non-ASCII character.  ``_numbers``, the one converter, checks this rule
on the tokens of the column it converts, so a ``#`` comment, which no
column holds, may contain any character.  The trace writer renders every
epoch row through one ``%`` template, which ``format_float`` shares.
"""

from __future__ import annotations

import io
import math
import numbers
import os
import reprlib
from dataclasses import dataclass, field, fields, replace

import numpy as np

__all__ = [
    "Dataset",
    "ParamTrace",
    "TraceDebug",
    "TraceParseError",
    "TraceValidationError",
    "dumps_trace",
    "load_trace",
    "loads_trace",
    "save_trace",
]

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
    value, never raising), and two tuples or lists, such as array
    ``box_bounds``, compare item by item under the same rule, a list
    equal to the tuple of the same items."""
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
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


def _checked(name, value, expected, ge=-math.inf, le=math.inf, gt=None, integer=False,
             rule=None):
    """The one check of every numeric field: ``value`` unchanged if it is
    an integer (``numbers.Integral``) when ``integer``, else a finite real
    number (``numbers.Real``), never ``bool``, with ``ge <= value <= le``
    and, given ``gt``, ``value > gt``.  Otherwise raises ``ValueError``
    "<name> must be <expected>, got <value>", a ``TraceValidationError``
    with ``rule`` when one is given; ``reprlib.repr`` renders the value,
    so a long list or int is cut short.  The default bounds are infinite
    floats, so an ``np.float32`` compares without a cast overflow."""
    try:
        ok = (isinstance(value, numbers.Integral if integer else numbers.Real)
              and not isinstance(value, bool)
              and (integer or math.isfinite(value))
              and ge <= value <= le and (gt is None or value > gt))
    except OverflowError:  # math.isfinite of an int beyond float64's range
        ok = False
    if ok:
        return value
    message = f"{name} must be {expected}, got {reprlib.repr(value)}"
    raise ValueError(message) if rule is None else TraceValidationError(message, rule)


def _checked_array(name, value, rule=None, finite=True):
    """The one check of every numeric array: ``value`` as a float64
    array (not copied if it is one) when numpy reads it as integers or
    floats, so never bool, str, complex, object or ragged, and every
    element finite; with ``finite=False`` infinities pass and only NaN
    fails.  Otherwise raises ``ValueError`` naming the field and the bad
    dtype or the first bad element, a ``TraceValidationError`` with
    ``rule`` when one is given."""
    expected = "finite real numbers" if finite else "real numbers, not NaN"
    try:
        array = np.asarray(value)
    except ValueError:  # numpy reads a ragged sequence as no array
        problem = f"a ragged {type(value).__name__}"
    else:
        if array.dtype.kind not in "iuf":
            problem = f"dtype {array.dtype}"
        else:
            array = array.astype(float, copy=False)
            ok = np.isfinite(array) if finite else ~np.isnan(array)
            if ok.all():
                return array
            i = int(ok.argmin())  # the first bad element, in flat order
            problem = f"{array.flat[i]} at element {i}"
    message = f"{name} must be {expected}, got {problem}"
    raise ValueError(message) if rule is None else TraceValidationError(message, rule)


def _checked_vectors(rule=None, shape_rule=None, **named):
    """The one shape check of every vector input: each named value
    passes ``_checked_array`` (with ``rule``) and is made at least 1-d,
    so a scalar is one element.  Returns the arrays, in order, when all
    are 1-d, non-empty and of one length; otherwise raises ``ValueError`` naming
    every field and its shape, "xs and ys must be non-empty 1-d arrays
    of equal length, got shapes (1,) and (2,)", a
    ``TraceValidationError`` with ``shape_rule`` when one is given."""
    arrays = [np.atleast_1d(_checked_array(name, value, rule)) for name, value in named.items()]
    if len({a.shape for a in arrays}) == 1 and arrays[0].ndim == 1 and arrays[0].size:
        return arrays
    shapes = " and ".join(str(a.shape) for a in arrays)
    expected = ("non-empty 1-d arrays of equal length, got shapes" if len(arrays) > 1
                else "a non-empty 1-d array, got shape")
    message = f"{' and '.join(named)} must be {expected} {shapes}"
    raise ValueError(message) if shape_rule is None else TraceValidationError(message, shape_rule)


@dataclass
class Dataset:
    """Paired input/label vectors of finite real numbers, non-empty 1-d
    and of equal length (a scalar is one instance); the secret the
    attack tries to recover."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        self.xs, self.ys = _checked_vectors(xs=self.xs, ys=self.ys)

    @property
    def n(self):
        return len(self.xs)

    __eq__ = _fields_equal


@dataclass
class TraceDebug:
    """Per-epoch predictions and loss recorded alongside a trace, finite
    real numbers (``TraceValidationError`` with rule ``finite-values``
    otherwise)."""

    yhat: np.ndarray  # shape (epochs, n)
    loss: np.ndarray  # shape (epochs,)

    def __post_init__(self):
        self.yhat = np.atleast_2d(_checked_array("yhat", self.yhat, rule="finite-values"))
        self.loss = _checked_array("loss", self.loss, rule="finite-values")

    __eq__ = _fields_equal


@dataclass
class ParamTrace:
    """Observed per-epoch parameters plus the public metadata ``eta``
    (finite, > 0) and ``n`` (an integer >= 1).

    Epoch ``j`` of ``ws``/``bs`` (finite real numbers, rule
    ``finite-values``; non-empty 1-d and of equal length, a scalar
    being one epoch, rule ``epoch-count``) holds the parameter values
    used in that epoch's forward pass, i.e. the values before the j-th
    update.  ``precision`` is None for exact values, or the integer in
    1..17 of significant digits they were observed with (17 digits
    round-trip any float64); it does not take part in equality.
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
        self.ws, self.bs = _checked_vectors("finite-values", "epoch-count", ws=self.ws, bs=self.bs)
        if self.precision is not None:
            self.precision = int(_checked("precision", self.precision, "None or in 1..17", ge=1,
                                          le=17, integer=True, rule="precision-positive"))
        if self.debug is not None:
            if self.debug.yhat.shape != (self.epochs, self.n) or self.debug.loss.shape != (
                self.epochs,
            ):
                raise TraceValidationError(
                    f"debug block must hold one length-{self.n} yhat vector and one "
                    f"loss per epoch",
                    rule="debug-shape",
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


def _float_spec(digits):
    """The ``%`` conversion of one float at ``digits``, the one rendering
    rule: ``%r`` (shortest round trip) for None, else ``%.<digits>g`` for
    an integer ``digits`` >= 1, checked here."""
    if digits is None:
        return "%r"
    _checked("digits", digits, "None or >= 1", ge=1, integer=True)
    return f"%.{int(digits)}g"


def format_float(value, digits=None):
    """Render a float losslessly (default) or with ``digits`` >= 1
    significant digits."""
    return _float_spec(digits) % float(value)


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
    spec = _float_spec(digits)  # digits is checked once, not once per value
    rows = zip(range(trace.epochs), trace.ws.tolist(), trace.bs.tolist())
    lines = [
        "eta " + spec % float(trace.eta),
        f"n {trace.n}",
        f"epochs {trace.epochs}",
        *map(f"epoch %d {spec} {spec}".__mod__, rows),
    ]
    if trace.debug is not None:
        template = "debug %d" + f" {spec}" * (1 + trace.debug.yhat.shape[1])
        rows = zip(range(trace.epochs), trace.debug.loss.tolist(), trace.debug.yhat.tolist())
        lines += [template % (j, loss, *yhat) for j, loss, yhat in rows]
    _write_records(destination, MAGIC, lines)


def _instance_lines(data):
    return [
        f"instance {i} {format_float(x)} {format_float(y)}"
        for i, (x, y) in enumerate(zip(data.xs.tolist(), data.ys.tolist()))
    ]


def save_dataset(data, destination):
    """Write a dataset file readable by ``load_dataset``."""
    _write_records(destination, DATASET_MAGIC, [f"n {data.n}", *_instance_lines(data)])


# the optional one-value fields a report adds to the dataset layout, in
# the order save_report writes them
_REPORT_FIELDS = ("converged", "residual_norm", "iterations", "starts_tried")


def save_report(result, destination):
    """Write a reconstruction report; its instance records make it
    loadable by ``load_dataset`` as well."""
    data = result.recovered
    values = ("true" if result.converged else "false", format_float(result.residual_norm),
              result.iterations, result.starts_tried)
    lines = [f"n {data.n}", *map("%s %s".__mod__, zip(_REPORT_FIELDS, values))]
    _write_records(destination, REPORT_MAGIC, lines + _instance_lines(data))


def _numbers(kind, rows, column):
    """``kind(tokens[column])`` of every ``(line_number, tokens)`` row,
    as a list: the one place the readers convert a number token, and the
    one owner of the token rule.  Beyond what ``int`` and ``float`` read,
    the rule rejects spellings the writers never produce: a ``_``, a
    leading ``+`` (an exponent's ``+`` is valid) or a non-ASCII
    character.  A column whose joined text holds none of these converts
    in one ``map``; otherwise, or after that ``map`` fails, it is checked
    token by token, so the ``TraceParseError`` names the first bad line."""
    tokens = [t[column] for _, t in rows]
    text = "".join(tokens)
    if "_" not in text and "+" not in text and text.isascii():
        try:
            return list(map(kind, tokens))
        except ValueError:
            pass
    for (lineno, _), token in zip(rows, tokens):
        try:
            if "_" in token or token[0] == "+" or not token.isascii():
                raise ValueError
            kind(token)
        except ValueError:
            raise TraceParseError(f"not a valid {kind.__name__}: {token!r}", line=lineno) from None
    return list(map(kind, tokens))


def _read(source, magics, fields, rows):
    """Read a line-oriented file and sort its records, in one pass.

    ``source`` is a path or a text or bytes file object.  Blank lines
    and ``#`` comments are skipped; the first other line is the header,
    which must name a key of ``magics`` and the format version.
    ``magics`` maps each accepted magic to the optional fields it adds,
    whose value is checked only for count and repetition.  ``fields``
    maps each required field to the type of its value; once none is
    missing, each ``int`` field, a count, must be >= 1
    (``TraceValidationError`` with rule ``<field>-positive``).  ``rows``
    maps each row record to its usage line; a usage ending in ``...>``
    takes any number of trailing values.  Returns ``(values, rows)``:
    the field values, each converted by ``_numbers`` (None for an
    optional one), and for each row record its ``(line_number, tokens)``
    list, which the caller converts column by column with ``_numbers``.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(os.fspath(source), "r", encoding="utf-8") as fh:
            text = fh.read()
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    arity = {key: len(usage.split()) for key, usage in rows.items()}
    found = {key: [] for key in rows}
    values = {}
    optional = None  # set by the header
    for lineno, tokens in enumerate(map(str.split, text.splitlines()), start=1):
        if not tokens or tokens[0][0] == "#":
            continue
        key = tokens[0]
        if optional is None:
            if len(tokens) != 2 or key not in magics:
                expected = " or ".join(f"'{magic} <version>'" for magic in magics)
                raise TraceParseError(
                    f"expected header {expected}, got {' '.join(tokens)!r}", line=lineno
                )
            if tokens[1] != str(FORMAT_VERSION):
                raise TraceParseError(f"unsupported format version {tokens[1]!r}", line=lineno)
            optional = magics[key]
        elif key in found:
            if len(tokens) != arity[key] and not (
                len(tokens) > arity[key] and rows[key].endswith("...>")
            ):
                raise TraceParseError(f"'{key}' record needs: {rows[key]}", line=lineno)
            found[key].append((lineno, tokens))
        elif key in fields or key in optional:
            if len(tokens) != 2:
                raise TraceParseError(f"'{key}' takes one value", line=lineno)
            if key in values:
                raise TraceValidationError(
                    f"duplicate field '{key}'", rule="duplicate-field"
                )
            values[key] = _numbers(fields[key], [(lineno, tokens)], 1)[0] if key in fields else None
        else:
            raise TraceParseError(f"unknown record type {key!r}", line=lineno)
    if optional is None:
        raise TraceParseError("empty file, missing header line")
    for key in fields:
        if key not in values:
            raise TraceValidationError(
                f"missing required field '{key}'", rule="missing-field"
            )
    for key, kind in fields.items():
        if kind is int:
            _checked(key, values[key], ">= 1", ge=1, integer=True, rule=f"{key}-positive")
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

    ``rows`` is as ``_read`` returns it.  Each row's ``tokens[1]`` is
    its index, converted by ``_numbers``, and the indices must be
    0..count-1, each once, in any order; one loop places every row at its
    index.  A number of rows other than ``count`` raises ``count_rule``
    (default ``rule``); an index out of range or repeated raises
    ``rule``.  The count is checked first, so a huge declared count
    allocates nothing.
    """
    found = rows[key]
    if len(found) != count:
        raise TraceValidationError(
            f"expected {count} '{key}' records, found {len(found)}", rule=count_rule or rule
        )
    ordered = [None] * count
    for j, row in zip(_numbers(int, found, 1), found):
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
    fields, rows = _read(
        source,
        {MAGIC: ()},
        {"eta": float, "n": int, "epochs": int},
        {"epoch": "epoch <j> <w> <b>", "debug": "debug <j> <loss> <yhat...>"},
    )
    n, epochs = fields["n"], fields["epochs"]
    epoch_rows = _indexed(rows, "epoch", epochs, "epoch-contiguous")
    ws = np.array(_numbers(float, epoch_rows, 2))
    bs = np.array(_numbers(float, epoch_rows, 3))

    debug = None
    if rows["debug"]:
        debug_rows = _indexed(rows, "debug", epochs, "debug-shape")
        if any(len(t) != n + 3 for _, t in debug_rows):
            raise TraceValidationError(
                f"debug records must give one loss and {n} yhat values", rule="debug-shape"
            )
        debug = TraceDebug(
            yhat=np.column_stack([_numbers(float, debug_rows, k) for k in range(3, n + 3)]),
            loss=np.array(_numbers(float, debug_rows, 2)),
        )

    return ParamTrace(
        eta=fields["eta"], n=n, ws=ws, bs=bs, debug=debug, precision=_precision(epoch_rows)
    )


def load_dataset(source):
    """Read a dataset from a dataset file or a reconstruction report;
    ``instance`` records may come in any order and are stored by index."""
    fields, rows = _read(
        source,
        {DATASET_MAGIC: (), REPORT_MAGIC: _REPORT_FIELDS},
        {"n": int},
        {"instance": "instance <i> <x> <y>"},
    )
    instance_rows = _indexed(
        rows, "instance", fields["n"], "instance-contiguous", count_rule="instance-count"
    )
    return Dataset(*(_numbers(float, instance_rows, k) for k in (2, 3)))


def dumps_trace(trace, digits=None):
    """Serialize a trace to a string (convenience wrapper over save_trace)."""
    buf = io.StringIO()
    save_trace(trace, buf, digits=digits)
    return buf.getvalue()


def loads_trace(text):
    """Parse a trace from a string."""
    return load_trace(io.StringIO(text))
