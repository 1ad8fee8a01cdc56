"""Trace file format: lossless round trips, precision control, validation."""

import copy
import io
import re
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from traceinv import (
    Dataset,
    Params,
    ParamTrace,
    SolverConfig,
    TraceDebug,
    TraceParseError,
    TraceValidationError,
    TrainConfig,
    VerifyReport,
    dumps_trace,
    forward,
    load_trace,
    loads_trace,
    mse,
    save_trace,
    train,
)
from traceinv.trace import (
    DATASET_MAGIC,
    MAGIC,
    REPORT_MAGIC,
    format_float,
    load_dataset,
    save_dataset,
    save_report,
)

from conftest import make_trace, random_dataset


def random_trace(rng, with_debug=False):
    epochs = int(rng.integers(1, 9))
    n = int(rng.integers(1, 5))
    scale = 10.0 ** rng.integers(-8, 9)
    ws = rng.normal(0, scale, epochs)
    bs = rng.normal(0, scale, epochs)
    debug = None
    if with_debug:
        debug = TraceDebug(
            yhat=rng.uniform(-1, 1, (epochs, n)), loss=rng.uniform(0, 2, epochs)
        )
    return ParamTrace(eta=float(rng.uniform(0.001, 2.0)), n=n, ws=ws, bs=bs,
                      debug=debug)


def test_format_float_round_trips(rng):
    values = list(rng.normal(0, 1, 50)) + [0.0, -0.0, 1e-300, -1e300, 0.1]
    for v in values:
        assert float(format_float(v)) == float(v)


def test_format_float_fixed_digits():
    assert format_float(0.4925471634869269, digits=7) == "0.4925472"
    assert format_float(0.5, digits=7) == "0.5"
    for digits in (0, -1, 2.5, True, "3", np.array([3])):
        with pytest.raises(ValueError, match="digits must be None or >= 1"):
            format_float(0.5, digits=digits)
    assert format_float(0.4925471634869269, digits=np.int64(3)) == "0.493"


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.5e-310, -7.3e-320,
               1e-300, -1.2345678901234567e-300, 9.999999999999999e299, 1e300,
               -1.7976931348623157e308, 1.0, -0.1, 1 / 3]


@pytest.mark.parametrize("digits", [None, 1, 7, 17, np.int64(5)])
def test_dumps_trace_renders_each_value_with_format_float(digits):
    # the writer's row template gives the bytes of per-value format_float
    ws = np.array(EDGE_VALUES)
    bs = ws[::-1].copy()
    yhat = np.stack([bs, ws], axis=1)
    trace = ParamTrace(eta=0.1, n=2, ws=ws, bs=bs, debug=TraceDebug(yhat, ws))
    lines = ["traceinv-trace 1", f"eta {format_float(0.1, digits)}", "n 2",
             f"epochs {len(ws)}"]
    lines += [f"epoch {j} {format_float(w, digits)} {format_float(b, digits)}"
              for j, (w, b) in enumerate(zip(ws, bs))]
    lines += [f"debug {j} {format_float(w, digits)} {format_float(b, digits)} "
              f"{format_float(w, digits)}" for j, (w, b) in enumerate(zip(ws, bs))]
    assert dumps_trace(trace, digits=digits) == "\n".join(lines) + "\n"
    if digits is None:
        assert loads_trace(dumps_trace(trace)) == trace


def test_round_trip_through_string(rng):
    for _ in range(50):
        tr = random_trace(rng, with_debug=bool(rng.integers(0, 2)))
        assert loads_trace(dumps_trace(tr)) == tr


def test_round_trip_through_file(tmp_path, rng):
    tr = random_trace(rng, with_debug=True)
    path = tmp_path / "run.trace"
    save_trace(tr, path)
    assert load_trace(path) == tr
    # file objects work too
    buf = io.StringIO()
    save_trace(tr, buf)
    assert load_trace(io.StringIO(buf.getvalue())) == tr


def test_min_trace_single_epoch():
    tr = make_trace(0.1, 1, [0.5], [0.5])
    text = dumps_trace(tr)
    again = loads_trace(text)
    assert again.epochs == 1
    assert "epoch 0 0.5 0.5" in text


def test_seven_digit_rendering_matches_low_precision_observer(rng):
    data = Dataset([0.6, 0.2], [0.5, 0.4])
    tr = train(data, TrainConfig(eta=0.1, epochs=5))
    again = loads_trace(dumps_trace(tr, digits=7))
    assert again.ws[1] == float("0.4925472")
    assert again.bs[1] == float("0.4810773")
    # low precision loses information, so this is not the identity
    assert again != tr


def test_truncated_prefix_is_a_valid_trace():
    data = Dataset([0.6, 0.2], [0.5, 0.4])
    tr = train(data, TrainConfig(eta=0.1, epochs=5))
    head = tr.truncated(3)
    assert head.epochs == 3
    np.testing.assert_array_equal(head.ws, tr.ws[:3])
    assert loads_trace(dumps_trace(head)) == head
    for epochs in (0, 6, 2.5, True, "3", np.array([3])):
        with pytest.raises(ValueError, match=r"epochs must be in 1\.\.5"):
            tr.truncated(epochs)
    assert tr.truncated(np.int64(3)) == head
    # the debug block is cut to the same prefix
    tr = train(data, TrainConfig(eta=0.1, epochs=5), debug=True)
    head = tr.truncated(3)
    np.testing.assert_array_equal(head.debug.yhat, tr.debug.yhat[:3])
    np.testing.assert_array_equal(head.debug.loss, tr.debug.loss[:3])
    assert loads_trace(dumps_trace(head)) == head


def test_load_records_trace_precision():
    tr = train(Dataset([0.6, 0.2], [0.5, 0.4]), TrainConfig(eta=0.1, epochs=5))
    for digits in range(1, 16):
        rounded = loads_trace(dumps_trace(tr, digits=digits))
        assert rounded.precision == digits
        # a prefix was observed with the same precision
        assert rounded.truncated(3).precision == digits
    for digits in (16, 17, None):  # every float64 digit: lossless
        assert loads_trace(dumps_trace(tr, digits=digits)).precision is None
    assert tr.precision is None  # built in memory
    # leading zeros, sign and exponent do not count; trailing zeros do
    text = HEADER + "eta 0.1\nn 1\nepochs 3\nepoch 0 0.5 -0.000120\n"
    assert loads_trace(text + "epoch 1 1.25e-05 0.4\nepoch 2 0 0\n").precision == 3
    assert loads_trace(text + "epoch 1 1.2345E+2 0.4\nepoch 2 0 0\n").precision == 5
    zeros = HEADER + "eta 0.1\nn 1\nepochs 2\nepoch 0 0 0.0\nepoch 1 -0.0 0\n"
    assert loads_trace(zeros).precision is None  # exact zeros carry no rounding


def test_hand_written_file_with_comments_and_blanks():
    text = """
# an eavesdropper's notebook
traceinv-trace 1

eta 0.1
n 1
epochs 2
epoch 0 0.5 0.5
# the next epoch
epoch 1 0.48899532750603825 0.48165887917673045
"""
    tr = loads_trace(text)
    assert tr.n == 1 and tr.epochs == 2
    assert tr.ws[1] == 0.48899532750603825


def test_equality_compares_every_field():
    ws, bs = [0.5, 0.4], [0.5, 0.3]
    debug = TraceDebug(yhat=[[0.1], [0.2]], loss=[0.3, 0.4])
    tr = ParamTrace(eta=0.1, n=1, ws=ws, bs=bs, debug=debug)
    assert tr == ParamTrace(eta=0.1, n=1, ws=list(ws), bs=list(bs),
                            debug=TraceDebug(yhat=[[0.1], [0.2]], loss=[0.3, 0.4]))
    assert ParamTrace(0.1, 1, ws, bs) == ParamTrace(0.1, 1, ws, bs)
    # the observation precision is not part of the trace's value
    assert tr == ParamTrace(0.1, 1, ws, bs, debug=debug, precision=7)
    for other in (
        ParamTrace(eta=0.1, n=1, ws=ws, bs=bs),  # debug absent
        ParamTrace(eta=0.1, n=1, ws=ws, bs=bs,
                   debug=TraceDebug(yhat=[[0.1], [0.2]], loss=[0.3, 0.5])),
        ParamTrace(eta=0.2, n=1, ws=ws, bs=bs, debug=debug),
        ParamTrace(eta=0.1, n=2, ws=ws, bs=bs),
        ParamTrace(eta=0.1, n=1, ws=[0.5, 0.41], bs=bs, debug=debug),
        ParamTrace(eta=0.1, n=1, ws=ws, bs=[0.5, 0.31], debug=debug),
    ):
        assert tr != other and other != tr
    assert debug == TraceDebug(yhat=[[0.1], [0.2]], loss=[0.3, 0.4])
    assert debug != TraceDebug(yhat=[[0.1], [0.25]], loss=[0.3, 0.4])
    data = Dataset([0.6, 0.2], [0.5, 0.4])
    assert data == Dataset([0.6, 0.2], [0.5, 0.4])
    assert data != Dataset([0.6, 0.2], [0.5, 0.45])
    assert data != Dataset([0.6], [0.5])
    for obj in (data, debug, tr):
        for other in (None, 0.1, "x"):
            assert obj.__eq__(other) is NotImplemented
            assert obj != other
    assert data != debug and debug != tr and tr != data


def test_value_types_compare_arrays_elementwise():
    # an array field on one side only, or on both, never raises numpy's
    # "truth value is ambiguous"
    def with_field(obj, name, value):
        other = copy.deepcopy(obj)
        object.__setattr__(other, name, value)  # SolverConfig is frozen
        return other

    debug = TraceDebug(yhat=[[0.1], [0.2]], loss=[0.3, 0.4])
    cases = [
        (Dataset([0.6, 0.2], [0.5, 0.4]), "ys"),
        (debug, "loss"),
        (ParamTrace(0.1, 1, [0.5, 0.4], [0.5, 0.3], debug=debug), "ws"),
        (SolverConfig(initial_guess=np.array([0.5, 0.1])), "initial_guess"),
        (VerifyReport(dw=np.array([0.0, 1e-9]), db=np.array([0.0, 2e-9]),
                      threshold=1e-8, passed=True), "db"),
    ]
    for obj, name in cases:
        assert obj == copy.deepcopy(obj)
        changed = with_field(obj, name, getattr(obj, name) + 1.0)
        for other in (changed, with_field(obj, name, None)):
            assert obj != other and other != obj
    # a tuple of arrays compares item by item
    box = SolverConfig(box_bounds=(np.zeros(2), np.ones(2)))
    assert box == copy.deepcopy(box)
    changed = SolverConfig(box_bounds=(np.zeros(2), np.array([1.0, 2.0])))
    assert box != changed and changed != box and box != SolverConfig()
    # a list pair compares the same way, and equal to the tuple pair
    listed = SolverConfig(box_bounds=[np.zeros(2), np.ones(2)])
    assert listed == SolverConfig(box_bounds=[np.zeros(2), np.ones(2)])
    assert listed == box and box == listed and listed != changed
    assert SolverConfig(box_bounds=[-2.0, 2.0]) == SolverConfig(box_bounds=(-2.0, 2.0))
    assert hash(listed) == hash(SolverConfig())  # box_bounds is not hashed
    guess = np.array([0.5, 0.1])
    assert SolverConfig() != SolverConfig(initial_guess=guess)
    assert SolverConfig(initial_guess=list(guess)) == SolverConfig(initial_guess=guess)
    assert hash(SolverConfig()) == hash(SolverConfig())


def test_debug_block_round_trips_and_is_optional(rng):
    data = random_dataset(rng, 3)
    tr = train(data, TrainConfig(eta=0.1, epochs=4), debug=True)
    again = loads_trace(dumps_trace(tr))
    assert again.debug is not None
    np.testing.assert_array_equal(again.debug.yhat, tr.debug.yhat)
    np.testing.assert_array_equal(again.debug.loss, tr.debug.loss)
    # debug records are stored by index, whatever their order in the file
    lines = dumps_trace(tr).splitlines(keepends=True)
    first = next(k for k, line in enumerate(lines) if line.startswith("debug "))
    assert loads_trace("".join(lines[:first] + lines[first:][::-1])) == tr


def expect_parse_error(text, fragment):
    with pytest.raises(TraceParseError) as excinfo:
        loads_trace(text)
    assert fragment in str(excinfo.value)


def expect_validation_error(text, rule):
    with pytest.raises(TraceValidationError) as excinfo:
        loads_trace(text)
    assert excinfo.value.rule == rule


HEADER = "traceinv-trace 1\n"


def test_parse_errors_name_the_line():
    with pytest.raises(TraceParseError) as excinfo:
        loads_trace(HEADER + "eta 0.1\nn 1\nepochs 1\nepoch 0 oops 0.5\n")
    assert excinfo.value.line == 5
    assert "oops" in str(excinfo.value)
    # a record with too few values names its line and its usage
    for load, text, line in [
        (load_trace, HEADER + "eta 0.1\nn 1\nepochs 1\nepoch 0 0.5\n", 5),
        (load_trace, HEADER + "eta 0.1\nn 1\nepochs 1\nepoch 0 0.5 0.5\ndebug 0\n", 6),
        (load_dataset, "traceinv-dataset 1\nn 1\ninstance 0 0.6\n", 3),
    ]:
        with pytest.raises(TraceParseError, match="record needs") as excinfo:
            load(io.StringIO(text))
        assert excinfo.value.line == line
    # spellings that int and float accept but the writers never produce: a
    # "_", a leading "+" or a non-ASCII digit
    for load, text, line in [
        (load_trace, HEADER + "eta 0.1\nn 1\nepochs 1\nepoch 0 0.5_0 0.5\n", 5),
        (load_trace, HEADER + "eta 0.1\nn 1\nepochs 2\nepoch 0 0.5 0.5\nepoch +1 0.4 0.4\n", 6),
        (load_dataset, "traceinv-dataset 1\nn \u0661\ninstance 0 0.6 0.5\n", 2),
    ]:
        with pytest.raises(TraceParseError, match="not a valid") as excinfo:
            load(io.StringIO(text))
        assert excinfo.value.line == line
    # an exponent's "+" is the writers' own, and a comment may hold anything
    tr = loads_trace(HEADER + "# +_\u00e9\neta 1e+0\nn 1\nepochs 1\nepoch 0 1e+20 -0.5\n")
    assert (tr.eta, tr.ws[0], tr.bs[0]) == (1.0, 1e20, -0.5)
    # late bad tokens in a long trace: the index column is converted first,
    # then w, then b, each naming its first bad line even when a later
    # column's bad token sits on an earlier line
    rows = [["epoch", str(j), "0.5", "0.25"] for j in range(600)]

    def long_trace():
        return HEADER + "eta 0.1\nn 1\nepochs 600\n" + "".join(" ".join(r) + "\n" for r in rows)

    # (epoch, column, token); the second set holds only strict-spelling faults
    for bad in ([(590, 1, "5x9"), (570, 2, "0.5.1"), (550, 3, "nan?")],
                [(590, 1, "+590"), (570, 2, "0.5_1"), (550, 3, "0.\u0665")]):
        for row, column, token in bad:
            rows[row][column] = token
        for row, column, token in bad:
            with pytest.raises(TraceParseError, match="not a valid") as excinfo:
                loads_trace(long_trace())
            assert excinfo.value.line == row + 5  # the header and three fields come first
            assert repr(token) in str(excinfo.value)
            rows[row][column] = str(row) if column == 1 else "0.5"
        assert loads_trace(long_trace()).epochs == 600
    # a field's value is a one-token column, checked on its own even when
    # every record column is clean
    with pytest.raises(TraceParseError, match="not a valid") as excinfo:
        loads_trace(long_trace().replace("eta 0.1\n", "eta 0.1_0\n"))
    assert excinfo.value.line == 2
    rows = [f"instance {i} 0.5 {'0.2y' if i == 3 else '0.25'}" for i in range(5)]
    with pytest.raises(TraceParseError) as excinfo:
        load_dataset(io.StringIO("traceinv-dataset 1\nn 5\n" + "\n".join(rows) + "\n"))
    assert excinfo.value.line == 6
    # debug yhat converts column by column too: the first bad column is the
    # first yhat, whose bad token sits on the later line
    text = (HEADER + "eta 0.1\nn 2\nepochs 2\nepoch 0 0.5 0.5\nepoch 1 0.4 0.4\n"
            "debug 0 0.1 0.6 x1\ndebug 1 0.1 y0 0.5\n")
    with pytest.raises(TraceParseError) as excinfo:
        loads_trace(text)
    assert excinfo.value.line == 8
    assert "'y0'" in str(excinfo.value)


def test_bad_headers():
    expect_parse_error("", "missing header")
    expect_parse_error("# only a comment\n\n", "missing header")
    expect_parse_error("something-else 1\neta 0.1\n", "expected header")
    expect_parse_error("traceinv-trace 99\neta 0.1\n", "version")


# one valid file per format, and a header that the format's reader must reject
FORMATS = {
    "trace": (load_trace, HEADER + "eta 0.1\nn 1\nepochs 1\nepoch 0 0.5 0.5\n",
              "traceinv-dataset 1"),
    "dataset": (load_dataset, "traceinv-dataset 1\nn 1\ninstance 0 0.6 0.5\n",
                "traceinv-trace 1"),
    "report": (load_dataset,
               "traceinv-report 1\nn 1\nconverged true\nresidual_norm 0.0\n"
               "iterations 0\nstarts_tried 1\ninstance 0 0.6 0.5\n",
               "traceinv-trace 1"),
}


@pytest.mark.parametrize("source", ["path", "text", "bytes"])
@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_readers_check_headers_from_any_source(fmt, source, tmp_path):
    load, text, wrong_header = FORMATS[fmt]

    def opened(text):
        if source == "text":
            return io.StringIO(text)
        if source == "bytes":
            return io.BytesIO(text.encode("utf-8"))
        path = tmp_path / f"{fmt}.txt"
        path.write_text(text, encoding="utf-8")
        return path

    assert load(opened(text)).n == 1
    header, body = text.split("\n", 1)
    magic = header.split()[0]
    for bad, fragment in [
        ("", "missing header"),
        (f"{wrong_header}\n{body}", "expected header"),
        (f"{magic} 99\n{body}", "version"),
    ]:
        with pytest.raises(TraceParseError) as excinfo:
            load(opened(bad))
        assert fragment in str(excinfo.value)


def test_missing_and_duplicate_fields():
    expect_validation_error(HEADER + "n 1\nepochs 1\nepoch 0 0.5 0.5\n",
                            "missing-field")
    expect_validation_error(
        HEADER + "eta 0.1\neta 0.2\nn 1\nepochs 1\nepoch 0 0.5 0.5\n",
        "duplicate-field",
    )


def test_validation_rules():
    expect_validation_error(
        HEADER + "eta -0.1\nn 1\nepochs 1\nepoch 0 0.5 0.5\n", "eta-positive"
    )
    expect_validation_error(
        HEADER + "eta 0.1\nn 0\nepochs 1\nepoch 0 0.5 0.5\n", "n-positive"
    )
    # n is checked before the debug records' arity, which depends on it
    for n in ("0", "-1"):
        expect_validation_error(
            HEADER + f"eta 0.1\nn {n}\nepochs 1\nepoch 0 0.5 0.5\ndebug 0 0.1 0.6\n", "n-positive"
        )
    expect_validation_error(
        HEADER + "eta 0.1\nn 1\nepochs 0\n", "epochs-positive"
    )
    # count mismatch between declared epochs and records
    expect_validation_error(
        HEADER + "eta 0.1\nn 1\nepochs 2\nepoch 0 0.5 0.5\n", "epoch-contiguous"
    )
    # a huge declared count is rejected without building a list of that size
    expect_validation_error(
        HEADER + "eta 0.1\nn 1\nepochs 4611686018427387904\nepoch 0 0.5 0.5\n",
        "epoch-contiguous",
    )
    # gap in the epoch indices
    expect_validation_error(
        HEADER + "eta 0.1\nn 1\nepochs 2\nepoch 0 0.5 0.5\nepoch 2 0.4 0.4\n",
        "epoch-contiguous",
    )
    # repeated epoch index
    expect_validation_error(
        HEADER + "eta 0.1\nn 1\nepochs 2\nepoch 0 0.5 0.5\nepoch 0 0.4 0.4\n",
        "epoch-contiguous",
    )
    # epoch records may come in any order
    in_order = HEADER + "eta 0.1\nn 1\nepochs 3\nepoch 0 0.5 0.5\nepoch 1 0.4 0.3\nepoch 2 0.2 0.1\n"
    shuffled = HEADER + "eta 0.1\nn 1\nepochs 3\nepoch 2 0.2 0.1\nepoch 0 0.5 0.5\nepoch 1 0.4 0.3\n"
    assert loads_trace(shuffled) == loads_trace(in_order)
    # a gap in a long trace gives a short message that does not list indices
    long = HEADER + "eta 0.1\nn 1\nepochs 600\n" + "".join(
        f"epoch {j if j != 300 else 600} 0.5 0.5\n" for j in range(600)
    )
    with pytest.raises(TraceValidationError) as excinfo:
        loads_trace(long)
    assert excinfo.value.rule == "epoch-contiguous"
    assert len(str(excinfo.value)) < 200
    expect_validation_error(
        HEADER + "eta 0.1\nn 1\nepochs 1\nepoch 0 inf 0.5\n", "finite-values"
    )
    # debug vector must have one prediction per instance
    expect_validation_error(
        HEADER + "eta 0.1\nn 2\nepochs 1\nepoch 0 0.5 0.5\ndebug 0 0.1 0.6\n",
        "debug-shape",
    )
    # debug records: wrong count, gap and repeated index
    two_epochs = HEADER + "eta 0.1\nn 1\nepochs 2\nepoch 0 0.5 0.5\nepoch 1 0.4 0.4\n"
    for debug in ("debug 0 0.1 0.6\n",
                  "debug 0 0.1 0.6\ndebug 2 0.1 0.6\n",
                  "debug 1 0.1 0.6\ndebug 1 0.1 0.6\n"):
        expect_validation_error(two_epochs + debug, "debug-shape")


# tokens a mutated file may hold: numbers that are non-finite, overflowing,
# huge, empty, signed, hexadecimal or non-ASCII, then the formats' words
FUZZ_NUMBERS = ["nan", "-inf", "1e400", "1" * 400, "-" + "7" * 400, "", '""', "+1", "0x10",
                "\u0663", "\uff11\uff12", "0.5_0", "1e+20", "0", "-1", "2", "0.5"]
FUZZ_WORDS = ["x", "#", "epoch", "debug", "instance", "n", "eta", "epochs", "converged",
              MAGIC, DATASET_MAGIC, REPORT_MAGIC]


def _fuzz_bases():
    """A trace (with and without debug, lossless and 3-digit), a dataset
    and a report of each n in 1..3, as (loader, lines of tokens)."""
    rng = np.random.default_rng(0)
    bases = []
    for n in (1, 2, 3):
        data = random_dataset(rng, n)
        tr = train(data, TrainConfig(eta=0.1, epochs=n + 1), debug=n != 2)
        report = SimpleNamespace(recovered=data, converged=True, residual_norm=1e-13,
                                 iterations=3, starts_tried=1)
        texts = [(load_trace, dumps_trace(tr, digits)) for digits in (None, 3)]
        for save in (save_dataset, save_report):
            buf = io.StringIO()
            save(report if save is save_report else data, buf)
            texts.append((load_dataset, buf.getvalue()))
        bases += [(load, [line.split() for line in text.splitlines()]) for load, text in texts]
    return bases


def _mutated_files(seed, count):
    """``count`` seeded (loader, text) pairs: a base file with one to three
    of its tokens edited, added or dropped, or its records added or dropped."""
    rng = np.random.default_rng(seed)
    bases = _fuzz_bases()
    for _ in range(count):
        load, lines = bases[rng.integers(len(bases))]
        lines = [list(tokens) for tokens in lines]
        for _ in range(rng.integers(1, 4)):
            # the header line one time in ten
            i = int(rng.integers(0 if rng.random() < 0.1 or len(lines) < 2 else 1, len(lines)))
            tokens = lines[i]
            pool = FUZZ_NUMBERS if rng.random() < 0.8 else FUZZ_WORDS
            token = pool[rng.integers(len(pool))]
            action = rng.choice(5, p=[0.5, 0.1, 0.1, 0.15, 0.15])
            if action == 0 and tokens:  # edit a token
                tokens[rng.integers(len(tokens))] = token
            elif action == 1:  # add a token
                tokens.insert(int(rng.integers(len(tokens) + 1)), token)
            elif action == 2 and tokens:  # drop a token
                del tokens[rng.integers(len(tokens))]
            elif action == 3:  # add a record: a copy of one, or the words and numbers given
                new = list(lines[rng.integers(len(lines))]) if rng.random() < 0.5 else [
                    FUZZ_WORDS[rng.integers(len(FUZZ_WORDS))], token, token, token
                ]
                lines.insert(int(rng.integers(len(lines) + 1)), new)
            elif len(lines) > 1:  # drop a record
                del lines[i]
        yield load, "".join(" ".join(tokens) + "\n" for tokens in lines)


def test_readers_raise_only_their_documented_errors_on_mutated_files():
    # anything else would reach the CLI as a traceback instead of exit code 2
    escapes, loaded = [], 0
    for load, text in _mutated_files(seed=2026, count=2000):
        try:
            load(io.StringIO(text))
            loaded += 1
        except ValueError:  # TraceParseError and TraceValidationError among them
            pass
        except Exception as exc:  # every other type is the failure
            escapes.append((text, repr(exc)))
    assert not escapes, f"{len(escapes)} escapes, the first: {escapes[0]}"
    assert 0 < loaded < 2000  # the mutations both keep and break files


def test_paramtrace_invariants_checked_on_construction():
    with pytest.raises(TraceValidationError):
        ParamTrace(eta=0.1, n=1, ws=np.array([0.5]), bs=np.array([0.5, 0.4]))
    for eta in (0.0, 10**400, -10**400, True, np.bool_(True), Decimal("0.1"), "0.1",
                np.array([0.1])):
        with pytest.raises(TraceValidationError, match="eta-positive"):
            make_trace(eta, 1, [0.5], [0.5])
    for n in (0, 2.7, True, np.bool_(True), Decimal(3), "3", np.array([1]), np.inf):
        with pytest.raises(TraceValidationError, match="n-positive"):
            make_trace(0.1, n, [0.5], [0.5])
    tr = ParamTrace(eta=np.float32(0.5), n=np.int64(1), ws=[0.5], bs=[0.5], precision=np.int64(7))
    assert (tr.eta, tr.n, tr.precision) == (0.5, 1, 7)
    # numbers.Real and numbers.Integral decide, numpy's registered types included
    tr = ParamTrace(eta=Fraction(1, 3), n=np.int64(3), ws=[0.5], bs=[0.5])
    assert (tr.eta, tr.n) == (1 / 3, 3)
    with pytest.raises(TraceValidationError):
        make_trace(0.1, 1, [np.nan], [0.5])
    for precision in (0, -3, 18, 10**400, 2.5, True, "7", np.array([7])):
        with pytest.raises(TraceValidationError, match="precision-positive"):
            ParamTrace(eta=0.1, n=1, ws=[0.5], bs=[0.5], precision=precision)
    # the message cuts a long value short
    for field_value in ({"eta": [0.1] * 10000}, {"precision": 10**400}):
        with pytest.raises(TraceValidationError) as excinfo:
            ParamTrace(**{"eta": 0.1, "n": 1, "ws": [0.5], "bs": [0.5], **field_value})
        assert len(str(excinfo.value)) < 200
    with pytest.raises(TraceValidationError, match="epoch-count"):
        make_trace(0.1, 1, [], [])
    for yhat, loss in (([[0.1, 0.2]], [0.3]),  # n=1 trace, two yhat values
                       ([[0.1]], [0.3, 0.4])):  # one epoch, two losses
        with pytest.raises(TraceValidationError, match="debug-shape"):
            ParamTrace(eta=0.1, n=1, ws=[0.5], bs=[0.5], debug=TraceDebug(yhat, loss))
    for yhat, loss in (([[np.nan]], [0.3]), ([[0.1]], [np.inf])):
        with pytest.raises(TraceValidationError, match="finite-values"):
            ParamTrace(eta=0.1, n=1, ws=[0.5], bs=[0.5], debug=TraceDebug(yhat, loss))


# every owner of a numeric array: the start of its error message, a call
# that puts a length-1 value there, and the rule of its TraceValidationError
BOX = r"box_bounds must be a pair \(lo, hi\) of real numbers or arrays: "
ARRAY_OWNERS = {
    "Dataset.xs": ("xs", lambda v: Dataset(v, [0.5]).xs, None),
    "Dataset.ys": ("ys", lambda v: Dataset([0.5], v).ys, None),
    "ParamTrace.ws": ("ws", lambda v: ParamTrace(0.1, 1, v, [0.5]).ws, "finite-values"),
    "ParamTrace.bs": ("bs", lambda v: ParamTrace(0.1, 1, [0.5], v).bs, "finite-values"),
    "TraceDebug.yhat": ("yhat", lambda v: TraceDebug(v, [0.5]).yhat, "finite-values"),
    "TraceDebug.loss": ("loss", lambda v: TraceDebug([[0.5]], v).loss, "finite-values"),
    "SolverConfig.initial_guess": ("initial_guess", lambda v: SolverConfig(initial_guess=v), None),
    "SolverConfig.box_bounds.lo": (BOX + "lo", lambda v: SolverConfig(box_bounds=(v, 2.0)), None),
    "SolverConfig.box_bounds.hi": (BOX + "hi", lambda v: SolverConfig(box_bounds=(-2.0, v)), None),
    "forward": ("xs", lambda v: forward(Params(0.5, 0.5), v), None),
    "mse.yhat": ("yhat", lambda v: mse(v, [0.5]), None),
    "mse.ys": ("ys", lambda v: mse([0.5], v), None),
}
KEEPS_ARRAY = {"Dataset.xs", "Dataset.ys", "ParamTrace.ws", "ParamTrace.bs",
               "TraceDebug.yhat", "TraceDebug.loss"}


@pytest.mark.parametrize("owner", ARRAY_OWNERS)
def test_every_numeric_array_takes_finite_real_numbers_only(owner):
    start, call, rule = ARRAY_OWNERS[owner]

    def rejected(value):
        with pytest.raises(TraceValidationError if rule else ValueError,
                           match=f"^{start} must be") as excinfo:
            call(value)
        assert getattr(excinfo.value, "rule", None) == rule
        return str(excinfo.value)

    # bool, numeric strings, complex, objects, ragged, NaN; a None guess is no guess
    for value in ([True], True, ["0.5"], "0.5", [0.5 + 0j], [None], np.array([0.5], object),
                  [[0.5], [0.5, 0.4]], [10**400], [np.nan]):
        rejected(value)
    if owner != "SolverConfig.initial_guess":
        rejected(None)
    if owner.startswith("SolverConfig.box_bounds"):  # an infinite bound leaves its side open
        call([-np.inf] if owner.endswith("lo") else [np.inf])
    else:
        rejected([np.inf])
        rejected([-np.inf])
    # the message names the first bad element, never the whole array
    message = rejected([0.5] * 5000 + [np.nan] + [0.5] * 4999)
    assert "nan at element 5000" in message and len(message) < 200
    accepted = [[1], np.array([1], dtype=np.int64), np.array([0.5], dtype=np.float32),
                [0.5], np.array([0.25])]
    if owner in ("Dataset.xs", "Dataset.ys", "forward"):
        accepted.append(0.5)
    for value in accepted:
        kept = call(value)
        if owner in KEEPS_ARRAY:  # a float64 array of the same values
            assert kept.dtype == np.float64
            assert kept.ravel().tolist() == np.ravel(value).astype(float).tolist()
    floats = np.array([0.25])
    if owner in KEEPS_ARRAY - {"TraceDebug.yhat"}:  # yhat is made 2-d
        assert call(floats) is floats  # a float64 array is not copied


# every owner of vector inputs: the names in its shape message, the rule of
# its TraceValidationError, and a call that puts a and b (forward takes a
# only) in its vector fields
VECTOR_OWNERS = {
    "Dataset": ("xs and ys", None, lambda a, b: Dataset(a, b).xs),
    "ParamTrace": ("ws and bs", "epoch-count", lambda a, b: ParamTrace(0.1, 1, a, b).ws),
    "forward": ("xs", None, lambda a, b: forward(Params(0.5, 0.5), a)),
    "mse": ("yhat and ys", None, mse),
}


@pytest.mark.parametrize("owner", VECTOR_OWNERS)
def test_every_vector_input_takes_one_shape_rule(owner):
    names, rule, call = VECTOR_OWNERS[owner]
    rejected = [("(1, 2)", "(1,)", [[0.5, 0.4]], [0.5]),  # 2-d
                ("(0,)", "(0,)", [], []),  # empty
                ("(1,)", "(2,)", [0.5], [0.5, 0.4])]  # unequal
    for shape_a, shape_b, a, b in rejected:
        if names == "xs":  # one vector: a alone is checked
            if shape_a == "(1,)":
                continue
            expected = f"xs must be a non-empty 1-d array, got shape {shape_a}"
        else:
            expected = (f"{names} must be non-empty 1-d arrays of equal length, "
                        f"got shapes {shape_a} and {shape_b}")
        with pytest.raises(TraceValidationError if rule else ValueError,
                           match="^" + re.escape(expected)) as excinfo:
            call(a, b)
        assert getattr(excinfo.value, "rule", None) == rule
    # a scalar is one element
    kept = call(0.5, 0.25)
    if owner == "mse":
        assert kept == (0.5 - 0.25) ** 2
    else:
        assert kept.shape == (1,)
