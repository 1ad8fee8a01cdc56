"""Trace file format: lossless round trips, precision control, validation."""

import copy
import io

import numpy as np
import pytest

from traceinv import (
    Dataset,
    ParamTrace,
    SolverConfig,
    TraceDebug,
    TraceParseError,
    TraceValidationError,
    TrainConfig,
    VerifyReport,
    dumps_trace,
    load_trace,
    loads_trace,
    save_trace,
    train,
)
from traceinv.trace import format_float, load_dataset

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


def test_bad_headers():
    expect_parse_error("", "missing header")
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


def test_paramtrace_invariants_checked_on_construction():
    with pytest.raises(TraceValidationError):
        ParamTrace(eta=0.1, n=1, ws=np.array([0.5]), bs=np.array([0.5, 0.4]))
    for eta in (0.0, 10**400, -10**400, True, "0.1", np.array([0.1])):
        with pytest.raises(TraceValidationError, match="eta-positive"):
            make_trace(eta, 1, [0.5], [0.5])
    for n in (0, 2.7, True, "3", np.array([1]), np.inf):
        with pytest.raises(TraceValidationError, match="n-positive"):
            make_trace(0.1, n, [0.5], [0.5])
    tr = ParamTrace(eta=np.float32(0.5), n=np.int64(1), ws=[0.5], bs=[0.5], precision=np.int64(7))
    assert (tr.eta, tr.n, tr.precision) == (0.5, 1, 7)
    with pytest.raises(TraceValidationError):
        make_trace(0.1, 1, [np.nan], [0.5])
    for precision in (0, -3, 2.5, True, "7", np.array([7])):
        with pytest.raises(TraceValidationError, match="precision-positive"):
            ParamTrace(eta=0.1, n=1, ws=[0.5], bs=[0.5], precision=precision)
    with pytest.raises(TraceValidationError, match="epoch-count"):
        make_trace(0.1, 1, [], [])
    for yhat, loss in (([[0.1, 0.2]], [0.3]),  # n=1 trace, two yhat values
                       ([[0.1]], [0.3, 0.4])):  # one epoch, two losses
        with pytest.raises(TraceValidationError, match="debug-shape"):
            ParamTrace(eta=0.1, n=1, ws=[0.5], bs=[0.5], debug=TraceDebug(yhat, loss))
    for yhat, loss in (([[np.nan]], [0.3]), ([[0.1]], [np.inf])):
        with pytest.raises(TraceValidationError, match="finite-values"):
            ParamTrace(eta=0.1, n=1, ws=[0.5], bs=[0.5], debug=TraceDebug(yhat, loss))
