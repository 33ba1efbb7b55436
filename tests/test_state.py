import re
import warnings

import numpy as np
import pytest

import msrnn.state
from msrnn import (ACTION_APPEND, ACTION_EVICT, MultiState, RetentionTrace,
                   TraceEvent)
from msrnn.harness import SCRIPT_COLUMNS, ScriptedTrace
from msrnn.state import ACTIONS, TRACE_COLUMNS


def test_append_validates_position_and_token():
    state = MultiState(n_layers=1, n_heads=1, head_dim=2, capacity=1)
    row = np.zeros(2, dtype=np.float32)
    with pytest.raises(ValueError, match="non-negative"):
        state.append(0, 0, row, row, -1, 0)
    with pytest.raises(ValueError, match="non-negative"):
        state.append(0, 0, row, row, 0, -1)
    assert state.size(0, 0) == 0
    state.append(0, 0, row, row, 3, 1)
    assert state.retained_positions(0, 0) == [3]


def test_append_and_evict_bookkeeping():
    state = MultiState(n_layers=1, n_heads=2, head_dim=3, capacity=4)
    key = np.arange(3, dtype=np.float32)
    for pos in range(4):
        state.append(0, 0, key + pos, key - pos, pos, 0)
    assert state.size(0, 0) == 4
    assert state.size(0, 1) == 0
    assert state.retained_positions(0, 0) == [0, 1, 2, 3]
    assert state.keys(0, 0).shape == (4, 3)
    assert np.array_equal(state.keys(0, 0)[2], key + 2)

    state.evict(0, 0, 1)
    assert state.retained_positions(0, 0) == [0, 2, 3]
    assert np.array_equal(state.values(0, 0)[1], key - 2)
    # surviving rows stay contiguous and in order
    assert state.keys(0, 0).flags["C_CONTIGUOUS"]


def test_append_rejects_bad_shapes_and_positions():
    state = MultiState(n_layers=1, n_heads=1, head_dim=3, capacity=1)
    good = np.zeros(3, dtype=np.float32)
    with pytest.raises(ValueError):
        state.append(0, 0, np.zeros(4), good, 0, 0)
    state.append(0, 0, good, good, 5, 0)
    with pytest.raises(ValueError):
        state.append(0, 0, good, good, 5, 0)
    with pytest.raises(ValueError):
        state.append(0, 0, good, good, 3, 0)
    with pytest.raises(ValueError):
        state.evict(0, 0, 1)
    with pytest.raises(ValueError):
        state.size(0, 1)


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        MultiState(1, 1, 2, capacity=0)


def test_trace_records_appends_and_evicts():
    trace = RetentionTrace(n_layers=1, n_heads=1)
    state = MultiState(1, 1, 2, capacity=2, trace=trace)
    row = np.zeros(2, dtype=np.float32)
    for pos in range(3):
        state.append(0, 0, row, row, pos, pos + 10)
    state.evict(0, 0, 0)
    assert trace.events == [
        TraceEvent(0, 0, 0, ACTION_APPEND, 0, 10),
        TraceEvent(1, 0, 0, ACTION_APPEND, 1, 11),
        TraceEvent(2, 0, 0, ACTION_APPEND, 2, 12),
        TraceEvent(2, 0, 0, ACTION_EVICT, 0, 10),
    ]
    assert trace.n_steps == 3
    assert trace.retained_sets(0, 0) == [{0}, {0, 1}, {1, 2}]


def test_trace_canonical_order_is_insertion_independent():
    a = RetentionTrace(2, 1)
    b = RetentionTrace(2, 1)
    events = [
        (1, 0, 0, ACTION_EVICT, 0, 5),
        (0, 1, 0, ACTION_APPEND, 0, 5),
        (1, 0, 0, ACTION_APPEND, 1, 6),
        (0, 0, 0, ACTION_APPEND, 0, 5),
    ]
    for ev in events:
        a.record(*ev)
    for ev in reversed(events):
        b.record(*ev)
    assert a.sorted_events() == b.sorted_events()
    # appends sort before evicts within one (step, layer, head)
    kinds = [(ev.step, ev.action) for ev in a.sorted_events() if ev.layer == 0]
    assert kinds == [(0, ACTION_APPEND), (1, ACTION_APPEND), (1, ACTION_EVICT)]


def test_trace_csv_round_trip(tmp_path):
    trace = RetentionTrace(2, 2)
    trace.record(0, 0, 0, ACTION_APPEND, 0, 42)
    trace.record(0, 1, 1, ACTION_APPEND, 0, 42)
    trace.record(3, 1, 1, ACTION_EVICT, 0, 42)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    back = RetentionTrace.read_csv(path)
    assert back.n_layers == 2 and back.n_heads == 2
    assert back.sorted_events() == trace.sorted_events()

    bad = tmp_path / "bad.csv"
    bad.write_text("step,layer\n")
    with pytest.raises(ValueError):
        RetentionTrace.read_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("step,layer,head,action,original_position,token_id\n")
    with pytest.raises(ValueError):
        RetentionTrace.read_csv(empty)


def test_empty_tables_write_the_header_alone(tmp_path):
    RetentionTrace(2, 2).write_csv(tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == (",".join(TRACE_COLUMNS) + "\r\n").encode()
    ScriptedTrace(n_layers=1, n_heads=1, rows=[]).write_csv(tmp_path / "script.csv")
    assert (tmp_path / "script.csv").read_bytes() == (",".join(SCRIPT_COLUMNS) + "\r\n").encode()


def _no_row_loop(path, header):
    raise AssertionError("read_csv_rows called")


@pytest.mark.parametrize("newline", ["\r\n", "\n", "\r"])
def test_written_trace_skips_the_row_loop(tmp_path, monkeypatch, newline):
    # every file write_csv writes, in any line end and with blank lines, is
    # parsed in one vectorised call
    trace = RetentionTrace(2, 3)
    for t in range(6):
        trace.record(t, t % 2, t % 3, ACTION_APPEND, t, 100 + t)
    trace.record(5, 0, 0, ACTION_EVICT, 0, 100)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_bytes().decode().split("\r\n")
    lines[3:3] = ["", ""]
    path.write_bytes(newline.join(lines).encode())
    monkeypatch.setattr(msrnn.state, "read_csv_rows", _no_row_loop)
    back = RetentionTrace.read_csv(path)
    assert (back.n_layers, back.n_heads, back.n_steps) == (2, 3, 6)
    assert back.events == trace.sorted_events()


def test_odd_trace_cells_read_as_the_row_loop_reads_them(tmp_path):
    # int() takes a sign, spaces, underscores and non-ASCII digits; the
    # ASCII separators \x1c-\x1f are not spaces to it
    header = ",".join(TRACE_COLUMNS) + "\n"
    path = tmp_path / "trace.csv"
    path.write_text(header + "+4,0,0,append,1_0,\u0663\n 4 ,0,+0,evict,+1_0,7\n",
                    encoding="utf-8")
    back = RetentionTrace.read_csv(path)
    assert back.events == [TraceEvent(4, 0, 0, ACTION_APPEND, 10, 3),
                           TraceEvent(4, 0, 0, ACTION_EVICT, 10, 7)]
    assert back.n_steps == 5
    # neither a separator in an int cell nor an action that is not exactly
    # append or evict reads, and the row loop names each one's own line; a
    # trailing \x00 is dropped by a fixed-width string, so it must fail too
    bad_rows = [f"1,0,0,append,1,{cell}" for cell in ("\x1c3", "3\x1f")] + \
        [f"1,0,0,{action},1,1"
         for action in ("append\x00", "evict\x00", "appendx", "Append", "evict ")]
    for lineno, row in enumerate(bad_rows, start=3):
        path.write_text(header + "0,0,0,append,0,0\n" * (lineno - 2) + row + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{lineno}: expected 6 "
                                             f"fields.*, got {re.escape(str(row.split(',')))}$"):
            RetentionTrace.read_csv(path)


@pytest.mark.parametrize("body", ["", "\r\n", "\n\n\r"])
def test_empty_trace_body_fails_without_a_warning(tmp_path, body):
    path = tmp_path / "trace.csv"
    path.write_text(",".join(TRACE_COLUMNS) + "\r\n" + body, newline="")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="holds no events"):
            RetentionTrace.read_csv(path)
    assert not caught


def test_trace_validates_actions_and_ranges():
    trace = RetentionTrace(1, 1)
    with pytest.raises(ValueError):
        trace.record(0, 0, 0, "drop", 0, 0)
    with pytest.raises(ValueError):
        trace.record(0, 1, 0, ACTION_APPEND, 0, 0)


@pytest.mark.parametrize("row", [(0, 2, 0, 0, 0, 0), (0, -1, 0, 1, 0, 0), (0, 0, 3, 0, 0, 0),
                                 (0, 0, -1, 1, 0, 0), (0, 0, 0, 2, 0, 0), (0, 0, 0, -1, 0, 0),
                                 (0, 5, 0, 7, 0, 0)])
def test_record_block_fails_as_record_does(row):
    # a bad layer, head or action code fails with record's own message, and
    # a table with a bad row records nothing
    step, layer, head, code, position, token = row
    with pytest.raises(ValueError) as per_event:
        RetentionTrace(2, 3).record(step, layer, head,
                                    ACTIONS[code] if code in (0, 1) else code, position, token)
    trace = RetentionTrace(2, 3)
    with pytest.raises(ValueError) as block:
        trace.record_block(np.array([(0, 1, 2, 0, 0, 0), row]))
    assert str(block.value) == str(per_event.value)
    assert trace.events == [] and trace.n_steps == 0


def test_record_block_takes_only_integer_tables():
    trace = RetentionTrace(1, 1)
    for bad in (np.zeros((2, 5), dtype=np.int64), np.zeros(6, dtype=np.int64),
                np.zeros((1, 6), dtype=np.float64)):
        with pytest.raises(ValueError, match="integer table"):
            trace.record_block(bad)
    trace.record_block(np.zeros((0, 6), dtype=np.int64))
    assert trace.events == [] and trace.n_steps == 0
