import numpy as np
import pytest

from msrnn import (ACTION_APPEND, ACTION_EVICT, MultiState, RetentionTrace,
                   StateMeta, TraceEvent)


def meta(pos, step=None, token=0):
    return StateMeta(original_position=pos,
                     entry_step=pos if step is None else step,
                     token_id=token)


def test_state_meta_validation():
    StateMeta(original_position=3, entry_step=5, token_id=1)
    with pytest.raises(ValueError):
        StateMeta(original_position=-1, entry_step=0, token_id=0)
    with pytest.raises(ValueError):
        StateMeta(original_position=6, entry_step=5, token_id=0)


def test_append_and_evict_bookkeeping():
    state = MultiState(n_layers=1, n_heads=2, head_dim=3)
    key = np.arange(3, dtype=np.float32)
    for pos in range(4):
        state.append(0, 0, key + pos, key - pos, meta(pos))
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
    state = MultiState(n_layers=1, n_heads=1, head_dim=3)
    good = np.zeros(3, dtype=np.float32)
    with pytest.raises(ValueError):
        state.append(0, 0, np.zeros(4), good, meta(0))
    state.append(0, 0, good, good, meta(5, step=5))
    with pytest.raises(ValueError):
        state.append(0, 0, good, good, meta(5, step=6))
    with pytest.raises(ValueError):
        state.append(0, 0, good, good, meta(3, step=6))
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
        state.append(0, 0, row, row, meta(pos, token=pos + 10))
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


def test_trace_validates_actions_and_ranges():
    trace = RetentionTrace(1, 1)
    with pytest.raises(ValueError):
        trace.record(0, 0, 0, "drop", 0, 0)
    with pytest.raises(ValueError):
        trace.record(0, 1, 0, ACTION_APPEND, 0, 0)
