import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msrnn import (AccumulatedScores, MultiState, PolicyKind, RetentionTrace,
                   accumulate_row, apply_policy, parse_policy, recent_window)
from msrnn.policies import decide_layer


def test_parse_policy_forms():
    assert parse_policy("none", k=4) is None
    assert parse_policy("window", k=4) == PolicyKind("window", 4, 0)
    assert parse_policy("window+2", k=4) == PolicyKind("window", 4, 2)
    assert parse_policy("window+2", k=4, pin=2) == PolicyKind("window", 4, 2)
    assert parse_policy("tova-layer+1", k=8) == PolicyKind("tova-layer", 8, 1)
    assert parse_policy("tova-head", k=8) == PolicyKind("tova-head", 8, 0)
    assert parse_policy("h2o-layer", k=8) == PolicyKind("h2o-layer", 8, 0)
    assert parse_policy("window", k=4, pin=1) == PolicyKind("window", 4, 1)
    assert parse_policy("window", k=4).name == "window"
    assert parse_policy("window+2", k=4).name == "window+2"


def test_parse_policy_rejections():
    with pytest.raises(ValueError):
        parse_policy("bogus", k=4)
    with pytest.raises(ValueError):
        parse_policy("window+x", k=4)
    with pytest.raises(ValueError):
        parse_policy("window+2", k=4, pin=3)  # conflicting pins
    with pytest.raises(ValueError):
        parse_policy("window+4", k=4)  # pin must stay below k
    with pytest.raises(ValueError):
        parse_policy("tova-head+1", k=4)  # head-wise TOVA takes no pin
    with pytest.raises(ValueError):
        parse_policy("h2o-layer+1", k=4)
    with pytest.raises(ValueError):
        parse_policy("none", k=4, pin=1)
    with pytest.raises(ValueError):
        parse_policy("window", k=0)


def test_policy_kind_flags():
    assert PolicyKind("h2o-head", 4).needs_scores
    assert PolicyKind("h2o-layer", 4).needs_scores
    assert not PolicyKind("tova-head", 4).needs_scores
    assert PolicyKind("tova-head", 4).headwise
    assert not PolicyKind("tova-layer", 4).headwise
    assert not PolicyKind("window", 4).headwise


def test_accumulate_row_examples():
    acc = np.zeros(0, dtype=np.float64)
    acc = accumulate_row(acc, np.array([1.0], dtype=np.float32))
    np.testing.assert_allclose(acc, [1.0])
    acc = accumulate_row(acc, np.array([0.3, 0.7], dtype=np.float32))
    np.testing.assert_allclose(acc, [1.3, 0.7], rtol=1e-6)
    with pytest.raises(ValueError):
        accumulate_row(acc, np.array([0.1], dtype=np.float32))
    with pytest.raises(ValueError):
        accumulate_row(acc, np.ones(4, dtype=np.float32) / 4)


def test_recent_window_is_ceil_half():
    assert recent_window(1) == 1
    assert recent_window(2) == 1
    assert recent_window(3) == 2
    assert recent_window(32) == 16
    assert recent_window(33) == 17


def _block(n_heads, size):
    return np.zeros((n_heads, size), dtype=np.float32)


def test_window_deciders():
    assert decide_layer(PolicyKind("window", 4), _block(2, 4), None) == [None, None]
    assert decide_layer(PolicyKind("window", 4), _block(2, 5), None) == [0, 0]
    assert decide_layer(PolicyKind("window", 4, 2), _block(2, 5), None) == [2, 2]
    assert decide_layer(PolicyKind("window", 4, 2), _block(2, 3), None) == [None, None]


def test_tova_headwise_picks_per_head_argmin():
    probs = np.array([
        [0.1, 0.5, 0.05, 0.35],
        [0.3, 0.02, 0.4, 0.28],
    ], dtype=np.float32)
    assert decide_layer(PolicyKind("tova-head", 3), probs, None) == [2, 1]
    # under capacity: no eviction
    assert decide_layer(PolicyKind("tova-head", 4), probs, None) == [None, None]


def test_tova_layerwise_uses_head_mean_and_ties_go_low():
    # dyadic values are exact in float32, making the head-mean ties exact
    probs = np.array([
        [0.25, 0.125, 0.125, 0.5],
        [0.125, 0.25, 0.25, 0.375],
    ], dtype=np.float32)
    # means: [0.1875, 0.1875, 0.1875, 0.4375] -> tie among 0..2, lowest wins
    assert decide_layer(PolicyKind("tova-layer", 3), probs, None) == [0, 0]


def test_tova_pin_excludes_prefix():
    probs = np.array([[0.01, 0.02, 0.5, 0.47]], dtype=np.float32)
    assert decide_layer(PolicyKind("tova-layer", 3, 0), probs, None) == [0]
    assert decide_layer(PolicyKind("tova-layer", 3, 2), probs, None) == [3]


def test_h2o_protects_recent_window():
    # k=4 -> recent window 2; candidates are indices 0..2 of a 5-state list
    acc = np.array([[5.0, 1.0, 3.0, 0.1, 0.1]])
    assert decide_layer(PolicyKind("h2o-head", 4), _block(1, 5), acc) == [1]
    assert decide_layer(PolicyKind("h2o-head", 4), _block(1, 4),
                        np.array([[1.0, 2.0, 3.0, 4.0]])) == [None]
    # layer-wise averages the heads first
    acc2 = np.array([[5.0, 1.0, 3.0, 0.1, 0.1],
                     [0.0, 4.0, 3.0, 0.1, 0.1]])
    # means: [2.5, 2.5, 3.0, ...] -> tie between 0 and 1, lowest index
    assert decide_layer(PolicyKind("h2o-layer", 4), _block(2, 5), acc2) == [0, 0]


def test_decide_layer_requires_scores_for_h2o():
    with pytest.raises(ValueError):
        decide_layer(PolicyKind("h2o-head", 2), np.ones((1, 3), dtype=np.float32) / 3, None)


def _filled_state(n_states, capacity, n_layers=1, n_heads=1, trace=None):
    state = MultiState(n_layers, n_heads, head_dim=2, capacity=capacity, trace=trace)
    row = np.zeros(2, dtype=np.float32)
    for pos in range(n_states):
        for layer in range(n_layers):
            for head in range(n_heads):
                state.append(layer, head, row, row, pos, pos)
    return state


def test_apply_policy_evicts_and_records():
    trace = RetentionTrace(1, 2)
    state = _filled_state(4, capacity=3, n_heads=2, trace=trace)
    probs = np.array([
        [0.1, 0.6, 0.05, 0.25],
        [0.4, 0.05, 0.3, 0.25],
    ], dtype=np.float32)
    kind = parse_policy("tova-head", k=3)
    apply_policy(kind, state, [probs])
    assert state.retained_positions(0, 0) == [0, 1, 3]
    assert state.retained_positions(0, 1) == [0, 2, 3]
    evicts = [ev for ev in trace.sorted_events() if ev.action == "evict"]
    assert [(ev.head, ev.original_position) for ev in evicts] == [(0, 2), (1, 1)]


def test_apply_policy_h2o_accumulates_current_row_before_deciding():
    state = _filled_state(3, capacity=2)
    acc = AccumulatedScores(1, 1)
    # prior sums [1.0, 0.2] for positions 0 and 1
    acc._acc[0] = np.array([[1.0, 0.2]], dtype=np.float64)
    # current row lifts position 1 above position 0's total
    probs = np.array([[0.0, 0.9, 0.1]], dtype=np.float32)
    kind = parse_policy("h2o-head", k=2)
    # k=2 -> recent window 1 protects only the newest; candidates 0 and 1
    # with sums [1.0, 1.1]: position 0 goes
    apply_policy(kind, state, [probs], acc)
    assert state.retained_positions(0, 0) == [1, 2]
    np.testing.assert_allclose(acc.layer(0), [[1.1, 0.1]])


def test_apply_policy_needs_scores_guard():
    state = _filled_state(3, capacity=2)
    kind = parse_policy("h2o-head", k=2)
    with pytest.raises(ValueError):
        apply_policy(kind, state, [np.ones((1, 3), dtype=np.float32) / 3])


def test_tova_brute_force_small():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n_heads = int(rng.integers(1, 5))
        size = int(rng.integers(2, 12))
        k = int(rng.integers(1, size))
        probs = rng.random((n_heads, size)).astype(np.float32)
        probs /= probs.sum(axis=1, keepdims=True)

        got_head = decide_layer(PolicyKind("tova-head", k), probs, None)
        for h in range(n_heads):
            best, best_val = 0, float(probs[h, 0])
            for i in range(size):
                if float(probs[h, i]) < best_val:
                    best, best_val = i, float(probs[h, i])
            assert got_head[h] == best

        got_layer = decide_layer(PolicyKind("tova-layer", k), probs, None)
        means = [sum(float(probs[h, i]) for h in range(n_heads)) / n_heads
                 for i in range(size)]
        best, best_val = 0, means[0]
        for i in range(size):
            if means[i] < best_val:
                best, best_val = i, means[i]
        assert got_layer == [best] * n_heads


def test_pin_zero_degenerates():
    # a zero pinned prefix restricts nothing: window+0 and tova-layer+0 take
    # the same decisions as their unpinned forms on every input
    rng = np.random.default_rng(42)
    for _ in range(50):
        n_heads = int(rng.integers(1, 4))
        size = int(rng.integers(1, 9))
        k = int(rng.integers(1, 9))
        probs = rng.random((n_heads, size)).astype(np.float32)
        assert decide_layer(PolicyKind("window", k, 0), probs, None) == \
            ([0] * n_heads if size > k else [None] * n_heads)
        assert decide_layer(PolicyKind("tova-layer", k, 0), probs, None) == \
            decide_layer(PolicyKind("tova-layer", k), probs, None)
    assert parse_policy("window+0", k=4) == parse_policy("window", k=4)
    assert parse_policy("tova-layer+0", k=4).name == "tova-layer"


def test_tova_fixed_row_scale_invariance():
    # scaling a fixed probability row by any positive constant moves every
    # entry equally, so the argmin index cannot change
    rng = np.random.default_rng(11)
    for _ in range(50):
        n_heads = int(rng.integers(1, 4))
        size = int(rng.integers(2, 10))
        k = size - 1
        probs = rng.random((n_heads, size)).astype(np.float32)
        for kind in (PolicyKind("tova-layer", k), PolicyKind("tova-head", k)):
            base = decide_layer(kind, probs, None)
            for scale in (0.25, 2.0, 7.5):
                assert decide_layer(kind, probs * scale, None) == base


def _first_min(values, lo, hi):
    best = lo
    for i in range(lo, hi):
        if values[i] < values[best]:
            best = i
    return best


def _rule_oracle(family, k, pin, probs, acc):
    # the rule from its definitions: window drops the pinned boundary, H2O the
    # lowest accumulated score outside the newest ceil(k/2), TOVA the lowest
    # current probability past the pin; "-layer" kinds use the head mean
    n_heads, size = probs.shape
    if size <= k:
        return [None] * n_heads
    if family == "window":
        return [pin] * n_heads
    if family.startswith("h2o"):
        rows, lo, hi = acc.tolist(), 0, size - (k + 1) // 2
    else:
        rows, lo, hi = probs.tolist(), pin, size
    if family.endswith("-head"):
        return [_first_min(row, lo, hi) for row in rows]
    mean = [sum(row[i] for row in rows) / n_heads for i in range(size)]
    return [_first_min(mean, lo, hi)] * n_heads


def _dyadic_block(data, n_heads, size, dtype, label):
    # quarters are exact in float32 and in every sum here, so ties are exact;
    # whole zero rows are drawn too
    rows = [[0.0] * size if data.draw(st.booleans(), label=f"{label} zero row")
            else data.draw(st.lists(st.integers(0, 4).map(lambda n: n / 4),
                                    min_size=size, max_size=size), label=label)
            for _ in range(n_heads)]
    return np.array(rows, dtype=dtype).reshape(n_heads, size)


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       form=st.sampled_from(("window", "window+i", "h2o-head", "h2o-layer",
                             "tova-head", "tova-layer", "tova-layer+i")),
       n_heads=st.integers(1, 4),
       k=st.integers(1, 6))
def test_decide_layer_matches_rule_oracle(data, form, n_heads, k):
    family, _, suffix = form.partition("+")
    pin = data.draw(st.integers(min(1, k - 1), k - 1), label="pin") if suffix else 0
    size = data.draw(st.integers(1, k + 1), label="size")
    probs = _dyadic_block(data, n_heads, size, np.float32, "probs")
    acc = _dyadic_block(data, n_heads, size, np.float64, "acc") if family.startswith("h2o") else None
    got = decide_layer(PolicyKind(family, k, pin), probs, acc)
    assert got == _rule_oracle(family, k, pin, probs, acc)
    assert all(type(idx) is int for idx in got if idx is not None)
