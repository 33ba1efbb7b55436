"""Property tests: the layer-buffer multi-state against a plain-list model,
row-wise remapping of position arrays, and sequential decoding against
masked-parallel evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msrnn import (ACTION_APPEND, ACTION_EVICT, Model, ModelConfig, MultiState,
                   RetentionTrace, StateMeta, TokenStream, TraceEvent,
                   init_random_model, masked_parallel_perplexity, parse_policy,
                   remap_gap, remap_positions, sequential_perplexity, zero_model)


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       n_layers=st.integers(1, 2),
       n_heads=st.integers(1, 3),
       head_dim=st.integers(0, 4),
       capacity=st.none() | st.integers(1, 6))
def test_multistate_matches_list_model(data, n_layers, n_heads, head_dim, capacity):
    trace = RetentionTrace(n_layers, n_heads)
    state = MultiState(n_layers, n_heads, head_dim, capacity=capacity, trace=trace)
    # reference: per (layer, head) a list of (position, step, token, key, value)
    ref = [[[] for _ in range(n_heads)] for _ in range(n_layers)]
    events = []
    last_step = [-1] * n_layers  # evictions carry the latest step appended to their layer
    next_pos = 0
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n_ops = data.draw(st.integers(0, 80), label="n_ops")
    for _ in range(n_ops):
        layer = data.draw(st.integers(0, n_layers - 1), label="layer")
        head = data.draw(st.integers(0, n_heads - 1), label="head")
        entries = ref[layer][head]
        if data.draw(st.integers(0, 9), label="op") < 7:
            next_pos += data.draw(st.integers(1, 3), label="gap")
            step = next_pos + data.draw(st.integers(0, 2), label="lag")
            token = int(rng.integers(0, 1000))
            key = rng.standard_normal(head_dim).astype(np.float32)
            value = rng.standard_normal(head_dim).astype(np.float32)
            meta = StateMeta(original_position=next_pos, entry_step=step, token_id=token)
            if capacity is not None and len(entries) == capacity + 1:
                with pytest.raises(ValueError, match="k\\+1"):
                    state.append(layer, head, key, value, meta)
                continue
            state.append(layer, head, key, value, meta)
            entries.append((next_pos, step, token, key, value))
            last_step[layer] = max(last_step[layer], step)
            events.append(TraceEvent(step, layer, head, ACTION_APPEND, next_pos, token))
        else:
            index = data.draw(st.integers(-1, len(entries)), label="index")
            if not 0 <= index < len(entries):
                with pytest.raises(ValueError):
                    state.evict(layer, head, index)
                continue
            got = state.evict(layer, head, index)
            pos, step, token, _, _ = entries.pop(index)
            assert got == StateMeta(original_position=pos, entry_step=step, token_id=token)
            events.append(TraceEvent(last_step[layer], layer, head, ACTION_EVICT, pos, token))

        for l in range(n_layers):
            for h in range(n_heads):
                expected = ref[l][h]
                assert state.size(l, h) == len(expected)
                assert state.retained_positions(l, h) == [e[0] for e in expected]
                keys, values = state.keys(l, h), state.values(l, h)
                assert keys.shape == values.shape == (len(expected), head_dim)
                for row, e in enumerate(expected):
                    assert np.array_equal(keys[row], e[3])
                    assert np.array_equal(values[row], e[4])
            sizes = {len(es) for es in ref[l]}
            if len(sizes) > 1:
                with pytest.raises(ValueError):
                    state.layer_view(l)
                continue
            keys, values, positions = state.layer_view(l)
            assert positions.tolist() == [[e[0] for e in ref[l][h]] for h in range(n_heads)]
            for h in range(n_heads):
                assert np.array_equal(keys[h], state.keys(l, h))
                assert np.array_equal(values[h], state.values(l, h))
    assert trace.events == events


@pytest.mark.parametrize("capacity", [None, 40])
def test_multistate_keeps_rows_across_growth(capacity):
    # 41 appends overflow an unbounded state's first buffer twice; the bounded
    # state holds k+1 = 41 rows from the start and refuses a 42nd
    state = MultiState(1, 2, 3, capacity=capacity)
    rows = np.arange(41 * 3, dtype=np.float32).reshape(41, 3)
    for pos in range(41):
        for head in range(2):
            state.append(0, head, rows[pos], -rows[pos],
                         StateMeta(original_position=pos, entry_step=pos, token_id=pos))
    state.evict(0, 1, 0)
    assert np.array_equal(state.keys(0, 0), rows)
    assert np.array_equal(state.values(0, 1), -rows[1:])
    assert state.retained_positions(0, 1) == list(range(1, 41))
    meta = StateMeta(original_position=41, entry_step=41, token_id=0)
    if capacity is None:
        state.append(0, 0, rows[0], rows[0], meta)
        assert state.size(0, 0) == 42
    else:
        with pytest.raises(ValueError):
            state.append(0, 0, rows[0], rows[0], meta)
        state.append(0, 1, rows[0], rows[0], meta)
        assert state.size(0, 1) == 41


increasing_rows = st.integers(1, 4).flatmap(lambda n_rows: st.integers(1, 30).flatmap(
    lambda size: st.lists(
        st.tuples(st.integers(0, 1000),
                  st.lists(st.integers(1, 300), min_size=size - 1, max_size=size - 1)),
        min_size=n_rows, max_size=n_rows)))


@settings(max_examples=200, deadline=None)
@given(rows=increasing_rows)
def test_remap_positions_2d_equals_rows(rows):
    retained = np.array([np.cumsum([start] + gaps) for start, gaps in rows], dtype=np.int64)
    got = remap_positions(retained)
    assert got.shape == retained.shape and got.dtype == np.float64
    assert np.array_equal(got, np.stack([remap_positions(list(r)) for r in retained]))
    for r, out in zip(retained.tolist(), got):
        running = [0.0]
        for prev, cur in zip(r, r[1:]):
            running.append(running[-1] + remap_gap(cur - prev))
        assert np.array_equal(out, running)


# the seven policy forms; a trailing "+" takes a drawn pinned prefix
POLICY_FORMS = ("window", "window+", "h2o-head", "h2o-layer", "tova-head",
                "tova-layer", "tova-layer+")


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       n_layers=st.integers(1, 2),
       n_heads=st.integers(1, 3),
       head_dim=st.sampled_from([2, 4]),
       form=st.sampled_from(POLICY_FORMS),
       zero=st.booleans())
def test_sequential_equals_masked_parallel(data, n_layers, n_heads, head_dim, form, zero):
    # token-major and layer-major runs of the same kernel: equal NLLs and
    # traces, bit for bit; zero weights make every attention row an exact tie
    pinned = form.endswith("+")
    k = data.draw(st.integers(2 if pinned else 1, 8), label="k")
    policy = form + str(data.draw(st.integers(1, k - 1), label="pin")) if pinned else form
    kind = parse_policy(policy, k)
    config = ModelConfig(n_layers=n_layers, n_heads=n_heads, head_dim=head_dim,
                         hidden_dim=n_heads * head_dim, ff_dim=8, vocab_size=8,
                         train_context_len=24)
    weights = zero_model(config) if zero else \
        init_random_model(config, data.draw(st.integers(0, 2**16), label="seed"))
    model = Model(config, weights)
    ids = data.draw(st.lists(st.integers(0, 7), min_size=2, max_size=24), label="ids")
    stream = TokenStream(ids=tuple(ids), chunk_len=data.draw(st.integers(2, 24), label="chunk"))
    seq_trace = RetentionTrace(n_layers, n_heads)
    par_trace = RetentionTrace(n_layers, n_heads)
    seq = sequential_perplexity(model, stream, kind, trace=seq_trace)
    par = masked_parallel_perplexity(model, stream, kind, trace=par_trace)
    assert [c.nll for c in par.chunks] == [c.nll for c in seq.chunks]
    assert par_trace.sorted_events() == seq_trace.sorted_events()
