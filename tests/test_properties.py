"""Property tests: the layer-buffer multi-state and its eviction log against
a plain-list model, step evictions against per-head
ones and a list model, the H2O score block against per-head running sums,
row-wise remapping of position arrays and its bounds, the kernels' rows
against one-vector calls, cached rotation angles against computed ones,
remapped attention against separate key and query rotations, within a step
and across steps, the multi-state's remapped positions against remapping
its retained positions afresh, sequential decoding against masked-parallel evaluation,
block NLLs against per-row ones, greedy generation against scoring its
output, simulator replay, the vectorised retention analyses against a
per-event set replay, trace CSV round trips and trace and script reads
against the csv module, CSV writes against csv.writer, block trace records
against per-event ones, the window band kernel and the causal prefix kernel (with
masked-parallel H2O's score sums) against one-row attention, and damaged
weight files."""

import csv
import io
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from msrnn import (ACTION_APPEND, ACTION_EVICT, Model,
                   ModelConfig, MultiState, RetentionTrace, ScriptedTrace, TokenStream,
                   TraceEvent, WeightFormatError, apply_policy, generate, init_random_model,
                   lifetime_by_tag, load_weights, masked_parallel_perplexity, parse_policy,
                   recent_proportion, remap_positions,
                   retention_matrix, save_weights, sequential_perplexity,
                   simulate_with_rule, token_lifetime, trace_driven_simulate)
import msrnn.harness
import msrnn.model
from msrnn.harness import NLL_ROWS, SCRIPT_COLUMNS, _policy_attention, nll_of
from msrnn.model import (_inv_freq, attend, attention_inputs, attention_step, band_attention,
                         causal_attention, rms_norm, rotate, row_matmul, silu, softmax_rows,
                         zero_model)
from msrnn.policies import AccumulatedScores, decide_layer
from msrnn.remap import remap_gap
from msrnn.state import ACTIONS, TRACE_COLUMNS, ColumnSets, write_csv_rows


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       n_layers=st.integers(1, 2),
       n_heads=st.integers(1, 3),
       head_dim=st.integers(0, 4),
       capacity=st.integers(1, 6))
def test_multistate_matches_list_model(data, n_layers, n_heads, head_dim, capacity):
    state = MultiState(n_layers, n_heads, head_dim, capacity=capacity)
    # reference: per (layer, head) a list of (position, key, value); an
    # entry's position is also its append step. The state's eviction log must
    # equal a per-layer list of (stamp, head, position), and a refused call
    # logs nothing
    ref = [[[] for _ in range(n_heads)] for _ in range(n_layers)]
    evicted = [[] for _ in range(n_layers)]

    def logs():
        return [state.evictions(l).tolist() for l in range(n_layers)]

    last_step = -1  # evictions carry the latest step appended to the state
    next_pos = 0
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n_ops = data.draw(st.integers(0, 80), label="n_ops")
    for _ in range(n_ops):
        layer = data.draw(st.integers(0, n_layers - 1), label="layer")
        head = data.draw(st.integers(0, n_heads - 1), label="head")
        entries = ref[layer][head]
        logs_before = logs()
        if data.draw(st.integers(0, 19), label="bad_call") == 0:
            # an out-of-range layer or a key of the wrong width is refused
            zeros = np.zeros(head_dim, dtype=np.float32)
            with pytest.raises(ValueError):
                state.evict(n_layers, head, 0)
            for bad in ((n_layers, head, zeros, zeros, next_pos + 1),
                        (layer, head, np.zeros(head_dim + 1, np.float32), zeros, next_pos + 1)):
                with pytest.raises(ValueError):
                    state.append(*bad)
            assert logs() == logs_before
            continue
        if data.draw(st.integers(0, 9), label="op") < 7:
            next_pos += data.draw(st.integers(1, 3), label="gap")
            key = rng.standard_normal(head_dim).astype(np.float32)
            value = rng.standard_normal(head_dim).astype(np.float32)
            if data.draw(st.integers(0, 9), label="stale") == 0:
                # a negative position, or one not above the head's newest, is refused
                stale = entries[-1][0] if entries else -1
                with pytest.raises(ValueError):
                    state.append(layer, head, key, value, stale)
                assert logs() == logs_before
                continue
            if len(entries) == capacity + 1:
                with pytest.raises(ValueError, match="k\\+1"):
                    state.append(layer, head, key, value, next_pos)
                assert logs() == logs_before
                continue
            state.append(layer, head, key, value, next_pos)
            entries.append((next_pos, key, value))
            last_step = max(last_step, next_pos)
        else:
            index = data.draw(st.integers(-1, len(entries)), label="index")
            if not 0 <= index < len(entries):
                with pytest.raises(ValueError):
                    state.evict(layer, head, index)
                assert logs() == logs_before
                continue
            state.evict(layer, head, index)
            pos, _, _ = entries.pop(index)
            evicted[layer].append([last_step, head, pos])
            assert logs() == evicted

        for l in range(n_layers):
            for h in range(n_heads):
                expected = ref[l][h]
                assert state.size(l, h) == len(expected)
                assert state.retained_positions(l, h) == [e[0] for e in expected]
                keys, values = state.keys(l, h), state.values(l, h)
                assert keys.shape == values.shape == (len(expected), head_dim)
                for row, e in enumerate(expected):
                    assert np.array_equal(keys[row], e[1])
                    assert np.array_equal(values[row], e[2])
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
    assert logs() == evicted


def test_multistate_keeps_rows_at_capacity():
    # the state holds k+1 = 41 rows from the start and refuses a 42nd
    state = MultiState(1, 2, 3, capacity=40)
    rows = np.arange(41 * 3, dtype=np.float32).reshape(41, 3)
    for pos in range(41):
        for head in range(2):
            state.append(0, head, rows[pos], -rows[pos], pos)
    state.evict(0, 1, 0)
    assert np.array_equal(state.keys(0, 0), rows)
    assert np.array_equal(state.values(0, 1), -rows[1:])
    assert state.retained_positions(0, 1) == list(range(1, 41))
    with pytest.raises(ValueError):
        state.append(0, 0, rows[0], rows[0], 41)
    state.append(0, 1, rows[0], rows[0], 41)
    assert state.size(0, 1) == 41


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       n_heads=st.integers(1, 5),
       capacity=st.integers(1, 6),
       steps=st.integers(1, 16))
def test_evict_step_matches_per_head_evicts(data, n_heads, capacity, steps):
    # each step appends to every head of both layers; past k (and, at
    # random, before) every layer drops one entry per head, every head of a
    # layer the same index or each its own, and the layers the same indices
    # or each their own. MultiState.evict_step leaves the K/V/meta rows,
    # sizes and evictions() of per-head evicts in layer and head order, and
    # ColumnSets.evict_step the positions and evictions() of a list model
    n_layers, head_dim = 2, 3
    stepped, per_head = (MultiState(n_layers, n_heads, head_dim, capacity) for _ in range(2))
    sets = ColumnSets(n_layers, n_heads, capacity)
    ref = [[[] for _ in range(n_heads)] for _ in range(n_layers)]  # retained positions
    log = [[] for _ in range(n_layers)]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    for step in range(steps + 1):  # the extra append shows the last step's positions
        assert sets.append(step).tolist() == [
            [ref[layer][h] + [step] for h in range(n_heads)] for layer in range(n_layers)]
        if step == steps:
            continue
        for layer in range(n_layers):
            rows = rng.standard_normal((n_heads, head_dim)).astype(np.float32)
            for state in (stepped, per_head):
                for head in range(n_heads):
                    state.append(layer, head, rows[head], -rows[head], step)
            for positions in ref[layer]:
                positions.append(step)
        size = len(ref[0][0])
        if size > capacity or data.draw(st.booleans(), label="early"):
            index = st.integers(0, size - 1)
            indices = []
            for layer in range(n_layers):
                if layer and data.draw(st.booleans(), label="layers agree"):
                    indices += indices[:n_heads]
                elif data.draw(st.booleans(), label="heads agree"):
                    indices += [data.draw(index, label="index")] * n_heads
                else:
                    indices += data.draw(st.lists(index, min_size=n_heads, max_size=n_heads),
                                         label="indices")
            stepped.evict_step(indices)
            for row, i in enumerate(indices):
                per_head.evict(row // n_heads, row % n_heads, i)
            sets.evict_step(indices)
            for layer in range(n_layers):
                log[layer] += [[step, head, ref[layer][head].pop(i)] for head, i in
                               enumerate(indices[layer * n_heads:(layer + 1) * n_heads])]
        for layer in range(n_layers):
            assert [stepped.size(layer, h) for h in range(n_heads)] == \
                [per_head.size(layer, h) for h in range(n_heads)] == [len(p) for p in ref[layer]]
        assert stepped.step_size() == sets.step_size() == len(ref[0][0])
    for name in ("_keys", "_values", "_meta"):
        assert np.array_equal(getattr(stepped, name), getattr(per_head, name)), name
    for layer in range(n_layers):
        assert stepped.evictions(layer).tolist() == per_head.evictions(layer).tolist() \
            == sets.evictions(layer).tolist() == log[layer]


@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       n_heads=st.integers(1, 4),
       k=st.integers(1, 6),
       steps=st.integers(1, 20),
       layerwise=st.booleans())
def test_score_block_matches_per_head_running_sums(data, n_heads, k, steps, layerwise):
    # H2O bookkeeping: each step every head of both layers takes one float32
    # row (one state longer after an append, or as long), and once over k
    # one column per head is dropped, the same for every head of a layer or
    # each head its own; the (L, H, S) block equals per-head float64 running
    # sums bit for bit
    n_layers = 2
    scores = AccumulatedScores(n_layers, n_heads)
    ref = [[[] for _ in range(n_heads)] for _ in range(n_layers)]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    for _ in range(steps):
        grow = not ref[0][0] or data.draw(st.booleans(), label="grow")
        probs = rng.random((n_layers, n_heads, len(ref[0][0]) + grow)).astype(np.float32)
        scores.accumulate(probs)
        for layer, heads in enumerate(ref):
            for head, sums in enumerate(heads):
                sums[:] = [s + float(p) for s, p in zip(sums, probs[layer, head])] + \
                    [float(probs[layer, head, -1])] * grow
        size = len(ref[0][0])
        if size > k:
            indices = []
            for _layer in range(n_layers):
                if layerwise:
                    indices += [data.draw(st.integers(0, size - 1), label="index")] * n_heads
                else:
                    indices += data.draw(st.lists(st.integers(0, size - 1), min_size=n_heads,
                                                  max_size=n_heads), label="indices")
            scores.drop(indices)
            for row, index in enumerate(indices):
                del ref[row // n_heads][row % n_heads][index]
        block = scores.block
        assert block.dtype == np.float64 and block.shape == (n_layers, n_heads, len(ref[0][0]))
        assert block.tolist() == ref


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
    assert par_trace.events == seq_trace.events  # both list them layer block by layer block


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       vocab=st.integers(1, 300),
       n_rows=st.integers(1, 300),
       offset=st.floats(-1e3, 1e3),
       tied=st.booleans())
def test_nll_block_equals_per_row(data, vocab, n_rows, offset, tied):
    # one float64 max, exp and row-wise sum over a block of rows give each
    # row's NLL as its own 1-D reductions do, bit for bit, in one block and in
    # blocks of NLL_ROWS rows as scoring cuts a chunk
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    draw = rng.integers(-2, 3, (n_rows, vocab)) if tied else rng.normal(0, 4, (n_rows, vocab))
    logits = (draw + offset).astype(np.float32)
    targets = rng.integers(0, vocab, n_rows).tolist()
    expected = []
    for row, target in zip(logits, targets):
        x = row.astype(np.float64)
        m = float(x.max())
        expected.append((m + math.log(float(np.exp(x - m).sum()))) - float(x[target]))
    assert nll_of(logits, targets) == expected
    assert [value for lo in range(0, n_rows, NLL_ROWS)
            for value in nll_of(list(logits[lo:lo + NLL_ROWS]), targets[lo:lo + NLL_ROWS])
            ] == expected


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       n_layers=st.integers(1, 2),
       n_heads=st.integers(1, 3),
       form=st.sampled_from(POLICY_FORMS + ("none",)),
       remap=st.booleans(),
       zero=st.booleans())
def test_generate_and_scoring_run_one_recurrence(data, n_layers, n_heads, form, remap, zero):
    # scoring generate's output under the same policy replays its decode
    # steps: the same appends and evictions, in the same order
    pinned = form.endswith("+")
    k = data.draw(st.integers(2 if pinned else 1, 8), label="k")
    policy = form + str(data.draw(st.integers(1, k - 1), label="pin")) if pinned else form
    kind = parse_policy(policy, k)
    config = ModelConfig(n_layers=n_layers, n_heads=n_heads, head_dim=4,
                         hidden_dim=n_heads * 4, ff_dim=8, vocab_size=8,
                         train_context_len=40)
    weights = zero_model(config) if zero else \
        init_random_model(config, data.draw(st.integers(0, 2**16), label="seed"))
    model = Model(config, weights)
    prompt = data.draw(st.lists(st.integers(0, 7), min_size=1, max_size=2 * k), label="prompt")
    steps = data.draw(st.integers(0 if len(prompt) > 1 else 1, 20), label="steps")
    gen_trace = RetentionTrace(n_layers, n_heads)
    out = generate(model, prompt, steps, kind, remap=remap, trace=gen_trace)
    assert out[:len(prompt)] == prompt and len(out) == len(prompt) + steps
    score_trace = RetentionTrace(n_layers, n_heads)
    sequential_perplexity(model, TokenStream(tuple(out), len(out)), kind, remap=remap,
                          trace=score_trace)
    assert gen_trace.events == score_trace.events


@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       n_rows=st.integers(1, 16),
       width=st.integers(1, 300),
       offset=st.integers(0, 15))
def test_row_kernels_equal_one_vector_calls(data, n_rows, width, offset):
    # the masked-parallel contract: row t of a kernel call on (T, n) rows ==
    # the one-vector call on row t, bit for bit. The rows are cut from a
    # buffer at a float offset, so they sit at every alignment; the vectors
    # are both those rows as they are and fresh (aligned) copies of them.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

    def rows(*shape):
        n = int(np.prod(shape))
        scale = rng.uniform(1e-3, 1e3)
        return (rng.standard_normal(n + offset) * scale).astype(np.float32)[offset:].reshape(shape)

    def check(kernel, block, *args):
        out = kernel(block, *args)
        assert out.shape == block.shape[:-1] + out.shape[-1:]
        for t in range(len(block)):
            for vector in (block[t], block[t].copy()):
                one = kernel(vector, *args)
                assert one.dtype == out.dtype and np.array_equal(out[t], one)

    x = rows(n_rows, width)
    w = rng.uniform(-1, 1, (width, data.draw(st.integers(1, 300), label="out"))).astype(np.float32)
    check(row_matmul, x, w)
    check(rms_norm, x, rng.uniform(0.5, 1.5, width).astype(np.float32))
    check(silu, x)
    check(softmax_rows, x)
    # rotate as attention_inputs calls it: (T, heads, head_dim) rows, (T, 1) positions
    head_dim = 2 * data.draw(st.integers(1, 32), label="pairs")
    heads = data.draw(st.integers(1, 8), label="heads")
    vecs = rows(n_rows, heads, head_dim)
    positions = data.draw(st.lists(st.integers(0, 10**6) | st.floats(0, 1e6),
                                   min_size=n_rows, max_size=n_rows), label="positions")
    inv_freq = _inv_freq(head_dim, 10000.0)
    out = rotate(vecs, np.array(positions)[:, None], inv_freq)
    for t, position in enumerate(positions):
        for vector in (vecs[t], vecs[t].copy()):
            assert np.array_equal(out[t], rotate(vector, position, inv_freq))


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       n_heads=st.integers(1, 4),
       pairs=st.integers(1, 16),
       n_rows=st.integers(1, 130),
       scale=st.floats(1e-3, 1e3))
def test_stacked_projection_equals_per_matrix_products(data, n_heads, pairs, n_rows, scale):
    # attention_inputs projects q, k and v with one matmul against the
    # layer's (3, hidden, hidden) w_qkv: for one vector each is `h @ w`, for
    # rows `row_matmul(h, w)` of its own matrix, bit for bit; with positions,
    # q and k are those products rotated
    config = ModelConfig(n_layers=1, n_heads=n_heads, head_dim=2 * pairs,
                         hidden_dim=2 * pairs * n_heads, ff_dim=4, vocab_size=2,
                         train_context_len=2)
    model = Model(config, init_random_model(config, data.draw(st.integers(0, 2**16), label="seed")))
    lw = model.weights.layers[0]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng"))
    x = (rng.standard_normal((n_rows, config.hidden_dim)) * scale).astype(np.float32)
    first = data.draw(st.integers(0, 5000), label="first")
    inv_freq = _inv_freq(config.head_dim, config.rope_base)
    for block, positions in ((x, np.arange(first, first + n_rows)[:, None]), (x[0], first)):
        h = rms_norm(block, lw.attn_norm)
        want = [row_matmul(h, w).reshape(block.shape[:-1] + (n_heads, -1))
                for w in (lw.w_q, lw.w_k, lw.w_v)]
        if block.ndim == 1:
            assert all(np.array_equal(h @ w, one.reshape(-1))
                       for w, one in zip((lw.w_q, lw.w_k, lw.w_v), want))
        assert all(np.array_equal(got, one)
                   for got, one in zip(attention_inputs(model, 0, block, None), want))
        q, k, v = attention_inputs(model, 0, block, positions)
        assert np.array_equal(q, rotate(want[0], positions, inv_freq))
        assert np.array_equal(k, rotate(want[1], positions, inv_freq))
        assert np.array_equal(v, want[2])


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       setups=st.lists(st.tuples(st.integers(1, 32).map(lambda pairs: 2 * pairs),
                                    st.sampled_from([10000.0, 100.0]) | st.floats(1.01, 1e6)),
                          min_size=1, max_size=3, unique=True))
def test_rotate_angle_table_equals_computed_angles(data, setups):
    # integer positions (a Python-int step, a chunk's (T, 1) integer rows)
    # read their angles from the cached table; the same positions as floats
    # compute them, bit for bit the same rotation. Positions sit on both
    # sides of the table's end, the (head_dim, rope_base) pairs interleave,
    # and a fresh inv_freq array equal in value to a cached one reads the
    # same table. The cache stays bounded.
    msrnn.model._angle_table.cache_clear()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    cap = msrnn.model._ANGLE_ROWS
    positions_st = st.integers(cap - 2, cap + 1) | st.integers(0, 10**6) | st.integers(-3, 70)
    for _ in range(data.draw(st.integers(1, 12), label="calls")):
        head_dim, rope_base = data.draw(st.sampled_from(setups), label="setup")
        inv_freq = _inv_freq(head_dim, rope_base)
        if data.draw(st.booleans(), label="fresh"):
            inv_freq = inv_freq.copy()
        heads = data.draw(st.integers(1, 8), label="heads")
        if data.draw(st.booleans(), label="step"):
            position = data.draw(positions_st, label="position")
            # one vector, a block of heads, and the (2, heads, head_dim) q/k
            # slice attention_inputs rotates
            shape = data.draw(st.sampled_from([(head_dim,), (heads, head_dim),
                                               (2, heads, head_dim)]), label="shape")
            vecs = (rng.standard_normal(shape) * rng.uniform(1e-3, 1e3)).astype(np.float32)
            assert np.array_equal(rotate(vecs, position, inv_freq),
                                  rotate(vecs, float(position), inv_freq))
        else:
            positions = np.array(data.draw(st.lists(positions_st, min_size=1, max_size=6),
                                           label="positions"))[:, None]
            vecs = rng.standard_normal((len(positions), heads, head_dim)).astype(np.float32)
            assert np.array_equal(rotate(vecs, positions, inv_freq),
                                  rotate(vecs, positions.astype(np.float64), inv_freq))
    assert msrnn.model._angle_table.cache_info().currsize <= len(setups)


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       n_heads=st.integers(1, 5),
       head_dim=st.integers(1, 32).map(lambda pairs: 2 * pairs),
       n_rows=st.integers(2, 160),
       offset=st.integers(0, 15))
def test_band_attention_rows_equal_one_row_calls(data, n_heads, head_dim, n_rows, offset):
    # the window family's masked-parallel kernel: every row of
    # band_attention equals the one-token attention_step over the columns a
    # window+pin multi-state retains at that row, read through layer_view
    # as sequential decoding reads them, bit for bit; q, k and v are cut
    # from buffers at a float offset, so they sit at every alignment
    capacity = data.draw(st.integers(1, n_rows - 1), label="k")
    pin = data.draw(st.integers(0, capacity - 1), label="pin")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    scale = rng.uniform(1e-2, 1e2)
    n = n_rows * n_heads * head_dim
    q, k, v = ((rng.standard_normal(n + offset) * scale).astype(np.float32)[offset:]
               .reshape(n_rows, n_heads, head_dim) for _ in range(3))
    ctx = band_attention(q, k, v, capacity, pin)
    state = MultiState(1, n_heads, head_dim, capacity=capacity)
    for t in range(n_rows):
        for head in range(n_heads):
            state.append(0, head, k[t, head], v[t, head], t)
        keys, values, positions = state.layer_view(0)
        band = range(max(pin, t - capacity + pin), t + 1)
        assert positions.tolist() == [list(range(min(pin, t + 1))) + list(band)] * n_heads
        assert np.array_equal(ctx[t], attention_step(q[t], keys, values)[0]), t
        if t >= capacity:
            for head in range(n_heads):
                state.evict(0, head, pin)
    # so blocking the band rows changes no bit either
    for rows in (1, 7):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(msrnn.model, "_BAND_ROWS", rows)
            assert np.array_equal(band_attention(q, k, v, capacity, pin), ctx)


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       n_heads=st.integers(1, 5),
       head_dim=st.integers(1, 32).map(lambda pairs: 2 * pairs),
       n_rows=st.integers(1, 160),
       offset=st.integers(0, 15))
def test_causal_attention_rows_equal_one_row_calls(data, n_heads, head_dim, n_rows, offset):
    # the masked-parallel prefix kernel: row t of causal_attention equals the
    # one-token attention_step over columns 0..t, context and probabilities
    # bit for bit, with zeros above the diagonal, in blocks of any height. The
    # chunk holds one row more than the kernel reads, so masked-parallel H2O
    # over it with k = n_rows decides once, on the float64 score sums of every
    # row added in row order, as `sums[:, :t + 1] += probs` adds them; q, k
    # and v are cut from buffers at a float offset, so they sit at every
    # alignment
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    scale = rng.uniform(1e-2, 1e2)
    n = (n_rows + 1) * n_heads * head_dim
    q, k, v = ((rng.standard_normal(n + offset) * scale).astype(np.float32)[offset:]
               .reshape(n_rows + 1, n_heads, head_dim) for _ in range(3))
    keys, values = (np.ascontiguousarray(x.transpose(1, 0, 2)) for x in (k, v))
    sums = np.zeros((n_heads, n_rows + 1))
    blocks = list(causal_attention(q, keys, values, n_rows))
    assert [rows.start for rows, _, _ in blocks] == list(range(0, n_rows, msrnn.model._BAND_ROWS))
    for rows, ctx, probs in blocks:
        assert probs.dtype == np.float32 and probs.shape == (n_heads, len(ctx), rows.stop)
        for t, row_ctx, row_probs in zip(range(rows.start, rows.stop), ctx,
                                         probs.transpose(1, 0, 2)):
            want_ctx, want_probs = attention_step(q[t], keys[:, :t + 1], values[:, :t + 1])
            assert np.array_equal(row_ctx, want_ctx), t
            assert np.array_equal(row_probs[:, :t + 1], want_probs), t
            assert not row_probs[:, t + 1:].any(), t
            sums[:, :t + 1] += want_probs
    sums += attention_step(q[n_rows], keys, values)[1]  # the deciding row

    def decided_sums():
        seen = []

        def spy(kind, probs, scores):
            seen.append(scores.copy())
            return decide_layer(kind, probs, scores)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(msrnn.harness, "decide_layer", spy)
            _policy_attention(parse_policy("h2o-head", n_rows), q, k, v)
        return seen

    seen = decided_sums()
    assert len(seen) == 1 and np.array_equal(seen[0], sums)

    # so blocking the rows changes no bit either
    def dense(blocks):
        blocks = list(blocks)
        probs = np.zeros((n_heads, n_rows, n_rows), dtype=np.float32)
        for rows, _, block in blocks:
            probs[:, rows, :rows.stop] = block
        return np.concatenate([ctx for _, ctx, _ in blocks]), probs

    want = dense(blocks)
    for height in (1, 7):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(msrnn.model, "_BAND_ROWS", height)
            got = dense(causal_attention(q, keys, values, n_rows))
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), height
            assert np.array_equal(decided_sums()[0], sums), height


@settings(max_examples=200, deadline=None)
@given(start=st.integers(0, 10**6),
       gaps=st.lists(st.integers(1, 10**12), min_size=0, max_size=40))
def test_remap_positions_monotone_with_bounded_span(start, gaps):
    # every remapped gap lies in (0, 10], so the k retained states of a cache
    # span at most 10*(k-1) however far apart their originals are
    retained = np.cumsum([start] + gaps)
    got = remap_positions(retained)
    assert got[0] == 0.0
    assert (np.diff(got) > 0).all()
    assert got[-1] <= 10 * (len(retained) - 1)


@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       n_heads=st.integers(1, 4),
       head_dim=st.sampled_from([2, 4, 6, 8, 10, 12, 14, 16]),
       size=st.integers(1, 20),
       diverge=st.booleans())
def test_remapped_attend_equals_separate_rotations(data, n_heads, head_dim, size, diverge):
    # attend's remap branch, however it shares the remap and the rotation
    # between heads and q, equals rotating every head's keys at its own
    # remapped positions and q on its own at the newest one. The cache is
    # what is left of a longer run with gaps on both sides of the knee, after
    # evictions at one index for all heads or at each head's own.
    config = ModelConfig(n_layers=1, n_heads=n_heads, head_dim=head_dim,
                         hidden_dim=n_heads * head_dim, ff_dim=2, vocab_size=2,
                         train_context_len=2)
    model = Model(config, zero_model(config))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n_evict = data.draw(st.integers(0, 12), label="n_evict")
    positions = np.cumsum(data.draw(st.lists(st.integers(1, 10**4), min_size=size + n_evict,
                                             max_size=size + n_evict), label="gaps"))
    keys, values = rng.standard_normal((2, size + n_evict, n_heads, head_dim)).astype(np.float32)
    states = [MultiState(1, n_heads, head_dim, capacity=size + n_evict, remap=True)
              for _ in range(2)]
    for state in states:
        for t in range(size - 1 + n_evict):
            for head in range(n_heads):
                state.append(0, head, keys[t, head], values[t, head], int(positions[t]))
    for remaining in range(size - 1 + n_evict, size - 1, -1):
        if diverge:
            indices = data.draw(st.lists(st.integers(0, remaining - 1), min_size=n_heads,
                                         max_size=n_heads), label="indices")
        else:
            indices = [data.draw(st.integers(0, remaining - 1), label="index")] * n_heads
        for state in states:
            for head, index in enumerate(indices):
                state.evict(0, head, index)
    q = rng.standard_normal((n_heads, head_dim)).astype(np.float32)
    new, position = len(positions) - 1, int(positions[-1])

    got, ref = states
    ctx, probs = attend(model, 0, got, q, keys[new], values[new], position)
    for head in range(n_heads):
        ref.append(0, head, keys[new, head], values[new, head], position)
    ref_keys, ref_values, retained = ref.layer_view(0)
    remapped = remap_positions(retained)
    inv_freq = _inv_freq(head_dim, config.rope_base)
    want_ctx, want_probs = attention_step(rotate(q, remapped[:, -1], inv_freq),
                                          rotate(ref_keys, remapped, inv_freq), ref_values)
    assert np.array_equal(ctx, want_ctx) and np.array_equal(probs, want_probs)


@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       n_heads=st.integers(1, 4),
       head_dim=st.sampled_from([2, 4, 6, 8, 16]),
       steps=st.integers(1, 24))
def test_remapped_attend_across_steps_equals_full_rotations(data, n_heads, head_dim, steps):
    # attend keeps the rotated keys below the lowest slot evicted since the
    # last step and re-rotates the rest: after every step it equals rotating
    # the whole layer view afresh, whatever ran in between. Between steps the
    # state evicts nothing, or up to two entries each at index 0, the last
    # index, one index for all heads or each head's own, so the remapped row
    # switches between (1, S) and (H, S); gaps fall on both sides of the knee
    config = ModelConfig(n_layers=1, n_heads=n_heads, head_dim=head_dim,
                         hidden_dim=n_heads * head_dim, ff_dim=2, vocab_size=2,
                         train_context_len=2)
    model = Model(config, zero_model(config))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    positions = np.cumsum(data.draw(st.lists(st.integers(1, 10**4), min_size=steps,
                                             max_size=steps), label="gaps"))
    queries, keys, values = rng.standard_normal((3, steps, n_heads, head_dim)).astype(np.float32)
    state = MultiState(1, n_heads, head_dim, capacity=steps, remap=True)
    inv_freq = _inv_freq(head_dim, config.rope_base)
    for t in range(steps):
        ctx, probs = attend(model, 0, state, queries[t], keys[t], values[t],
                            int(positions[t]))
        view_keys, view_values, retained = state.layer_view(0)
        remapped = remap_positions(retained)
        want_ctx, want_probs = attention_step(rotate(queries[t], remapped[:, -1], inv_freq),
                                              rotate(view_keys, remapped, inv_freq), view_values)
        assert np.array_equal(ctx, want_ctx) and np.array_equal(probs, want_probs), t
        for _ in range(data.draw(st.integers(0, 2), label="n_evict")):
            size = state.size(0, 0)
            if not size:
                break
            where = data.draw(st.sampled_from(["first", "last", "shared", "own"]), label="where")
            if where == "own":
                indices = data.draw(st.lists(st.integers(0, size - 1), min_size=n_heads,
                                             max_size=n_heads), label="indices")
            else:
                index = {"first": 0, "last": size - 1}.get(where)
                if index is None:
                    index = data.draw(st.integers(0, size - 1), label="index")
                indices = [index] * n_heads
            state.evict_step(indices)


@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       n_heads=st.integers(1, 4),
       capacity=st.integers(1, 8),
       steps=st.integers(1, 24))
def test_remapped_positions_equal_remap_positions(data, n_heads, capacity, steps):
    # the state keeps each entry's mapped gap and sums them; after every
    # append and every round of evictions that equals remapping the layer's
    # retained positions afresh, bit for bit, in one shared row exactly when
    # the heads' rows are equal. Rounds evict through evict_step or one evict
    # per head, at slot 0, a middle slot, the last slot or each head's own,
    # and position steps of 1 to 2,000 fall on both sides of the knee
    n_layers, row = 2, np.zeros(1, dtype=np.float32)
    state = MultiState(n_layers, n_heads, 1, capacity, remap=True)

    def check():  # remap_positions refuses an empty set
        for layer in range(n_layers if state.step_size() else 0):
            want = remap_positions(state.layer_view(layer)[2])
            got = state.remapped_positions(layer)
            assert np.broadcast_to(got, want.shape).tobytes() == want.tobytes(), layer
            assert (len(got) == 1) == bool((want == want[0]).all()), layer

    position = -1
    for _ in range(steps):
        position += data.draw(st.integers(1, 2000), label="position step")
        for layer in range(n_layers):
            for head in range(n_heads):
                state.append(layer, head, row, row, position)
        check()
        size = state.step_size()
        if size <= capacity and not data.draw(st.booleans(), label="early"):
            continue
        slots = {"first": 0, "middle": size // 2, "last": size - 1}
        where = st.sampled_from(["first", "middle", "last", "any"])
        indices = []
        for _ in range(n_layers):
            if data.draw(st.booleans(), label="heads agree"):
                picks = [data.draw(where, label="where")] * n_heads
            else:
                picks = data.draw(st.lists(where, min_size=n_heads, max_size=n_heads),
                                  label="wheres")
            indices += [slots[pick] if pick in slots else
                        data.draw(st.integers(0, size - 1), label="index") for pick in picks]
        if data.draw(st.booleans(), label="evict_step"):
            state.evict_step(indices)
        else:
            for row_index, index in enumerate(indices):
                state.evict(*divmod(row_index, n_heads), index)
        check()


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       n_layers=st.integers(1, 2),
       n_heads=st.integers(1, 3),
       steps=st.integers(1, 24),
       form=st.sampled_from(POLICY_FORMS),
       tied=st.booleans())
def test_replayed_script_gives_the_same_events(tmp_path_factory, data, n_layers, n_heads, steps,
                                               form, tied):
    # the script simulate_with_rule records, whose steps are (L, H, S)
    # blocks, replays to the identical trace, for every policy form, and so
    # does its write_csv/read_csv round trip, whose steps are the same
    # blocks; both give the events, in their order, of a simulator that
    # appends empty K/V rows to a MultiState head by head; small integer
    # weights make ties common
    pinned = form.endswith("+")
    k = data.draw(st.integers(2 if pinned else 1, 8), label="k")
    policy = form + str(data.draw(st.integers(1, k - 1), label="pin")) if pinned else form
    kind = parse_policy(policy, k)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

    def rule(t, layer, head, retained):
        weights = rng.integers(1, 3, len(retained)) if tied else rng.random(len(retained)) + 0.01
        return (weights / weights.sum()).astype(np.float32)

    script, trace = simulate_with_rule(rule, kind, steps, n_layers, n_heads)
    assert trace_driven_simulate(script, kind).events == trace.events
    path = tmp_path_factory.mktemp("script") / "script.csv"
    script.write_csv(path)
    assert trace_driven_simulate(ScriptedTrace.read_csv(path), kind).events == trace.events
    state = MultiState(n_layers, n_heads, 0, k)
    empty = np.zeros(0, dtype=np.float32)
    for t, blocks in enumerate(script.rows):
        for layer in range(n_layers):
            for head in range(n_heads):
                state.append(layer, head, empty, empty, t)
        apply_policy(kind, state, blocks)
    reference = RetentionTrace(n_layers, n_heads)
    for layer in range(n_layers):
        reference.record_chunk(layer, range(steps), state.evictions(layer))
    assert reference.events == trace.events


def _replay_order(ev: TraceEvent) -> tuple:
    return (ev.step, ev.layer, ev.head, 0 if ev.action == ACTION_APPEND else 1,
            ev.original_position)


def _oracle_steps(trace: RetentionTrace) -> int:
    return max(ev.step for ev in trace.events) + 1


def _oracle_sets(trace: RetentionTrace, layer: int, head: int) -> list[set[int]]:
    # per-event replay: the retained set right after each step's events
    per_step: dict[int, list[TraceEvent]] = {}
    for ev in trace.events:
        if ev.layer == layer and ev.head == head:
            per_step.setdefault(ev.step, []).append(ev)
    snapshots, alive = [], set()
    for t in range(_oracle_steps(trace)):
        for ev in sorted(per_step.get(t, []), key=_replay_order):
            if ev.action == ACTION_APPEND:
                alive.add(ev.original_position)
            else:
                alive.discard(ev.original_position)
        snapshots.append(set(alive))
    return snapshots


def _oracle_matrix(trace: RetentionTrace, layer: int, head: int | None) -> np.ndarray:
    steps = _oracle_steps(trace)
    heads = range(trace.n_heads) if head is None else [head]
    matrix = np.zeros((steps, steps), dtype=np.float64)
    for h in heads:
        for t, retained in enumerate(_oracle_sets(trace, layer, h)):
            for p in retained:
                matrix[t, p] += 1.0
    return matrix / len(heads)


def _oracle_lifetime(trace: RetentionTrace) -> dict[int, float]:
    steps = _oracle_steps(trace)
    totals: dict[int, float] = {}
    counts: dict[int, int] = {}
    entry: dict[tuple[int, int, int], int] = {}
    for ev in sorted(trace.events, key=_replay_order):
        key = (ev.layer, ev.head, ev.original_position)
        if ev.action == ACTION_APPEND:
            entry[key] = ev.step
        else:
            started = entry.pop(key)
            totals[key[2]] = totals.get(key[2], 0.0) + (ev.step - started)
            counts[key[2]] = counts.get(key[2], 0) + 1
    for (_, _, position), started in entry.items():
        totals[position] = totals.get(position, 0.0) + (steps - started)
        counts[position] = counts.get(position, 0) + 1
    return {p: totals[p] / counts[p] for p in sorted(totals)}


def _oracle_by_tag(lifetimes: dict[int, float], tags: dict[int, str]) -> list:
    buckets: dict[str, list[float]] = {}
    for position, life in lifetimes.items():
        buckets.setdefault(tags.get(position, "UNK"), []).append(life)
    rows = sorted(((tag, sum(v) / len(v)) for tag, v in buckets.items()),
                  key=lambda r: (-r[1], r[0]))
    return [("Avg.", sum(lifetimes.values()) / len(lifetimes))] + rows


def _oracle_recent(trace: RetentionTrace, k: int, exclude_prefix: int) -> float | None:
    recent = total = 0
    for layer in range(trace.n_layers):
        for head in range(trace.n_heads):
            for t, retained in enumerate(_oracle_sets(trace, layer, head)):
                for p in retained:
                    if p >= exclude_prefix:
                        total += 1
                        recent += p > t - k
    return recent / total if total else None


@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       n_layers=st.integers(1, 2),
       n_heads=st.integers(1, 3),
       steps=st.integers(1, 12))
def test_vectorised_analyses_equal_set_replay(data, n_layers, n_heads, steps):
    # well-formed traces: each (layer, head, position) gets one append and at
    # most one evict no earlier; recorded in shuffled order
    events = []
    for layer in range(n_layers):
        for head in range(n_heads):
            for p in sorted(data.draw(st.sets(st.integers(0, steps - 1)), label="positions")):
                start = data.draw(st.integers(0, steps - 1), label="append")
                end = data.draw(st.none() | st.integers(start, steps - 1), label="evict")
                token = data.draw(st.integers(0, 9), label="token")
                events.append((start, layer, head, ACTION_APPEND, p, token))
                if end is not None:
                    events.append((end, layer, head, ACTION_EVICT, p, token))
    assume(events)
    data.draw(st.randoms(use_true_random=False), label="order").shuffle(events)
    trace = RetentionTrace(n_layers, n_heads)
    for ev in events:
        trace.record(*ev)

    steps = _oracle_steps(trace)
    if any(ev.original_position >= steps for ev in trace.events):
        # a position past the last step has no column in the retention matrix
        for analysis in (lambda: retention_matrix(trace, 0), lambda: token_lifetime(trace),
                         lambda: recent_proportion(trace, 1)):
            with pytest.raises(ValueError, match="irregular trace"):
                analysis()
        return
    for layer in range(n_layers):
        for head in [None, *range(n_heads)]:
            assert np.array_equal(retention_matrix(trace, layer, head),
                                  _oracle_matrix(trace, layer, head))
            if head is not None:
                assert trace.retained_sets(layer, head) == _oracle_sets(trace, layer, head)
    lifetimes = _oracle_lifetime(trace)
    assert token_lifetime(trace) == lifetimes
    tags = {p: data.draw(st.sampled_from("AB"), label="tag")
            for p in data.draw(st.sets(st.integers(0, steps)), label="tagged")}
    assert lifetime_by_tag(trace, tags) == _oracle_by_tag(lifetimes, tags)
    k = data.draw(st.integers(1, steps + 1), label="k")
    for exclude in (0, data.draw(st.integers(1, steps), label="exclude")):
        expected = _oracle_recent(trace, k, exclude)
        if expected is None:
            with pytest.raises(ValueError, match="retains nothing"):
                recent_proportion(trace, k, exclude_prefix=exclude)
        else:
            assert recent_proportion(trace, k, exclude_prefix=exclude) == expected


events = st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 3), st.integers(0, 3),
                            st.sampled_from([ACTION_APPEND, ACTION_EVICT]),
                            st.integers(0, 10**6), st.integers(0, 10**6)),
                  min_size=1, max_size=60)


@settings(max_examples=100, deadline=None)
@given(events=events, newline=st.sampled_from(["\r\n", "\n"]), blank=st.booleans())
def test_trace_csv_round_trip(tmp_path_factory, events, newline, blank):
    # write_csv ends rows with "\r\n" as the csv module does; an LF copy,
    # and one with blank lines, reads back to the same trace
    trace = RetentionTrace(4, 4)
    for ev in events:
        trace.record(*ev)
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    trace.write_csv(path)
    written = path.read_bytes()
    lines = written.decode().split("\r\n")
    if blank:
        lines.insert(2, "")
    path.write_bytes(newline.join(lines).encode())
    back = RetentionTrace.read_csv(path)
    assert back.sorted_events() == trace.sorted_events()
    assert back.n_steps == trace.n_steps
    back.write_csv(path)
    assert path.read_bytes() == written


@settings(max_examples=100, deadline=None)
@given(events=events, split=st.integers(0, 60))
def test_record_block_equals_per_event_records(tmp_path_factory, events, split):
    # a table of rows given to record_block (the first `split` rows, then
    # per-event records after a sorted read) leaves the trace that one
    # record per row leaves: the same insertion order, canonical order,
    # n_steps and CSV bytes
    one = RetentionTrace(4, 4)
    for ev in events:
        one.record(*ev)
    block = RetentionTrace(4, 4)
    block.record_block(np.array([(s, l, h, ACTIONS.index(a), p, t)
                                 for s, l, h, a, p, t in events[:split]], dtype=np.int64)
                       .reshape(-1, len(TRACE_COLUMNS)))
    block.sorted_events()  # the cached order must not outlive later records
    for ev in events[split:]:
        block.record(*ev)
    assert block.events == one.events
    assert block.sorted_events() == one.sorted_events()
    assert block.n_steps == one.n_steps
    path = tmp_path_factory.mktemp("trace")
    one.write_csv(path / "one.csv")
    block.write_csv(path / "block.csv")
    assert (path / "block.csv").read_bytes() == (path / "one.csv").read_bytes()


def _float_bits(dtype) -> st.SearchStrategy:
    # any bit pattern, often -0.0, +-inf, NaN or a NaN with a payload
    bits = np.dtype(f"u{np.dtype(dtype).itemsize}")
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf], dtype=dtype).view(bits).tolist()
    special.append(special[2] | 1)
    return st.one_of(st.sampled_from(special), st.integers(0, np.iinfo(bits).max))


@st.composite
def _csv_blocks(draw) -> list[tuple]:
    n_rows = draw(st.integers(0, 5), label="rows")
    blocks = []
    for _ in range(draw(st.integers(1, 3), label="blocks")):
        dtype = draw(st.sampled_from([np.int64, np.float32, np.float64]), label="dtype")
        shape = (n_rows, draw(st.integers(1, 3), label="columns"))
        if dtype is np.int64:
            values = draw(arrays(dtype, shape, elements=st.one_of(
                st.integers(-2, 2), st.integers(-2**63, 2**63 - 1))), label="ints")
            fmt = str
        else:
            bits = f"u{np.dtype(dtype).itemsize}"
            values = draw(arrays(bits, shape, elements=_float_bits(dtype)),
                          label="bits").view(dtype)
            fmt = draw(st.sampled_from(["{:.6g}".format, "{:.9g}".format, repr]), label="fmt")
        blocks.append((values, fmt))
    return blocks


@settings(max_examples=200, deadline=None)
@given(blocks=_csv_blocks())
@example(blocks=[(np.zeros((0, 3), dtype=np.int64), str),
                 (np.zeros((0, 1), dtype=np.float32), repr)])
@example(blocks=[(np.arange(4, dtype=np.int64)[:, None], str),
                 (np.array([[0.0], [-0.0], [np.nan], [-np.inf]]), "{:.6g}".format)])
def test_write_csv_rows_matches_csv_writer(tmp_path_factory, blocks):
    # the bytes csv.writer writes from the same formatted cells, whatever the
    # dtypes, repeats, zero signs and NaN payloads, for any row count
    header = [f"c{i}" for i in range(sum(values.shape[1] for values, _ in blocks))]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv_rows(path, header, blocks)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows([fmt(v) for values, fmt in blocks for v in values[i].tolist()]
                     for i in range(len(blocks[0][0])))
    assert path.read_bytes() == expected.getvalue().encode()


def _csv_module_read(path) -> list[tuple] | str:
    # the csv-module reader the row loop replaced: rows, or the bad line's prefix
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == list(TRACE_COLUMNS)
        rows = []
        for row in reader:
            if not row:
                continue
            try:
                step, layer, head, action, position, token = row
                if action not in (ACTION_APPEND, ACTION_EVICT):
                    raise ValueError(action)
                values = (int(step), int(layer), int(head), action, int(position), int(token))
                if not all(-2**63 <= v < 2**63 for v in values[:3] + values[4:]):
                    raise ValueError(values)  # the trace stores int64
                rows.append(values)
            except ValueError:
                return f"{path}:{reader.line_num}: "
    return rows


# no quotes: the writer never quotes a cell, and the row loop reads none
FIELDS = ("0", "1", "7", "-2", " 3", "+4", "3.0", "1_0", "", "x", "append", "evict",
          " append", "drop", "9223372036854775808", "\u0663", "#", "\t3", "3 ", "\x1c3")


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.one_of(
           st.lists(st.sampled_from(FIELDS), min_size=0, max_size=7),
           st.tuples(*[st.sampled_from(("0", "2", "-1"))] * 3, st.sampled_from(FIELDS[10:14]),
                     *[st.sampled_from(("0", "5", " 3", "+4"))] * 2)), max_size=6),
       ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=6, max_size=6))
def test_trace_csv_reader_agrees_with_csv_module(tmp_path_factory, rows, ends):
    # LF, CRLF and CR rows, blank lines and bad rows: the same events, or an
    # error at the same path:line, as the csv module gives
    path = tmp_path_factory.mktemp("trace") / "t.csv"
    path.write_bytes((",".join(TRACE_COLUMNS) + "\r\n"
                      + "".join(",".join(r) + e for r, e in zip(rows, ends))).encode())
    expected = _csv_module_read(path)
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=re.escape(expected)):
            RetentionTrace.read_csv(path)
    elif not expected or min(min(r[1], r[2]) for r in expected) < 0:
        with pytest.raises(ValueError, match="no events|negative layer or head"):
            RetentionTrace.read_csv(path)
    else:
        assert RetentionTrace.read_csv(path).events == [TraceEvent(*r) for r in expected]


def _csv_module_script(path) -> list[np.ndarray] | str:
    # the csv-module reader of the dict-of-slots script loader: the (L, H, S)
    # blocks, or the error's start (path:line and its kind for a bad row);
    # layers of one step must hold one slot count
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == list(SCRIPT_COLUMNS)
        cells = {}
        for row in reader:
            if not row:
                continue
            where = f"{path}:{reader.line_num}: "
            try:
                t, layer, head, slot, p = row
                key, slot, p = (int(t), int(layer), int(head)), int(slot), float(p)
                if not all(-2**63 <= v < 2**63 for v in key + (slot,)):
                    raise ValueError(key)  # a script's indices are int64
            except ValueError:
                return where + "expected"
            if min(key + (slot,)) < 0:
                return where + "negative"
            if slot in cells.setdefault(key, {}):
                return where + "duplicate"
            cells[key][slot] = p
    if not cells:
        return f"scripted trace {path} holds no rows"
    n_steps, n_layers, n_heads = (max(key[i] for key in cells) + 1 for i in range(3))
    steps = []
    for t in range(n_steps):
        block = []
        for layer in range(n_layers):
            heads = []
            for head in range(n_heads):
                slots = cells.get((t, layer, head))
                where = f"step {t}, layer {layer}, head {head}"
                if slots is None:
                    return f"{path}: missing row for {where}"
                if max(slots) >= len(slots):
                    return f"{path}: state_slot {max(slots)} out of range at {where}"
                heads.append([slots[slot] for slot in range(len(slots))])
            if len({len(row) for row in heads}) > 1:
                return (f"{path}: heads hold different slot counts at step {t}, layer {layer}: "
                        f"{[len(row) for row in heads]}")
            block.append(heads)
            if len(heads[0]) != len(block[0][0]):  # a step is one (L, H, S) block
                return (f"{path}: layers hold different slot counts at step {t}: "
                        f"{[len(rows[0]) for rows in block]}")
        steps.append(np.array(block, dtype=np.float32))
    return steps


# odd cells for any field: int() or float() reads some; none is quoted
SCRIPT_CELLS = (" 3", "+4", "1_0", "\u0663", "3.0", "", "nan", "-0", "inf", "1e400", "1e-46",
                "0x1p-1", "\t0.5", "9223372036854775808", "-1", "-9223372036854775809")
# texts of an index that int() reads as it
INDEX_FORMS = (str, " {}".format, "+{}".format, "{}\t".format, "0_{}".format,
               lambda v: "".join(chr(0x660 + int(c)) for c in str(v)))
# the row edits of a clean script, a script with gaps and one with any bad row
EDITS = (("keep",), ("keep",) * 4 + ("drop",),
         ("keep",) * 8 + ("odd", "drop", "double", "short", "long"))


@st.composite
def _script_lines(draw) -> list[str]:
    # a full (step, layer, head) grid of slot rows in any order; in some
    # scripts the indices take any form int() reads and the probabilities
    # odd cells, and in some rows are dropped, which leaves gaps in the grid,
    # or each row may get an odd cell, be dropped or doubled, or lose or gain
    # a field
    rows = []
    n_layers = draw(st.integers(1, 2), label="layers")
    n_heads = draw(st.integers(1, 2), label="heads")
    odd, edits = draw(st.booleans(), label="odd"), draw(st.sampled_from(EDITS), label="edits")
    probs = st.one_of(st.floats(width=32).map("{:.9g}".format), st.floats().map(repr),
                      *[st.sampled_from(SCRIPT_CELLS)] * odd)
    forms = st.sampled_from(INDEX_FORMS if odd else (str,))
    for t in range(draw(st.integers(1, 3), label="steps")):
        width = draw(st.integers(1, 3), label="width")
        for cell in np.ndindex(n_layers, n_heads, width):
            rows.append([draw(forms)(v) for v in (t,) + cell] + [draw(probs)])
    lines = []
    for row in draw(st.permutations(rows)):
        edit = draw(st.sampled_from(edits), label="edit")
        if edit == "odd":
            row[draw(st.integers(0, 4))] = draw(st.sampled_from(SCRIPT_CELLS))
        lines += {"drop": [], "short": [row[:4]], "long": [row + ["0"]],
                  "double": [row, row]}.get(edit, [row])
        if draw(st.integers(0, 9)) == 0:
            lines.append([])
    return [",".join(row) for row in lines]


@settings(max_examples=300, deadline=None)
@given(lines=_script_lines(), ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                                              min_size=60, max_size=60))
def test_script_csv_reader_agrees_with_csv_module(tmp_path_factory, lines, ends):
    # LF, CRLF and CR rows, blank lines, odd cells, bad rows and gaps in the
    # grid: the same float32 blocks bit for bit, or the same error, at the
    # same path:line for a bad row, as the csv module and float() give; a
    # probability beyond float32 becomes inf on both, with numpy's warning
    path = tmp_path_factory.mktemp("script") / "s.csv"
    path.write_bytes((",".join(SCRIPT_COLUMNS) + "\r\n" + "".join(
        line + ends[i % len(ends)] for i, line in enumerate(lines))).encode())
    with np.errstate(over="ignore"):
        expected = _csv_module_script(path)
        if isinstance(expected, str):
            with pytest.raises(ValueError, match="^" + re.escape(expected)):
                ScriptedTrace.read_csv(path)
            return
        got = ScriptedTrace.read_csv(path).rows
    assert [block.shape for block in got] == [block.shape for block in expected]
    for block, want in zip(got, expected):
        assert block.dtype == np.float32
        assert block.view(np.int32).tolist() == want.view(np.int32).tolist()


def test_damaged_weight_files_load_or_fail_cleanly(tmp_path):
    # a version 2 file ends in a CRC-32 of everything before it, which
    # catches every single-bit error: no truncation and no flipped bit loads,
    # and each fails with a WeightFormatError (a header flip that reads as
    # another valid config fails the length check or the checksum)
    config = ModelConfig(n_layers=1, n_heads=1, head_dim=2, hidden_dim=2, ff_dim=2,
                         vocab_size=4, train_context_len=8)
    path = tmp_path / "w.bin"
    save_weights(path, config, init_random_model(config, 0))
    data = path.read_bytes()
    assert data.startswith(b"msrnn-weights 2\n")
    for size in range(len(data)):
        path.write_bytes(data[:size])
        with pytest.raises(WeightFormatError):
            load_weights(path)
    for bit in range(8 * len(data)):
        damaged = bytearray(data)
        damaged[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(damaged)
        try:
            loaded = load_weights(path)
        except WeightFormatError:
            continue
        except Exception as exc:
            pytest.fail(f"flipping bit {bit} raised {exc!r}")
        pytest.fail(f"flipping bit {bit} loaded {loaded[0]}")
