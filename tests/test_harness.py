import csv
import io
import math

import numpy as np
import pytest

import msrnn.harness
import msrnn.model
from msrnn import (Model, MultiState, RetentionTrace, ScriptedTrace,
                   TokenStream, generate, marker_rule,
                   masked_parallel_perplexity, parse_policy,
                   read_token_stream, sequential_perplexity,
                   simulate_with_rule, trace_driven_simulate, uniform_rule,
                   write_token_stream)
from msrnn.harness import NLL_ROWS, _check_step, _decode, nll_of
from msrnn.model import zero_model

from conftest import make_config, make_model, make_stream


def test_chunking_protocol():
    stream = TokenStream(ids=tuple(range(7)), chunk_len=3)
    assert stream.chunks() == [(0, (0, 1, 2)), (3, (3, 4, 5))]
    stream = TokenStream(ids=tuple(range(6)), chunk_len=3)
    assert stream.chunks() == [(0, (0, 1, 2)), (3, (3, 4, 5))]
    stream = TokenStream(ids=tuple(range(8)), chunk_len=3)
    assert stream.chunks() == [(0, (0, 1, 2)), (3, (3, 4, 5)), (6, (6, 7))]
    with pytest.raises(ValueError):
        TokenStream(ids=(1, 2, 3), chunk_len=1)
    with pytest.raises(ValueError):
        TokenStream(ids=(1,), chunk_len=2)
    with pytest.raises(ValueError):
        TokenStream(ids=(1, -2), chunk_len=2)


def test_token_stream_file_round_trip(tmp_path):
    path = tmp_path / "stream.txt"
    write_token_stream(path, [4, 0, 17])
    stream = read_token_stream(path, chunk_len=2, vocab_size=32)
    assert stream.ids == (4, 0, 17)
    with pytest.raises(ValueError):
        read_token_stream(path, chunk_len=2, vocab_size=17)
    path.write_text("1\nduck\n")
    with pytest.raises(ValueError):
        read_token_stream(path, chunk_len=2)


def test_nll_of_matches_log_softmax():
    logits = np.array([1.0, -2.0, 0.5, 3.0], dtype=np.float32)
    x = logits.astype(np.float64)
    expected = -(x[2] - math.log(np.exp(x).sum()))
    assert nll_of(logits[None], [2])[0] == pytest.approx(expected, abs=1e-12)
    # shift invariance even at large magnitudes
    assert nll_of(logits[None] + 1000.0, [2])[0] == pytest.approx(expected, rel=1e-9)


def test_sequential_chunk_nll_sums_row_blocks_left_to_right():
    # a chunk of more than one NLL block: its NLL is the left-to-right sum of
    # the per-row NLLs of the decode loop's logits, in either scoring mode
    length = NLL_ROWS + 40
    model = make_model(seed=3, n_layers=1, train_context_len=length)
    stream = make_stream(model, length=length, chunk_len=length, seed=5)
    kind = parse_policy("h2o-head", 8)
    expected = 0.0
    for logits, target in zip(_decode(model, stream.ids, length, kind, False, None),
                              stream.ids[1:]):
        expected += nll_of(logits[None], [target])[0]
    assert [c.nll for c in sequential_perplexity(model, stream, kind).chunks] == [expected]
    assert [c.nll for c in masked_parallel_perplexity(model, stream, kind).chunks] == [expected]


def test_zero_model_perplexity_is_vocab_size():
    config = make_config(vocab_size=64)
    model = Model(config, zero_model(config))
    stream = make_stream(model, length=40, chunk_len=10, seed=2)
    report = sequential_perplexity(model, stream, None)
    assert report.perplexity == pytest.approx(64.0, rel=1e-12)
    assert report.token_count == 36  # 4 chunks x 9 scored


def test_first_token_of_each_chunk_unscored(tiny_model):
    stream = make_stream(tiny_model, length=20, chunk_len=5, seed=1)
    report = sequential_perplexity(tiny_model, stream, None)
    assert report.token_count == 16
    assert [c.start for c in report.chunks] == [0, 5, 10, 15]
    assert [c.n_scored for c in report.chunks] == [4, 4, 4, 4]
    assert report.total_nll == pytest.approx(sum(c.nll for c in report.chunks))


def test_full_capacity_policy_matches_topline(tiny_model):
    stream = make_stream(tiny_model, length=32, chunk_len=16, seed=3)
    top = sequential_perplexity(tiny_model, stream, None)
    for name in ("window", "tova-head", "h2o-layer"):
        kind = parse_policy(name, k=16)
        rep = sequential_perplexity(tiny_model, stream, kind)
        assert rep.perplexity == pytest.approx(top.perplexity, abs=1e-9), name


def test_chunk_len_capped_by_train_context(tiny_model):
    ids = tuple(int(x) for x in range(40))
    stream = TokenStream(ids=ids, chunk_len=40)  # tiny model trains at 32
    with pytest.raises(ValueError):
        sequential_perplexity(tiny_model, stream, None)
    # remapping lifts the cap
    kind = parse_policy("window", k=8)
    rep = sequential_perplexity(tiny_model, stream, kind, remap=True)
    assert math.isfinite(rep.perplexity)


def test_window_visible_closed_form():
    # the static band+prefix mask (StreamingLLM) is the window policy's
    # retained set: row t sees the states kept after step t-1 plus itself
    def visible(t, k, pin):
        kept = simulate_with_rule(uniform_rule, parse_policy("window", k, pin), steps=8)[1]
        before = kept.retained_sets(0, 0)[t - 1] if t else set()
        return sorted(before | {t})

    k = 3
    assert visible(0, k, 0) == [0]
    assert visible(3, k, 0) == [0, 1, 2, 3]
    assert visible(4, k, 0) == [1, 2, 3, 4]
    assert visible(7, k, 0) == [4, 5, 6, 7]
    # pinned prefix stays visible forever
    assert visible(7, k, 1) == [0, 5, 6, 7]
    assert visible(7, 4, 2) == [0, 1, 5, 6, 7]


def test_parallel_equals_sequential_small(tiny_model):
    stream = make_stream(tiny_model, length=48, chunk_len=24, seed=5)
    for name in ("window", "window+1", "tova-head", "h2o-layer"):
        kind = parse_policy(name, k=6)
        t_seq = RetentionTrace(tiny_model.config.n_layers, tiny_model.config.n_heads)
        t_par = RetentionTrace(tiny_model.config.n_layers, tiny_model.config.n_heads)
        a = sequential_perplexity(tiny_model, stream, kind, trace=t_seq)
        b = masked_parallel_perplexity(tiny_model, stream, kind, trace=t_par)
        assert a.perplexity == b.perplexity, name
        assert t_seq.sorted_events() == t_par.sorted_events(), name


def test_masked_parallel_batches_the_rows(monkeypatch):
    # per chunk and layer, masked-parallel normalises twice and rotates once
    # over all rows, and the rows before k (every row of the topline) attend
    # in one blocked causal call; only the H2O and TOVA rows from k on, which
    # decide, make a one-row attention_step call each, and the window family
    # makes none. Sequential decoding makes every call once per token.
    model = make_model(seed=3)
    calls = dict.fromkeys(("rms_norm", "rotate", "attention_step"), 0)
    for name in calls:
        def counted(*args, _kernel=getattr(msrnn.model, name), _name=name):
            calls[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(msrnn.model, name, counted)
    monkeypatch.setattr(msrnn.harness, "attention_step", msrnn.model.attention_step)
    stream = make_stream(model, length=40, chunk_len=16, seed=2)  # chunks of 16, 16, 8

    def counts(score, kind):
        calls.update(dict.fromkeys(calls, 0))
        score(model, stream, kind)
        return calls

    n_layers = model.config.n_layers
    for name in ("window", "window+2", "h2o-head", "tova-layer"):
        for k in (4, 10, 16):
            deciding = 0 if name.startswith("window") else sum(
                max(len(ids) - k, 0) for _, ids in stream.chunks())
            assert counts(masked_parallel_perplexity, parse_policy(name, k)) == {
                "rms_norm": 2 * n_layers * 3, "rotate": n_layers * 3,
                "attention_step": n_layers * deciding}, (name, k)
    assert counts(masked_parallel_perplexity, None) == {
        "rms_norm": 2 * n_layers * 3, "rotate": n_layers * 3, "attention_step": 0}
    assert counts(sequential_perplexity, parse_policy("window", 4)) == {
        "rms_norm": 2 * n_layers * 40, "rotate": n_layers * 40, "attention_step": n_layers * 40}


def _count_multi_state_calls(monkeypatch) -> dict[str, int]:
    """The live count of MultiState.append and MultiState.evict calls."""
    calls = {"append": 0, "evict": 0}
    for name in calls:
        def counted(*args, _method=getattr(MultiState, name), _name=name):
            calls[_name] += 1
            return _method(*args)
        monkeypatch.setattr(MultiState, name, counted)
    return calls


def test_masked_parallel_keeps_no_multi_state(monkeypatch):
    # masked-parallel runs keep each layer's retained rows as column sets, so
    # no family touches a MultiState there; sequential decoding appends every
    # row and evicts every row past k, per head
    model = make_model(seed=3)
    calls = _count_multi_state_calls(monkeypatch)
    stream = make_stream(model, length=40, chunk_len=16, seed=2)  # chunks of 16, 16, 8
    per_layer = model.config.n_layers * model.config.n_heads
    for name, k in (("window", 4), ("window+2", 4), ("h2o-head", 4), ("tova-layer", 10)):
        for score in (masked_parallel_perplexity, sequential_perplexity):
            calls.update(append=0, evict=0)
            score(model, stream, parse_policy(name, k))
            if score is masked_parallel_perplexity:
                assert calls == {"append": 0, "evict": 0}, name
            else:
                evicted = sum(max(0, len(ids) - k) for _, ids in stream.chunks())
                assert calls == {"append": per_layer * 40, "evict": per_layer * evicted}, name


def test_simulator_keeps_no_multi_state(monkeypatch):
    # the simulator keeps its retained sets as column sets too: recording a
    # script and replaying it touch no MultiState, while every head of every
    # layer still evicts once per step past k
    calls = _count_multi_state_calls(monkeypatch)
    for name in ("window+1", "h2o-head", "h2o-layer", "tova-head", "tova-layer+2"):
        kind = parse_policy(name, 4)
        script, trace = simulate_with_rule(uniform_rule, kind, 12, n_layers=2, n_heads=3)
        replay = trace_driven_simulate(script, kind)
        evicts = [ev for ev in replay.events if ev.action == "evict"]
        assert len(evicts) == 2 * 3 * (12 - 4), name
        assert replay.sorted_events() == trace.sorted_events(), name
    assert calls == {"append": 0, "evict": 0}


@pytest.mark.parametrize("policy,k,chunk_len", [
    ("window", 16, 16),    # k >= chunk length: no band rows
    ("window+3", 20, 16),
    ("window", 1, 16),     # k = 1
    ("window+5", 6, 16),   # pin = k - 1
    ("window+1", 2, 16),
    ("window", 1, 2),      # chunks of 2
    ("window+1", 2, 2),
])
def test_window_band_edges_parallel_equals_sequential(tiny_model, policy, k, chunk_len):
    stream = make_stream(tiny_model, length=40, chunk_len=chunk_len, seed=8)
    kind = parse_policy(policy, k)
    traces = [RetentionTrace(tiny_model.config.n_layers, tiny_model.config.n_heads)
              for _ in range(2)]
    seq = sequential_perplexity(tiny_model, stream, kind, trace=traces[0])
    par = masked_parallel_perplexity(tiny_model, stream, kind, trace=traces[1])
    untraced = masked_parallel_perplexity(tiny_model, stream, kind)
    assert [c.nll for c in par.chunks] == [c.nll for c in seq.chunks]
    assert [c.nll for c in untraced.chunks] == [c.nll for c in par.chunks]
    assert traces[1].sorted_events() == traces[0].sorted_events()
    assert traces[1].events == traces[0].events  # both list them layer block by layer block
    assert traces[1].n_steps == traces[0].n_steps == chunk_len


@pytest.mark.parametrize("policy,k,chunk_len,zero", [
    ("h2o-head", 1, 16, False),      # k = 1: the recent window leaves one candidate
    ("h2o-layer", 1, 16, False),
    ("h2o-head", 16, 16, False),     # k >= chunk length: nothing is evicted
    ("tova-layer", 20, 16, False),
    ("h2o-layer", 1, 2, False),      # chunks of 2
    ("tova-head", 1, 2, False),
    ("tova-layer+4", 5, 16, False),  # pin = k - 1
    ("tova-head", 4, 16, True),      # zero weights: every per-head argmin is a tie
    ("h2o-head", 15, 16, False),     # one decision row
    ("h2o-head", 4, 16, True),       # zero weights: every H2O sum ties
])
def test_score_driven_edges_parallel_equals_sequential(policy, k, chunk_len, zero):
    model = make_model(seed=4, n_heads=3)
    if zero:
        model = Model(model.config, zero_model(model.config))
    stream = make_stream(model, length=40, chunk_len=chunk_len, seed=9)
    kind = parse_policy(policy, k)
    traces = [RetentionTrace(model.config.n_layers, model.config.n_heads) for _ in range(2)]
    seq = sequential_perplexity(model, stream, kind, trace=traces[0])
    par = masked_parallel_perplexity(model, stream, kind, trace=traces[1])
    untraced = masked_parallel_perplexity(model, stream, kind)
    assert [c.nll for c in par.chunks] == [c.nll for c in seq.chunks]
    assert [c.nll for c in untraced.chunks] == [c.nll for c in par.chunks]
    assert traces[1].sorted_events() == traces[0].sorted_events()
    assert traces[1].events == traces[0].events  # both list them layer block by layer block
    assert traces[1].n_steps == traces[0].n_steps == chunk_len


@pytest.mark.parametrize("shape", [(3, 3), (2, 1)])
@pytest.mark.parametrize("mode", ["sequential", "masked-parallel", "generate"])
def test_trace_of_other_dimensions_is_refused(tiny_model, mode, shape):
    # a 2-layer, 2-head model: every mode refuses a larger or a smaller trace
    # where the trace enters, before any step runs
    stream = make_stream(tiny_model, length=8, chunk_len=8, seed=1)
    run = {"sequential": lambda trace: sequential_perplexity(tiny_model, stream, trace=trace),
           "masked-parallel": lambda trace: masked_parallel_perplexity(tiny_model, stream,
                                                                       trace=trace),
           "generate": lambda trace: generate(tiny_model, stream.ids, 4, trace=trace)}[mode]
    trace = RetentionTrace(*shape)
    with pytest.raises(ValueError, match=f"a trace of {shape[0]} layers and {shape[1]} heads "
                                         "cannot record a state of 2 and 2"):
        run(trace)
    assert trace.events == []


def test_remap_runs_once_per_layer(monkeypatch):
    # a remapped step rotates the keys and q in one call per layer, and remaps
    # one (1, S) row while every head retains the same positions: always under
    # a layer-wise policy, under a head-wise one until its heads diverge. The
    # call takes the keys from the first slot where any head's positions
    # differ from the layer's previous step, all S at its first, plus q
    model = make_model(seed=3)
    n_layers, n_heads = model.config.n_layers, model.config.n_heads
    rotations, blocks = [], []

    def rotate(*args, _kernel=msrnn.model.rotate):
        rotations.append(args[0].shape)
        return _kernel(*args)

    def remapped_positions(self, layer, _remap=MultiState.remapped_positions):
        remapped = _remap(self, layer)
        blocks.append(self.layer_view(layer)[2][:len(remapped)].copy())
        return remapped
    monkeypatch.setattr(msrnn.model, "rotate", rotate)
    monkeypatch.setattr(MultiState, "remapped_positions", remapped_positions)
    prompt = list(make_stream(model, length=8, chunk_len=8, seed=4).ids)

    for name in ("tova-layer", "tova-head"):
        rotations.clear()
        blocks.clear()
        generate(model, prompt, 24, parse_policy(name, 4), remap=True)
        assert len(rotations) == len(blocks) == n_layers * 32, name
        heights = [len(block) for block in blocks]
        assert heights[:n_layers] == [1] * n_layers, name
        for layer in range(n_layers):
            previous = blocks[layer][:, :0]
            for shape, block in zip(rotations[layer::n_layers], blocks[layer::n_layers]):
                width = min(previous.shape[1], block.shape[1])
                differs = (previous[:, :width] != block[:, :width]).any(axis=0)
                changed = int(np.argmax(differs)) if differs.any() else width
                assert shape[:2] == (n_heads, block.shape[1] - changed + 1), name
                assert len(block) == 1 or not (block == block[0]).all(), name
                previous = block
    assert set(heights) == {1, n_heads}  # the tova-head heads diverged


def test_parallel_topline_equals_sequential(tiny_model):
    # no policy is the window of k = the chunk's length in both modes, so the
    # masked-parallel rows attend causally; (18, 8) ends in a 2-token chunk
    config = tiny_model.config
    for length, chunk_len in [(2, 2), (9, 2), (18, 8), (32, 16)]:
        stream = make_stream(tiny_model, length=length, chunk_len=chunk_len, seed=6)
        seq_trace = RetentionTrace(config.n_layers, config.n_heads)
        par_trace = RetentionTrace(config.n_layers, config.n_heads)
        seq = sequential_perplexity(tiny_model, stream, trace=seq_trace)
        par = masked_parallel_perplexity(tiny_model, stream, trace=par_trace)
        assert par.chunks == seq.chunks  # start, count and NLL float of every chunk
        assert par_trace.sorted_events() == seq_trace.sorted_events()
        assert {event.action for event in seq_trace.events} == {"append"}


def test_trace_captures_first_chunk_only(tiny_model):
    stream = make_stream(tiny_model, length=32, chunk_len=8, seed=7)
    kind = parse_policy("window", k=4)
    trace = RetentionTrace(tiny_model.config.n_layers, tiny_model.config.n_heads)
    sequential_perplexity(tiny_model, stream, kind, trace=trace)
    assert trace.n_steps == 8  # chunk-local steps, one chunk


def test_scripted_trace_round_trip(tmp_path):
    kind = parse_policy("tova-head", k=3)
    script, trace = simulate_with_rule(uniform_rule, kind, steps=8,
                                       n_layers=2, n_heads=2)
    path = tmp_path / "script.csv"
    script.write_csv(path)
    # the bytes are csv.writer's, row for row
    ref = io.StringIO(newline="")
    csv.writer(ref).writerows([("step", "layer", "head", "state_slot", "probability")] + [
        (t, layer, head, slot, f"{float(p):.9g}") for t, per_layer in enumerate(script.rows)
        for layer, block in enumerate(per_layer) for head, row in enumerate(block)
        for slot, p in enumerate(row)])
    assert path.read_bytes() == ref.getvalue().encode()
    script2 = ScriptedTrace.read_csv(path)
    assert script2.n_steps == script.n_steps
    for t in range(script.n_steps):
        for layer in range(2):
            for head in range(2):
                assert np.array_equal(script.rows[t][layer][head],
                                      script2.rows[t][layer][head])
    replay = trace_driven_simulate(script2, kind)
    assert replay.sorted_events() == trace.sorted_events()
    # LF and CR row ends, and a blank line, read back to the same blocks
    lines = path.read_bytes().split(b"\r\n")
    blocks = [[block.tolist() for block in per_layer] for per_layer in script2.rows]
    for text in (b"\n".join(lines), b"\r".join(lines),
                 b"\r\n".join(lines[:3] + [b""] + lines[3:])):
        path.write_bytes(text)
        back = ScriptedTrace.read_csv(path).rows
        assert [[block.tolist() for block in per_layer] for per_layer in back] == blocks
    # a hand-built block: the text keeps the sign of -0.0 and the subnormal
    block = np.array([[-0.0, 1e-45, 0.5]], dtype=np.float32)
    ScriptedTrace(n_layers=1, n_heads=1, rows=[[block]]).write_csv(path)
    assert path.read_bytes() == (b"step,layer,head,state_slot,probability\r\n"
                                 b"0,0,0,0,-0\r\n0,0,0,1,1.40129846e-45\r\n0,0,0,2,0.5\r\n")
    back = ScriptedTrace.read_csv(path).rows[0][0]
    assert back.view(np.int32).tolist() == block.view(np.int32).tolist()


def test_scripted_trace_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n")
    with pytest.raises(ValueError):
        ScriptedTrace.read_csv(path)
    # probability rows must sum to 1 when replayed
    path.write_text("step,layer,head,state_slot,probability\n"
                    "0,0,0,0,0.4\n")
    script = ScriptedTrace.read_csv(path)
    with pytest.raises(ValueError):
        trace_driven_simulate(script, parse_policy("window", k=2))
    # row length must match the simulated state size
    path.write_text("step,layer,head,state_slot,probability\n"
                    "0,0,0,0,0.5\n0,0,0,1,0.5\n")
    script = ScriptedTrace.read_csv(path)
    with pytest.raises(ValueError):
        trace_driven_simulate(script, parse_policy("window", k=2))
    # a block must hold one row per head: one-head blocks for two heads fail
    # at the first step, whatever the policy
    for kind, width in ((None, lambda t: t + 1), (parse_policy("window", k=2),
                                                  lambda t: min(t + 1, 3))):
        rows = [[np.full((1, width(t)), 1 / width(t), dtype=np.float32)] for t in range(4)]
        with pytest.raises(ValueError, match="^step 0, layer 0, head 1: the rows cover 1 heads"):
            trace_driven_simulate(ScriptedTrace(1, 2, rows), kind)


def test_check_row_rejects_nan_and_negative_entries():
    good = _check_step([[np.array([0.25, 0.75])]], (1, 1, 2), 3)
    assert good.dtype == np.float32 and good.shape == (1, 1, 2)
    for bad in ([np.nan, 1.0], [-0.5, 1.5], [-1e-7, 1.0 + 1e-7], [0.5, 0.4]):
        with pytest.raises(ValueError, match="^step 3, layer 0, head 0: "):
            _check_step([[np.array(bad)]], (1, 1, 2), 3)
    with pytest.raises(ValueError, match="row length"):
        _check_step([[np.array([1.0])]], (1, 1, 2), 3)


def test_check_rows_names_the_first_bad_head():
    # the first bad head wins, with the check that fails first on it
    good, short, unsummed, negative = [0.5, 0.5], [1.0], [0.5, 0.4], [-0.5, 1.5]
    for rows, message in [
        ([good, unsummed, short], "head 1: probabilities sum to"),
        ([good, short, unsummed], "head 1: row length \\(1,\\)"),
        ([good, negative, unsummed], "head 1: negative probability -0.5"),
        ([good, good, [np.nan, 1.0]], "head 2: probabilities sum to nan"),
        ([good, ["x", 1.0]], "head 1: could not convert string to float"),
    ]:
        with pytest.raises(ValueError, match="^step 0, layer 0, " + message):
            _check_step([[np.array(r) for r in rows]], (1, len(rows), 2), 0)
    block = _check_step([[good, [0.25, 0.75]]], (1, 2, 2), 0)
    assert block.dtype == np.float32 and block.tolist() == [[good, [0.25, 0.75]]]


def test_check_rows_names_a_row_of_non_numeric_objects():
    # float() refuses a dict or a plain object with a TypeError; the step
    # check reports it as a ValueError that names the row
    with pytest.raises(ValueError, match="^step 0, layer 0, head 1: float\\(\\) argument"):
        _check_step([[[0.5, 0.5], {}]], (1, 2, 2), 0)
    with pytest.raises(ValueError, match="^step 0, layer 0, head 0: float\\(\\) argument"):
        simulate_with_rule(lambda t, layer, head, retained: [object()] * len(retained),
                           None, 2)


def test_block_row_sums_equal_per_row_sums():
    # the block check sums a layer's rows with one call; on float32 that is
    # bit for bit each row's own sum, so the 1e-6 tolerance sees the same value
    rng = np.random.default_rng(11)
    for size in range(1, 514):
        block = rng.random((16, size)).astype(np.float32)
        block /= block.sum(axis=1, keepdims=True)
        assert block.sum(axis=1).tolist() == [row.sum() for row in block]


@pytest.mark.parametrize("layer_1,message", [
    ([[0.5, 0.5], [0.5, 0.25]], "head 1: probabilities sum to 0.75, not 1"),
    ([[0.5, 0.5], [-0.5, 1.5]], "head 1: negative probability -0.5"),
    ([[0.5, 0.5], [0.25, 0.25, 0.5]], "head 1: row length \\(3,\\) does not match multi-state "
                                      "size 2"),
    # every row of layer 1 is one wider than layer 0's
    ([[0.25, 0.25, 0.5]] * 2, "head 0: row length \\(3,\\) does not match multi-state size 2"),
])
def test_simulator_step_check_names_the_bad_layer(layer_1, message):
    # a step's layers are checked in one pass; a bad block is checked again
    # layer by layer, so a good layer 0 passes and the error names layer 1
    good = [[0.5, 0.5], [0.5, 0.5]]
    rows = [[np.ones((2, 1), dtype=np.float32)] * 2,
            [np.array(good, dtype=np.float32), [np.array(row) for row in layer_1]]]
    for kind in (None, parse_policy("window", k=2), parse_policy("h2o-head", k=2)):
        with pytest.raises(ValueError, match=f"^step 1, layer 1, {message}$"):
            trace_driven_simulate(ScriptedTrace(2, 2, rows), kind)


def test_simulator_step_check_row_sums_equal_per_layer_sums():
    # the step check sums the rows of an (L, H, S) block's (L * H, S) view:
    # bit for bit each layer's (H, S) sums, which the per-layer check takes
    rng = np.random.default_rng(12)
    for size in range(1, 260):
        block = rng.random((4, 4, size)).astype(np.float32)
        block /= block.sum(axis=-1, keepdims=True)
        assert block.reshape(16, size).sum(axis=1).tolist() == \
            [x for layer in block for x in layer.sum(axis=1).tolist()]


def test_simulate_with_rule_takes_per_head_lists():
    # a rule may return each head's row as a list: the script and the trace
    # equal those of the same rows as float32 arrays, and a bad list row is
    # named by its step, layer and head
    rng = np.random.default_rng(5)
    weights = rng.integers(1, 9, size=(12, 2, 3, 5)).astype(np.float32)

    def arrays(t, layer, head, retained):
        row = weights[t, layer, head, :len(retained)]
        return row / row.sum()

    def lists(t, layer, head, retained):
        return arrays(t, layer, head, retained).tolist()

    for name in ("window+1", "h2o-head", "h2o-layer", "tova-head", "tova-layer"):
        kind = parse_policy(name, 4)
        script, trace = simulate_with_rule(lists, kind, 12, n_layers=2, n_heads=3)
        ref_script, ref_trace = simulate_with_rule(arrays, kind, 12, n_layers=2, n_heads=3)
        assert trace.events == ref_trace.events, name
        assert [[block.dtype for block in blocks] for blocks in script.rows] == \
            [[np.float32, np.float32]] * 12
        assert [[block.tobytes() for block in blocks] for blocks in script.rows] == \
            [[block.tobytes() for block in blocks] for blocks in ref_script.rows], name

    def short(t, layer, head, retained):
        return lists(t, layer, head, retained)[:-1 if (t, layer, head) == (6, 1, 2) else None]

    with pytest.raises(ValueError, match="^step 6, layer 1, head 2: row length \\(4,\\) does "
                                         "not match multi-state size 5$"):
        simulate_with_rule(short, parse_policy("tova-head", 4), 12, n_layers=2, n_heads=3)


def test_scripted_trace_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.csv"
    header = "step,layer,head,state_slot,probability\n"
    for body, message in [
        ("0,0,0,0,0.5\n0,0,0,0,0.5\n", "bad.csv:3: duplicate row"),
        ("0,0,0,0,1.0\n1,0,0\n", "bad.csv:3: expected 5 numeric"),
        ("0,0,0,x,1.0\n", "bad.csv:2: expected 5 numeric"),
        ("0,0,-1,0,1.0\n", "bad.csv:2: negative index"),
        # the writer never quotes a cell, and the reader takes none
        ('"0",0,0,0,1.0\n', "bad.csv:2: expected 5 numeric"),
        # heads of one (step, layer) must hold the same number of slots
        ("0,0,0,0,1.0\n0,0,1,0,0.5\n0,0,1,1,0.5\n",
         "bad.csv: heads hold different slot counts at step 0, layer 0: \\[1, 2\\]"),
        # a step's layers must hold the same number of slots, one (L, H, S) block
        ("0,0,0,0,0.5\n0,0,0,1,0.5\n0,1,0,0,1.0\n",
         "bad.csv: layers hold different slot counts at step 0: \\[2, 1\\]$"),
        # a head's slots must be 0..n-1
        ("0,0,0,0,1.0\n0,0,1,0,0.5\n0,0,1,2,0.5\n",
         "bad.csv: state_slot 2 out of range at step 0, layer 0, head 1$"),
        # the first missing head fails, before anything is sized by the huge indices
        ("0,0,0,0,1.0\n0,0,999999999999,0,1.0\n0,999999999999,0,0,1.0\n",
         "bad.csv: missing row for step 0, layer 0, head 1$"),
    ]:
        path.write_text(header + body)
        with pytest.raises(ValueError, match=message):
            ScriptedTrace.read_csv(path)


def test_simulation_window_fifo():
    kind = parse_policy("window", k=3)
    _, trace = simulate_with_rule(uniform_rule, kind, steps=6)
    sets = trace.retained_sets(0, 0)
    assert sets == [{0}, {0, 1}, {0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {3, 4, 5}]


def test_simulation_marker_rule_tova():
    # marker keeps the highest probability; everything else ties and FIFOs out
    kind = parse_policy("tova-layer", k=4)
    _, trace = simulate_with_rule(marker_rule(2, marker_prob=0.4), kind, steps=30)
    sets = trace.retained_sets(0, 0)
    assert sets[-1] == {2, 27, 28, 29}
    assert all(2 in s for s in sets[2:])


def test_simulation_marker_not_the_top_still_survives():
    # scores: marker 0.3, the rest share 0.7 -- below 0.3 once the state
    # holds 4+ entries, so the marker is never the layer argmin even though
    # it is not the top score either
    m, k = 1, 5
    steps = m + 10 * k + 1
    rule = marker_rule(m, marker_prob=0.3)
    _, trace = simulate_with_rule(rule, parse_policy("tova-layer", k=k), steps=steps)
    sets = trace.retained_sets(0, 0)
    assert all(m in s for s in sets[m:])
    assert m in sets[m + 10 * k]
    # the same rule under the FIFO window loses the marker at exactly m+k
    _, fifo = simulate_with_rule(rule, parse_policy("window", k=k), steps=steps)
    fifo_sets = fifo.retained_sets(0, 0)
    assert m in fifo_sets[m + k - 1]
    assert m not in fifo_sets[m + k]


def test_simulation_h2o_keeps_heavy_hitter():
    kind = parse_policy("h2o-head", k=4)
    _, trace = simulate_with_rule(marker_rule(0, marker_prob=0.6), kind, steps=30)
    sets = trace.retained_sets(0, 0)
    # position 0 accumulates the most mass and is never in eviction range
    assert all(0 in s for s in sets)
    assert len(sets[-1]) == 4


def test_generate_deterministic_and_bounded(tiny_model):
    kind = parse_policy("window", k=5)
    a = generate(tiny_model, [3, 1, 4], 12, kind)
    b = generate(tiny_model, [3, 1, 4], 12, kind)
    assert a == b
    assert a[:3] == [3, 1, 4]
    assert len(a) == 15
    assert all(0 <= t < tiny_model.config.vocab_size for t in a)
    assert generate(tiny_model, [3, 1, 4], 0, kind) == [3, 1, 4]
    with pytest.raises(ValueError):
        generate(tiny_model, [], 4, kind)
    with pytest.raises(ValueError):
        generate(tiny_model, [1], -1, kind)


def test_generate_respects_capacity(tiny_model):
    kind = parse_policy("tova-head", k=4)
    trace = RetentionTrace(tiny_model.config.n_layers, tiny_model.config.n_heads)
    generate(tiny_model, [5, 6], 20, kind, trace=trace)
    for sets in (trace.retained_sets(0, 0), trace.retained_sets(1, 1)):
        assert all(len(s) <= 4 for s in sets)
        assert len(sets) == 22


def test_simulation_dominant_state_tova_vs_window():
    # a 0.9 state can never be the argmin, so TOVA holds it forever while the
    # FIFO window drops it at exactly step k
    k = 5
    rule = marker_rule(0, marker_prob=0.9)
    _, tova = simulate_with_rule(rule, parse_policy("tova-layer", k=k), steps=20)
    assert all(0 in s for s in tova.retained_sets(0, 0))
    _, window = simulate_with_rule(rule, parse_policy("window", k=k), steps=20)
    sets = window.retained_sets(0, 0)
    assert 0 in sets[k - 1]
    assert 0 not in sets[k]


def test_simulation_uniform_ties_make_tova_fifo():
    # uniform rows tie everywhere; lowest-index tie-breaking turns TOVA into
    # the FIFO window, event for event
    k, steps = 4, 15
    _, tova = simulate_with_rule(uniform_rule, parse_policy("tova-layer", k=k),
                                 steps=steps, n_layers=2, n_heads=2)
    _, window = simulate_with_rule(uniform_rule, parse_policy("window", k=k),
                                   steps=steps, n_layers=2, n_heads=2)
    assert tova.sorted_events() == window.sorted_events()


def test_generate_full_capacity_matches_unbounded(tiny_model):
    prompt, steps = [3, 1, 4], 12
    baseline = generate(tiny_model, prompt, steps)
    for name in ("window", "tova-layer", "h2o-head"):
        kind = parse_policy(name, k=len(prompt) + steps)
        assert generate(tiny_model, prompt, steps, kind) == baseline


def _traced(run, config):
    trace = RetentionTrace(config.n_layers, config.n_heads)
    return run(trace), trace.sorted_events()


@pytest.mark.parametrize("chunk_len", [2, 40])
def test_topline_sized_by_chunk_matches_full_window(chunk_len):
    # the unbounded topline holds a whole chunk, here past 16 rows too, with
    # the decisions and NLLs of the window whose k is the chunk length
    model = make_model(seed=7, train_context_len=64)
    stream = make_stream(model, length=chunk_len, chunk_len=chunk_len, seed=4)
    top = _traced(lambda tr: sequential_perplexity(model, stream, None, trace=tr).total_nll,
                  model.config)
    kind = parse_policy("window", k=chunk_len)
    window = _traced(lambda tr: sequential_perplexity(model, stream, kind, trace=tr).total_nll,
                     model.config)
    assert top == window


@pytest.mark.parametrize("prompt,steps", [([5], 0), ([3, 1, 4], 40)])
def test_topline_sized_by_generation_matches_full_window(prompt, steps):
    model = make_model(seed=7, train_context_len=64)
    top = _traced(lambda tr: generate(model, prompt, steps, trace=tr), model.config)
    kind = parse_policy("window", k=len(prompt) + steps)
    assert top == _traced(lambda tr: generate(model, prompt, steps, kind, trace=tr),
                          model.config)
    assert len(top[0]) == len(prompt) + steps


@pytest.mark.parametrize("steps", [0, 17])
def test_topline_sized_by_simulation_steps(steps):
    script, trace = simulate_with_rule(uniform_rule, None, steps, n_layers=2, n_heads=2)
    assert script.n_steps == steps
    assert len(trace.events) == 2 * 2 * steps
    assert trace_driven_simulate(script, None).sorted_events() == trace.sorted_events()
    if steps:
        _, window = simulate_with_rule(uniform_rule, parse_policy("window", k=steps), steps,
                                       n_layers=2, n_heads=2)
        assert window.sorted_events() == trace.sorted_events()


def test_remap_is_identity_without_evictions(tiny_model):
    # consecutive retained positions have gap 1, which remaps to itself, so
    # the remapped run reproduces the plain one bit for bit
    stream = make_stream(tiny_model, length=40, chunk_len=20)
    plain = sequential_perplexity(tiny_model, stream)
    remapped = sequential_perplexity(tiny_model, stream, remap=True)
    assert remapped.total_nll == plain.total_nll
    assert remapped.perplexity == plain.perplexity
    kind = parse_policy("window", k=20)
    bounded = sequential_perplexity(tiny_model, stream, kind, remap=True)
    assert bounded.total_nll == plain.total_nll
