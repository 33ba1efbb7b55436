import csv
import io
import math

import numpy as np
import pytest

from msrnn import (Model, MultiState, RetentionTrace, ScriptedTrace,
                   TokenStream, generate, marker_rule,
                   masked_parallel_perplexity, parse_policy,
                   read_token_stream, sequential_perplexity,
                   simulate_with_rule, trace_driven_simulate, uniform_rule,
                   write_token_stream, zero_model)
from msrnn.harness import _check_rows, nll_of

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
    assert nll_of(logits, 2) == pytest.approx(expected, abs=1e-12)
    # shift invariance even at large magnitudes
    assert nll_of(logits + 1000.0, 2) == pytest.approx(expected, rel=1e-9)


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


def test_parallel_requires_policy(tiny_model):
    stream = make_stream(tiny_model, length=16, chunk_len=8, seed=6)
    with pytest.raises(ValueError):
        masked_parallel_perplexity(tiny_model, stream, None)


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


def test_check_row_rejects_nan_and_negative_entries():
    def where(head):
        return f"here {head}"

    good = _check_rows([np.array([0.25, 0.75])], 2, where)
    assert good.dtype == np.float32 and good.shape == (1, 2)
    for bad in ([np.nan, 1.0], [-0.5, 1.5], [-1e-7, 1.0 + 1e-7], [0.5, 0.4]):
        with pytest.raises(ValueError, match="^here 0: "):
            _check_rows([np.array(bad)], 2, where)
    with pytest.raises(ValueError, match="row length"):
        _check_rows([np.array([1.0])], 2, where)


def test_check_rows_names_the_first_bad_head():
    # the first bad head wins, with the check that fails first on it
    good, short, unsummed, negative = [0.5, 0.5], [1.0], [0.5, 0.4], [-0.5, 1.5]
    for rows, message in [
        ([good, unsummed, short], "^h1: probabilities sum to"),
        ([good, short, unsummed], "^h1: row length \\(1,\\)"),
        ([good, negative, unsummed], "^h1: negative probability -0.5"),
        ([good, good, [np.nan, 1.0]], "^h2: probabilities sum to nan"),
    ]:
        with pytest.raises(ValueError, match=message):
            _check_rows([np.array(r) for r in rows], 2, lambda head: f"h{head}")
    block = _check_rows([good, [0.25, 0.75]], 2, lambda head: f"h{head}")
    assert block.dtype == np.float32 and block.tolist() == [good, [0.25, 0.75]]


def test_block_row_sums_equal_per_row_sums():
    # the block check sums a layer's rows with one call; on float32 that is
    # bit for bit each row's own sum, so the 1e-6 tolerance sees the same value
    rng = np.random.default_rng(11)
    for size in range(1, 514):
        block = rng.random((16, size)).astype(np.float32)
        block /= block.sum(axis=1, keepdims=True)
        assert block.sum(axis=1).tolist() == [row.sum() for row in block]


def test_scripted_trace_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.csv"
    header = "step,layer,head,state_slot,probability\n"
    for body, message in [
        ("0,0,0,0,0.5\n0,0,0,0,0.5\n", "bad.csv:3: duplicate row"),
        ("0,0,0,0,1.0\n1,0,0\n", "bad.csv:3: expected 5 numeric"),
        ("0,0,0,x,1.0\n", "bad.csv:2: expected 5 numeric"),
        ("0,0,-1,0,1.0\n", "bad.csv:2: negative index"),
        # heads of one (step, layer) must hold the same number of slots
        ("0,0,0,0,1.0\n0,0,1,0,0.5\n0,0,1,1,0.5\n",
         "bad.csv: heads hold different slot counts at step 0, layer 0: \\[1, 2\\]"),
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
