import numpy as np
import pytest

from msrnn import (RetentionTrace, lifetime_by_tag, memory_report,
                   parse_policy, read_tag_file, recent_proportion,
                   retention_matrix, simulate_with_rule, token_lifetime,
                   uniform_rule, write_matrix_csv, write_matrix_pgm,
                   write_memory_csv)


def window_trace(k, steps, n_layers=1, n_heads=1):
    _, trace = simulate_with_rule(uniform_rule, parse_policy("window", k=k),
                                  steps=steps, n_layers=n_layers, n_heads=n_heads)
    return trace


def test_retention_matrix_window_closed_form():
    trace = window_trace(k=2, steps=4)
    matrix = retention_matrix(trace, layer=0)
    expected = np.array([
        [1, 0, 0, 0],
        [1, 1, 0, 0],
        [0, 1, 1, 0],
        [0, 0, 1, 1],
    ], dtype=np.float64)
    assert np.array_equal(matrix, expected)


def test_retention_matrix_head_mean_is_fractional():
    # each head concentrates mass on a different slot, so the heads' argmin
    # evictions diverge and the mean matrix picks up fractional cells
    def rule(t, layer, head, retained):
        n = len(retained)
        if n == 1:
            return np.ones(1, dtype=np.float32)
        row = np.full(n, 0.5 / (n - 1), dtype=np.float32)
        row[min(head, n - 1)] = 0.5
        return row

    _, trace = simulate_with_rule(rule, parse_policy("tova-head", k=2),
                                  steps=4, n_heads=2)
    matrix = retention_matrix(trace, layer=0)
    per_head = [retention_matrix(trace, 0, head=h) for h in range(2)]
    assert np.array_equal(matrix, (per_head[0] + per_head[1]) / 2)
    assert set(np.unique(matrix)).issubset({0.0, 0.5, 1.0})
    with pytest.raises(ValueError):
        retention_matrix(trace, layer=1)
    with pytest.raises(ValueError):
        retention_matrix(trace, layer=0, head=2)


def test_matrix_files(tmp_path):
    trace = window_trace(k=2, steps=3)
    matrix = retention_matrix(trace, 0)
    csv_path = tmp_path / "matrix.csv"
    pgm_path = tmp_path / "matrix.pgm"
    write_matrix_csv(matrix, csv_path)
    write_matrix_pgm(matrix, pgm_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "step,0,1,2"
    assert lines[1] == "0,1,0,0"
    data = pgm_path.read_bytes()
    assert data.startswith(b"P5\n3 3\n255\n")
    assert data[-9:] == bytes([255, 0, 0, 255, 255, 0, 0, 255, 255])


def test_token_lifetime_window():
    # k=2, 5 steps: positions 0..2 live exactly 2 steps, the last two survive
    trace = window_trace(k=2, steps=5)
    lifetimes = token_lifetime(trace)
    assert lifetimes == {0: 2.0, 1: 2.0, 2: 2.0, 3: 2.0, 4: 1.0}


def test_token_lifetime_averages_heads():
    def rule(t, layer, head, retained):
        n = len(retained)
        row = np.full(n, 0.0, dtype=np.float32)
        # head 0 always evicts the oldest, head 1 the newest entry
        target = 0 if head == 0 else n - 1
        row[:] = 1.0 / n
        if n > 2:
            row[target] = 0.0
            row[(target + 1) % n] += 1.0 / n
        return row

    _, trace = simulate_with_rule(rule, parse_policy("tova-head", k=2),
                                  steps=4, n_heads=2)
    lifetimes = token_lifetime(trace)
    per_head = []
    for h in range(2):
        t = RetentionTrace(1, 1)
        for ev in trace.sorted_events():
            if ev.head == h:
                t.record(ev.step, 0, 0, ev.action, ev.original_position, ev.token_id)
        per_head.append(token_lifetime(t))
    for p, mean in lifetimes.items():
        vals = [ph[p] for ph in per_head if p in ph]
        assert mean == pytest.approx(sum(vals) / len(vals))


def test_token_lifetime_rejects_orphan_evict():
    trace = RetentionTrace(1, 1)
    trace.record(0, 0, 0, "append", 0, 0)
    trace.record(1, 0, 0, "evict", 5, 0)
    with pytest.raises(ValueError):
        token_lifetime(trace)


def test_tag_file_and_lifetime_table(tmp_path):
    path = tmp_path / "tags.tsv"
    path.write_text("0\tNOUN\n1\tVERB\n2\tNOUN\n")
    tags = read_tag_file(path)
    assert tags == {0: "NOUN", 1: "VERB", 2: "NOUN"}

    trace = window_trace(k=2, steps=5)
    table = lifetime_by_tag(trace, tags)
    # lifetimes: NOUN (0,2) -> 2.0, VERB (1) -> 2.0, UNK (3,4) -> 1.5
    assert table[0] == ("Avg.", pytest.approx((2.0 + 2.0 + 2.0 + 2.0 + 1.0) / 5))
    assert ("NOUN", 2.0) in table and ("VERB", 2.0) in table
    assert table[-1] == ("UNK", pytest.approx(1.5))
    # descending means after the average row, name-sorted on ties
    means = [m for _, m in table[1:]]
    assert means == sorted(means, reverse=True)
    assert [t for t, _ in table[1:3]] == ["NOUN", "VERB"]

    path.write_text("0\tNOUN\n0\tVERB\n")
    with pytest.raises(ValueError):
        read_tag_file(path)
    path.write_text("zero NOUN\n")
    with pytest.raises(ValueError):
        read_tag_file(path)


def test_recent_proportion_window_is_one():
    trace = window_trace(k=3, steps=12)
    assert recent_proportion(trace, k=3) == 1.0


def test_recent_proportion_counts_old_pins():
    # pinned prefix of 1: position 0 stays forever, turning old after step k-1
    _, trace = simulate_with_rule(uniform_rule, parse_policy("window+1", k=3),
                                  steps=12, n_layers=1, n_heads=1)
    value = recent_proportion(trace, k=3)
    sets = trace.retained_sets(0, 0)
    expected_recent = sum(1 for t, s in enumerate(sets) for p in s if p > t - 3)
    expected_total = sum(len(s) for s in sets)
    assert value == pytest.approx(expected_recent / expected_total)
    assert value < 1.0
    # excluding the pins restores the pure-window picture
    assert recent_proportion(trace, k=3, exclude_prefix=1) == 1.0
    with pytest.raises(ValueError):
        recent_proportion(trace, k=0)
    with pytest.raises(ValueError, match="excluded prefix"):
        recent_proportion(trace, k=3, exclude_prefix=-5)


def test_memory_report_formula_and_linearity():
    r = memory_report(2, 3, 4, 5, 2)
    assert r.total_bytes == 2 * 2 * 3 * 4 * 5 * 2
    assert r.gigabytes == r.total_bytes / 1e9
    assert r.max_batch is None
    # exactly linear in the state size, zero intercept
    doubled = memory_report(2, 3, 4, 10, 2)
    assert doubled.total_bytes == 2 * r.total_bytes
    with pytest.raises(ValueError):
        memory_report(0, 3, 4, 5, 2)


def test_memory_report_reference_rows():
    # 32 layers x 32 heads x head_dim 128 at 2 bytes: published sizes within 5%
    r512 = memory_report(32, 32, 128, 512, 2)
    r4096 = memory_report(32, 32, 128, 4096, 2)
    assert abs(r512.gigabytes - 0.28) / 0.28 < 0.05
    assert abs(r4096.gigabytes - 2.18) / 2.18 < 0.05


def test_memory_budget_and_csv(tmp_path):
    r = memory_report(32, 32, 128, 512, 2, budget_bytes=10**9)
    assert r.max_batch == 10**9 // r.total_bytes
    path = tmp_path / "memory.csv"
    write_memory_csv([r, memory_report(1, 1, 2, 3, 4)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "state_size,bytes,gigabytes,max_batch"
    assert lines[1].startswith("512,268435456,0.268435,")
    assert lines[2].endswith(",")  # no budget -> empty max_batch cell


def test_retention_matrix_unbounded_is_lower_triangular():
    _, trace = simulate_with_rule(uniform_rule, None, steps=6)
    matrix = retention_matrix(trace, 0)
    assert np.array_equal(matrix, np.tril(np.ones((6, 6))))
    # reconstruction is insertion-order independent: feeding the same events
    # backwards yields the identical matrix
    replay = RetentionTrace(1, 1)
    for ev in reversed(trace.sorted_events()):
        replay.record(ev.step, ev.layer, ev.head, ev.action,
                      ev.original_position, ev.token_id)
    assert np.array_equal(retention_matrix(replay, 0), matrix)


def test_token_lifetime_window_min_closed_form():
    k, steps = 3, 10
    trace = window_trace(k=k, steps=steps)
    lifetimes = token_lifetime(trace)
    for p, life in lifetimes.items():
        assert life == min(k, steps - p)
        assert 1 <= life <= steps - p


def test_token_lifetime_marker_outlives_window():
    # a state holding persistently high attention survives far past the
    # FIFO horizon
    from msrnn import marker_rule
    k, steps, marker = 4, 30, 3
    _, trace = simulate_with_rule(marker_rule(marker, 0.5),
                                  parse_policy("tova-layer", k=k), steps=steps)
    lifetimes = token_lifetime(trace)
    assert lifetimes[marker] == steps - marker
    assert lifetimes[marker] > k


def test_lifetime_by_tag_hand_means():
    trace = RetentionTrace(1, 1)
    trace.record(0, 0, 0, "append", 0, 0)
    trace.record(1, 0, 0, "append", 1, 1)
    trace.record(0, 0, 0, "append", 2, 2)
    trace.record(2, 0, 0, "evict", 0, 0)
    trace.record(5, 0, 0, "evict", 1, 1)
    # lifetimes: position 0 -> 2, position 1 -> 4, position 2 -> 6 (never
    # evicted, six recorded steps)
    assert token_lifetime(trace) == {0: 2.0, 1: 4.0, 2: 6.0}
    table = lifetime_by_tag(trace, {0: "A", 1: "A", 2: "B"})
    assert table == [("Avg.", pytest.approx(4.0)), ("B", pytest.approx(6.0)),
                     ("A", pytest.approx(3.0))]
    # one shared tag collapses to a single row equal to the global mean
    single = lifetime_by_tag(trace, {0: "X", 1: "X", 2: "X"})
    assert single == [("Avg.", pytest.approx(4.0)), ("X", pytest.approx(4.0))]


def test_recent_proportion_pinned_closed_form():
    # window+1: steps t < k retain t+1 recent states; afterwards every step
    # holds one old pin plus k-1 recent states, driving the aggregate toward
    # (k-1)/k
    k, steps = 4, 100
    _, trace = simulate_with_rule(uniform_rule, parse_policy("window+1", k=k),
                                  steps=steps)
    ramp = k * (k + 1) // 2
    expected = (ramp + (steps - k) * (k - 1)) / (ramp + (steps - k) * k)
    value = recent_proportion(trace, k=k)
    assert value == pytest.approx(expected)
    assert abs(value - (k - 1) / k) < 0.01
    with pytest.raises(ValueError):
        recent_proportion(RetentionTrace(1, 1), k=k)


def test_memory_report_zero_state_size():
    r = memory_report(2, 3, 4, 0, 2, budget_bytes=10**6)
    assert r.total_bytes == 0
    assert r.gigabytes == 0.0
    assert r.max_batch is None  # empty cache gives no batch bound
    with pytest.raises(ValueError):
        memory_report(2, 3, 4, -1, 2)
