"""Evaluation harness: sequential decoding, masked-parallel evaluation,
scripted policy simulation, and greedy generation.

Sequential mode is the ground truth: one decode_step per token against an
explicit multi-state, policy applied after each step. Scoring and `generate`
run that one loop, `_decode`, and both scoring modes sum a chunk's NLLs, from
blocks of logit rows, in `_score_chunks`. Masked-parallel mode is layer-major
over the same kernel: per layer, the norm, q/k/v projections and rotation run
over the whole chunk's rows in one `attention_inputs` call; then each row's
attention mask is the policy's retained set for that layer, and no
multi-state is built. Under H2O and TOVA those sets are score-driven: the
first k rows attend over every earlier row and decide nothing, so they run
as plain causal attention in one blocked `causal_attention` call; from row k
on, each row gives every head its column of the chunk's K and V,
`attention_step` attends over each head's k+1 columns, and `decide_layer`,
the rule `apply_policy` applies to a state, picks the column each head drops.
The window family's are the fixed band+prefix, so `band_attention` runs the
whole chunk at once, its first k rows through `causal_attention` as well.
Then W_O and the feed-forward block run over all rows in one `layer_output`
call, and the LM head in one call after the last layer.
Row t of every batched kernel call equals the one-token call bit for bit, so
probabilities, decisions, and perplexities agree exactly; the acceptance
tolerance is slack on top.

Each mode hands a trace each layer's events in one `record_chunk` call, so a
trace lists its events layer block by layer block in all three.

A layer's attention is one (H, S) float32 block throughout: the kernel
returns it, the policies take it, a ScriptedTrace stores a step's (L, H, S)
stack of them, and the model-free simulator, on retained positions alone
(ColumnSets), checks a step's stack in one pass and hands it to `apply_policy`
whole.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .model import (Model, attention_inputs, attention_step, band_attention,
                    causal_attention, decode_step, layer_output, row_matmul)
from .policies import PolicyKind, apply_policy, decide_layer
from .state import (ColumnSets, MultiState, RetentionTrace, _parse_table, read_csv_rows,
                    read_text_lines, write_csv_rows)

# unused here: bench/tracing.py patches these names on this module
from .model import rms_norm, rotate  # noqa: F401
from .policies import accumulate_row  # noqa: F401
from .remap import remap_positions  # noqa: F401

SCRIPT_COLUMNS = ("step", "layer", "head", "state_slot", "probability")
ROW_SUM_TOL = 1e-6
NLL_ROWS = 16  # logit rows per NLL block: few, so a block adds little to one step's latency


@dataclass(frozen=True)
class TokenStream:
    """Token ids plus the chunk length used for independent-chunk scoring."""

    ids: tuple[int, ...]
    chunk_len: int

    def __post_init__(self) -> None:
        if self.chunk_len < 2:
            raise ValueError("chunk_len must be >= 2 (each chunk needs a prediction)")
        if len(self.ids) < 2:
            raise ValueError("token stream must hold at least 2 tokens")
        if any(t < 0 for t in self.ids):
            raise ValueError("token ids must be non-negative")

    def chunks(self) -> list[tuple[int, tuple[int, ...]]]:
        """(start offset, ids) per chunk; a trailing chunk of 1 is dropped."""
        out = []
        for start in range(0, len(self.ids), self.chunk_len):
            part = self.ids[start:start + self.chunk_len]
            if len(part) >= 2:
                out.append((start, part))
        return out


def read_token_stream(path: str, chunk_len: int, vocab_size: int | None = None) -> TokenStream:
    """One decimal token id per line."""
    ids = []
    for lineno, line in enumerate(read_text_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            tok = int(line)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not a token id: {line!r}") from None
        if tok < 0 or (vocab_size is not None and tok >= vocab_size):
            raise ValueError(f"{path}:{lineno}: token {tok} out of range")
        ids.append(tok)
    return TokenStream(ids=tuple(ids), chunk_len=chunk_len)


def write_token_stream(path: str, ids: Sequence[int]) -> None:
    with open(path, "w") as fh:
        for tok in ids:
            fh.write(f"{tok}\n")


@dataclass(frozen=True)
class ChunkResult:
    start: int
    n_scored: int
    nll: float


@dataclass(frozen=True)
class PerplexityReport:
    chunks: tuple[ChunkResult, ...]

    @property
    def total_nll(self) -> float:
        return float(sum(c.nll for c in self.chunks))

    @property
    def token_count(self) -> int:
        return int(sum(c.n_scored for c in self.chunks))

    @property
    def perplexity(self) -> float:
        return float(math.exp(self.total_nll / self.token_count))


def nll_of(logits: np.ndarray, targets: Sequence[int]) -> list[float]:
    """Stable -log softmax(row)[target] in float64, for each row of a (R, vocab) logit
    block (or a list of R rows) and its target."""
    x = np.asarray(logits, dtype=np.float64)
    top = x.max(axis=1)
    totals = np.exp(x - top[:, None]).sum(axis=1)
    picked = x[np.arange(len(x)), list(targets)]
    return [(m + math.log(s)) - p for m, s, p in zip(top.tolist(), totals.tolist(),
                                                      picked.tolist())]


def _bounded(kind: PolicyKind | None, steps: int) -> PolicyKind:
    """`kind`, or for the unbounded topline (None) the window that `steps` steps never fill."""
    return kind if kind is not None else PolicyKind("window", max(steps, 1))


def _check_trace(model: Model, trace: RetentionTrace | None) -> None:
    layers, heads = model.config.n_layers, model.config.n_heads
    if trace is not None and (trace.n_layers, trace.n_heads) != (layers, heads):
        raise ValueError(f"a trace of {trace.n_layers} layers and {trace.n_heads} heads "
                         f"cannot record a state of {layers} and {heads}")


def _decode(model: Model, tokens: Sequence[int], steps: int, kind: PolicyKind | None,
            remap: bool, trace: RetentionTrace | None) -> Iterator[np.ndarray]:
    """The multi-state recurrence: yield the logits of each of `steps` decode steps, after
    that step's policy. Step t reads `tokens[t]` only then, so a caller may append to it."""
    config = model.config
    kind = _bounded(kind, steps)
    state = MultiState(config.n_layers, config.n_heads, config.head_dim, kind.k, remap)
    for t in range(steps):
        logits, probs = decode_step(model, state, tokens[t], t)
        apply_policy(kind, state, probs)
        if trace is not None and t == steps - 1:  # before the last row, where scoring stops
            for layer in range(config.n_layers):
                trace.record_chunk(layer, tokens, state.evictions(layer))
        yield logits


def sequential_perplexity(model: Model, stream: TokenStream,
                          kind: PolicyKind | None = None, *, remap: bool = False,
                          trace: RetentionTrace | None = None) -> PerplexityReport:
    """Token-by-token perplexity under a policy.

    `kind=None` is the unbounded topline: the window of k = the chunk's
    length, which the chunk never fills, so nothing is evicted. Chunks are
    independent: the state resets between them and the first token of each
    chunk is never scored. A provided trace captures the first chunk only
    (steps are chunk-local).
    """
    return _score_chunks(model, stream, remap, trace,
                         lambda ids, tr: _decode(model, ids, len(ids), kind, remap, tr))


def _score_chunks(model: Model, stream: TokenStream, remap: bool,
                  trace: RetentionTrace | None,
                  logits_of: Callable[[Sequence[int], RetentionTrace | None],
                                      Iterable[np.ndarray]],
                  ) -> PerplexityReport:
    """Score every chunk from `logits_of(ids, trace)`, whose row t predicts `ids[t + 1]`;
    the first chunk gets the trace."""
    _check_trace(model, trace)
    config = model.config
    for i, tok in enumerate(stream.ids):
        if tok >= config.vocab_size:
            raise ValueError(f"stream token {tok} at index {i} out of range "
                             f"for vocab {config.vocab_size}")
    if not remap and stream.chunk_len > config.train_context_len:
        raise ValueError(f"chunk_len {stream.chunk_len} exceeds train_context_len "
                         f"{config.train_context_len}; enable remapping to go longer")
    results = []
    for index, (start, ids) in enumerate(stream.chunks()):
        rows, nll = iter(logits_of(ids, trace if index == 0 else None)), 0.0
        for lo in range(1, len(ids), NLL_ROWS):
            targets = ids[lo:lo + NLL_ROWS]
            for value in nll_of(list(islice(rows, len(targets))), targets):
                nll += value
        next(rows, None)  # a decoder's unscored last step still runs
        results.append(ChunkResult(start=start, n_scored=len(ids) - 1, nll=nll))
    return PerplexityReport(chunks=tuple(results))


# ---------------------------------------------------------------------------
# masked-parallel evaluation


def _evict_table(first_step: int, positions: np.ndarray) -> np.ndarray:
    """The (n, 3) (step, head, position) table of (steps, H) positions evicted from step
    `first_step` on."""
    steps = np.arange(first_step, first_step + len(positions))[:, None]
    table = np.broadcast_arrays(steps, np.arange(positions.shape[1]), positions)
    return np.stack(table, -1).reshape(-1, 3)


def _policy_attention(kind: PolicyKind, q: np.ndarray, k: np.ndarray,
                      v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A chunk's (T, hidden) context at one layer under H2O or TOVA, and the
    (n, 3) table of its evicted (step, head, position).

    `q`, `k` and `v` are the chunk's (T, n_heads, head_dim) attention inputs,
    rotated. Rows t < k evict nothing and attend over rows 0..t of the
    chunk's (H, T, d) K and V, so they run through `causal_attention`, as
    `band_attention`'s first rows do. From row k on, head h keeps its k+1
    retained rows as columns h * T + position of that block flattened: row t
    adds its own column to every head, attends over the gathered columns,
    and `decide_layer`, the rule `apply_policy` applies to a state, picks the
    column each head drops. H2O's accumulated scores are one (H, k+1) float64
    block shifted with the columns. A block of causal rows is added to it
    stacked under the running sums, by one float64 sum down the rows, so
    each row is added in row order as `AccumulatedScores` adds it, and the
    block carries that class's bits.
    """
    n_rows, n_heads, head_dim = q.shape
    keys, values = (np.ascontiguousarray(x.transpose(1, 0, 2)) for x in (k, v))
    ctx = np.empty((n_rows, n_heads * head_dim), dtype=np.float32)
    cap = kind.k
    sums = np.zeros((n_heads, cap + 1)) if kind.needs_scores else None
    for rows, out, probs in causal_attention(q, keys, values, min(cap, n_rows)):
        ctx[rows] = out
        if sums is not None:  # stacked under the sums, so rows add in row order
            sums[:, :rows.stop] = np.add.reduce(
                np.concatenate((sums[:, None, :rows.stop], probs), 1), 1)
    offsets = np.arange(n_heads) * n_rows
    columns = offsets[:, None] + np.arange(cap + 1)
    arriving = offsets + np.arange(n_rows)[:, None]  # row t's column in every head
    shifted = (columns,) if sums is None else (columns, sums)  # an eviction shifts both
    evicted = np.empty((max(n_rows - cap, 0), n_heads), dtype=np.intp)
    keys, values = keys.reshape(-1, head_dim), values.reshape(-1, head_dim)
    for t in range(cap, n_rows):
        columns[:, cap] = arriving[t]
        ctx[t], probs = attention_step(q[t], keys.take(columns, 0), values.take(columns, 0))
        if sums is not None:
            sums += probs
        drop = decide_layer(kind, probs, sums)
        first = drop[0]
        if drop.count(first) == n_heads:  # one 2-D shift
            evicted[t - cap] = columns[:, first]
            for block in shifted:
                block[:, first:cap] = block[:, first + 1:]
        else:
            for head, index in enumerate(drop):
                evicted[t - cap, head] = columns[head, index]
                for block in shifted:
                    block[head, index:cap] = block[head, index + 1:]
        if sums is not None:
            sums[:, cap] = 0.0
    return ctx, _evict_table(cap, evicted - offsets)


def _decode_chunk_parallel(model: Model, ids: Sequence[int], kind: PolicyKind | None,
                           trace: RetentionTrace | None) -> np.ndarray:
    """The chunk's (T-1, vocab) logit rows, row t predicting `ids[t + 1]`."""
    config, w = model
    kind = _bounded(kind, len(ids))
    x = w.token_embedding[list(ids)]
    positions = np.arange(len(ids))[:, None]
    for layer in range(config.n_layers):
        q, k, v = attention_inputs(model, layer, x, positions)
        if kind.family == "window":  # a fixed band+prefix mask: no decisions
            ctx = band_attention(q, k, v, kind.k, kind.pin)
            steps = np.arange(kind.k, len(ids))[:, None]
            evicts = _evict_table(kind.k, np.repeat(steps - kind.k + kind.pin, config.n_heads, 1))
        else:
            ctx, evicts = _policy_attention(kind, q, k, v)
        if trace is not None:
            trace.record_chunk(layer, ids, evicts)
        x = layer_output(model, layer, x, ctx)
    return row_matmul(x[:-1], w.lm_head)


def masked_parallel_perplexity(model: Model, stream: TokenStream, kind: PolicyKind | None = None,
                               *, trace: RetentionTrace | None = None) -> PerplexityReport:
    """Per-chunk evaluation that runs the chunk through one layer at a time.

    Each layer sees the whole chunk before the next layer starts; the
    policy's retained sets act as the attention masks (band+prefix for the
    window family; for H2O and TOVA, column sets grown row by row and pruned
    by `decide_layer`'s decisions). No multi-state is built. Positions stay
    original (no remapping in this mode). `kind=None` is the unbounded
    topline, as in `sequential_perplexity`: a band as wide as the chunk, so
    row t attends to rows 0..t, a plain causal transformer.
    """
    return _score_chunks(model, stream, False, trace,
                         lambda ids, tr: _decode_chunk_parallel(model, ids, kind, tr))


# ---------------------------------------------------------------------------
# scripted traces: policy dynamics without model math

RowRule = Callable[[int, int, int, Sequence[int]], np.ndarray]


@dataclass
class ScriptedTrace:
    """Per-step probability blocks over the retained states: step t is one
    (L, H, S) float32 block from both `read_csv` and `simulate_with_rule`, and
    `rows[t][layer][head]` is one head's row."""

    n_layers: int
    n_heads: int
    rows: list[np.ndarray]  # [step] -> (n_layers, n_heads, size) float32

    @property
    def n_steps(self) -> int:
        return len(self.rows)

    def write_csv(self, path: str) -> None:
        # (t, layer, head, slot) and probability of every cell, in row-major
        # order; the empty first pieces keep a script of no steps writable
        index, probs = [np.empty((0, 4), dtype=np.int64)], [np.empty((0, 1), dtype=np.float32)]
        for t, block in enumerate(self.rows):
            index.append(np.indices((1,) + np.shape(block)).reshape(4, -1).T + (t, 0, 0, 0))
            probs.append(np.reshape(block, (-1, 1)))
        write_csv_rows(path, SCRIPT_COLUMNS, [(np.concatenate(index), str),
                                              (np.concatenate(probs), "{:.9g}".format)])

    @classmethod
    def read_csv(cls, path: str) -> "ScriptedTrace":
        """Read a script CSV: one `_parse_table` call, or the read_csv_rows loop, which
        names a bad line, for a body that call refuses or that holds a negative index
        or a duplicate cell. With the cells sorted, one loop over (step, layer, head)
        groups checks the grid is full before anything is sized by an index."""
        rows = _parse_table(path, SCRIPT_COLUMNS, _SCRIPT_ROW)
        cells, probs = _read_script_rows(path) if rows is None else (
            np.column_stack([rows[name] for name in SCRIPT_COLUMNS[:4]]), rows["probability"])
        order = np.lexsort(cells.T[::-1])
        cells, probs = cells[order], probs[order]
        if (cells < 0).any() or (cells[1:] == cells[:-1]).all(1).any():
            _read_script_rows(path)  # the row loop names the first such row
        if not len(cells):
            raise ValueError(f"scripted trace {path} holds no rows")
        starts = np.flatnonzero(np.append(True, (cells[1:, :3] != cells[:-1, :3]).any(1)))
        widths = np.diff(np.append(starts, len(cells))).tolist()
        n_steps, n_layers, n_heads = (int(column.max()) + 1 for column in cells.T[:3])
        # group g of the cells must be cell g of the full (step, layer, head) grid
        for g, ((t, layer, head), width, last) in enumerate(zip(
                cells[starts, :3].tolist(), widths, cells[starts + widths - 1, 3].tolist())):
            if (t * n_layers + layer) * n_heads + head != g:
                break
            if last >= width:
                raise ValueError(f"{path}: state_slot {last} out of range "
                                 f"at step {t}, layer {layer}, head {head}")
            if head == n_heads - 1 and widths[g + 1 - n_heads:g + 1].count(width) < n_heads:
                raise ValueError(f"{path}: heads hold different slot counts at step {t}, "
                                 f"layer {layer}: {widths[g + 1 - n_heads:g + 1]}")
            if head == n_heads - 1 and width != widths[g + 1 - (layer + 1) * n_heads]:
                raise ValueError(f"{path}: layers hold different slot counts at step {t}: "
                                 f"{widths[g + 1 - (layer + 1) * n_heads:g + 1:n_heads]}")
        else:  # every group is in place
            g = len(widths)
        if g < n_steps * n_layers * n_heads:
            (t, layer), head = divmod(g // n_heads, n_layers), g % n_heads
            raise ValueError(f"{path}: missing row for step {t}, layer {layer}, head {head}")
        blocks = np.split(probs.astype(np.float32), starts[n_layers * n_heads::n_layers * n_heads])
        return cls(n_layers=n_layers, n_heads=n_heads,
                   rows=[block.reshape(n_layers, n_heads, -1) for block in blocks])


# one script CSV row; a probability parses as float() reads it, before the float32 cast
_SCRIPT_ROW = np.dtype([(name, np.int64) for name in SCRIPT_COLUMNS[:4]] + [("probability", "f8")])


def _read_script_rows(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The row loop's (n, 4) int64 cells and float64 probabilities; a bad row names its line."""
    index, probs, seen = array("q"), array("d"), set()
    for lineno, row in read_csv_rows(path, SCRIPT_COLUMNS):
        try:  # a short or long row fails the unpacking, an index beyond int64 the extend
            t, layer, head, slot, p = row
            cell = (int(t), int(layer), int(head), int(slot))
            index.extend(cell)
            probs.append(float(p))
        except (ValueError, OverflowError):
            raise ValueError(f"{path}:{lineno}: expected {len(SCRIPT_COLUMNS)} numeric fields "
                             f"{SCRIPT_COLUMNS}, got {row}") from None
        if min(cell) < 0:
            raise ValueError(f"{path}:{lineno}: negative index in {row}")
        if cell in seen:
            raise ValueError(f"{path}:{lineno}: duplicate row for step {cell[0]}, layer "
                             f"{cell[1]}, head {cell[2]}, state_slot {cell[3]}")
        seen.add(cell)
    return np.frombuffer(index, dtype=np.int64).reshape(-1, 4), np.frombuffer(probs)


def _check_sums(rows: np.ndarray, step: int, n_heads: int, first: int = 0) -> None:
    """Check in one pass that every row of an (n, S) float32 block sums to 1 (a NaN
    fails) with no negative entry. Row i is (layer, head) divmod(first + i, H); an
    error names the first bad row, with the check that failed first on it."""
    totals = rows.sum(axis=1)
    lows = rows.min(axis=1)
    bad_sum = ~(np.abs(totals.astype(np.float64) - 1.0) <= ROW_SUM_TOL)
    bad = bad_sum | (lows < 0)
    if bad.any():
        row = int(np.argmax(bad))
        layer, head = divmod(first + row, n_heads)
        where = f"step {step}, layer {layer}, head {head}"
        if bad_sum[row]:
            raise ValueError(f"{where}: probabilities sum to {float(totals[row])!r}, not 1")
        raise ValueError(f"{where}: negative probability {float(lows[row])!r}")


def _check_step(layers: Sequence[Sequence], shape: tuple[int, int, int],
                step: int) -> np.ndarray:
    """A step's rows (an (L, H, S) block, or per layer an (H, S) block or a list of
    rows) as a checked (L, H, S) float32 block: one `_check_sums` pass over its
    (L * H, S) rows. A ragged or misshapen step is checked row by row in (layer,
    head) order, for a layer's head count, then each row's conversion, length, sum
    and sign; a wrong layer count stacks to a block that `apply_policy` refuses."""
    n_layers, n_heads, size = shape
    try:
        block = np.asarray(layers, dtype=np.float32)
    except (ValueError, TypeError):  # ragged or not numeric: the row loop names the row
        block = None
    if block is not None and block.shape == shape:
        _check_sums(block.reshape(n_layers * n_heads, size), step, n_heads)
        return block
    checked = []
    for layer, rows in enumerate(layers):
        if len(rows) != n_heads:
            raise ValueError(f"step {step}, layer {layer}, head {min(len(rows), n_heads)}: the "
                             f"rows cover {len(rows)} heads, the multi-state has {n_heads}")
        for head, row in enumerate(rows):
            where = f"step {step}, layer {layer}, head {head}"
            try:  # as a one-row (1, S) block, the shape `_check_sums` takes
                one = np.asarray([row], dtype=np.float32)
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{where}: {exc}") from None
            if one.shape != (1, size):
                raise ValueError(f"{where}: row length {np.shape(row)} does not match "
                                 f"multi-state size {size}")
            _check_sums(one, step, n_heads, layer * n_heads + head)
            checked.append(one[0])
    return np.stack(checked).reshape(-1, n_heads, size)


def _simulate(step_rows: Callable[[int, np.ndarray], Sequence], kind: PolicyKind | None,
              steps: int, trace: RetentionTrace) -> Iterator[np.ndarray]:
    """Run `steps` model-free steps into `trace` (each layer's events in one block at the
    end), yielding each step's checked (L, H, S) block of `step_rows(t, positions)`, where
    `positions` is the (L, H, S) block of retained positions."""
    kind = _bounded(kind, steps)
    sets = ColumnSets(trace.n_layers, trace.n_heads, kind.k)
    for t in range(steps):
        positions = sets.append(t)
        block = _check_step(step_rows(t, positions), positions.shape, t)
        apply_policy(kind, sets, block)
        yield block
    for layer in range(sets.n_layers):
        trace.record_chunk(layer, range(steps), sets.evictions(layer))


def trace_driven_simulate(script: ScriptedTrace, kind: PolicyKind | None) -> RetentionTrace:
    """Replay a scripted trace through a policy; no model math involved.

    The script must be internally consistent with the eviction sequence it
    induces: every block's width has to match the multi-state size at that
    step (appends use position = step = token id).
    """
    trace = RetentionTrace(script.n_layers, script.n_heads)
    for _ in _simulate(lambda t, positions: script.rows[t], kind, script.n_steps, trace):
        pass
    return trace


def simulate_with_rule(rule: RowRule, kind: PolicyKind | None, steps: int,
                       n_layers: int = 1, n_heads: int = 1,
                       ) -> tuple[ScriptedTrace, RetentionTrace]:
    """Run a probability rule through a policy, materializing the script it made.

    Step t of the script is the (L, H, S) block the simulator checked, so it
    replays to the identical RetentionTrace via trace_driven_simulate.
    """
    trace = RetentionTrace(n_layers, n_heads)
    rows = list(_simulate(lambda t, positions: [
        [rule(t, layer, head, retained) for head, retained in enumerate(per_layer)]
        for layer, per_layer in enumerate(positions.tolist())], kind, steps, trace))
    return ScriptedTrace(n_layers=n_layers, n_heads=n_heads, rows=rows), trace


def uniform_rule(t: int, layer: int, head: int, retained: Sequence[int]) -> np.ndarray:
    """Uniform probability over the retained states (exact ties everywhere)."""
    n = len(retained)
    return np.full(n, 1.0 / n, dtype=np.float32)


def marker_rule(marker: int, marker_prob: float = 0.5) -> RowRule:
    """Rule giving one original position a persistent high probability.

    While the marker is retained it takes `marker_prob` and the rest share
    the remainder uniformly; once gone, the row is uniform.
    """

    def rule(t: int, layer: int, head: int, retained: Sequence[int]) -> np.ndarray:
        n = len(retained)
        if marker not in retained or n == 1:
            return np.full(n, 1.0 / n, dtype=np.float32)
        row = np.full(n, (1.0 - marker_prob) / (n - 1), dtype=np.float32)
        row[list(retained).index(marker)] = marker_prob
        return row

    return rule


# ---------------------------------------------------------------------------
# greedy generation


def generate(model: Model, prompt: Sequence[int], max_steps: int,
             kind: PolicyKind | None = None, *, remap: bool = False,
             trace: RetentionTrace | None = None) -> list[int]:
    """Feed the prompt through the policy-bounded state, then decode greedily.

    Returns prompt + generated ids (argmax at each step, lowest id on ties).
    """
    if not prompt:
        raise ValueError("prompt must hold at least one token")
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    _check_trace(model, trace)
    steps = len(prompt) + max_steps
    out = list(prompt)
    for done, logits in enumerate(_decode(model, out, steps, kind, remap, trace), start=1):
        if len(prompt) <= done < steps:
            out.append(int(np.argmax(logits)))
    return out
