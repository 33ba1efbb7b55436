"""Evaluation harness: sequential decoding, masked-parallel evaluation,
scripted policy simulation, and greedy generation.

Sequential mode is the ground truth: one decode_step per token against an
explicit multi-state, policy applied after each step. Masked-parallel mode
is layer-major over the same kernel: per layer, the norm, q/k/v projections
and rotation run over the whole chunk's rows in one `attention_inputs` call;
then, row by row, `attend` appends and attends and `apply_layer_policy`
evicts, so each row's attention mask is the policy's retained set for that
layer (the band+prefix of the window family, the score-driven sets of
H2O/TOVA); then W_O and the feed-forward block run over all rows in one
`layer_output` call, and the LM head in one call after the last layer. Row
t of every batched kernel call equals the one-token call bit for bit, so
probabilities, decisions, and perplexities agree exactly; the acceptance
tolerance is slack on top.

A layer's attention is one (H, S) float32 block throughout: the kernel
returns it, the policies take it, a ScriptedTrace stores it per (step,
layer), and the model-free simulator checks it once per layer-step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .model import Model, attend, attention_inputs, decode_step, layer_output, row_matmul
from .policies import AccumulatedScores, PolicyKind, apply_layer_policy, apply_policy
from .remap import remap_positions
from .state import MultiState, RetentionTrace, read_csv_rows, write_csv_rows

# unused here: bench/tracing.py patches these names on this module
from .model import attention_step, rms_norm, rotate  # noqa: F401
from .policies import accumulate_row, decide_layer  # noqa: F401

SCRIPT_COLUMNS = ("step", "layer", "head", "state_slot", "probability")
ROW_SUM_TOL = 1e-6


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
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
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


def nll_of(logits: np.ndarray, target: int) -> float:
    """Stable -log softmax(logits)[target] in float64."""
    x = logits.astype(np.float64)
    m = float(x.max())
    return (m + math.log(float(np.exp(x - m).sum()))) - float(x[target])


def _new_state(n_layers: int, n_heads: int, head_dim: int, kind: PolicyKind | None,
               trace: RetentionTrace | None,
               ) -> tuple[MultiState, AccumulatedScores | None]:
    """An empty multi-state bounded by `kind`, plus the scores H2O policies need."""
    state = MultiState(n_layers, n_heads, head_dim,
                       capacity=kind.k if kind else None, trace=trace)
    acc = AccumulatedScores(n_layers, n_heads) \
        if kind is not None and kind.needs_scores else None
    return state, acc


def _decode_chunk_sequential(model: Model, ids: Sequence[int], kind: PolicyKind | None,
                             remap: bool, trace: RetentionTrace | None) -> float:
    config = model.config
    state, acc = _new_state(config.n_layers, config.n_heads, config.head_dim, kind, trace)
    position_fn = remap_positions if remap else None
    total = 0.0
    for t, token in enumerate(ids):
        logits, probs = decode_step(model, state, token, t, position_fn)
        if t + 1 < len(ids):
            total += nll_of(logits, ids[t + 1])
        if kind is not None:
            apply_policy(kind, state, probs, acc)
    return total


def sequential_perplexity(model: Model, stream: TokenStream,
                          kind: PolicyKind | None = None, *, remap: bool = False,
                          trace: RetentionTrace | None = None) -> PerplexityReport:
    """Token-by-token perplexity under a policy (None = unbounded topline).

    Chunks are independent: the state resets between them and the first token
    of each chunk is never scored. A provided trace captures the first chunk
    only (steps are chunk-local).
    """
    return _score_chunks(model, stream, remap, trace,
                         lambda ids, tr: _decode_chunk_sequential(model, ids, kind, remap, tr))


def _score_chunks(model: Model, stream: TokenStream, remap: bool,
                  trace: RetentionTrace | None,
                  decode_chunk: Callable[[Sequence[int], RetentionTrace | None], float],
                  ) -> PerplexityReport:
    """Score every chunk with `decode_chunk(ids, trace)`; the first one gets the trace."""
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
        nll = decode_chunk(ids, trace if index == 0 else None)
        results.append(ChunkResult(start=start, n_scored=len(ids) - 1, nll=nll))
    return PerplexityReport(chunks=tuple(results))


# ---------------------------------------------------------------------------
# masked-parallel evaluation


def _decode_chunk_parallel(model: Model, ids: Sequence[int], kind: PolicyKind,
                           trace: RetentionTrace | None) -> float:
    config, w = model
    state, acc = _new_state(config.n_layers, config.n_heads, config.head_dim, kind, trace)
    x = w.token_embedding[list(ids)]
    positions = np.arange(len(ids))[:, None]
    ctx = np.empty_like(x)
    for layer in range(config.n_layers):
        q, k, v = attention_inputs(model, layer, x, positions)
        for t, token in enumerate(ids):  # append, attend and evict: the sequential part
            ctx[t], probs = attend(model, layer, state, q[t], k[t], v[t], t, token)
            apply_layer_policy(kind, state, layer, probs, acc)
        x = layer_output(model, layer, x, ctx)

    total = 0.0
    for row, target in zip(row_matmul(x[:-1], w.lm_head), ids[1:]):
        total += nll_of(row, target)
    return total


def masked_parallel_perplexity(model: Model, stream: TokenStream, kind: PolicyKind,
                               *, trace: RetentionTrace | None = None) -> PerplexityReport:
    """Per-chunk evaluation that runs the chunk through one layer at a time.

    Each layer sees the whole chunk before the next layer starts; the
    policy's retained sets act as the attention masks (band+prefix for the
    window family, grown row by row from the layer's own attention weights
    for H2O and TOVA). Positions stay original (no remapping in this mode).
    """
    if kind is None:
        raise ValueError("masked-parallel evaluation needs a policy; "
                         "use sequential_perplexity for the unbounded topline")
    return _score_chunks(model, stream, False, trace,
                         lambda ids, tr: _decode_chunk_parallel(model, ids, kind, tr))


# ---------------------------------------------------------------------------
# scripted traces: policy dynamics without model math

RowRule = Callable[[int, int, int, Sequence[int]], np.ndarray]


@dataclass
class ScriptedTrace:
    """Per-step, per-layer probability blocks over the retained states."""

    n_layers: int
    n_heads: int
    rows: list[list[np.ndarray]]  # [step][layer] -> (n_heads, size) float32

    @property
    def n_steps(self) -> int:
        return len(self.rows)

    def write_csv(self, path: str) -> None:
        # (t, layer, head, slot) and probability of every cell, in row-major
        # order; the empty first pieces keep a script of no steps writable
        index, probs = [np.empty((0, 4), dtype=np.int64)], [np.empty((0, 1), dtype=np.float32)]
        for t, per_layer in enumerate(self.rows):
            for layer, block in enumerate(per_layer):
                grid = np.indices((1, 1) + np.shape(block)).reshape(4, -1).T
                index.append(grid + (t, layer, 0, 0))
                probs.append(np.reshape(block, (-1, 1)))
        write_csv_rows(path, SCRIPT_COLUMNS, [(np.concatenate(index), str),
                                              (np.concatenate(probs), "{:.9g}".format)])

    @classmethod
    def read_csv(cls, path: str) -> "ScriptedTrace":
        cells: dict[tuple[int, int, int], dict[int, float]] = {}
        for lineno, row in read_csv_rows(path, SCRIPT_COLUMNS):
            where = f"{path}:{lineno}"
            try:  # a short or long row fails the unpacking
                t, layer, head, slot, p = row
                t, layer, head, slot, p = int(t), int(layer), int(head), int(slot), float(p)
            except ValueError:
                raise ValueError(f"{where}: expected {len(SCRIPT_COLUMNS)} numeric fields "
                                 f"{SCRIPT_COLUMNS}, got {row}") from None
            if min(t, layer, head, slot) < 0:
                raise ValueError(f"{where}: negative index in {row}")
            slots = cells.setdefault((t, layer, head), {})
            if slot in slots:
                raise ValueError(f"{where}: duplicate row for step {t}, layer {layer}, "
                                 f"head {head}, state_slot {slot}")
            slots[slot] = p
        if not cells:
            raise ValueError(f"scripted trace {path} holds no rows")
        n_steps = max(key[0] for key in cells) + 1
        n_layers = max(key[1] for key in cells) + 1
        n_heads = max(key[2] for key in cells) + 1
        rows = []
        for t in range(n_steps):
            per_layer = []
            for layer in range(n_layers):
                per_head = []
                for head in range(n_heads):  # lazily: the first missing head fails
                    slots = cells.get((t, layer, head))
                    if slots is None:
                        raise ValueError(f"{path}: missing row for step {t}, "
                                         f"layer {layer}, head {head}")
                    if max(slots) >= len(slots):
                        raise ValueError(f"{path}: state_slot {max(slots)} out of range "
                                         f"at step {t}")
                    per_head.append([slots[slot] for slot in range(len(slots))])
                if len({len(row) for row in per_head}) > 1:
                    raise ValueError(f"{path}: heads hold different slot counts at step {t}, "
                                     f"layer {layer}: {[len(row) for row in per_head]}")
                per_layer.append(np.array(per_head, dtype=np.float32))
            rows.append(per_layer)
        return cls(n_layers=n_layers, n_heads=n_heads, rows=rows)


def _check_rows(rows: Sequence, shape: tuple[int, int] | int,
                where: Callable[[int], str]) -> np.ndarray:
    """One layer's rows (an (H, S) block or one row per head) as a checked float32 block.

    `shape` is the expected (H, S), or S alone to take H from the rows. One
    pass over the block checks every row's sum and sign (a NaN fails the
    sum); an error names `where(head)` for the first bad head, with the
    check that failed first on that head as the message.
    """
    n_heads, size = shape if isinstance(shape, tuple) else (len(rows), shape)
    try:
        block = np.asarray(rows, dtype=np.float32)
    except ValueError:  # rows of different lengths, or a row that is not numeric
        if len(rows) == 1:
            raise
        block = None
    if block is None or block.shape != (n_heads, size):
        if len(rows) != n_heads:
            raise ValueError(f"{where(min(len(rows), n_heads))}: the rows cover {len(rows)} "
                             f"heads, the multi-state has {n_heads}")
        if len(rows) == 1:
            raise ValueError(f"{where(0)}: row length {np.shape(rows[0])} does not match "
                             f"multi-state size {size}")
        # some row is off: check head by head, so the first bad head is named
        return np.concatenate([_check_rows([row], size, lambda _, head=head: where(head))
                               for head, row in enumerate(rows)])
    totals = block.sum(axis=1)
    lows = block.min(axis=1)
    bad_sum = ~(np.abs(totals.astype(np.float64) - 1.0) <= ROW_SUM_TOL)
    bad = bad_sum | (lows < 0)
    if bad.any():
        head = int(np.argmax(bad))
        if bad_sum[head]:
            raise ValueError(f"{where(head)}: probabilities sum to {float(totals[head])!r}, not 1")
        raise ValueError(f"{where(head)}: negative probability {float(lows[head])!r}")
    return block


def _simulate(layer_rows: Callable[[int, int, MultiState], Sequence], kind: PolicyKind | None,
              steps: int, trace: RetentionTrace) -> Iterator[list[np.ndarray]]:
    """Run `steps` model-free steps through the policy into `trace`, yielding each
    step's checked blocks; `layer_rows(t, layer, state)` gives a layer's rows."""
    state, acc = _new_state(trace.n_layers, trace.n_heads, 0, kind, trace)
    empty = np.zeros(0, dtype=np.float32)
    for t in range(steps):
        for layer in range(state.n_layers):
            for head in range(state.n_heads):
                state.append(layer, head, empty, empty, t, t)
        blocks = [_check_rows(layer_rows(t, layer, state), (state.n_heads, state.size(layer, 0)),
                              lambda head: f"step {t}, layer {layer}, head {head}")
                  for layer in range(state.n_layers)]
        if kind is not None:
            apply_policy(kind, state, blocks, acc)
        yield blocks


def trace_driven_simulate(script: ScriptedTrace, kind: PolicyKind | None) -> RetentionTrace:
    """Replay a scripted trace through a policy; no model math involved.

    The script must be internally consistent with the eviction sequence it
    induces: every block's width has to match the multi-state size at that
    step (appends use position = step = token id).
    """
    trace = RetentionTrace(script.n_layers, script.n_heads)
    for _ in _simulate(lambda t, layer, state: script.rows[t][layer], kind,
                       script.n_steps, trace):
        pass
    return trace


def simulate_with_rule(rule: RowRule, kind: PolicyKind | None, steps: int,
                       n_layers: int = 1, n_heads: int = 1,
                       ) -> tuple[ScriptedTrace, RetentionTrace]:
    """Run a probability rule through a policy, materializing the script it made.

    The returned ScriptedTrace replays to the identical RetentionTrace via
    trace_driven_simulate (blocks are recorded exactly as consumed).
    """

    def layer_rows(t: int, layer: int, state: MultiState) -> list[np.ndarray]:
        return [rule(t, layer, head, state.retained_positions(layer, head))
                for head in range(n_heads)]

    trace = RetentionTrace(n_layers, n_heads)
    rows = list(_simulate(layer_rows, kind, steps, trace))
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
    config = model.config
    state, acc = _new_state(config.n_layers, config.n_heads, config.head_dim, kind, trace)
    position_fn = remap_positions if remap else None
    out = list(prompt)
    for t in range(len(prompt) + max_steps):
        if t >= len(prompt):
            out.append(int(np.argmax(logits)))
        logits, probs = decode_step(model, state, out[t], t, position_fn)
        if kind is not None:
            apply_policy(kind, state, probs, acc)
    return out
