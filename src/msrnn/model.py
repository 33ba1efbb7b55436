"""Toy decoder-only transformer core.

Single-token decoding against an explicit multi-state: pre-norm attention and
feed-forward blocks with residual connections, rotary-style positions, float32
arithmetic throughout. The layer kernel is three functions: `attention_inputs`
(norm, one q/k/v projection call against the layer's stacked W_Q/W_K/W_V block,
one rotation call), `attend` (append, attend; one token at a time) and
`layer_output` (W_O and the feed-forward block). `decode_step` calls
them with one token's vector. The masked-parallel evaluator calls the first
and last with a whole chunk's rows and keeps no multi-state, so instead of
`attend` it runs the rows before the state fills, which are plain causal
attention, through `causal_attention` in blocks of rows; under H2O and TOVA
it then calls `attention_step` per deciding row over the row's gathered
columns, and for the window family's fixed mask `band_attention` runs all
the rows at once. Keys are rotated once, when they are cached, unless
the multi-state remaps positions: then they are cached unrotated, and each
step re-rotates at the remapped positions only the rows from the lowest slot
evicted since the last step. Integer positions (a decoding step, a chunk's
rows) read their cos and sin from a table cached per inv_freq; remapped,
real-valued positions compute theirs. A decoding step turns each coordinate
pair as a whole, in fewer numpy calls than the even and odd halves the other
positions take. All give the same bits.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest
from typing import Iterator, NamedTuple, get_type_hints

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .state import MultiState

WEIGHT_MAGIC = "msrnn-weights"
# version 2 ends the file in a CRC-32 of everything before it; version 1
# files, which have none, still load
WEIGHT_VERSION = 2
FF_GATE_NAME = "silu"
RMS_EPS = np.float32(1e-5)
# rows per block of causal_attention, and of band_attention when it copies a
# pinned prefix into each row's columns: it bounds the (H, rows, T) scores
# and the (H, rows, S, head_dim) copies
_BAND_ROWS = 16


class WeightFormatError(ValueError):
    """Base class for weight-file problems."""


class MalformedHeaderError(WeightFormatError):
    pass


class ShapeMismatchError(WeightFormatError):
    pass


class TruncatedBlobError(WeightFormatError):
    pass


class ChecksumMismatchError(WeightFormatError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    n_heads: int
    head_dim: int
    hidden_dim: int
    ff_dim: int
    vocab_size: int
    train_context_len: int
    rope_base: float = 10000.0

    def __post_init__(self) -> None:
        for f in ("n_layers", "n_heads", "head_dim", "hidden_dim", "ff_dim", "vocab_size"):
            if getattr(self, f) < 1:
                raise ValueError(f"{f} must be >= 1")
        if self.train_context_len < 2:
            raise ValueError("train_context_len must be >= 2")
        if self.head_dim % 2 != 0:
            raise ValueError("head_dim must be even for pairwise position rotation")
        if self.hidden_dim != self.n_heads * self.head_dim:
            raise ValueError(
                f"hidden_dim {self.hidden_dim} != n_heads*head_dim "
                f"{self.n_heads * self.head_dim}"
            )
        if not (math.isfinite(self.rope_base) and self.rope_base > 1.0):
            raise ValueError("rope_base must be finite and > 1")


@dataclass
class LayerWeights:
    attn_norm: np.ndarray  # (hidden,)
    w_qkv: np.ndarray      # (3, hidden, hidden): W_Q, W_K and W_V, one matmul's operand
    w_o: np.ndarray        # (hidden, hidden)
    ff_norm: np.ndarray    # (hidden,)
    ff_in: np.ndarray      # (hidden, ff)
    ff_out: np.ndarray     # (ff, hidden)

    # views of w_qkv, so an in-place edit of one reaches the kernel
    w_q = property(lambda self: self.w_qkv[0])
    w_k = property(lambda self: self.w_qkv[1])
    w_v = property(lambda self: self.w_qkv[2])


@dataclass
class ModelWeights:
    token_embedding: np.ndarray  # (vocab, hidden)
    layers: list[LayerWeights]
    lm_head: np.ndarray          # (hidden, vocab)

    def validate(self, config: ModelConfig) -> None:
        if len(self.layers) != config.n_layers:
            raise ShapeMismatchError(f"{len(self.layers)} layers, config has {config.n_layers}")
        for name, arr, shape in _iter_blocks(config, self):
            if arr.dtype != np.float32:
                raise ValueError(f"block {name} must be float32, got {arr.dtype}")
            if arr.shape != shape:
                raise ShapeMismatchError(f"block {name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"block {name} holds non-finite entries")


class Model(NamedTuple):
    config: ModelConfig
    weights: ModelWeights


def _layer_block_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    h, f = config.hidden_dim, config.ff_dim
    return [
        ("attn_norm", (h,)),
        ("w_q", (h, h)),
        ("w_k", (h, h)),
        ("w_v", (h, h)),
        ("w_o", (h, h)),
        ("ff_norm", (h,)),
        ("ff_in", (h, f)),
        ("ff_out", (f, h)),
    ]


def _block_shapes(config: ModelConfig):
    """(name, shape) for every block, in the frozen file order."""
    yield "token_embedding", (config.vocab_size, config.hidden_dim)
    for i in range(config.n_layers):
        for name, shape in _layer_block_shapes(config):
            yield f"layer{i}.{name}", shape
    yield "lm_head", (config.hidden_dim, config.vocab_size)


def _iter_blocks(config: ModelConfig, weights: ModelWeights):
    """(name, array, expected shape) for every block, in the frozen file order."""
    arrays = [weights.token_embedding]
    arrays += [getattr(lw, name) for lw in weights.layers for name, _ in _layer_block_shapes(config)]
    arrays.append(weights.lm_head)
    for (name, shape), arr in zip(_block_shapes(config), arrays):
        yield name, arr, shape


def init_random_model(config: ModelConfig, seed: int) -> ModelWeights:
    """Seeded random weights.

    Every block is uniform in [-1, 1] scaled by 1/sqrt(hidden_dim); the two
    normalization gain vectors additionally get +1 so activations keep O(1)
    magnitude. Blocks are drawn in the weight-file order, which is frozen:
    the same (config, seed) always yields bit-identical weights.
    """
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(config.hidden_dim)

    def draw(shape: tuple[int, ...], gain: bool = False) -> np.ndarray:
        block = rng.uniform(-1.0, 1.0, size=shape) * scale
        if gain:
            block = block + 1.0
        return block.astype(np.float32)

    return _assemble(config, {name: draw(shape, gain=name.endswith("_norm"))
                              for name, shape in _block_shapes(config)})


def zero_model(config: ModelConfig) -> ModelWeights:
    """All-zero weights: every logit is 0, so next-token distributions are uniform."""
    return _assemble(config, {name: np.zeros(shape, dtype=np.float32)
                              for name, shape in _block_shapes(config)})


def _assemble(config: ModelConfig, arrays: dict[str, np.ndarray]) -> ModelWeights:
    """Validated weights from blocks keyed by their weight-file names; each
    layer's W_Q, W_K and W_V are copied into its stacked w_qkv block."""
    layers = []
    for i in range(config.n_layers):
        blocks = {name: arrays[f"layer{i}.{name}"] for name, _ in _layer_block_shapes(config)}
        blocks["w_qkv"] = np.stack([blocks.pop(name) for name in ("w_q", "w_k", "w_v")])
        layers.append(LayerWeights(**blocks))
    weights = ModelWeights(arrays["token_embedding"], layers, arrays["lm_head"])
    weights.validate(config)
    return weights


# ---------------------------------------------------------------------------
# weight file I/O: text header, a little-endian float32 blob, then (version 2)
# the CRC-32 of both as four little-endian bytes

# each config field's declared type, in field order: int, or float for rope_base
_CONFIG_TYPES = get_type_hints(ModelConfig)


def _header_lines(config: ModelConfig, version: int = WEIGHT_VERSION) -> Iterator[str]:
    """The lines of the weight-file header, LF-joined, one at a time: save_weights
    writes them and load_weights accepts no other text for the config it reads,
    stopping at the first line that differs."""
    yield f"{WEIGHT_MAGIC} {version}"
    for name, kind in _CONFIG_TYPES.items():
        yield f"{name} {kind(getattr(config, name))!r}"
    yield f"ff_gate {FF_GATE_NAME}"
    for name, shape in _block_shapes(config):
        yield f"block {name} {' '.join(map(str, shape))}"
    yield from ("end", "")


def save_weights(path: str, config: ModelConfig, weights: ModelWeights) -> None:
    weights.validate(config)
    data = "\n".join(_header_lines(config)).encode("ascii") + b"".join(
        np.ascontiguousarray(arr, dtype="<f4").tobytes()
        for _, arr, _ in _iter_blocks(config, weights))
    with open(path, "wb") as fh:
        fh.write(data + zlib.crc32(data).to_bytes(4, "little"))


def load_weights(path: str) -> tuple[ModelConfig, ModelWeights]:
    """Load a weight file; raises a distinct error per failure mode.

    MalformedHeaderError when the magic, config or ff_gate lines differ from
    what save_weights writes, ShapeMismatchError when the block lines differ
    from those the config implies, TruncatedBlobError when the binary payload
    is shorter (or longer) than the header demands, and ChecksumMismatchError
    when a version 2 file's last four bytes are not the little-endian CRC-32
    of the header and blob before them.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    header, end, blob = data.partition(b"end\n")
    if not end:
        raise MalformedHeaderError(f"{path}: missing end-of-header marker")
    try:
        lines = (header + end).decode("ascii").split("\n")
    except UnicodeDecodeError:
        raise MalformedHeaderError(f"{path}: header is not ASCII text") from None
    versions = {f"{WEIGHT_MAGIC} {version}": version for version in (1, WEIGHT_VERSION)}
    if lines[0] not in versions:
        raise MalformedHeaderError(f"{path}: bad magic or version line {lines[0]!r}")
    version = versions[lines[0]]
    values = [line.partition(" ")[2] for line in lines[1:1 + len(_CONFIG_TYPES)]]
    if len(values) < len(_CONFIG_TYPES):
        raise MalformedHeaderError(f"{path}: header ends before its config fields")
    try:
        config = ModelConfig(**{name: kind(value)
                                for (name, kind), value in zip(_CONFIG_TYPES.items(), values)})
    except ValueError as exc:
        raise MalformedHeaderError(f"{path}: invalid config values ({exc})") from None
    for i, (got, want) in enumerate(zip_longest(lines, _header_lines(config, version))):
        if got != want:  # the lines after magic, config and ff_gate are blocks
            error = ShapeMismatchError if i > 1 + len(_CONFIG_TYPES) else MalformedHeaderError
            raise error(f"{path}: header line {i + 1} reads {got!r}, config implies {want!r}")

    expected = list(_block_shapes(config))
    n_floats = sum(int(np.prod(shape)) for _, shape in expected)
    crc_bytes = 4 if version > 1 else 0
    if len(blob) != 4 * n_floats + crc_bytes:
        raise TruncatedBlobError(f"{path}: {len(blob)} bytes follow the header, "
                                 f"it demands {4 * n_floats} of blob and {crc_bytes} of checksum")
    if crc_bytes:
        blob, stored = blob[:-crc_bytes], int.from_bytes(blob[-crc_bytes:], "little")
        crc = zlib.crc32(data[:-crc_bytes])
        if crc != stored:
            raise ChecksumMismatchError(f"{path}: header and blob have CRC-32 {crc:08x}, "
                                        f"the file records {stored:08x}")
    # each block is its own writable copy, so the W_Q, W_K and W_V that
    # _assemble stacks into w_qkv leave no dead memory behind
    offset = 0
    arrays: dict[str, np.ndarray] = {}
    for name, shape in expected:
        n = int(np.prod(shape))
        arrays[name] = np.frombuffer(blob, "<f4", n, 4 * offset).reshape(shape).astype(np.float32)
        offset += n
    return config, _assemble(config, arrays)


# ---------------------------------------------------------------------------
# numerics of the layer kernel. Every function but `attend` takes one vector
# or a block of rows, and row t of a block call equals the one-vector call on
# row t bit for bit, so attention probabilities (and therefore eviction
# decisions) come out identical whichever mode feeds the tokens. One-vector
# calls stay one-dimensional: array-shaped scalars, keyword ufunc arguments
# and 3-D matmuls each cost up to a microsecond per call, which sequential
# decoding would pay several times per layer and token. The one exception,
# the q/k/v projection against a stacked (3, hidden, hidden) block, is one
# call where three would be.


def row_matmul(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """`a @ w` for one vector; for (T, n) rows one vector-matrix product per
    row, whose row t equals `a[t] @ w` bit for bit (a GEMM's does not)."""
    if a.ndim == 1:
        return a @ w
    return np.matmul(a[:, None, :], w)[:, 0]


def rms_norm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    # a float32 sum divided by the length is np.mean's own arithmetic,
    # without its Python-level wrapper; one vector keeps a scalar `inv`
    ms = np.add.reduce(np.square(x), -1, np.float32) / np.float32(x.shape[-1])
    inv = np.float32(1.0) / np.sqrt(ms + RMS_EPS)
    if x.ndim > 1:
        inv = inv[:, None]
    return (x * inv) * gain


def silu(x: np.ndarray) -> np.ndarray:
    # stable sigmoid: exponentials only of non-positive arguments
    e = np.exp(-np.abs(x))
    return x * (np.where(x >= 0, 1.0, e) / (1.0 + e))


@lru_cache(maxsize=None)
def _inv_freq(head_dim: int, rope_base: float) -> np.ndarray:
    return np.power(float(rope_base), -np.arange(0, head_dim, 2, dtype=np.float64) / head_dim)


# integer positions below this read their angles from a table; later ones
# compute them. A table holds 4 * 4096 * head_dim/2 float64 values (1 MB at
# head_dim 16), and the cache keeps the tables of at most 8 inv_freq values.
_ANGLE_ROWS = 4096


@lru_cache(maxsize=8)
def _angle_table(inv_freq_bytes: bytes) -> tuple[np.ndarray, ...]:
    """The angles of one float64 inv_freq at positions 0.._ANGLE_ROWS-1, in
    pair layout: (_ANGLE_ROWS, head_dim/2, 2) blocks whose pair i holds
    (cos, cos) and (-sin, sin), then (_ANGLE_ROWS, head_dim/2) strided cos
    and sin views of them. One vectorised cos and sin call over the float64
    products of positions and inv_freq builds them, so they equal the angles
    rotate computes otherwise."""
    inv_freq = np.frombuffer(inv_freq_bytes, dtype=np.float64)
    ang = np.arange(_ANGLE_ROWS, dtype=np.float64)[:, None] * inv_freq
    cos, sin = np.cos(ang), np.sin(ang)
    cos_pairs, sin_pairs = np.stack((cos, cos), -1), np.stack((-sin, sin), -1)
    return cos_pairs, sin_pairs, cos_pairs[..., 0], sin_pairs[..., 1]


def rotate(vecs: np.ndarray, positions: int | float | np.ndarray,
           inv_freq: np.ndarray) -> np.ndarray:
    """Pairwise 2-D rotation of consecutive coordinate pairs.

    `vecs` is float32 with head_dim last; `positions` broadcasts against its
    leading shape. Angles for pair i are position * rope_base**(-2i/head_dim),
    computed in float64 (positions may be large or real-valued), output cast
    back to float32. Purely element-wise, so batched and per-subset calls
    agree bit-for-bit.

    Integer positions in [0, _ANGLE_ROWS) (a decoding step as a Python int,
    a chunk's (T, 1) integer rows) read their cos and sin from a table
    cached per inv_freq value; other positions compute their angles. A step
    rotates each (even, odd) pair as a whole, pair * (cos, cos) plus the
    swapped pair * (-sin, sin), in fewer numpy calls than the even and odd
    halves; since e*c + o*(-s) rounds as e*c - o*s and the sum commutes,
    every kind of position gives the same bits.
    """
    step = type(positions) is int
    if step:
        cached = 0 <= positions < _ANGLE_ROWS
    else:
        cached = (isinstance(positions, np.ndarray) and positions.dtype.kind in "iu"
                  and positions.size > 0 and positions.min() >= 0
                  and positions.max() < _ANGLE_ROWS)
    if cached and inv_freq.dtype == np.float64:
        cos_pairs, sin_pairs, cos, sin = _angle_table(inv_freq.tobytes())
        if step:
            pairs = vecs.astype(np.float64).reshape(vecs.shape[:-1] + (-1, 2))
            out = pairs * cos_pairs[positions] + pairs[..., ::-1] * sin_pairs[positions]
            return out.reshape(vecs.shape).astype(np.float32)
        cos, sin = cos[positions], sin[positions]
    else:
        ang = np.asarray(positions, dtype=np.float64)[..., None] * inv_freq
        cos = np.cos(ang)
        sin = np.sin(ang)
    even = vecs[..., 0::2].astype(np.float64)
    odd = vecs[..., 1::2].astype(np.float64)
    out = np.empty(vecs.shape, dtype=np.float32)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    m = np.maximum.reduce(scores, -1, None, None, True)
    e = np.exp(scores - m)
    return e / np.add.reduce(e, -1, None, None, True)


def attention_step(q_rot: np.ndarray, keys_rot: np.ndarray,
                   values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention of one query over the cached states.

    `q_rot` is (n_heads, head_dim), already position-rotated; `keys_rot` and
    `values` are (n_heads, size, head_dim) with keys rotated at their
    (possibly remapped) positions. Returns the (n_heads * head_dim,) context,
    heads concatenated, and the (n_heads, size) float32 probabilities, one
    row per head.
    """
    if keys_rot.ndim != 3 or keys_rot.shape[1] == 0:
        raise ValueError("attention over an empty state")
    head_dim = keys_rot.shape[2]
    scores = np.einsum("hsd,hd->hs", keys_rot, q_rot) / np.float32(math.sqrt(head_dim))
    probs = softmax_rows(scores)
    ctx = np.einsum("hs,hsd->hd", probs, values)
    return ctx.reshape(-1), probs


def causal_attention(q: np.ndarray, keys: np.ndarray, values: np.ndarray, n_rows: int,
                     ) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """Rows t < `n_rows` of causal attention, a block of `_BAND_ROWS` rows at a time.

    `q` holds the chunk's (T, n_heads, head_dim) queries and `keys` and
    `values` its (n_heads, T, head_dim) blocks, rotated; row t attends to
    columns 0..t. Yields, for each block of rows [lo, hi), `slice(lo, hi)`,
    the block's (hi - lo, hidden) context and its (n_heads, hi - lo, hi)
    float32 probabilities, zero above the diagonal. The block's scores and
    softmax run over columns 0..hi-1, each row masked to its first t + 1
    by `where=`, so every row equals `attention_step(q[t], keys[:, :t+1],
    values[:, :t+1])` bit for bit while the temporaries stay
    (n_heads, _BAND_ROWS, hi).
    """
    scale = np.float32(math.sqrt(keys.shape[2]))
    queries = q.transpose(1, 0, 2)
    for lo in range(0, n_rows, _BAND_ROWS):
        hi = min(lo + _BAND_ROWS, n_rows)
        mask = np.arange(hi) <= np.arange(lo, hi)[:, None]
        scores = np.einsum("hsd,hrd->hrs", keys[:, :hi], queries[:, lo:hi]) / scale
        top = np.maximum.reduce(scores, -1, keepdims=True, initial=-np.inf, where=mask)
        e = np.exp(scores - top, out=np.zeros_like(scores), where=mask)
        probs = e / np.add.reduce(e, -1, keepdims=True, where=mask)
        out = np.einsum("hrs,hsd->hrd", probs, values[:, :hi])
        yield slice(lo, hi), out.transpose(1, 0, 2).reshape(hi - lo, -1), probs


def band_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, capacity: int,
                   pin: int) -> np.ndarray:
    """A chunk's (T, hidden) context under the window family's fixed mask.

    `q`, `k` and `v` are the chunk's (T, n_heads, head_dim) attention inputs,
    rotated. Row t attends to rows 0..t while t < capacity, and after that to
    the pinned prefix [0, pin) plus the band [t - capacity + pin, t]: the
    S = capacity + 1 entries a window+pin multi-state holds once row t is
    appended. The first rows are plain causal attention, so they run through
    `causal_attention`; the band rows run batched over their S gathered
    columns, laid out as `MultiState.layer_view` lays them out, with the
    same einsums and softmax as `attention_step`. So every row equals the
    one-token call bit for bit. A pinned prefix is copied in front of the
    band a block of rows at a time.
    """
    n_rows, n_heads, head_dim = q.shape
    keys = np.ascontiguousarray(k.transpose(1, 0, 2))
    values = np.ascontiguousarray(v.transpose(1, 0, 2))
    ctx = np.empty((n_rows, n_heads * head_dim), dtype=np.float32)
    for rows, out, _ in causal_attention(q, keys, values, min(capacity, n_rows)):
        ctx[rows] = out
    if n_rows <= capacity:
        return ctx
    # (H, R, S - pin, d) views: band row r holds columns pin + r .. capacity + r
    bands = [sliding_window_view(block[:, pin:], capacity + 1 - pin, axis=1).swapaxes(-1, -2)
             for block in (keys, values)]
    queries = q.transpose(1, 0, 2)
    scale = np.float32(math.sqrt(head_dim))
    step = _BAND_ROWS if pin else n_rows
    for lo in range(capacity, n_rows, step):
        hi = min(lo + step, n_rows)
        gathered = [band[:, lo - capacity:hi - capacity] for band in bands]
        if pin:
            prefix = (n_heads, hi - lo, pin, head_dim)
            gathered = [np.concatenate((np.broadcast_to(block[:, None, :pin], prefix), band), 2)
                        for block, band in zip((keys, values), gathered)]
        scores = np.einsum("hrsd,hrd->hrs", gathered[0], queries[:, lo:hi]) / scale
        out = np.einsum("hrs,hrsd->hrd", softmax_rows(scores), gathered[1])
        ctx[lo:hi] = out.transpose(1, 0, 2).reshape(hi - lo, -1)
    return ctx


def attention_inputs(model: Model, layer: int, x: np.ndarray,
                     positions: int | np.ndarray | None,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Query, key and value of a layer for one token or a block of rows.

    `x` is the residual stream entering the layer: one (hidden,) vector,
    giving (n_heads, head_dim) q, k and v, or (T, hidden) rows, giving
    (T, n_heads, head_dim). With `positions` (a scalar for one token, a
    (T, 1) array for rows) q and k come back rotated; None leaves them
    unrotated, for `attend` to rotate at remapped positions. One matmul
    projects q, k and v against the layer's stacked (3, hidden, hidden)
    w_qkv, each matrix (and each row) its own vector-matrix product, so
    every output equals `row_matmul` with that one matrix bit for bit; one
    rotate call turns the (2, ...) q/k slice of the result.
    """
    config, w = model
    lw = w.layers[layer]
    h = rms_norm(x, lw.attn_norm)
    if x.ndim == 1:
        qkv = h @ lw.w_qkv
    else:  # (3, T, 1, hidden): q, k and v stay contiguous (T, ...) blocks
        qkv = np.matmul(h[:, None, :], lw.w_qkv[:, None])
    qkv = qkv.reshape((3,) + x.shape[:-1] + (config.n_heads, config.head_dim))
    if positions is None:
        q, k, v = qkv
    else:
        q, k = rotate(qkv[:2], positions, _inv_freq(config.head_dim, config.rope_base))
        v = qkv[2]
    return q, k, v


def attend(model: Model, layer: int, state: MultiState, q: np.ndarray, k: np.ndarray,
           v: np.ndarray, position: int) -> tuple[np.ndarray, np.ndarray]:
    """One token's multi-state update at one layer: append, then attend.

    `q`, `k` and `v` are the token's (n_heads, head_dim) attention inputs;
    the new K/V rows are appended to every head of the layer before
    attention (the token attends to itself). Returns the (hidden,) context
    and the (H, S) attention probabilities the policies need. Eviction is
    the caller's job.

    On a plain state q and k come rotated at the token's position, so the
    key is cached rotated and attention runs over the cached keys as they
    are (rotation is element-wise, so this equals rotating every key at
    every step). On a state built with `remap` they come unrotated, and the
    keys are rotated at `state.remapped_positions`: one (1, S) row while the
    heads agree, else the (H, S) block. The state's rotated-key cache keeps
    the rows below the lowest slot evicted since the layer's last step,
    whose keys and remapped positions are unchanged; one rotate call
    re-rotates the rows from that slot up into the cache, with q riding
    along as one more key row at the newest remapped position.
    """
    for head in range(model.config.n_heads):
        state.append(layer, head, k[head], v[head], position)
    keys, values, _ = state.layer_view(layer)
    if state.remap:
        inv_freq = _inv_freq(model.config.head_dim, model.config.rope_base)
        remapped = state.remapped_positions(layer)
        cache, current = state.rotated_keys(layer)
        qk = rotate(np.concatenate((keys[:, current:], q[:, None]), 1),
                    np.concatenate((remapped[:, current:], remapped[:, -1:]), 1), inv_freq)
        cache[:, current:] = qk[:, :-1]
        keys, q = cache, qk[:, -1]
    return attention_step(q, keys, values)


def layer_output(model: Model, layer: int, x: np.ndarray, ctx: np.ndarray) -> np.ndarray:
    """The residual stream leaving a layer: `x` plus the W_O-projected
    context `ctx`, then the feed-forward residual; one vector or rows."""
    lw = model.weights.layers[layer]
    x = x + row_matmul(ctx, lw.w_o)
    return x + row_matmul(silu(row_matmul(rms_norm(x, lw.ff_norm), lw.ff_in)), lw.ff_out)


def decode_step(model: Model, state: MultiState, token: int,
                step: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Decode one token against the multi-state, layer by layer.

    Positions are `step`, or remapped on a state built with `remap`.
    Returns the next-token logits and the per-layer (H, S) attention
    probabilities the policies need. Eviction is the caller's job.
    """
    config, w = model
    if not (0 <= token < config.vocab_size):
        raise ValueError(f"token {token} out of range for vocab {config.vocab_size}")
    x = w.token_embedding[token]
    probs = []
    for layer in range(config.n_layers):
        q, k, v = attention_inputs(model, layer, x, None if state.remap else step)
        ctx, layer_probs = attend(model, layer, state, q, k, v, step)
        x = layer_output(model, layer, x, ctx)
        probs.append(layer_probs)
    return row_matmul(x, w.lm_head), probs
