"""Toy decoder-only transformer core.

Single-token decoding against an explicit multi-state: pre-norm attention and
feed-forward blocks with residual connections, rotary-style positions, float32
arithmetic throughout. `decode_layer` is the one layer kernel: `decode_step`
runs it token-major, the masked-parallel evaluator layer-major. Keys are
rotated once, when they are cached, unless positions are remapped: then they
are cached unrotated and re-rotated at the remapped positions every step.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .state import MultiState

WEIGHT_MAGIC = "msrnn-weights"
WEIGHT_VERSION = 1
FF_GATE_NAME = "silu"
RMS_EPS = np.float32(1e-5)

# Callable mapping a layer's (n_heads, size) retained original positions
# (newest last in each row) to real-valued rotation positions of the same
# shape; None means the identity assignment.
PositionFn = Callable[[np.ndarray], np.ndarray]


class WeightFormatError(ValueError):
    """Base class for weight-file problems."""


class MalformedHeaderError(WeightFormatError):
    pass


class ShapeMismatchError(WeightFormatError):
    pass


class TruncatedBlobError(WeightFormatError):
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
        if self.rope_base <= 1.0:
            raise ValueError("rope_base must be > 1")


@dataclass
class LayerWeights:
    attn_norm: np.ndarray  # (hidden,)
    w_q: np.ndarray        # (hidden, hidden)
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    ff_norm: np.ndarray    # (hidden,)
    ff_in: np.ndarray      # (hidden, ff)
    ff_out: np.ndarray     # (ff, hidden)


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
    """Validated weights from blocks keyed by their weight-file names."""
    layers = [LayerWeights(**{name: arrays[f"layer{i}.{name}"]
                              for name, _ in _layer_block_shapes(config)})
              for i in range(config.n_layers)]
    weights = ModelWeights(arrays["token_embedding"], layers, arrays["lm_head"])
    weights.validate(config)
    return weights


# ---------------------------------------------------------------------------
# weight file I/O: text header, then a little-endian float32 blob

_CONFIG_FIELDS = [f.name for f in fields(ModelConfig)]


def save_weights(path: str, config: ModelConfig, weights: ModelWeights) -> None:
    weights.validate(config)
    header = io.StringIO()
    header.write(f"{WEIGHT_MAGIC} {WEIGHT_VERSION}\n")
    for name in _CONFIG_FIELDS:
        header.write(f"{name} {getattr(config, name)!r}\n")
    header.write(f"ff_gate {FF_GATE_NAME}\n")
    for name, arr, _ in _iter_blocks(config, weights):
        dims = " ".join(str(d) for d in arr.shape)
        header.write(f"block {name} {dims}\n")
    header.write("end\n")
    with open(path, "wb") as fh:
        fh.write(header.getvalue().encode("ascii"))
        for _, arr, _ in _iter_blocks(config, weights):
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _parse_header_lines(raw: list[str], path: str) -> tuple[ModelConfig, list[tuple[str, tuple[int, ...]]]]:
    if not raw:
        raise MalformedHeaderError(f"{path}: empty header")
    magic = raw[0].split()
    if len(magic) != 2 or magic[0] != WEIGHT_MAGIC:
        raise MalformedHeaderError(f"{path}: bad magic line {raw[0]!r}")
    if magic[1] != str(WEIGHT_VERSION):
        raise MalformedHeaderError(f"{path}: unsupported format version {magic[1]!r}")
    cfg_values: dict[str, str] = {}
    blocks: list[tuple[str, tuple[int, ...]]] = []
    ff_gate = None
    for line in raw[1:]:
        parts = line.split()
        if not parts:
            raise MalformedHeaderError(f"{path}: blank header line")
        key = parts[0]
        if key == "block":
            if len(parts) < 3:
                raise MalformedHeaderError(f"{path}: bad block line {line!r}")
            try:
                dims = tuple(int(d) for d in parts[2:])
            except ValueError:
                raise MalformedHeaderError(f"{path}: non-integer block dims in {line!r}") from None
            blocks.append((parts[1], dims))
        elif key == "ff_gate":
            if len(parts) != 2:
                raise MalformedHeaderError(f"{path}: bad ff_gate line {line!r}")
            ff_gate = parts[1]
        elif key in _CONFIG_FIELDS:
            if len(parts) != 2 or key in cfg_values:
                raise MalformedHeaderError(f"{path}: bad or duplicate field line {line!r}")
            cfg_values[key] = parts[1]
        else:
            raise MalformedHeaderError(f"{path}: unknown header field {key!r}")
    missing = [name for name in _CONFIG_FIELDS if name not in cfg_values]
    if missing:
        raise MalformedHeaderError(f"{path}: missing config fields {missing}")
    if ff_gate is None:
        raise MalformedHeaderError(f"{path}: missing ff_gate line")
    if ff_gate != FF_GATE_NAME:
        raise MalformedHeaderError(f"{path}: unsupported ff_gate {ff_gate!r}")
    try:
        config = ModelConfig(**{
            name: (float(cfg_values[name]) if name == "rope_base" else int(cfg_values[name]))
            for name in _CONFIG_FIELDS
        })
    except ValueError as exc:
        raise MalformedHeaderError(f"{path}: invalid config values ({exc})") from None
    return config, blocks


def load_weights(path: str) -> tuple[ModelConfig, ModelWeights]:
    """Load a weight file; raises a distinct error per failure mode.

    MalformedHeaderError for unparseable headers, ShapeMismatchError when the
    declared blocks disagree with the config, TruncatedBlobError when the
    binary payload is shorter (or longer) than the header demands.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    end_marker = b"end\n"
    end = data.find(end_marker)
    if end < 0:
        raise MalformedHeaderError(f"{path}: missing end-of-header marker")
    try:
        header_text = data[:end].decode("ascii")
    except UnicodeDecodeError:
        raise MalformedHeaderError(f"{path}: header is not ASCII text") from None
    config, blocks = _parse_header_lines(header_text.splitlines(), path)

    expected = list(_block_shapes(config))
    declared = dict(blocks)
    if len(blocks) != len(expected) or [n for n, _ in blocks] != [n for n, _ in expected]:
        raise ShapeMismatchError(f"{path}: block list does not match config")
    for name, shape in expected:
        if declared[name] != shape:
            raise ShapeMismatchError(
                f"{path}: block {name} declared {declared[name]}, config implies {shape}"
            )

    blob = data[end + len(end_marker):]
    n_floats = sum(int(np.prod(shape)) for _, shape in expected)
    if len(blob) != 4 * n_floats:
        raise TruncatedBlobError(
            f"{path}: blob holds {len(blob)} bytes, header demands {4 * n_floats}"
        )
    flat = np.frombuffer(blob, dtype="<f4").astype(np.float32)
    offset = 0
    arrays: dict[str, np.ndarray] = {}
    for name, shape in expected:
        n = int(np.prod(shape))
        arrays[name] = flat[offset:offset + n].reshape(shape).copy()
        offset += n
    return config, _assemble(config, arrays)


# ---------------------------------------------------------------------------
# numerics of the layer kernel; every mode runs them through decode_layer, so
# attention probabilities (and therefore eviction decisions) come out
# bit-identical whatever order the tokens are fed in.


def rms_norm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    # `x` is one (hidden,) vector: a float32 sum divided by the length is
    # np.mean's own arithmetic, without its Python-level wrapper
    ms = np.add.reduce(np.square(x), dtype=np.float32) / np.float32(x.shape[-1])
    inv = np.float32(1.0) / np.sqrt(ms + RMS_EPS)
    return (x * inv) * gain


def silu(x: np.ndarray) -> np.ndarray:
    # stable sigmoid: exponentials only of non-positive arguments
    e = np.exp(-np.abs(x))
    sig = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(np.float32)
    return x * sig


@lru_cache(maxsize=None)
def _inv_freq(head_dim: int, rope_base: float) -> np.ndarray:
    return np.power(float(rope_base), -np.arange(0, head_dim, 2, dtype=np.float64) / head_dim)


def rotate(vecs: np.ndarray, positions: np.ndarray, inv_freq: np.ndarray) -> np.ndarray:
    """Pairwise 2-D rotation of consecutive coordinate pairs.

    `vecs` is float32 with head_dim last; `positions` matches the leading
    shape. Angles for pair i are position * rope_base**(-2i/head_dim),
    computed in float64 (positions may be large or real-valued), output cast
    back to float32. Purely element-wise, so batched and per-subset calls
    agree bit-for-bit.
    """
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
    m = scores.max(axis=-1, keepdims=True)
    e = np.exp(scores - m)
    return e / e.sum(axis=-1, keepdims=True)


def attention_step(q_rot: np.ndarray, keys_rot: np.ndarray, values: np.ndarray,
                   w_o: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention of one query over the cached states.

    `q_rot` is (n_heads, head_dim), already position-rotated; `keys_rot` and
    `values` are (n_heads, size, head_dim) with keys rotated at their
    (possibly remapped) positions. Returns the W_O-projected context vector
    and the (n_heads, size) float32 probabilities, one row per head.
    """
    if keys_rot.ndim != 3 or keys_rot.shape[1] == 0:
        raise ValueError("attention over an empty state")
    head_dim = keys_rot.shape[2]
    scores = np.einsum("hsd,hd->hs", keys_rot, q_rot) / np.float32(math.sqrt(head_dim))
    probs = softmax_rows(scores)
    ctx = np.einsum("hs,hsd->hd", probs, values)
    return ctx.reshape(-1) @ w_o, probs


def decode_layer(model: Model, layer: int, state: MultiState, x: np.ndarray,
                 position: int, token: int, position_fn: PositionFn | None = None,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """One layer's multi-state update for one token: append, attend, feed forward.

    `x` is the (hidden,) residual stream of `token` at `position` entering
    the layer; the new K/V rows are appended to every head of the layer
    before attention (the token attends to itself). Returns the
    residual stream leaving the layer and the (H, S) attention probabilities
    the policies need. Eviction is the caller's job.

    Without `position_fn` the query and key are rotated once, at the
    token's position, the key before it is cached, and attention runs over
    the cached keys as they are (rotation is element-wise, so this equals
    rotating every key at every step). With it, keys are cached unrotated;
    the layer's (H, S) retained positions are remapped in one call and the
    keys rotated afresh.
    """
    config, w = model
    lw = w.layers[layer]
    n_heads = config.n_heads
    inv_freq = _inv_freq(config.head_dim, config.rope_base)
    h = rms_norm(x, lw.attn_norm)
    q = (h @ lw.w_q).reshape(n_heads, config.head_dim)
    k = (h @ lw.w_k).reshape(n_heads, config.head_dim)
    v = (h @ lw.w_v).reshape(n_heads, config.head_dim)
    if position_fn is None:
        qk = rotate(np.concatenate((q, k)), position, inv_freq)
        q, k = qk[:n_heads], qk[n_heads:]
    for head in range(n_heads):
        state.append(layer, head, k[head], v[head], position, token)
    keys, values, positions = state.layer_view(layer)
    if position_fn is not None:
        remapped = position_fn(positions)
        keys = rotate(keys, remapped, inv_freq)
        q = rotate(q, remapped[:, -1], inv_freq)
    ctx, probs = attention_step(q, keys, values, lw.w_o)
    x = x + ctx
    x = x + silu(rms_norm(x, lw.ff_norm) @ lw.ff_in) @ lw.ff_out
    return x, probs


def decode_step(model: Model, state: MultiState, token: int, step: int,
                position_fn: PositionFn | None = None,
                ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Decode one token against the multi-state, one `decode_layer` per layer.

    Returns the next-token logits and the per-layer (H, S) attention
    probabilities the policies need. Eviction is the caller's job.
    """
    config, w = model
    if not (0 <= token < config.vocab_size):
        raise ValueError(f"token {token} out of range for vocab {config.vocab_size}")
    x = w.token_embedding[token]
    probs = []
    for layer in range(config.n_layers):
        x, layer_probs = decode_layer(model, layer, state, x, step, token, position_fn)
        probs.append(layer_probs)
    return x @ w.lm_head, probs
