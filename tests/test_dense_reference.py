"""The paper's equivalence as a test: a bounded multi-state is a masked transformer.

`reference_nlls` is a plain causal transformer in float64, written from the
weights and `RMS_EPS` alone (no `msrnn.model` function): dense (H, T, T)
scores per layer, RoPE at the original positions, softmax, W_O and the FFN.
Its mask for (layer, head) at step t is what the engine's trace retained
after step t-1, plus position t. Driving the engine token by token through
`decode_step` and `apply_policy` must then give the same per-token NLLs, for
the unbounded cache and every policy form.

With `remap`, row t instead rotates its query and each key it sees at that
key's remapped position within row t's own retained set, by a gap map
written here from the rule in `remap.py`'s docstring (no `msrnn.remap`
function), and the engine decodes on a `MultiState` built with `remap`.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from msrnn import (Model, ModelConfig, MultiState, RetentionTrace, apply_policy,
                   decode_step, init_random_model, parse_policy)
from msrnn.harness import nll_of
from msrnn.model import RMS_EPS, zero_model
from msrnn.policies import POLICY_FAMILIES

FORMS = ("window", "window+4", "h2o-head", "h2o-layer",
         "tova-head", "tova-layer", "tova-layer+4")
# fixed before the first run: float32 decoding against float64 gives about
# 4e-7 at an NLL near ln 256
TOL = 1e-5


def _rms_norm(x, gain):
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + float(RMS_EPS)) * gain


def _rotate(x, positions, rope_base):
    """Rotate each consecutive coordinate pair of x (..., d) by position * base**(-2i/d);
    `positions` broadcasts against x's leading shape."""
    d = x.shape[-1]
    angle = np.asarray(positions, np.float64)[..., None] * rope_base ** (-np.arange(0, d, 2) / d)
    even, odd = x[..., 0::2], x[..., 1::2]
    pairs = np.stack((even * np.cos(angle) - odd * np.sin(angle),
                      even * np.sin(angle) + odd * np.cos(angle)), -1)
    return pairs.reshape(pairs.shape[:-2] + (d,))


def _remapped_positions(mask):
    """(H, T, T): column s's remapped position within row t's retained set. A
    gap g between neighbouring retained columns counts g up to 10 and
    ln(ln(g)) above; the row's oldest column sits at 0, the rest at the
    running sum of the gaps before them."""
    columns = np.arange(mask.shape[-1])
    newest = np.maximum.accumulate(np.where(mask, columns, -1), axis=-1)  # at or before s
    before = np.concatenate((np.full(mask.shape[:-1] + (1,), -1), newest[..., :-1]), -1)
    gap = np.where(mask & (before >= 0), columns - before, 0)
    return np.cumsum(np.where(gap > 10, np.log(np.log(np.maximum(gap, 10))), gap), axis=-1)


def _scores(q, k, mask, rope_base, remap):
    """(H, T, T) scaled dot products of the (T, H, d) queries and keys."""
    d = q.shape[-1]
    if not remap:
        rows = np.arange(len(q))[:, None]
        q, k = _rotate(q, rows, rope_base), _rotate(k, rows, rope_base)
        return np.einsum("thd,shd->hts", q, k) / math.sqrt(d)
    positions = _remapped_positions(mask)
    rows = np.arange(len(q))
    q = _rotate(q.transpose(1, 0, 2), positions[:, rows, rows], rope_base)  # (H, T, d)
    k = _rotate(k.transpose(1, 0, 2)[:, None], positions, rope_base)  # (H, T, S, d)
    return np.einsum("htd,htsd->hts", q, k) / math.sqrt(d)


# a layer's weight blocks, by the names the weight file gives them
_BLOCKS = ("attn_norm", "w_q", "w_k", "w_v", "w_o", "ff_norm", "ff_in", "ff_out")


def reference_nlls(model, ids, masks, remap=False):
    """Per-token NLLs of ids[1:]; masks[layer][h, t, s] lets row t of head h see column s."""
    config, w = model
    T, H, d = len(ids), config.n_heads, config.head_dim
    x = w.token_embedding[list(ids)].astype(np.float64)
    for lw, mask in zip(w.layers, masks):
        lw = {name: np.asarray(getattr(lw, name), np.float64) for name in _BLOCKS}
        h = _rms_norm(x, lw["attn_norm"])
        q, k, v = ((h @ lw[name]).reshape(T, H, d) for name in ("w_q", "w_k", "w_v"))
        scores = np.where(mask, _scores(q, k, mask, config.rope_base, remap), -np.inf)
        p = np.exp(scores - scores.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        x = x + np.einsum("hts,shd->thd", p, v).reshape(T, H * d) @ lw["w_o"]
        g = _rms_norm(x, lw["ff_norm"]) @ lw["ff_in"]
        x = x + (g * 0.5 * (1.0 + np.tanh(g / 2))) @ lw["ff_out"]  # silu, overflow-free
    logits = x[:-1] @ w.lm_head.astype(np.float64)
    top = logits.max(axis=-1)
    log_z = top + np.log(np.exp(logits - top[:, None]).sum(axis=-1))
    return log_z - logits[np.arange(T - 1), list(ids[1:])]


def engine_nlls(model, ids, kind, remap=False):
    """Sequential decoding's per-token NLLs and the trace of its retained sets."""
    config = model.config
    state = MultiState(config.n_layers, config.n_heads, config.head_dim,
                       capacity=kind.k if kind else len(ids), remap=remap)
    nlls = []
    for t, token in enumerate(ids):
        logits, probs = decode_step(model, state, token, t)
        if t + 1 < len(ids):
            nlls += nll_of(logits[None], [ids[t + 1]])
        if kind is not None:
            apply_policy(kind, state, probs)
    trace = RetentionTrace(config.n_layers, config.n_heads)
    for layer in range(config.n_layers):
        trace.record_chunk(layer, ids, state.evictions(layer))
    return np.array(nlls), trace


def retained_masks(trace):
    """Per layer, (H, T, T): row t is the set retained after step t-1, plus t."""
    masks = []
    for layer in range(trace.n_layers):
        grid = np.stack([trace.retained_counts(layer, head)
                         for head in range(trace.n_heads)]).astype(bool)
        mask = np.zeros_like(grid)
        mask[:, 1:] = grid[:, :-1]
        mask[:, np.arange(trace.n_steps), np.arange(trace.n_steps)] = True
        masks.append(mask)
    return masks


def _gap(model, ids, kind, remap=False):
    nlls, trace = engine_nlls(model, ids, kind, remap)
    return float(np.abs(nlls - reference_nlls(model, ids, retained_masks(trace), remap)).max())


def _config(n_layers, n_heads, head_dim, ff_dim, vocab_size, train_context_len):
    return ModelConfig(n_layers=n_layers, n_heads=n_heads, head_dim=head_dim,
                       hidden_dim=n_heads * head_dim, ff_dim=ff_dim, vocab_size=vocab_size,
                       train_context_len=train_context_len)


def _gaps_per_form(config, seed, length, remap=False):
    """_gap of the unbounded cache and every form at k = 8 and 32, by name."""
    model = Model(config, init_random_model(config, seed))
    ids = tuple(np.random.default_rng(seed).integers(0, 256, length).tolist())
    kinds = [None] + [parse_policy(form, k) for form in FORMS for k in (8, 32)]
    return {f"{kind.name} k={kind.k}" if kind else "none": _gap(model, ids, kind, remap)
            for kind in kinds}


def test_engine_equals_masked_dense_transformer():
    config = _config(4, 4, 16, 128, 256, 128)
    for seed in (0, 1):
        gaps = _gaps_per_form(config, seed, 128)
        assert max(gaps.values()) <= TOL, gaps


def test_remapped_engine_equals_masked_dense_transformer():
    # 160 tokens past a trained context of 64: the gaps the policies leave
    # fall on both sides of the knee, and the positions are real-valued
    gaps = _gaps_per_form(_config(4, 4, 16, 128, 256, 64), 0, 160, remap=True)
    assert max(gaps.values()) <= TOL, gaps


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n_layers=st.integers(1, 2), n_heads=st.integers(1, 3),
       half_dim=st.integers(1, 4), steps=st.integers(2, 24),
       family=st.sampled_from(("none",) + POLICY_FAMILIES), zero=st.booleans())
def test_engine_equals_masked_dense_transformer_small(data, n_layers, n_heads, half_dim,
                                                      steps, family, zero):
    config = _config(n_layers, n_heads, 2 * half_dim, 8, 16, 32)
    seed = data.draw(st.integers(0, 2**16), label="seed")
    model = Model(config, zero_model(config) if zero else init_random_model(config, seed))
    ids = tuple(np.random.default_rng(seed).integers(0, 16, steps).tolist())
    kind = None
    if family != "none":
        k = data.draw(st.integers(1, steps), label="k")
        pin = data.draw(st.integers(0, k - 1), label="pin") \
            if family in ("window", "tova-layer") else 0
        kind = parse_policy(family, k, pin)
    assert _gap(model, ids, kind) <= TOL
