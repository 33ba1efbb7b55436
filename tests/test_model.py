import math

import numpy as np
import pytest

from msrnn import (MalformedHeaderError, Model, ModelConfig, MultiState,
                   ShapeMismatchError, TruncatedBlobError, WeightFormatError,
                   attention_step, decode_step, init_random_model,
                   load_weights, rms_norm, save_weights, zero_model)
from msrnn.model import RMS_EPS, _inv_freq, _iter_blocks, rotate, silu

from conftest import make_config, make_model


def test_config_validation():
    make_config()
    with pytest.raises(ValueError):
        make_config(head_dim=7)  # odd head_dim cannot be pair-rotated
    with pytest.raises(ValueError):
        make_config(train_context_len=1)
    with pytest.raises(ValueError):
        make_config(rope_base=1.0)
    with pytest.raises(ValueError):
        ModelConfig(n_layers=1, n_heads=2, head_dim=4, hidden_dim=10,
                    ff_dim=8, vocab_size=16, train_context_len=8)


def test_init_is_seed_deterministic():
    config = make_config()
    a = init_random_model(config, seed=3)
    b = init_random_model(config, seed=3)
    c = init_random_model(config, seed=4)
    for (name, arr_a, _), (_, arr_b, _), (_, arr_c, _) in zip(
            _iter_blocks(config, a), _iter_blocks(config, b), _iter_blocks(config, c)):
        assert np.array_equal(arr_a, arr_b), name
        assert not np.array_equal(arr_a, arr_c), name
        assert arr_a.dtype == np.float32


def test_weight_file_round_trip(tmp_path):
    config = make_config()
    weights = init_random_model(config, seed=9)
    path = tmp_path / "model.bin"
    save_weights(path, config, weights)
    config2, weights2 = load_weights(path)
    assert config2 == config
    for (name, a, _), (_, b, _) in zip(_iter_blocks(config, weights),
                                       _iter_blocks(config2, weights2)):
        assert np.array_equal(a, b), name


def _saved_bytes(tmp_path):
    config = make_config()
    path = tmp_path / "model.bin"
    save_weights(path, config, init_random_model(config, seed=9))
    return path, path.read_bytes()


def test_malformed_header_errors(tmp_path):
    path, data = _saved_bytes(tmp_path)
    cases = [
        data.replace(b"msrnn-weights 1", b"junkmagic 1", 1),
        data.replace(b"msrnn-weights 1", b"msrnn-weights 9", 1),
        data.replace(b"ff_gate silu", b"ff_gate cube", 1),
        data.replace(b"ff_gate silu\n", b"", 1),
        data.replace(b"n_layers 2\n", b"", 1),
        data.replace(b"n_layers 2", b"n_layers two", 1),
        data.replace(b"end\n", b"", 1),
    ]
    for i, broken in enumerate(cases):
        path.write_bytes(broken)
        with pytest.raises(MalformedHeaderError):
            load_weights(path)


def test_shape_mismatch_error(tmp_path):
    path, data = _saved_bytes(tmp_path)
    path.write_bytes(data.replace(b"block lm_head 16 64", b"block lm_head 16 65", 1))
    with pytest.raises(ShapeMismatchError):
        load_weights(path)
    path.write_bytes(data.replace(b"block layer1.ff_out 32 16\n", b"", 1))
    with pytest.raises(ShapeMismatchError):
        load_weights(path)
    config = make_config()
    weights = init_random_model(config, 0)
    weights.layers.pop()
    with pytest.raises(ShapeMismatchError):
        save_weights(str(tmp_path / "short.bin"), config, weights)


def test_truncated_blob_error(tmp_path):
    path, data = _saved_bytes(tmp_path)
    path.write_bytes(data[:-5])
    with pytest.raises(TruncatedBlobError):
        load_weights(path)
    path.write_bytes(data + b"\x00\x00\x00\x00")
    with pytest.raises(TruncatedBlobError):
        load_weights(path)


def test_weight_errors_share_a_base_class():
    for err in (MalformedHeaderError, ShapeMismatchError, TruncatedBlobError):
        assert issubclass(err, WeightFormatError)
        assert issubclass(err, ValueError)


def test_rms_norm_value():
    x = np.array([3.0, 4.0], dtype=np.float32)
    gain = np.array([1.0, 2.0], dtype=np.float32)
    ms = (9.0 + 16.0) / 2.0
    expected = x / math.sqrt(ms + 1e-5) * gain
    np.testing.assert_allclose(rms_norm(x, gain), expected, rtol=1e-6)
    # bit for bit the np.mean form, whose float32 sum and division it inlines
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 7, 16, 33, 128, 1000, 4096):
        x = (rng.standard_normal(n) * rng.uniform(1e-3, 1e3)).astype(np.float32)
        gain = rng.uniform(0.5, 1.5, n).astype(np.float32)
        ms = np.mean(np.square(x), dtype=np.float32)
        expected = (x * (np.float32(1.0) / np.sqrt(ms + RMS_EPS))) * gain
        assert np.array_equal(rms_norm(x, gain), expected)


def test_silu_stability():
    x = np.array([-1000.0, -1.0, 0.0, 1.0, 1000.0], dtype=np.float32)
    y = silu(x)
    assert y[2] == 0.0
    assert y[4] == pytest.approx(1000.0)
    assert y[0] == pytest.approx(0.0, abs=1e-6)
    assert np.all(np.isfinite(y))


def test_rotate_zero_is_identity():
    v = np.array([0.3, -1.2, 2.0, 0.5], dtype=np.float32)
    assert np.array_equal(rotate(v, 0.0, _inv_freq(4, 10000.0)), v)


def test_rotate_angle_oracle():
    # pair i rotates by position * base**(-2i / head_dim)
    v = np.array([1.0, 0.0, 0.0, 1.0], dtype=np.float32)
    out = rotate(v, 2.5, _inv_freq(4, 100.0))
    expected = np.array([math.cos(2.5), math.sin(2.5),
                         -math.sin(0.25), math.cos(0.25)], dtype=np.float32)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-7)


def test_rotate_norm_and_additivity():
    rng = np.random.default_rng(0)
    v = rng.normal(size=8).astype(np.float32)
    inv_freq = _inv_freq(8, 10000.0)
    for pos in (1.0, 17.0, 3.25, 70000.0):
        out = rotate(v, pos, inv_freq)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(v), rel=1e-6)
    ab = rotate(rotate(v, 5.5, inv_freq), 2.25, inv_freq)
    direct = rotate(v, 7.75, inv_freq)
    np.testing.assert_allclose(ab, direct, rtol=0, atol=1e-6)
    with pytest.raises(ValueError):  # an odd length has no pairs to rotate
        rotate(np.zeros(3, dtype=np.float32), 1.0, _inv_freq(3, 10000.0))


def test_attention_step_two_state_oracle():
    q = np.array([[2.0, 0.0]], dtype=np.float32)
    keys = np.array([[[1.0, 0.0], [0.0, 1.0]]], dtype=np.float32)
    values = np.array([[[1.0, 0.0], [0.0, 10.0]]], dtype=np.float32)
    w_o = np.eye(2, dtype=np.float32)
    ctx, probs = attention_step(q, keys, values, w_o)

    s0 = 2.0 / math.sqrt(2.0)
    p0 = math.exp(s0) / (math.exp(s0) + 1.0)
    p1 = 1.0 - p0
    np.testing.assert_allclose(probs, [[p0, p1]], rtol=1e-6)
    np.testing.assert_allclose(ctx, [p0, 10.0 * p1], rtol=1e-6)
    assert probs.shape == (1, 2) and probs.dtype == np.float32

    with pytest.raises(ValueError):
        attention_step(q, np.zeros((1, 0, 2), dtype=np.float32),
                       np.zeros((1, 0, 2), dtype=np.float32), w_o)


def test_decode_step_grows_state_and_shapes():
    model = make_model(seed=1)
    config = model.config
    state = MultiState(config.n_layers, config.n_heads, config.head_dim)
    logits, rows = decode_step(model, state, token=3, step=0)
    assert logits.shape == (config.vocab_size,)
    assert len(rows) == config.n_layers
    assert all(r.shape == (config.n_heads, 1) for r in rows)
    logits, rows = decode_step(model, state, token=5, step=1)
    assert all(state.size(l, h) == 2 for l in range(config.n_layers)
               for h in range(config.n_heads))
    assert all(r.shape == (config.n_heads, 2) and r.dtype == np.float32 for r in rows)
    # rows are proper distributions
    for r in rows:
        np.testing.assert_allclose(r.sum(axis=1), 1.0, rtol=1e-5)
    with pytest.raises(ValueError):
        decode_step(model, state, token=config.vocab_size, step=2)


def test_zero_model_gives_flat_logits():
    config = make_config()
    model = Model(config, zero_model(config))
    state = MultiState(config.n_layers, config.n_heads, config.head_dim)
    logits, _ = decode_step(model, state, token=0, step=0)
    assert np.array_equal(logits, np.zeros(config.vocab_size, dtype=np.float32))
