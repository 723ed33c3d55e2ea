"""Masked autoencoder: primitives against scipy oracles, masking semantics,
a small finite-difference smoke test, and the checkpoint format.

The exhaustive gradient check over every parameter lives in the acceptance
suite; here the backward pass is probed at a few random coordinates so a
plumbing regression fails fast.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.special
import scipy.stats

from gaitmae.errors import DataError
from gaitmae import model as M
from gaitmae.features import make_windows
from gaitmae.inference import TILE_MASKS, build_tiles
from gaitmae.model import (
    CKPT_MAGIC,
    ModelConfig,
    backward,
    encoder_memory,
    forward,
    grid_codes,
    init_parameters,
    is_decay_excluded,
    load_checkpoint,
    reconstruct,
    save_checkpoint,
    sinusoidal_pe,
    zeros_like_params,
)


@pytest.fixture(scope="module")
def tiny():
    cfg = ModelConfig.tiny()
    params = init_parameters(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    feats = rng.normal(scale=0.6, size=(12, 7, 12)).astype(np.float32)
    vels = rng.normal(scale=0.1, size=(12, 7, 3)).astype(np.float32)
    return cfg, params, feats, vels


def _some_mask():
    mask = np.zeros((12, 7), dtype=bool)
    mask[3, 2:5] = True
    mask[7, :] = True
    mask[10, 0] = True
    return mask


# -----------------------------------------------------------------------------
# Configuration
# -----------------------------------------------------------------------------


def test_config_defaults_and_seq_len():
    cfg = ModelConfig()
    assert cfg.seq_len == 84
    assert cfg.n_heads * cfg.head_dim == cfg.d_model


def test_config_rejects_inconsistent_heads():
    with pytest.raises(DataError):
        ModelConfig(d_model=40, n_heads=3, head_dim=8)


def test_config_rejects_bad_dropout():
    with pytest.raises(DataError):
        ModelConfig(dropout=1.0)


def test_presets_are_valid():
    assert ModelConfig.desk_scale().seq_len == 84
    assert ModelConfig.tiny().dropout == 0.0


# -----------------------------------------------------------------------------
# Positional codes
# -----------------------------------------------------------------------------


def test_sinusoidal_pe_position_zero():
    pe = sinusoidal_pe(84, 40)
    assert np.array_equal(pe[0, 0::2], np.zeros(20))
    assert np.array_equal(pe[0, 1::2], np.ones(20))


def test_sinusoidal_pe_formula():
    pe = sinusoidal_pe(10, 8)
    for pos in range(10):
        for i in range(4):
            f = 10000.0 ** (-2.0 * i / 8)
            assert pe[pos, 2 * i] == pytest.approx(np.sin(pos * f), abs=1e-12)
            assert pe[pos, 2 * i + 1] == pytest.approx(np.cos(pos * f), abs=1e-12)


def test_grid_codes_shape_and_structure(tiny):
    cfg, params, _, _ = tiny
    codes = grid_codes(params, cfg, np.float32)
    assert codes.shape == (cfg.seq_len, cfg.d_model)
    # same joint row repeats its joint code across the 7 frames
    pe = sinusoidal_pe(cfg.seq_len, cfg.d_model).astype(np.float32)
    learned = codes - pe
    j0 = learned[0:7] - params["embed.e_frame"]
    assert np.allclose(j0, params["embed.e_joint"][0], atol=1e-6)


# -----------------------------------------------------------------------------
# Parameters
# -----------------------------------------------------------------------------


def test_init_parameters_conventions():
    cfg = ModelConfig.tiny()
    params = init_parameters(cfg, np.random.default_rng(3))
    assert params["embed.w_in"].shape == (cfg.feat_dim, cfg.d_model)
    assert np.all(params["enc.0.ln1.g"] == 1.0)
    assert np.all(params["enc.0.attn.bq"] == 0.0)
    assert params["head.b"].shape == (cfg.feat_dim,)
    assert all(v.dtype == np.float32 for v in params.values())
    # deterministic by seed
    again = init_parameters(cfg, np.random.default_rng(3))
    assert all(np.array_equal(params[k], again[k]) for k in params)


def test_parameter_name_count():
    cfg = ModelConfig.tiny()  # 1 enc + 1 dec layer
    params = init_parameters(cfg, np.random.default_rng(0))
    # 6 embedding tensors + 16 per block * 2 + 2 final LN * 2 + 2 head
    assert len(params) == 6 + 16 * 2 + 4 + 2


def test_is_decay_excluded():
    assert is_decay_excluded("embed.b_in")
    assert is_decay_excluded("enc.0.attn.bq")
    assert is_decay_excluded("enc.0.ln1.g")
    assert is_decay_excluded("dec.ln_f.b")
    assert not is_decay_excluded("embed.w_in")
    assert not is_decay_excluded("enc.0.attn.wq")
    assert not is_decay_excluded("head.w")
    # the mask token is a weight, not a bias
    assert not is_decay_excluded("embed.mask_token")


def test_zeros_like_params(tiny):
    _, params, _, _ = tiny
    z = zeros_like_params(params)
    assert set(z) == set(params)
    assert all(np.all(v == 0) and v.shape == params[k].shape for k, v in z.items())


# -----------------------------------------------------------------------------
# Primitive oracles
# -----------------------------------------------------------------------------


def test_layernorm_matches_direct_formula():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 5, 8))
    g = rng.normal(size=8)
    b = rng.normal(size=8)
    y, _ = M._layernorm_fwd(x, g, b)
    mu = x.mean(-1, keepdims=True)
    sd = np.sqrt(x.var(-1, keepdims=True) + M.LN_EPS)
    assert np.abs(y - ((x - mu) / sd * g + b)).max() < 1e-12


def test_gelu_matches_normal_cdf():
    x = np.linspace(-4.0, 4.0, 101)
    y, _ = M._gelu_fwd(x)
    assert np.abs(y - x * scipy.stats.norm.cdf(x)).max() < 1e-12


def test_softmax_matches_scipy():
    rng = np.random.default_rng(5)
    x = rng.normal(scale=3.0, size=(2, 4, 6))
    ref = scipy.special.softmax(x, axis=-1)
    out = M._softmax(x.copy())
    assert np.abs(out - ref).max() < 1e-12
    assert np.allclose(out.sum(-1), 1.0, atol=1e-12)


def test_attention_matches_dense_oracle():
    cfg = ModelConfig.tiny()
    params = init_parameters(cfg, np.random.default_rng(6), dtype=np.float64)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 9, cfg.d_model))
    out, _ = M._attention_fwd(x, params, "enc.0.attn", cfg)

    # independent re-computation, one head at a time
    q = x @ params["enc.0.attn.wq"] + params["enc.0.attn.bq"]
    k = x @ params["enc.0.attn.wk"] + params["enc.0.attn.bk"]
    v = x @ params["enc.0.attn.wv"] + params["enc.0.attn.bv"]
    ctx = np.zeros_like(q)
    hd = cfg.head_dim
    for h in range(cfg.n_heads):
        sl = slice(h * hd, (h + 1) * hd)
        scores = q[..., sl] @ k[..., sl].swapaxes(-1, -2) / np.sqrt(hd)
        probs = scipy.special.softmax(scores, axis=-1)
        ctx[..., sl] = probs @ v[..., sl]
    ref = ctx @ params["enc.0.attn.wo"] + params["enc.0.attn.bo"]
    assert np.abs(out - ref).max() < 1e-12


def test_dropout_scaling_and_eval_passthrough():
    rng = np.random.default_rng(8)
    x = np.ones((200, 50), dtype=np.float32)
    y, keep = M._dropout_fwd(x, 0.3, True, rng)
    assert keep is not None
    kept = y > 0
    assert abs(kept.mean() - 0.7) < 0.02
    assert np.allclose(y[kept], 1.0 / 0.7, atol=1e-6)
    y2, keep2 = M._dropout_fwd(x, 0.3, False, rng)
    assert keep2 is None and y2 is x


# -----------------------------------------------------------------------------
# Forward semantics
# -----------------------------------------------------------------------------


def test_forward_shapes_single_and_batch(tiny):
    cfg, params, feats, vels = tiny
    r, _ = forward(params, cfg, feats, vels)
    assert r.shape == (12, 7, 12)
    rb, _ = forward(params, cfg, np.stack([feats] * 3), np.stack([vels] * 3))
    assert rb.shape == (3, 12, 7, 12)
    assert np.array_equal(rb[0], r)


def test_forward_rejects_bad_shape(tiny):
    cfg, params, feats, vels = tiny
    with pytest.raises(DataError):
        forward(params, cfg, feats[:, :5], vels[:, :5])


def test_masked_slots_ignore_their_input(tiny):
    cfg, params, feats, vels = tiny
    mask = _some_mask()
    base, _ = forward(params, cfg, feats, vels, mask)
    poked_f = feats.copy()
    poked_v = vels.copy()
    poked_f[mask] = 99.0
    poked_v[mask] = -99.0
    out, _ = forward(params, cfg, poked_f, poked_v, mask)
    assert np.array_equal(base, out)


def test_visible_slots_do_matter(tiny):
    cfg, params, feats, vels = tiny
    mask = _some_mask()
    base, _ = forward(params, cfg, feats, vels, mask)
    poked = feats.copy()
    poked[0, 0, 0] += 0.25
    out, _ = forward(params, cfg, poked, vels, mask)
    assert not np.array_equal(base, out)


def test_mask_broadcasts_over_batch(tiny):
    cfg, params, feats, vels = tiny
    mask = _some_mask()
    bf, bv = np.stack([feats] * 2), np.stack([vels] * 2)
    r1, _ = forward(params, cfg, bf, bv, mask)
    r2, _ = forward(params, cfg, bf, bv, np.stack([mask] * 2))
    assert np.array_equal(r1, r2)


def test_velocity_stream_contributes(tiny):
    cfg, params, feats, vels = tiny
    base, _ = forward(params, cfg, feats, vels)
    out, _ = forward(params, cfg, feats, np.zeros_like(vels))
    assert not np.array_equal(base, out)


def test_train_mode_needs_rng_when_dropout_active(tiny):
    _, params, feats, vels = tiny
    cfg = ModelConfig(d_model=12, n_heads=3, head_dim=4, enc_layers=1,
                      dec_layers=1, ffn_dim=48, dropout=0.1)
    with pytest.raises(DataError):
        forward(params, cfg, feats, vels, train=True)


def test_zero_dropout_train_equals_eval(tiny):
    cfg, params, feats, vels = tiny
    r_eval, _ = forward(params, cfg, feats, vels, _some_mask())
    r_train, _ = forward(params, cfg, feats, vels, _some_mask(),
                         train=True, rng=np.random.default_rng(9))
    assert np.array_equal(r_eval, r_train)


def test_encoder_memory_and_reconstruct(tiny):
    cfg, params, feats, vels = tiny
    mem = encoder_memory(params, cfg, feats, vels, _some_mask())
    assert mem.shape == (cfg.seq_len, cfg.d_model)
    rec = reconstruct(params, cfg, feats, vels, _some_mask())
    r2, _ = forward(params, cfg, feats, vels, _some_mask())
    assert np.array_equal(rec, r2)


@pytest.fixture(scope="module")
def desk():
    cfg = ModelConfig.desk_scale()
    return cfg, init_parameters(cfg, np.random.default_rng(11))


def test_reconstruct_equals_forward_bit_for_bit_at_desk_scale(desk):
    cfg, params = desk
    angles = np.random.default_rng(12).uniform(-1.0, 1.0, size=(9, 12, 3))
    windows = make_windows(angles)                 # 3 windows
    feats, vels, masks = build_tiles(windows)      # 21 rows, all 7 tile masks
    feats, vels = feats.astype(np.float32), vels.astype(np.float32)
    rec = reconstruct(params, cfg, feats, vels, masks)
    assert rec.shape == (21, 12, 7, 12)
    assert np.array_equal(rec, forward(params, cfg, feats, vels, masks)[0])
    one = windows[1]
    f1, v1 = one.features.astype(np.float32), one.velocities.astype(np.float32)
    rec1 = reconstruct(params, cfg, f1, v1, TILE_MASKS[3])
    assert rec1.shape == (12, 7, 12)
    assert np.array_equal(rec1, forward(params, cfg, f1, v1, TILE_MASKS[3])[0])


def test_reconstruct_keeps_no_layer_cache(desk):
    """A 224-window batch, the size screening and correction use, must not
    hold every layer's activations: with the backward cache it peaks near
    500 MB of allocations, without it near 55 MB."""
    cfg, params = desk
    rng = np.random.default_rng(13)
    feats = rng.normal(size=(224, 12, 7, 12)).astype(np.float32)
    vels = rng.normal(scale=0.1, size=(224, 12, 7, 3)).astype(np.float32)
    masks = np.tile(TILE_MASKS, (32, 1, 1))
    tracemalloc.start()
    try:
        reconstruct(params, cfg, feats, vels, masks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150e6


# -----------------------------------------------------------------------------
# Backward plumbing
# -----------------------------------------------------------------------------


def test_backward_covers_all_parameters(tiny):
    cfg, params, feats, vels = tiny
    _, cache = forward(params, cfg, feats, vels, _some_mask())
    d = np.random.default_rng(10).normal(size=(12, 7, 12))
    grads = backward(params, cfg, cache, d)
    assert set(grads) == set(params)
    for k, g in grads.items():
        assert g.shape == params[k].shape
        assert np.isfinite(g).all()


def test_backward_accumulates(tiny):
    cfg, params, feats, vels = tiny
    _, cache = forward(params, cfg, feats, vels, _some_mask())
    d = np.random.default_rng(11).normal(size=(12, 7, 12)).astype(np.float32)
    g1 = backward(params, cfg, cache, d)
    g2 = backward(params, cfg, cache, d, backward(params, cfg, cache, d))
    for k in g1:
        assert np.allclose(g2[k], 2.0 * g1[k], atol=1e-4)


def test_gradient_finite_difference_spotcheck():
    # full-coverage check is in the acceptance suite; here: 8 random
    # coordinates in float64 through a real masked loss
    cfg = ModelConfig.tiny()
    params = init_parameters(cfg, np.random.default_rng(12), dtype=np.float64)
    for k in params:
        params[k] = params[k] * 5.0  # livelier activations than std 0.02
    rng = np.random.default_rng(13)
    feats = rng.normal(scale=0.6, size=(2, 12, 7, 12))
    vels = rng.normal(scale=0.1, size=(2, 12, 7, 3))
    mask = rng.random((2, 12, 7)) < 0.3
    w = rng.normal(size=(2, 12, 7, 12))

    def loss():
        r, cache = forward(params, cfg, feats, vels, mask)
        return float((r * w).sum()), cache

    base, cache = loss()
    grads = backward(params, cfg, cache, w)
    h = 1e-6
    names = list(params)
    for t in range(8):
        name = names[rng.integers(len(names))]
        idx = tuple(rng.integers(0, s) for s in params[name].shape)
        keep = params[name][idx]
        params[name][idx] = keep + h
        up, _ = loss()
        params[name][idx] = keep - h
        dn, _ = loss()
        params[name][idx] = keep
        fd = (up - dn) / (2 * h)
        assert abs(fd - grads[name][idx]) <= 1e-7 + 1e-4 * max(abs(fd), 1.0), name


# -----------------------------------------------------------------------------
# Checkpoints
# -----------------------------------------------------------------------------


def test_checkpoint_roundtrip_byte_exact(tiny, tmp_path):
    cfg, params, _, _ = tiny
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(p1, params, cfg)
    loaded, cfg2 = load_checkpoint(p1)
    assert cfg2 == cfg
    assert all(np.array_equal(loaded[k], params[k]) for k in params)
    save_checkpoint(p2, loaded, cfg2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "x.ckpt"
    p.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(DataError, match="magic"):
        load_checkpoint(p)


def test_checkpoint_bad_version(tiny, tmp_path):
    cfg, params, _, _ = tiny
    p = tmp_path / "x.ckpt"
    save_checkpoint(p, params, cfg)
    raw = bytearray(p.read_bytes())
    raw[len(CKPT_MAGIC)] = 99
    p.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="version"):
        load_checkpoint(p)


def test_checkpoint_trailing_bytes(tiny, tmp_path):
    cfg, params, _, _ = tiny
    p = tmp_path / "x.ckpt"
    save_checkpoint(p, params, cfg)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(DataError, match="trailing"):
        load_checkpoint(p)


def test_checkpoint_truncated(tiny, tmp_path):
    cfg, params, _, _ = tiny
    p = tmp_path / "x.ckpt"
    save_checkpoint(p, params, cfg)
    p.write_bytes(p.read_bytes()[:-10])
    with pytest.raises(DataError, match="x.ckpt: truncated"):
        load_checkpoint(p)
