"""Masked-autoencoder transformer over (joint, frame) token grids.

The model sees 84 tokens (12 joints x 7 frames). Token content is a linear
projection of the 12 angle features plus a linear projection of the 3
angular-velocity channels; every token also receives a fixed sinusoidal
positional code over the flat grid index and learned joint-type and frame
embeddings. Masked grid slots keep their position-identifying codes but have
content and motion replaced by a learned [MASK] vector, so the encoder
provably never sees masked content (see ``encoder_memory`` and the leak test).

The encoder is a stack of pre-norm transformer layers; the decoder re-embeds
(memory for visible slots, [MASK] for hidden ones, plus the same positional
and joint/frame codes — motion is not re-added), runs a short pre-norm stack,
and linearly projects back to the 12 feature channels.

Forward *and* backward passes are written out explicitly in numpy — no
autograd framework — so every gradient can be audited against central finite
differences (see tests). ``forward`` and ``reconstruct`` run one model body:
the cache ``forward`` returns holds exactly the intermediates the hand-written
backward needs, and ``reconstruct`` (inference) keeps none of them, freeing
each activation once the next is computed.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import erf

from .errors import DataError
from .features import FEAT_DIM, VEL_DIM, WINDOW_LEN
from .skeleton import N_JOINTS

# Plain Python floats: numpy scalar constants would silently promote the
# whole float32 activation stream to float64.
SQRT2 = float(np.sqrt(2.0))
INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
LN_EPS = 1e-5

# =============================================================================
# Configuration and parameters
# =============================================================================


@dataclass
class ModelConfig:
    """Architecture hyperparameters.

    Defaults are the full-scale configuration; ``desk_scale`` is a reduced
    preset that trains in minutes on a laptop CPU, ``tiny`` is the
    finite-difference gradient-check configuration.
    """

    d_model: int = 288
    n_heads: int = 12
    head_dim: int = 24
    enc_layers: int = 8
    dec_layers: int = 2
    ffn_dim: int = 1152
    dropout: float = 0.1
    n_joints: int = N_JOINTS
    window: int = WINDOW_LEN
    feat_dim: int = FEAT_DIM
    vel_dim: int = VEL_DIM

    def __post_init__(self):
        if self.n_heads * self.head_dim != self.d_model:
            raise DataError(
                f"n_heads * head_dim must equal d_model "
                f"({self.n_heads} * {self.head_dim} != {self.d_model})"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise DataError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def seq_len(self) -> int:
        return self.n_joints * self.window

    @classmethod
    def desk_scale(cls) -> "ModelConfig":
        return cls(d_model=40, n_heads=5, head_dim=8, enc_layers=3, dec_layers=2,
                   ffn_dim=160)

    @classmethod
    def tiny(cls) -> "ModelConfig":
        return cls(d_model=12, n_heads=3, head_dim=4, enc_layers=1, dec_layers=1,
                   ffn_dim=48, dropout=0.0)


def sinusoidal_pe(seq_len: int, d_model: int) -> np.ndarray:
    """Fixed sinusoidal positional codes (seq_len, d_model).

    Even channels are sin(pos / 10000^(2i/d)), odd channels the matching
    cos, so position 0 is the alternating 0/1 pattern.
    """
    pos = np.arange(seq_len, dtype=float)[:, None]
    i = np.arange(d_model // 2, dtype=float)[None, :]
    freq = np.power(10000.0, -2.0 * i / d_model)
    pe = np.zeros((seq_len, d_model))
    pe[:, 0::2] = np.sin(pos * freq)
    pe[:, 1::2] = np.cos(pos * freq)
    return pe


def _layer_names(prefix: str, n_layers: int):
    for i in range(n_layers):
        base = f"{prefix}.{i}"
        yield base


def init_parameters(cfg: ModelConfig, rng: np.random.Generator, dtype=np.float32) -> dict:
    """Fresh parameter dict; weights ~ N(0, 0.02), biases 0, LN gains 1."""
    d, f = cfg.d_model, cfg.ffn_dim
    std = 0.02

    def w(*shape):
        return rng.normal(0.0, std, size=shape).astype(dtype)

    def zeros(*shape):
        return np.zeros(shape, dtype=dtype)

    def ones(*shape):
        return np.ones(shape, dtype=dtype)

    params = {
        "embed.w_in": w(cfg.feat_dim, d),
        "embed.b_in": zeros(d),
        "embed.w_motion": w(cfg.vel_dim, d),
        "embed.e_joint": w(cfg.n_joints, d),
        "embed.e_frame": w(cfg.window, d),
        "embed.mask_token": w(d),
    }
    for prefix, n_layers in (("enc", cfg.enc_layers), ("dec", cfg.dec_layers)):
        for base in _layer_names(prefix, n_layers):
            params[f"{base}.ln1.g"] = ones(d)
            params[f"{base}.ln1.b"] = zeros(d)
            params[f"{base}.attn.wq"] = w(d, d)
            params[f"{base}.attn.bq"] = zeros(d)
            params[f"{base}.attn.wk"] = w(d, d)
            params[f"{base}.attn.bk"] = zeros(d)
            params[f"{base}.attn.wv"] = w(d, d)
            params[f"{base}.attn.bv"] = zeros(d)
            params[f"{base}.attn.wo"] = w(d, d)
            params[f"{base}.attn.bo"] = zeros(d)
            params[f"{base}.ln2.g"] = ones(d)
            params[f"{base}.ln2.b"] = zeros(d)
            params[f"{base}.ffn.w1"] = w(d, f)
            params[f"{base}.ffn.b1"] = zeros(f)
            params[f"{base}.ffn.w2"] = w(f, d)
            params[f"{base}.ffn.b2"] = zeros(d)
        params[f"{prefix}.ln_f.g"] = ones(d)
        params[f"{prefix}.ln_f.b"] = zeros(d)
    params["head.w"] = w(d, cfg.feat_dim)
    params["head.b"] = zeros(cfg.feat_dim)
    return params


def is_decay_excluded(name: str) -> bool:
    """Weight decay skips biases and normalization parameters."""
    parts = name.split(".")
    return parts[-1].startswith("b") or any(p.startswith("ln") for p in parts)


def zeros_like_params(params: dict) -> dict:
    return {k: np.zeros_like(v) for k, v in params.items()}


# =============================================================================
# Primitive layers: forward + hand-written backward
# =============================================================================


def _linear_fwd(x, w, b, keep=True):
    y = x @ w
    y += b
    return y, ((x, w) if keep else None)


def _linear_bwd(dy, cache, grads, wname, bname):
    x, w = cache
    dx = dy @ w.T
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    grads[wname] += x2.T @ dy2
    grads[bname] += dy2.sum(axis=0)
    return dx


def _layernorm_fwd(x, g, b, keep=True):
    mu = x.mean(axis=-1, keepdims=True)
    xhat = x - mu
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv
    if keep:
        y = xhat * g
        y += b
        return y, (xhat, inv, g)
    xhat *= g
    xhat += b
    return xhat, None


def _layernorm_bwd(dy, cache, grads, gname, bname):
    xhat, inv, g = cache
    d = xhat.shape[-1]
    dy2 = dy.reshape(-1, d)
    xhat2 = xhat.reshape(-1, d)
    grads[gname] += (dy2 * xhat2).sum(axis=0)
    grads[bname] += dy2.sum(axis=0)
    dxhat = dy * g
    mean_d = dxhat.mean(axis=-1, keepdims=True)
    mean_dx = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return (dxhat - mean_d - xhat * mean_dx) * inv


def _gelu_fwd(x, keep=True):
    phi = x / SQRT2
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    if keep:
        return x * phi, (x, phi)
    phi *= x
    return phi, None


def _gelu_bwd(dy, cache):
    x, phi = cache
    pdf = np.exp(-0.5 * x * x) * INV_SQRT_2PI
    return dy * (phi + x * pdf)


def _dropout_fwd(x, p, train, rng):
    if not train or p <= 0.0:
        return x, None
    keep = (rng.random(x.shape, dtype=np.float32) >= p).astype(x.dtype)
    keep /= np.asarray(1.0 - p, dtype=x.dtype)
    return x * keep, keep


def _dropout_bwd(dy, keep):
    if keep is None:
        return dy
    return dy * keep


def _softmax(x):
    """Stable softmax along the last axis; mutates ``x`` (callers pass temps)."""
    m = x.max(axis=-1, keepdims=True)
    np.subtract(x, m, out=x)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _split_heads(x, n_heads, head_dim):
    b, s, _ = x.shape
    # Contiguous copy: the batched matmuls below would otherwise re-copy the
    # strided view on every use.
    return np.ascontiguousarray(x.reshape(b, s, n_heads, head_dim).transpose(0, 2, 1, 3))


def _merge_heads(x):
    b, h, s, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, s, h * hd)


def _attention_fwd(x, params, base, cfg, keep=True):
    q, cq = _linear_fwd(x, params[f"{base}.wq"], params[f"{base}.bq"], keep)
    qh = _split_heads(q, cfg.n_heads, cfg.head_dim)
    k, ck = _linear_fwd(x, params[f"{base}.wk"], params[f"{base}.bk"], keep)
    kh = _split_heads(k, cfg.n_heads, cfg.head_dim)
    v, cv = _linear_fwd(x, params[f"{base}.wv"], params[f"{base}.bv"], keep)
    vh = _split_heads(v, cfg.n_heads, cfg.head_dim)
    del q, k, v
    scale = np.asarray(1.0 / np.sqrt(cfg.head_dim), dtype=x.dtype)
    probs = qh @ kh.transpose(0, 1, 3, 2)
    probs *= scale
    _softmax(probs)
    ctx = probs @ vh
    cache = (cq, ck, cv, qh, kh, vh, probs, scale) if keep else None
    del qh, kh, vh, probs
    out, co = _linear_fwd(_merge_heads(ctx), params[f"{base}.wo"], params[f"{base}.bo"], keep)
    if not keep:
        return out, None
    return out, cache + (co,)


def _attention_bwd(dy, cache, grads, base, cfg):
    cq, ck, cv, qh, kh, vh, probs, scale, co = cache
    dmerged = _linear_bwd(dy, co, grads, f"{base}.wo", f"{base}.bo")
    b, s, _ = dmerged.shape
    dctx = dmerged.reshape(b, s, cfg.n_heads, cfg.head_dim).transpose(0, 2, 1, 3)
    dprobs = dctx @ vh.transpose(0, 1, 3, 2)
    dvh = probs.transpose(0, 1, 3, 2) @ dctx
    # Softmax Jacobian along the last axis.
    dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
    dscores *= scale
    dqh = dscores @ kh
    dkh = dscores.transpose(0, 1, 3, 2) @ qh
    dq = _merge_heads(dqh)
    dk = _merge_heads(dkh)
    dv = _merge_heads(dvh)
    dx = _linear_bwd(dq, cq, grads, f"{base}.wq", f"{base}.bq")
    dx += _linear_bwd(dk, ck, grads, f"{base}.wk", f"{base}.bk")
    dx += _linear_bwd(dv, cv, grads, f"{base}.wv", f"{base}.bv")
    return dx


def _block_fwd(x, params, base, cfg, train, rng, keep=True):
    """One pre-norm layer. With ``keep`` false nothing is cached and each
    intermediate is dropped as soon as the next one exists."""
    h, c_ln1 = _layernorm_fwd(x, params[f"{base}.ln1.g"], params[f"{base}.ln1.b"], keep)
    a, c_attn = _attention_fwd(h, params, f"{base}.attn", cfg, keep)
    del h
    a, c_drop1 = _dropout_fwd(a, cfg.dropout, train, rng)
    a += x
    x = a
    h, c_ln2 = _layernorm_fwd(x, params[f"{base}.ln2.g"], params[f"{base}.ln2.b"], keep)
    f, c_f1 = _linear_fwd(h, params[f"{base}.ffn.w1"], params[f"{base}.ffn.b1"], keep)
    del h
    f, c_gelu = _gelu_fwd(f, keep)
    f, c_f2 = _linear_fwd(f, params[f"{base}.ffn.w2"], params[f"{base}.ffn.b2"], keep)
    f, c_drop2 = _dropout_fwd(f, cfg.dropout, train, rng)
    f += x
    if not keep:
        return f, None
    return f, (c_ln1, c_attn, c_drop1, c_ln2, c_f1, c_gelu, c_f2, c_drop2)


def _block_bwd(dy, cache, grads, base, cfg):
    c_ln1, c_attn, c_drop1, c_ln2, c_f1, c_gelu, c_f2, c_drop2 = cache
    df2 = _dropout_bwd(dy, c_drop2)
    dg = _linear_bwd(df2, c_f2, grads, f"{base}.ffn.w2", f"{base}.ffn.b2")
    df1 = _gelu_bwd(dg, c_gelu)
    dh2 = _linear_bwd(df1, c_f1, grads, f"{base}.ffn.w1", f"{base}.ffn.b1")
    dx = dy + _layernorm_bwd(dh2, c_ln2, grads, f"{base}.ln2.g", f"{base}.ln2.b")
    da = _dropout_bwd(dx, c_drop1)
    dh = _attention_bwd(da, c_attn, grads, f"{base}.attn", cfg)
    dx = dx + _layernorm_bwd(dh, c_ln1, grads, f"{base}.ln1.g", f"{base}.ln1.b")
    return dx


# =============================================================================
# Full model
# =============================================================================


def _as_batch(feats, vels, mask, cfg):
    feats = np.asarray(feats)
    vels = np.asarray(vels)
    single = feats.ndim == 3
    if single:
        feats = feats[None]
        vels = vels[None]
    b = feats.shape[0]
    if feats.shape[1:] != (cfg.n_joints, cfg.window, cfg.feat_dim):
        raise DataError(f"features shaped {feats.shape}, expected (B, 12, 7, 12)")
    if mask is None:
        mask = np.zeros((b, cfg.n_joints, cfg.window), dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim == 2:
            mask = np.broadcast_to(mask[None], (b,) + mask.shape)
    return feats, vels, mask, single


def grid_codes(params: dict, cfg: ModelConfig, dtype) -> np.ndarray:
    """Position-identifying codes (S, D): sinusoidal PE + joint + frame."""
    pe = sinusoidal_pe(cfg.seq_len, cfg.d_model).astype(dtype)
    ej = np.repeat(params["embed.e_joint"], cfg.window, axis=0)
    et = np.tile(params["embed.e_frame"], (cfg.n_joints, 1))
    return pe + ej + et


def _prepare(params, cfg, feats, vels, mask):
    """Flat (B, S, ·) model inputs, the mask selector and the grid codes."""
    dtype = params["embed.w_in"].dtype
    feats, vels, mask, single = _as_batch(feats, vels, mask, cfg)
    b = feats.shape[0]
    s = cfg.seq_len
    f_flat = np.ascontiguousarray(feats, dtype=dtype).reshape(b, s, cfg.feat_dim)
    v_flat = np.ascontiguousarray(vels, dtype=dtype).reshape(b, s, cfg.vel_dim)
    m_flat = mask.reshape(b, s)
    return f_flat, v_flat, m_flat, grid_codes(params, cfg, dtype), single


def _encoder_fwd(params, cfg, f_flat, v_flat, sel, codes, train, rng, keep):
    """Embedding + encoder stack + final norm -> (memory, cache entries)."""
    content, c_in = _linear_fwd(f_flat, params["embed.w_in"], params["embed.b_in"], keep)
    motion, c_mot = _linear_fwd(v_flat, params["embed.w_motion"],
                                np.zeros((), dtype=f_flat.dtype), keep)
    content += motion
    del motion
    x = np.where(sel, params["embed.mask_token"], content)
    del content
    x += codes
    x, c_edrop = _dropout_fwd(x, cfg.dropout, train, rng)
    enc_caches = []
    for base in _layer_names("enc", cfg.enc_layers):
        x, c = _block_fwd(x, params, base, cfg, train, rng, keep)
        enc_caches.append(c)
    memory, c_elnf = _layernorm_fwd(x, params["enc.ln_f.g"], params["enc.ln_f.b"], keep)
    return memory, {"c_in": c_in, "c_mot": c_mot, "c_edrop": c_edrop,
                    "enc": enc_caches, "c_elnf": c_elnf}


def _decoder_fwd(params, cfg, memory, sel, codes, train, rng, keep):
    """Re-embedding + decoder stack + head -> (recon (B, S, F), cache entries)."""
    x = np.where(sel, params["embed.mask_token"], memory)
    x += codes
    x, c_ddrop = _dropout_fwd(x, cfg.dropout, train, rng)
    dec_caches = []
    for base in _layer_names("dec", cfg.dec_layers):
        x, c = _block_fwd(x, params, base, cfg, train, rng, keep)
        dec_caches.append(c)
    x, c_dlnf = _layernorm_fwd(x, params["dec.ln_f.g"], params["dec.ln_f.b"], keep)
    recon, c_head = _linear_fwd(x, params["head.w"], params["head.b"], keep)
    return recon, {"c_ddrop": c_ddrop, "dec": dec_caches, "c_dlnf": c_dlnf,
                   "c_head": c_head}


def _model_fwd(params, cfg, feats, vels, mask, train, rng, keep):
    """The one model body behind ``forward`` (``keep`` true, returning the
    backward cache) and ``reconstruct`` (``keep`` false, no cache)."""
    f_flat, v_flat, m_flat, codes, single = _prepare(params, cfg, feats, vels, mask)
    sel = m_flat[..., None]
    memory, enc_cache = _encoder_fwd(params, cfg, f_flat, v_flat, sel, codes,
                                     train, rng, keep)
    recon, dec_cache = _decoder_fwd(params, cfg, memory, sel, codes, train, rng, keep)
    recon = recon.reshape(m_flat.shape[0], cfg.n_joints, cfg.window, cfg.feat_dim)
    if single:
        recon = recon[0]
    if not keep:
        return recon, None
    return recon, {"single": single, "mask": m_flat, **enc_cache, **dec_cache}


def forward(params, cfg: ModelConfig, feats, vels, mask=None, *, train=False, rng=None):
    """Run the full masked autoencoder.

    Returns ``(recon, cache)`` with recon shaped like ``feats`` (the grid of
    reconstructed token features) and an opaque cache for ``backward``.
    """
    if train and cfg.dropout > 0.0 and rng is None:
        raise DataError("training forward needs an rng for dropout")
    return _model_fwd(params, cfg, feats, vels, mask, train, rng, keep=True)


def backward(params, cfg: ModelConfig, cache, d_recon, grads=None) -> dict:
    """Hand-written backward pass: d(loss)/d(recon) -> parameter gradients.

    Accumulates into ``grads`` when given (used to combine the two masked
    passes of one training step).
    """
    if grads is None:
        grads = zeros_like_params(params)
    d_recon = np.asarray(d_recon, dtype=params["embed.w_in"].dtype)
    if cache["single"]:
        d_recon = d_recon[None]
    b = d_recon.shape[0]
    s = cfg.seq_len
    dy = d_recon.reshape(b, s, cfg.feat_dim)

    ddec = _linear_bwd(dy, cache["c_head"], grads, "head.w", "head.b")
    ddec = _layernorm_bwd(ddec, cache["c_dlnf"], grads, "dec.ln_f.g", "dec.ln_f.b")
    for base, c in zip(reversed(list(_layer_names("dec", cfg.dec_layers))),
                       reversed(cache["dec"])):
        ddec = _block_bwd(ddec, c, grads, base, cfg)
    ddec = _dropout_bwd(ddec, cache["c_ddrop"])

    # Codes receive gradient from every slot on both encoder and decoder side.
    sel = cache["mask"][..., None]
    _codes_bwd(ddec, grads, cfg)
    grads["embed.mask_token"] += (ddec * sel).sum(axis=(0, 1))
    dmem = ddec * (~sel)

    dmem = _layernorm_bwd(dmem, cache["c_elnf"], grads, "enc.ln_f.g", "enc.ln_f.b")
    for base, c in zip(reversed(list(_layer_names("enc", cfg.enc_layers))),
                       reversed(cache["enc"])):
        dmem = _block_bwd(dmem, c, grads, base, cfg)
    dmem = _dropout_bwd(dmem, cache["c_edrop"])

    _codes_bwd(dmem, grads, cfg)
    grads["embed.mask_token"] += (dmem * sel).sum(axis=(0, 1))
    dcontent = dmem * (~sel)
    _linear_bwd(dcontent, cache["c_in"], grads, "embed.w_in", "embed.b_in")
    dmot_in = cache["c_mot"]
    x2 = dmot_in[0].reshape(-1, cfg.vel_dim)
    grads["embed.w_motion"] += x2.T @ dcontent.reshape(-1, cfg.d_model)
    return grads


def _codes_bwd(dx, grads, cfg):
    """Accumulate gradients for the learned joint/frame code tables."""
    b, s, d = dx.shape
    per_token = dx.sum(axis=0).reshape(cfg.n_joints, cfg.window, d)
    grads["embed.e_joint"] += per_token.sum(axis=1)
    grads["embed.e_frame"] += per_token.sum(axis=0)


def encoder_memory(params, cfg: ModelConfig, feats, vels, mask=None):
    """Encoder output only (no decoder, no cache); used by the masking-soundness
    test."""
    f_flat, v_flat, m_flat, codes, single = _prepare(params, cfg, feats, vels, mask)
    mem, _ = _encoder_fwd(params, cfg, f_flat, v_flat, m_flat[..., None], codes,
                          False, None, keep=False)
    return mem[0] if single else mem


def reconstruct(params, cfg: ModelConfig, window_feats, window_vels, mask=None):
    """Inference-mode reconstruction (no dropout). Returns the feature grid.

    Runs the same model body as ``forward`` but keeps no backward cache: each
    layer's activations and attention probabilities are freed as soon as the
    next intermediate exists, so a batch holds about one layer's working set
    instead of every layer's. Outputs equal ``forward(...)[0]`` bit for bit.
    """
    recon, _ = _model_fwd(params, cfg, window_feats, window_vels, mask,
                          False, None, keep=False)
    return recon


# =============================================================================
# Checkpoint format
# =============================================================================

CKPT_MAGIC = b"GMCKPT01"
CKPT_VERSION = 1


def save_checkpoint(path, params: dict, cfg: ModelConfig) -> None:
    """Versioned binary checkpoint: header + named little-endian f32 tensors."""
    header = json.dumps(asdict(cfg), sort_keys=True).encode()
    buf = io.BytesIO()
    buf.write(CKPT_MAGIC)
    buf.write(struct.pack("<II", CKPT_VERSION, len(header)))
    buf.write(header)
    buf.write(struct.pack("<I", len(params)))
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name], dtype="<f4")
        nb = name.encode()
        buf.write(struct.pack("<H", len(nb)))
        buf.write(nb)
        buf.write(struct.pack("<B", arr.ndim))
        buf.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        buf.write(arr.tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_checkpoint(path):
    """Read a checkpoint; returns (params, ModelConfig).

    A file that is not a complete checkpoint of this version raises DataError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise DataError(f"{path}: not a checkpoint (bad magic)")
    try:
        return _parse_checkpoint(path, data)
    except (struct.error, TypeError, ValueError) as exc:
        raise DataError(f"{path}: truncated or corrupt checkpoint: {exc}") from exc


def _parse_checkpoint(path, data: bytes):
    off = len(CKPT_MAGIC)
    version, hlen = struct.unpack_from("<II", data, off)
    off += 8
    if version != CKPT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    cfg = ModelConfig(**json.loads(data[off : off + hlen].decode()))
    off += hlen
    (count,) = struct.unpack_from("<I", data, off)
    off += 4
    params = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", data, off)
        off += 2
        name = data[off : off + nlen].decode()
        off += nlen
        (ndim,) = struct.unpack_from("<B", data, off)
        off += 1
        shape = struct.unpack_from(f"<{ndim}I", data, off)
        off += 4 * ndim
        size = int(np.prod(shape)) if ndim else 1
        arr = np.frombuffer(data, dtype="<f4", count=size, offset=off).reshape(shape)
        off += 4 * size
        params[name] = arr.copy()
    if off != len(data):
        raise DataError(f"{path}: trailing bytes in checkpoint")
    return params, cfg
