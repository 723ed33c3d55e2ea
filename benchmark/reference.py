"""Computations the benchmark checks the program against, written apart
from it from the documented method.

Only constants (skeleton tree, rest directions, range-of-motion table) are
taken from the package; every formula here is an independent float64
implementation.
"""

from __future__ import annotations

import numpy as np
import scipy.special
import scipy.stats

LN_EPS = 1e-5

# Bone each probed joint swings, per the screening method: the joint's own
# child in the skeleton tree.
PROBE_BONE = {
    "neck": "l_shoulder",
    "pelvis": "neck",
    "l_hip": "l_knee",
    "r_hip": "r_knee",
    "l_knee": "l_ankle",
    "r_knee": "r_ankle",
}


# =============================================================================
# Masked autoencoder forward pass
# =============================================================================


def _layernorm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * g + b


def _attention(x, p, base, n_heads):
    bsz, s, d = x.shape
    hd = d // n_heads

    def heads(w, b):
        return (x @ p[f"{base}.{w}"] + p[f"{base}.{b}"]).reshape(bsz, s, n_heads, hd).transpose(0, 2, 1, 3)

    q, k, v = heads("wq", "bq"), heads("wk", "bk"), heads("wv", "bv")
    scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(hd)
    scores = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = scores / scores.sum(axis=-1, keepdims=True)
    ctx = (probs @ v).transpose(0, 2, 1, 3).reshape(bsz, s, d)
    return ctx @ p[f"{base}.wo"] + p[f"{base}.bo"]


def _block(x, p, base, n_heads):
    x = x + _attention(_layernorm(x, p[f"{base}.ln1.g"], p[f"{base}.ln1.b"]), p, f"{base}.attn", n_heads)
    h = _layernorm(x, p[f"{base}.ln2.g"], p[f"{base}.ln2.b"]) @ p[f"{base}.ffn.w1"] + p[f"{base}.ffn.b1"]
    h = h * 0.5 * (1.0 + scipy.special.erf(h / np.sqrt(2.0)))
    return x + h @ p[f"{base}.ffn.w2"] + p[f"{base}.ffn.b2"]


def forward(params: dict, cfg, feats, vels, masks) -> np.ndarray:
    """Inference-mode reconstruction of (B, J, T, F) token grids in float64.

    Token content is the feature projection plus the velocity projection;
    masked slots take the [MASK] vector instead. Every slot adds the
    sinusoidal code of its flat (joint-major) grid index and its learned
    joint and frame embeddings, on both the encoder and the decoder side.
    """
    p = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    bsz, nj, nt, nf = feats.shape
    s, d = nj * nt, cfg.d_model
    f = np.asarray(feats, dtype=np.float64).reshape(bsz, s, nf)
    v = np.asarray(vels, dtype=np.float64).reshape(bsz, s, -1)
    hidden = np.asarray(masks, dtype=bool).reshape(bsz, s, 1)

    pos = np.arange(s)[:, None]
    freq = 10000.0 ** (-2.0 * np.arange(d // 2) / d)
    codes = np.zeros((s, d))
    codes[:, 0::2] = np.sin(pos * freq)
    codes[:, 1::2] = np.cos(pos * freq)
    grid = np.arange(s)
    codes += p["embed.e_joint"][grid // nt] + p["embed.e_frame"][grid % nt]

    content = f @ p["embed.w_in"] + p["embed.b_in"] + v @ p["embed.w_motion"]
    x = np.where(hidden, p["embed.mask_token"], content) + codes
    for i in range(cfg.enc_layers):
        x = _block(x, p, f"enc.{i}", cfg.n_heads)
    memory = _layernorm(x, p["enc.ln_f.g"], p["enc.ln_f.b"])
    x = np.where(hidden, p["embed.mask_token"], memory) + codes
    for i in range(cfg.dec_layers):
        x = _block(x, p, f"dec.{i}", cfg.n_heads)
    out = _layernorm(x, p["dec.ln_f.g"], p["dec.ln_f.b"]) @ p["head.w"] + p["head.b"]
    return out.reshape(bsz, nj, nt, nf)


# =============================================================================
# Badness scores
# =============================================================================


def _wrap(x):
    return np.mod(x + np.pi, 2.0 * np.pi) - np.pi


def rotations_from_features(feats) -> np.ndarray:
    """(..., 12) token features -> (..., 3, 3) rotations by Gram-Schmidt on
    the two stored matrix columns."""
    r1, r2 = feats[..., 6:9], feats[..., 9:12]
    b1 = r1 / np.linalg.norm(r1, axis=-1, keepdims=True)
    r2 = r2 - np.sum(r2 * b1, axis=-1, keepdims=True) * b1
    b2 = r2 / np.linalg.norm(r2, axis=-1, keepdims=True)
    return np.stack([b1, b2, np.cross(b1, b2)], axis=-1)


def xyz_euler(rot) -> np.ndarray:
    """Intrinsic XYZ angles of R = Rx(px) Ry(py) Rz(pz) (away from gimbal lock)."""
    px = np.arctan2(-rot[..., 1, 2], rot[..., 2, 2])
    py = np.arcsin(np.clip(rot[..., 0, 2], -1.0, 1.0))
    pz = np.arctan2(-rot[..., 0, 1], rot[..., 0, 0])
    return np.stack([px, py, pz], axis=-1)


def badness(recon_tiles, probed, joint_index, joint_parent, rest_unit, rom, weights):
    """Badness of each probed joint at one window's last frame.

    ``recon_tiles`` is the (1 + len(probed), J, T, F) reconstruction of the
    tile batch: tile 0 unmasked, tile i + 1 with ``probed[i]`` masked.
    Score = bone-direction mismatch * (0.5 + 0.5 * range-of-motion
    consumption), where the mismatch is (1 - cos) / 2 between the probed
    bone in the baseline and in the tile, and the consumption is the
    weighted, per-axis clipped share of the joint's range of motion that the
    tile's angles moved away from the baseline's.
    """
    rel = rotations_from_features(recon_tiles[:, :, -1, :])  # (tiles, J, 3, 3)

    def world(tile, joint):
        r = rel[tile, joint_index[joint]]
        parent = joint_parent[joint]
        return r if parent is None else world(tile, parent) @ r

    scores = []
    for i, joint in enumerate(probed):
        u = rest_unit[PROBE_BONE[joint]]
        a = world(0, joint) @ u
        b = world(i + 1, joint) @ u
        cos = np.clip(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)), -1.0, 1.0)
        mismatch = (1.0 - cos) / 2.0
        j = joint_index[joint]
        moved = np.abs(_wrap(xyz_euler(rel[i + 1, j]) - xyz_euler(rel[0, j])))
        consumed = float(np.sum(np.minimum(moved / rom[j], 1.0) * weights[j]))
        scores.append(mismatch * (0.5 + 0.5 * min(max(consumed, 0.0), 1.0)))
    return np.array(scores)


# =============================================================================
# Cohort statistics
# =============================================================================


def mean_cycle(cycles) -> np.ndarray:
    """Mean of (n, T, C) wrapped cycles, each first moved onto the branch of
    the time-unwrapped first cycle; the result is wrapped again."""
    cycles = np.asarray(cycles, dtype=np.float64)
    ref = np.unwrap(cycles[0], axis=0)
    return _wrap((ref + _wrap(cycles - ref)).mean(axis=0))


def rmse_deg(curve, center) -> np.ndarray:
    """Per-channel root mean square of the wrapped difference, in degrees."""
    d = _wrap(np.asarray(curve) - np.asarray(center))
    return np.degrees(np.sqrt(np.mean(d * d, axis=0)))


def rank_biserial(diffs) -> float:
    """(sum of ranks of positive - of negative differences) / total rank sum,
    ranking |d| over the nonzero differences."""
    d = np.asarray(diffs, dtype=np.float64)
    d = d[d != 0.0]
    ranks = scipy.stats.rankdata(np.abs(d))
    return float((ranks[d > 0].sum() - ranks[d < 0].sum()) / ranks.sum())


def signed_rank_p(diffs) -> float:
    """Two-sided exact Wilcoxon signed-rank p-value, zeros dropped.

    Without ties this is ``scipy.stats.wilcoxon(method="exact")``. scipy's
    exact null assumes distinct ranks, so with tied |d| the null is instead
    enumerated over the observed midranks (``enumerated_signed_rank_p``).
    """
    d = np.asarray(diffs, dtype=np.float64)
    d = d[d != 0.0]
    if np.unique(np.abs(d)).size == d.size:
        return float(scipy.stats.wilcoxon(d, method="exact").pvalue)
    return enumerated_signed_rank_p(d)


def enumerated_signed_rank_p(d) -> float:
    """Two-sided signed-rank p-value over every sign pattern of the midranks
    of nonzero ``d``: the coefficients of prod(1 + x^(2 r_i)) count the
    patterns per doubled positive-rank sum."""
    d = np.asarray(d, dtype=np.float64)
    ranks2 = np.rint(2.0 * scipy.stats.rankdata(np.abs(d))).astype(int)
    counts = np.ones(1)
    for r in ranks2:
        term = np.zeros(r + 1)
        term[0] = term[r] = 1.0
        counts = np.convolve(counts, term)
    w2 = int(ranks2[d > 0].sum())
    total = counts.sum()
    return float(min(1.0, 2.0 * min(counts[: w2 + 1].sum(), counts[w2:].sum()) / total))


# =============================================================================
# Gradients
# =============================================================================


def central_difference(loss, params: dict, name: str, index, h: float = 1e-6) -> float:
    """d loss / d params[name][index] by a central difference, in place."""
    arr = params[name]
    keep = arr[index]
    arr[index] = keep + h
    up = loss()
    arr[index] = keep - h
    down = loss()
    arr[index] = keep
    return (up - down) / (2.0 * h)
