"""Training loop: curriculum masking, composite L1 loss, AdamW.

Every training step draws TWO independent masks for each window and runs two
forward passes; four supervised terms (final-frame, masked, visible,
velocity-consistency) are computed on the first pass and a context-invariance
term ties the two reconstructions together. All five terms are equally
weighted plain L1 means over sin/cos channels, and their gradients are
written out by hand to match the model's hand-written backward pass.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DataError, NumericError
from .features import SINCOS_SLICE
from .model import (
    ModelConfig,
    backward,
    forward,
    init_parameters,
    is_decay_excluded,
    zeros_like_params,
)
from .skeleton import JID, N_JOINTS

# =============================================================================
# Losses
# =============================================================================


@dataclass
class LossBreakdown:
    final: float
    masked: float
    visible: float
    velocity: float
    context: float

    @property
    def total(self) -> float:
        return self.final + self.masked + self.visible + self.velocity + self.context

    def as_tuple(self):
        return (self.final, self.masked, self.visible, self.velocity, self.context)


def _l1_mean(diff):
    """(mean |diff|, d/d(diff)); an empty selection contributes zero."""
    n = diff.size
    if n == 0:
        return 0.0, np.zeros_like(diff)
    return float(np.abs(diff).mean()), np.sign(diff) / n


def compute_losses(recon_a, recon_b, target, mask_a):
    """Five-term loss over a batch plus gradients w.r.t. both reconstructions.

    recon_a/recon_b/target : (B, 12, 7, 12) feature grids
    mask_a                 : (B, 12, 7) bool, the mask of the first pass

    Returns (LossBreakdown, d_recon_a, d_recon_b).
    """
    sc = SINCOS_SLICE
    a = recon_a[..., sc]
    tgt = target[..., sc]
    da = np.zeros_like(recon_a)
    db = np.zeros_like(recon_b)

    # (i) final-frame pose over all joints.
    l_final, g = _l1_mean(a[:, :, -1, :] - tgt[:, :, -1, :])
    da[:, :, -1, sc] += g

    # (ii)/(iii) masked and visible grid slots.
    m = np.asarray(mask_a, dtype=bool)
    sel = np.broadcast_to(m[..., None], a.shape)
    diff = a - tgt
    l_masked, g = _l1_mean(diff[sel])
    tmp = np.zeros_like(a)
    tmp[sel] = g
    da[..., sc] += tmp
    l_visible, g = _l1_mean(diff[~sel])
    tmp = np.zeros_like(a)
    tmp[~sel] = g
    da[..., sc] += tmp

    # (iv) velocity consistency: frame-to-frame differences of the sin/cos
    # curves (continuous by construction, so no extra wrapping is needed).
    dp = a[:, :, 1:, :] - a[:, :, :-1, :]
    dt = tgt[:, :, 1:, :] - tgt[:, :, :-1, :]
    l_velocity, g = _l1_mean(dp - dt)
    da[:, :, 1:, sc] += g
    da[:, :, :-1, sc] -= g

    # (v) context invariance across the two masks.
    bdiff = a - recon_b[..., sc]
    l_context, g = _l1_mean(bdiff)
    da[..., sc] += g
    db[..., sc] -= g

    return LossBreakdown(l_final, l_masked, l_visible, l_velocity, l_context), da, db


# =============================================================================
# Curriculum mask sampling
# =============================================================================

LIMB_GROUPS = {
    "l_arm": ("l_shoulder", "l_elbow"),
    "r_arm": ("r_shoulder", "r_elbow"),
    "l_leg": ("l_hip", "l_knee", "l_ankle"),
    "r_leg": ("r_hip", "r_knee", "r_ankle"),
    "trunk": ("neck", "pelvis"),
}
_GROUP_COLS = {name: np.array([JID[j] for j in joints])
               for name, joints in LIMB_GROUPS.items()}
_GROUP_NAMES = sorted(LIMB_GROUPS)


@dataclass
class CurriculumConfig:
    transition_epochs: int = 60     # epoch at which masking is 100% structured
    random_drop: float = 0.5        # per-joint drop probability, random regime
    p_one_group: float = 0.7        # else two distinct groups are removed
    p_span_one: float = 0.25        # span length 1
    p_span_full: float = 0.25       # span length 7 (whole window)
    window: int = 7

    def __post_init__(self):
        if self.p_span_one + self.p_span_full > 1.0:
            raise DataError("span probabilities exceed 1")


def structured_fraction(epoch: int, cfg: CurriculumConfig) -> float:
    """Probability that a sampled keep-set is structured at this epoch."""
    return min(epoch / cfg.transition_epochs, 1.0)


def sample_span(rng: np.random.Generator, cfg: CurriculumConfig):
    """(length, start): 1 w.p. 0.25, full window w.p. 0.25, else 2..6 uniform."""
    u = rng.random()
    t = cfg.window
    if u < cfg.p_span_one:
        length = 1
    elif u < cfg.p_span_one + cfg.p_span_full:
        length = t
    else:
        length = int(rng.integers(2, t))
    start = int(rng.integers(0, t - length + 1))
    return length, start


def _sample_joint_column(rng, p_struct, cfg) -> np.ndarray:
    """One per-joint mask column (True = hidden)."""
    col = np.zeros(N_JOINTS, dtype=bool)
    if rng.random() < p_struct:
        n_groups = 1 if rng.random() < cfg.p_one_group else 2
        picks = rng.choice(len(_GROUP_NAMES), size=n_groups, replace=False)
        for gi in picks:
            col[_GROUP_COLS[_GROUP_NAMES[gi]]] = True
    else:
        col = rng.random(N_JOINTS) < cfg.random_drop
    return col


def sample_mask(epoch: int, rng: np.random.Generator,
                cfg: CurriculumConfig | None = None) -> np.ndarray:
    """Sample one (12, 7) curriculum mask (True = hidden).

    A random span of frames shares a single keep-set; frames outside the
    span draw independent keep-sets. Each drawn keep-set is structured
    (whole limb groups removed) with probability min(epoch/60, 1), else an
    independent 50% joint dropout.
    """
    cfg = cfg or CurriculumConfig()
    p_struct = structured_fraction(epoch, cfg)
    length, start = sample_span(rng, cfg)
    mask = np.zeros((N_JOINTS, cfg.window), dtype=bool)
    span_col = _sample_joint_column(rng, p_struct, cfg)
    mask[:, start : start + length] = span_col[:, None]
    for t in range(cfg.window):
        if start <= t < start + length:
            continue
        mask[:, t] = _sample_joint_column(rng, p_struct, cfg)
    return mask


# =============================================================================
# Optimizer
# =============================================================================


@dataclass
class TrainConfig:
    lr: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.95
    weight_decay: float = 5e-2
    eps: float = 1e-8
    clip_norm: float = 1.0
    batch_size: int = 256
    epochs: int = 250


@dataclass
class AdamWState:
    m: dict
    v: dict
    step: int = 0

    @classmethod
    def fresh(cls, params: dict) -> "AdamWState":
        return cls(m=zeros_like_params(params), v=zeros_like_params(params))


def clip_gradients(grads: dict, max_norm: float) -> float:
    """Scale all gradients by min(1, max_norm/|g|); returns the global norm.

    Gradients at or under the threshold are left bitwise untouched.
    """
    total = 0.0
    for g in grads.values():
        total += float(np.vdot(g, g))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = np.asarray(max_norm / norm, dtype=next(iter(grads.values())).dtype)
        for g in grads.values():
            g *= scale
    return norm


def adamw_step(params: dict, grads: dict, state: AdamWState, cfg: TrainConfig) -> None:
    """One decoupled-weight-decay Adam update, in place.

    Decay (w <- w - lr*wd*w) is applied first and only to tensors that are
    neither biases nor normalization parameters; the adaptive update then
    uses bias-corrected first/second moments.
    """
    state.step += 1
    t = state.step
    b1, b2 = cfg.beta1, cfg.beta2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for name, p in params.items():
        g = grads[name]
        if not is_decay_excluded(name):
            p -= (cfg.lr * cfg.weight_decay) * p
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        mhat = m / bc1
        vhat = v / bc2
        p -= cfg.lr * mhat / (np.sqrt(vhat) + cfg.eps)


# =============================================================================
# Training loop
# =============================================================================


class TrainingDivergedError(NumericError):
    def __init__(self, epoch: int, last_good: dict):
        super().__init__(
            f"non-finite loss at epoch {epoch}; revert to the last good "
            f"checkpoint (end of epoch {epoch - 1})"
        )
        self.epoch = epoch
        self.last_good = last_good


@dataclass
class TrainResult:
    params: dict
    config: ModelConfig
    history: list = field(default_factory=list)  # one LossBreakdown per epoch


def train(
    feats: np.ndarray,
    vels: np.ndarray,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig | None = None,
    curriculum: CurriculumConfig | None = None,
    seed: int = 0,
    params: dict | None = None,
    progress=None,
) -> TrainResult:
    """Train on stacked windows: feats (N, 12, 7, 12), vels (N, 12, 7, 3).

    Fully deterministic given (seed, configs, data): parameter init, epoch
    shuffles, both mask draws and dropout all fan out of one seed sequence.
    """
    train_cfg = train_cfg or TrainConfig()
    curriculum = curriculum or CurriculumConfig()
    n = feats.shape[0]
    if n == 0:
        raise DataError("no training windows")
    feats = np.asarray(feats, dtype=np.float32)
    vels = np.asarray(vels, dtype=np.float32)

    ss = np.random.SeedSequence(seed)
    s_init, s_shuffle, s_mask, s_drop = [np.random.default_rng(c) for c in ss.spawn(4)]
    if params is None:
        params = init_parameters(model_cfg, s_init, dtype=np.float32)
    state = AdamWState.fresh(params)
    history = []
    last_good = {k: v.copy() for k, v in params.items()}

    for epoch in range(train_cfg.epochs):
        order = s_shuffle.permutation(n)
        sums = np.zeros(5)
        batches = 0
        for lo in range(0, n, train_cfg.batch_size):
            idx = order[lo : lo + train_cfg.batch_size]
            bf = feats[idx]
            bv = vels[idx]
            mask_a = np.stack([sample_mask(epoch, s_mask, curriculum) for _ in idx])
            mask_b = np.stack([sample_mask(epoch, s_mask, curriculum) for _ in idx])
            recon_a, cache_a = forward(params, model_cfg, bf, bv, mask_a,
                                       train=True, rng=s_drop)
            recon_b, cache_b = forward(params, model_cfg, bf, bv, mask_b,
                                       train=True, rng=s_drop)
            breakdown, da, db = compute_losses(recon_a, recon_b, bf, mask_a)
            if not np.isfinite(breakdown.total):
                raise TrainingDivergedError(epoch, last_good)
            grads = backward(params, model_cfg, cache_a, da)
            backward(params, model_cfg, cache_b, db, grads)
            clip_gradients(grads, train_cfg.clip_norm)
            adamw_step(params, grads, state, train_cfg)
            sums += np.array(breakdown.as_tuple())
            batches += 1
        epoch_loss = LossBreakdown(*(sums / batches))
        history.append(epoch_loss)
        last_good = {k: v.copy() for k, v in params.items()}
        if progress is not None:
            progress(epoch, epoch_loss)
    return TrainResult(params=params, config=model_cfg, history=history)


# =============================================================================
# Config / history files
# =============================================================================


def write_loss_history(path, history, provenance: str | None = None) -> None:
    """CSV: one row per epoch with the five terms and their total."""
    with open(path, "w") as fh:
        if provenance:
            fh.write(f"# {provenance}\n")
        fh.write("epoch,final,masked,visible,velocity,context,total\n")
        for i, h in enumerate(history):
            vals = ",".join(f"{x:.9g}" for x in (*h.as_tuple(), h.total))
            fh.write(f"{i},{vals}\n")


def save_train_config(path, train_cfg: TrainConfig, curriculum: CurriculumConfig) -> None:
    """Key-value JSON with keys exactly matching the two config dataclasses."""
    doc = {"train": asdict(train_cfg), "curriculum": asdict(curriculum)}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_train_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return TrainConfig(**doc.get("train", {})), CurriculumConfig(**doc.get("curriculum", {}))
    except (AttributeError, TypeError) as e:
        raise DataError(f"{path}: malformed training config ({e})") from None
