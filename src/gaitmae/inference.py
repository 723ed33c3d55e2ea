"""Tiled-occlusion joint screening and targeted re-synthesis.

Screening replicates each 7-frame window once per probed joint, masks that
joint's tokens everywhere, and asks the trained autoencoder to fill the gap.
``build_tiles`` does this for a whole chunk of windows at once, window-major:
window w's unmasked baseline, then its six masked tiles in ``TILED_JOINTS``
order, then window w+1's.
Where the gap-fill and the unmasked baseline reconstruction disagree — bone
direction swung away, range-of-motion budget consumed — the joint earns a
per-frame badness score. Scores are smoothed, peak-summarized per trial, and
compared against a noise floor calibrated on clean walking. At most two
joints may be flagged; a second pass re-runs the network with exactly the
flagged joints masked and keeps the reconstructed angle stream as the
corrected trial.

Ankles are never probed (their tracking is the least reliable part of the
upstream data), but they are still reconstructed like every other joint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateFrameError
from .features import FEAT_DIM, WINDOW_LEN, TokenWindows, decode_features, make_windows
from .model import ModelConfig, reconstruct
from .rotations import wrap_angle
from .skeleton import JID, N_JOINTS, SkeletonTopology, forward_kinematics

TILED_JOINTS = ("neck", "pelvis", "l_hip", "r_hip", "l_knee", "r_knee")
N_TILES = len(TILED_JOINTS) + 1  # +1 unmasked baseline

# Bone probed for each tiled joint: the bone that joint's rotation swings.
_PROBE_BONE = {
    "neck": "l_shoulder",
    "pelvis": "neck",
    "l_hip": "l_knee",
    "r_hip": "r_knee",
    "l_knee": "l_ankle",
    "r_knee": "r_ankle",
}

TOP_K = 2
SMOOTH_FRAMES = 5
MIN_CALIBRATION_TRIALS = 5


# =============================================================================
# Range-of-motion table
# =============================================================================


@dataclass(frozen=True)
class RomTable:
    """Per (joint, axis) range-of-motion limits and mixing weights.

    Axis convention follows the skeleton: y is sagittal flexion/extension,
    x is frontal ab/adduction (pelvis roll), z is axial rotation.
    ``rom`` is in radians; each joint's weights are nonnegative and sum to 1.
    """

    rom: np.ndarray        # (12, 3)
    weights: np.ndarray    # (12, 3)

    def __post_init__(self):
        rom = np.asarray(self.rom, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if rom.shape != (N_JOINTS, 3) or w.shape != (N_JOINTS, 3):
            raise DataError(f"ROM table must be (12, 3), got {rom.shape} / {w.shape}")
        if not np.all(rom > 0.0):
            raise DataError("ROM limits must be strictly positive")
        if np.any(w < 0.0) or np.any(np.abs(w.sum(axis=1) - 1.0) > 1e-9):
            raise DataError("ROM weights must be nonnegative and sum to 1 per joint")
        object.__setattr__(self, "rom", rom)
        object.__setattr__(self, "weights", w)


def default_rom_table() -> RomTable:
    """Adult walking ranges; flexion carries most of the weight at hips/knees."""
    rows = {
        "neck":       ((1.40, 1.57, 1.40), (1 / 3, 1 / 3, 1 / 3)),
        "pelvis":     ((0.52, 0.52, 0.70), (0.30, 0.40, 0.30)),
        "l_hip":      ((1.31, 2.44, 1.40), (0.30, 0.50, 0.20)),
        "r_hip":      ((1.31, 2.44, 1.40), (0.30, 0.50, 0.20)),
        "l_knee":     ((0.52, 2.53, 0.52), (0.15, 0.70, 0.15)),
        "r_knee":     ((0.52, 2.53, 0.52), (0.15, 0.70, 0.15)),
        # Untiled joints: generous free-limb ranges, flexion-weighted.
        "l_shoulder": ((2.97, 3.14, 2.44), (0.30, 0.50, 0.20)),
        "r_shoulder": ((2.97, 3.14, 2.44), (0.30, 0.50, 0.20)),
        "l_elbow":    ((0.52, 2.62, 1.40), (0.15, 0.70, 0.15)),
        "r_elbow":    ((0.52, 2.62, 1.40), (0.15, 0.70, 0.15)),
        "l_ankle":    ((0.61, 1.22, 0.61), (0.20, 0.60, 0.20)),
        "r_ankle":    ((0.61, 1.22, 0.61), (0.20, 0.60, 0.20)),
    }
    rom = np.zeros((N_JOINTS, 3))
    w = np.zeros((N_JOINTS, 3))
    for name, (r3, w3) in rows.items():
        rom[JID[name]] = r3
        w[JID[name]] = w3
    return RomTable(rom=rom, weights=w)


# =============================================================================
# Result types
# =============================================================================


@dataclass
class BadnessSeries:
    """Per-joint badness over a trial: one score per scored output frame."""

    joints: tuple
    frames: np.ndarray   # (n,) trial frame index of each score
    series: np.ndarray   # (len(joints), n)
    summary: np.ndarray  # (len(joints),) smoothed peak per joint

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=int)
        self.series = np.asarray(self.series, dtype=float)
        self.summary = np.asarray(self.summary, dtype=float)
        j, n = len(self.joints), self.frames.size
        if self.series.shape != (j, n) or self.summary.shape != (j,):
            raise DataError("badness series/summary shapes inconsistent")
        if n == 0:
            raise DataError("badness series is empty")
        if np.any(np.diff(self.frames) <= 0):
            raise DataError("badness frames must be strictly increasing")
        for arr in (self.series, self.summary):
            if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
                raise DataError("badness scores must lie in [0, 1]")


@dataclass
class NoiseFloor:
    """Per-joint flagging thresholds from clean-walk calibration."""

    joints: tuple
    taus: np.ndarray
    n_trials: int
    statistic: str = "median+3mad"

    def __post_init__(self):
        self.taus = np.asarray(self.taus, dtype=float)
        if self.taus.shape != (len(self.joints),):
            raise DataError("one threshold per calibrated joint required")
        if np.any(self.taus < 0.0):
            raise DataError("noise-floor thresholds must be nonnegative")

    def tau(self, joint: str) -> float:
        return float(self.taus[self.joints.index(joint)])


@dataclass
class CorrectionResult:
    """Flagged joints plus the re-synthesized angle stream."""

    flagged: tuple            # ((joint, score), ...) descending, at most k
    corrected: np.ndarray     # (N, 12, 3) Euler angles
    original: np.ndarray      # (N, 12, 3)
    badness: BadnessSeries

    def __post_init__(self):
        self.corrected = np.asarray(self.corrected, dtype=float)
        self.original = np.asarray(self.original, dtype=float)
        if self.corrected.shape != self.original.shape:
            raise DataError("corrected and original streams must match in shape")
        for name, _score in self.flagged:
            if name not in TILED_JOINTS:
                raise DataError(f"flagged joint {name!r} is not a probed joint")


# =============================================================================
# Score primitives
# =============================================================================


# Tile 0 is the unmasked baseline; tile i+1 masks every frame of TILED_JOINTS[i].
TILE_MASKS = np.zeros((N_TILES, N_JOINTS, WINDOW_LEN), dtype=bool)
TILE_MASKS[np.arange(1, N_TILES), [JID[j] for j in TILED_JOINTS]] = True
TILE_MASKS.setflags(write=False)


def build_tiles(windows: TokenWindows):
    """Replicate windows into the 7-tile probe batch, window-major.

    For W windows returns ``(feats, vels, masks)`` shaped (7W, 12, 7, 12) /
    (7W, 12, 7, 3) / (7W, 12, 7): rows 7w..7w+6 are window w's tiles, in
    ``TILE_MASKS`` order. One window (``windows[w]``) gives W = 1.
    """
    feats = windows.features.reshape((-1,) + windows.features.shape[-3:])
    vels = windows.velocities.reshape((-1,) + windows.velocities.shape[-3:])
    return (np.repeat(feats, N_TILES, axis=0), np.repeat(vels, N_TILES, axis=0),
            np.tile(TILE_MASKS, (feats.shape[0], 1, 1)))


def badness_rom(phi_base, phi_tile, rom, weights):
    """Weighted fraction of per-axis range-of-motion consumed by the change.

    ``phi_*`` are (..., 3) Euler angles; ``rom``/``weights`` one table row.
    Each axis contributes clip(|wrapped difference| / rom, 0, 1) times its
    weight, so the result stays in [0, 1].
    """
    d = np.abs(wrap_angle(np.asarray(phi_tile, dtype=float) - np.asarray(phi_base, dtype=float)))
    ratio = np.minimum(d / np.asarray(rom, dtype=float), 1.0)
    # final clamp: weights summing to 1 +/- eps must not leak past the bound
    return np.clip(np.sum(ratio * np.asarray(weights, dtype=float), axis=-1), 0.0, 1.0)


def badness_geom(v_base, v_tile):
    """Directional mismatch of two bone vectors: 0 parallel, 1 antiparallel."""
    vb = np.asarray(v_base, dtype=float)
    vt = np.asarray(v_tile, dtype=float)
    nb = np.linalg.norm(vb, axis=-1)
    nt = np.linalg.norm(vt, axis=-1)
    if np.any(nb < 1e-12) or np.any(nt < 1e-12):
        raise DegenerateFrameError("zero-length bone in badness probe")
    cos = np.clip(np.sum(vb * vt, axis=-1) / (nb * nt), -1.0, 1.0)
    return (1.0 - cos) / 2.0


def badness_combine(e_geom, c_rom):
    """Direction error gated by ROM consumption: E * (0.5 + 0.5 * C)."""
    return np.asarray(e_geom, dtype=float) * (0.5 + 0.5 * np.asarray(c_rom, dtype=float))


def peak_stat(series) -> float:
    """Peak of a centered 5-frame moving average (window truncated at edges)."""
    s = np.asarray(series, dtype=float).ravel()
    if s.size == 0:
        raise DataError("badness series is empty")
    half = SMOOTH_FRAMES // 2
    csum = np.concatenate([[0.0], np.cumsum(s)])
    idx = np.arange(s.size)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half + 1, s.size)
    return float(((csum[hi] - csum[lo]) / (hi - lo)).max())


# =============================================================================
# Trial-level screening
# =============================================================================


def _decoded_reconstruction(params, cfg, feats, vels, masks):
    """Batch-reconstruct in float32 and decode to Euler angles (float64)."""
    recon = reconstruct(params, cfg, feats.astype(np.float32), vels.astype(np.float32), masks)
    angles, _bad = decode_features(np.asarray(recon, dtype=float))
    return angles  # (B, 12, T, 3): decode acts on the trailing feature axis


def _check_model(cfg: ModelConfig):
    if cfg.n_joints != N_JOINTS or cfg.window != WINDOW_LEN or cfg.feat_dim != FEAT_DIM:
        raise DataError("model geometry does not match the 12-joint, 7-frame tokenizer")


def compute_badness(
    params,
    cfg: ModelConfig,
    windows: TokenWindows,
    topo: SkeletonTopology,
    rom: RomTable | None = None,
    *,
    batch_size: int = 32,
) -> BadnessSeries:
    """Score every window of a trial with the 7-tile probe.

    ``windows`` may be any slice of a trial's windows (``[::stride]``); each
    chunk of ``batch_size`` windows is tiled and reconstructed in one pass.

    Each window contributes one score per probed joint at its last frame:
    the baseline (unmasked) and tile (joint masked) reconstructions are
    decoded, run through forward kinematics, and compared on the probed
    bone's direction and the joint's own angles.
    """
    _check_model(cfg)
    if not windows:
        raise DataError("no windows to score")
    rom = rom or default_rom_table()
    n_w = len(windows)
    series = np.zeros((len(TILED_JOINTS), n_w))
    frames = windows.starts + WINDOW_LEN - 1

    for lo in range(0, n_w, batch_size):
        chunk = windows[lo : lo + batch_size]
        angles = _decoded_reconstruction(params, cfg, *build_tiles(chunk))
        # (n_chunk * 7, 12, 7, 3) -> last frame -> (n_chunk, 7, 12, 3)
        last = angles[:, :, -1, :].reshape(len(chunk), N_TILES, N_JOINTS, 3)
        pos = forward_kinematics(last, topo)  # (n_chunk, 7, 12, 3)
        for i, joint in enumerate(TILED_JOINTS):
            j = JID[joint]
            c = JID[_PROBE_BONE[joint]]
            v_base = pos[:, 0, c] - pos[:, 0, j]
            v_tile = pos[:, i + 1, c] - pos[:, i + 1, j]
            e = badness_geom(v_base, v_tile)
            rom3, w3 = rom.rom[j], rom.weights[j]
            c_rom = badness_rom(last[:, 0, j], last[:, i + 1, j], rom3, w3)
            series[i, lo : lo + len(chunk)] = badness_combine(e, c_rom)

    summary = np.array([peak_stat(series[i]) for i in range(len(TILED_JOINTS))])
    return BadnessSeries(joints=TILED_JOINTS, frames=frames, series=series,
                         summary=summary)


def calibrate_noise_floor(series_list, *, min_trials: int = MIN_CALIBRATION_TRIALS) -> NoiseFloor:
    """Thresholds from clean-walk screenings: per joint, median + 3 * MAD."""
    series_list = list(series_list)
    if len(series_list) < min_trials:
        raise DataError(
            f"noise-floor calibration needs >= {min_trials} clean trials, got {len(series_list)}"
        )
    joints = series_list[0].joints
    for s in series_list:
        if s.joints != joints:
            raise DataError("calibration trials were scored with different probe sets")
    peaks = np.stack([s.summary for s in series_list])  # (n_trials, n_joints)
    med = np.median(peaks, axis=0)
    mad = np.median(np.abs(peaks - med), axis=0)
    return NoiseFloor(joints=joints, taus=med + 3.0 * mad, n_trials=len(series_list))


def select_flagged(badness: BadnessSeries, floor: NoiseFloor, k: int = TOP_K):
    """At most k joints whose peak exceeds its threshold, highest peak first."""
    if badness.joints != floor.joints:
        raise DataError("badness and noise floor cover different probe sets")
    order = np.argsort(-badness.summary, kind="stable")
    picks = [
        (badness.joints[i], float(badness.summary[i]))
        for i in order
        if badness.summary[i] > floor.taus[i]
    ]
    return tuple(picks[:k])


def detect_and_correct(
    angle_seq: np.ndarray,
    params,
    cfg: ModelConfig,
    topo: SkeletonTopology,
    floor: NoiseFloor,
    *,
    k: int = TOP_K,
    rom: RomTable | None = None,
    detect_stride: int = 1,
    batch_size: int = 32,
) -> CorrectionResult:
    """Screen a trial, flag up to k joints, and re-synthesize the stream.

    The second pass reconstructs every (stride-1) window with exactly the
    flagged joints masked — or nothing masked when no joint clears its
    threshold — and assembles the corrected trial from each window's last
    frame, with the opening frames taken from the first window.
    """
    angle_seq = np.asarray(angle_seq, dtype=float)
    windows = make_windows(angle_seq, stride=1)
    badness = compute_badness(params, cfg, windows[::detect_stride], topo, rom,
                              batch_size=batch_size)
    flagged = select_flagged(badness, floor, k)

    mask = np.zeros((N_JOINTS, WINDOW_LEN), dtype=bool)
    for name, _score in flagged:
        mask[JID[name], :] = True

    n_w = len(windows)
    last = np.zeros((n_w, N_JOINTS, 3))
    head = None
    big_batch = batch_size * N_TILES  # same memory budget as the tiled pass
    for lo in range(0, n_w, big_batch):
        chunk = windows[lo : lo + big_batch]
        angles = _decoded_reconstruction(params, cfg, chunk.features, chunk.velocities, mask)
        last[lo : lo + len(chunk)] = angles[:, :, -1, :]
        if lo == 0:
            head = np.transpose(angles[0], (1, 0, 2))  # (7, 12, 3)

    corrected = np.concatenate([head[: WINDOW_LEN - 1], last], axis=0)
    return CorrectionResult(flagged=flagged, corrected=corrected,
                            original=angle_seq, badness=badness)


# =============================================================================
# Persistence
# =============================================================================


def save_noise_floor(path, floor: NoiseFloor) -> None:
    doc = {
        "statistic": floor.statistic,
        "n_trials": floor.n_trials,
        "joints": list(floor.joints),
        "thresholds": {j: float(t) for j, t in zip(floor.joints, floor.taus)},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_noise_floor(path) -> NoiseFloor:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"unreadable noise-floor file: {exc}") from exc
    try:
        joints = tuple(doc.get("joints", doc["thresholds"]))
        taus = np.array([doc["thresholds"][j] for j in joints], dtype=float)
        return NoiseFloor(joints=joints, taus=taus, n_trials=int(doc["n_trials"]),
                          statistic=str(doc.get("statistic", "median+3mad")))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed noise-floor file: {exc}") from exc


def write_badness_report(path, badness: BadnessSeries, floor: NoiseFloor, flagged=()) -> None:
    """Per-joint screening report: series, peak, threshold, flag status."""
    flagged_names = {f[0] if isinstance(f, (tuple, list)) else f for f in flagged}
    doc = {}
    for i, joint in enumerate(badness.joints):
        doc[joint] = {
            "series": [float(x) for x in badness.series[i]],
            "summary": float(badness.summary[i]),
            "threshold": floor.tau(joint),
            "flagged": joint in flagged_names,
        }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
