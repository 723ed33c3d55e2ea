"""Angle tokenization: pose sequences -> (joint, frame) token grids.

Each token describes one joint at one frame with 12 features:

    [sin px, cos px, sin py, cos py, sin pz, cos pz, r1 (3), r2 (3)]

where r1, r2 are the first two columns of the joint's rotation matrix (the
6D rotation representation, recovered by Gram-Schmidt on decode). Motion is
carried separately as per-axis wrapped angular velocity (rad/frame), zero at
the window start.

``make_windows`` cuts a whole trial into one ``TokenWindows``: features
(W, 12, 7, 12), velocities (W, 12, 7, 3) and window starts (W,), window
axis first, then joint, then frame. Every consumer slices these arrays;
there is no per-window object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .rotations import euler_to_matrix, matrix_to_euler, wrap_angle
from .skeleton import N_JOINTS

FEAT_DIM = 12
VEL_DIM = 3
WINDOW_LEN = 7
SINCOS_SLICE = slice(0, 6)


@dataclass
class TokenWindows:
    """Model inputs cut from one trial: W windows of (12, 7) token grids.

    ``features`` is (W, 12, 7, 12) and ``velocities`` (W, 12, 7, 3), joint
    axis before frame axis; ``starts`` (W,) holds the trial frame of each
    window's first frame. Indexing and slicing act on all three arrays at
    once, so ``windows[::3]`` keeps every third window and ``windows[w]`` is
    one window, (12, 7, 12) / (12, 7, 3) with a scalar start.
    """

    features: np.ndarray
    velocities: np.ndarray
    starts: np.ndarray

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, index) -> "TokenWindows":
        return TokenWindows(self.features[index], self.velocities[index], self.starts[index])


def encode_features(angles: np.ndarray) -> np.ndarray:
    """Angles (..., 3) -> token features (..., 12)."""
    angles = np.asarray(angles, dtype=float)
    sc = np.empty(angles.shape[:-1] + (6,))
    sc[..., 0::2] = np.sin(angles)
    sc[..., 1::2] = np.cos(angles)
    rot = euler_to_matrix(angles)
    r1 = rot[..., :, 0]
    r2 = rot[..., :, 1]
    return np.concatenate([sc, r1, r2], axis=-1)


def decode_features(features: np.ndarray, tol: float = 1e-6):
    """Features (..., 12) -> (angles (..., 3), fallback mask (...)).

    The 6D branch Gram-Schmidts (r1, r2) back to a rotation matrix; tokens
    whose r1/r2 are too short or too parallel for that fall back to
    per-axis atan2(sin, cos) and are flagged in the returned mask.
    """
    f = np.asarray(features, dtype=float)
    if f.shape[-1] != FEAT_DIM:
        raise DataError(f"token features must have {FEAT_DIM} channels, got {f.shape[-1]}")
    r1 = f[..., 6:9]
    r2 = f[..., 9:12]
    n1 = np.linalg.norm(r1, axis=-1)
    bad = n1 < tol
    safe_n1 = np.where(bad, 1.0, n1)
    b1 = r1 / safe_n1[..., None]
    r2p = r2 - np.sum(r2 * b1, axis=-1, keepdims=True) * b1
    n2 = np.linalg.norm(r2p, axis=-1)
    bad = bad | (n2 < tol)
    safe_n2 = np.where(n2 < tol, 1.0, n2)
    b2 = r2p / safe_n2[..., None]
    b3 = np.cross(b1, b2)
    rot = np.stack([b1, b2, b3], axis=-1)
    angles = matrix_to_euler(rot)

    if np.any(bad):
        sc = f[..., SINCOS_SLICE]
        fallback = np.stack(
            [np.arctan2(sc[..., 0], sc[..., 1]),
             np.arctan2(sc[..., 2], sc[..., 3]),
             np.arctan2(sc[..., 4], sc[..., 5])],
            axis=-1,
        )
        angles = np.where(bad[..., None], fallback, angles)
    return angles, bad


def window_velocities(window_angles: np.ndarray) -> np.ndarray:
    """Wrapped backward differences along the frame axis (..., T, 3); zero
    at each window's frame 0."""
    v = np.zeros_like(window_angles)
    v[..., 1:, :] = wrap_angle(window_angles[..., 1:, :] - window_angles[..., :-1, :])
    return v


def make_windows(angle_seq: np.ndarray, stride: int = 1) -> TokenWindows:
    """Slice a (N, 12, 3) angle sequence into 7-frame token windows.

    Windows overlap with the given stride (default 1). Velocities are
    computed within each window, so frame 0 of every window has zero
    velocity regardless of trial context.
    """
    angle_seq = np.asarray(angle_seq, dtype=float)
    if angle_seq.shape[1:] != (N_JOINTS, 3) or len(angle_seq) < WINDOW_LEN:
        raise DataError(f"need (N >= {WINDOW_LEN}, 12, 3) angles to window, got {angle_seq.shape}")
    starts = np.arange(0, len(angle_seq) - WINDOW_LEN + 1, stride)
    frames = starts[:, None] + np.arange(WINDOW_LEN)      # (W, 7)
    # (W, 7, 12, c) -> (W, 12, 7, c): joint axis before frame axis
    angles = np.ascontiguousarray(angle_seq[frames].transpose(0, 2, 1, 3))
    feats = np.ascontiguousarray(encode_features(angle_seq)[frames].transpose(0, 2, 1, 3))
    return TokenWindows(features=feats, velocities=window_velocities(angles), starts=starts)
