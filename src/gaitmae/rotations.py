"""Rotation and angle utilities shared across the package.

Conventions used everywhere:
    - Euler angles are intrinsic XYZ: R = Rx(px) @ Ry(py) @ Rz(pz),
      each rotation about the *body* axis produced by the previous one.
    - Angles live in radians, wrapped to [-pi, pi).
    - Rotation matrices act on column vectors, world = R @ local.

All functions broadcast over leading axes, so ``euler_to_matrix`` accepts
``(..., 3)`` and returns ``(..., 3, 3)``.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi

# |py| closer than this to pi/2 counts as gimbal proximity.
GIMBAL_TOL = 1e-3


def wrap_angle(x):
    """Wrap angle(s) to [-pi, pi). Exact multiples of pi map to -pi."""
    return np.mod(np.asarray(x) + np.pi, TWO_PI) - np.pi


def euler_to_matrix(angles: np.ndarray) -> np.ndarray:
    """Intrinsic XYZ Euler angles (..., 3) -> rotation matrices (..., 3, 3)."""
    angles = np.asarray(angles, dtype=float)
    ax, ay, az = angles[..., 0], angles[..., 1], angles[..., 2]
    cx, sx = np.cos(ax), np.sin(ax)
    cy, sy = np.cos(ay), np.sin(ay)
    cz, sz = np.cos(az), np.sin(az)

    # R = Rx @ Ry @ Rz, written out to stay cheap under broadcasting.
    r = np.empty(angles.shape[:-1] + (3, 3), dtype=float)
    r[..., 0, 0] = cy * cz
    r[..., 0, 1] = -cy * sz
    r[..., 0, 2] = sy
    r[..., 1, 0] = cx * sz + sx * sy * cz
    r[..., 1, 1] = cx * cz - sx * sy * sz
    r[..., 1, 2] = -sx * cy
    r[..., 2, 0] = sx * sz - cx * sy * cz
    r[..., 2, 1] = sx * cz + cx * sy * sz
    r[..., 2, 2] = cx * cy
    return r


def matrix_to_euler(r: np.ndarray) -> np.ndarray:
    """Rotation matrices (..., 3, 3) -> intrinsic XYZ Euler angles (..., 3).

    At gimbal lock (|py| = pi/2) the x/z split is degenerate; pz is set to 0
    and the remaining rotation is absorbed into px.
    """
    r = np.asarray(r, dtype=float)
    py = np.arcsin(np.clip(r[..., 0, 2], -1.0, 1.0))
    # Regular branch.
    px = np.arctan2(-r[..., 1, 2], r[..., 2, 2])
    pz = np.arctan2(-r[..., 0, 1], r[..., 0, 0])
    # Gimbal branch: cos(py) ~ 0.
    locked = np.abs(np.abs(r[..., 0, 2]) - 1.0) < 1e-12
    if np.any(locked):
        px_lock = np.arctan2(r[..., 1, 0], r[..., 1, 1])
        sign = np.sign(r[..., 0, 2])
        px = np.where(locked, sign * px_lock, px)
        pz = np.where(locked, 0.0, pz)
    return np.stack([px, py, pz], axis=-1)


def is_gimbal(angles: np.ndarray, tol: float = GIMBAL_TOL) -> np.ndarray:
    """Boolean mask of poses whose |py| is within ``tol`` of pi/2."""
    angles = np.asarray(angles)
    return np.abs(np.abs(angles[..., 1]) - np.pi / 2.0) < tol


def normalize(v: np.ndarray, axis: int = -1, eps: float = 1e-12):
    """Unit vectors along ``axis``; raises on (near-)zero input."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v, axis=axis, keepdims=True)
    if np.any(n < eps):
        raise ValueError("cannot normalize near-zero vector")
    return v / n


def orthonormal_pair(primary: np.ndarray, secondary: np.ndarray) -> np.ndarray:
    """Right-handed frames (..., 3, 3) from primary directions and secondary hints.

    Column 0 is the unit primary, column 1 the secondary Gram-Schmidted
    against it, column 2 their cross product. ``primary`` and ``secondary``
    are (..., 3) and broadcast against each other. Raises if any pair is
    (near-)collinear.
    """
    e0 = normalize(primary)
    s = np.asarray(secondary, dtype=float)
    s = s - np.sum(s * e0, axis=-1, keepdims=True) * e0
    e1 = normalize(s)
    e2 = np.cross(e0, e1)
    return np.stack(np.broadcast_arrays(e0, e1, e2), axis=-1)


def rotation_from_pairs(u_primary, u_secondary, v_primary, v_secondary) -> np.ndarray:
    """Rotations R with R @ u_primary ~ v_primary and R @ u_secondary ~ v_secondary.

    Both pairs are orthonormalized the same way first, so the map is exact on
    the primary direction and exact on the secondary one whenever the input
    pairs have the same mutual angle (rigid data). All four arguments are
    (..., 3) and broadcast; the result is (..., 3, 3).
    """
    fu = orthonormal_pair(u_primary, u_secondary)
    fv = orthonormal_pair(v_primary, v_secondary)
    return fv @ np.swapaxes(fu, -1, -2)
