"""Reduced skeleton model: topology, interpolation, constraints, angles, FK.

World axes follow the capture convention: x forward (walking direction),
y right-to-left, z up. All positions are meters, all angles radians.

The marker set has 19 landmarks; the kinematic model keeps 12 of them as
joints (neck, shoulders, elbows, pelvis, hips, knees, ankles) arranged in a
tree rooted at the pelvis. The remaining landmarks (nose, wrists, heels,
toes) are rigid decorations of their parent joint and are used when present
to make otherwise-unobservable joint rotations (elbows, ankles) observable.

Frame convention (one table, used by both angle extraction and FK):

    joint       parent      primary observable        secondary hint
    ----------  ----------  ------------------------  ----------------------
    pelvis      (world)     trunk dir (pelvis->neck)  hip axis (r_hip->l_hip)
    neck        pelvis      shoulder axis (r->l)      parent frame z
    l/r_shoulder neck       upper-arm dir (->elbow)   parent frame y
    l/r_elbow   shoulder    forearm dir (->wrist)*    parent frame y
    l/r_hip     pelvis      thigh dir (->knee)        parent frame y
    l/r_knee    hip         shank dir (->ankle)       parent frame y
    l/r_ankle   knee        foot dir (->toe)*         heel dir (->heel)*

    * decoration landmarks; identity rotation when absent.

A joint's rotation is the deviation of its frame from the parent frame,
decomposed as intrinsic XYZ Euler angles; in the canonical rest pose every
frame is world-aligned, so all angles are zero there and rotation about y is
sagittal-plane motion (flexion/extension), about x frontal-plane motion
(abduction/adduction, pelvic roll), about z axial rotation.

Angle extraction is batched over frames: ``extract_angle_sequence`` builds
each row of the table for all N frames at once as (N, 3, 3) arrays, with the
decoration fallbacks as per-frame masks, and ``extract_angles`` is its
one-frame case. It takes (N, 19, 3) landmark stacks or (N, 12, 3) joint
stacks (``forward_kinematics`` output), whose missing decorations take the
fallbacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DataError, DegenerateFrameError, UnrecoverableLandmarkError
from .rotations import (
    euler_to_matrix,
    is_gimbal,
    matrix_to_euler,
    rotation_from_pairs,
)

# =============================================================================
# Landmark / joint registries
# =============================================================================

LANDMARKS = [
    "nose",
    "neck",
    "l_shoulder",
    "r_shoulder",
    "l_elbow",
    "r_elbow",
    "l_wrist",
    "r_wrist",
    "pelvis",
    "l_hip",
    "r_hip",
    "l_knee",
    "r_knee",
    "l_ankle",
    "r_ankle",
    "l_heel",
    "r_heel",
    "l_toe",
    "r_toe",
]
LM = {name: i for i, name in enumerate(LANDMARKS)}
N_LANDMARKS = len(LANDMARKS)

JOINTS = [
    "neck",
    "l_shoulder",
    "r_shoulder",
    "l_elbow",
    "r_elbow",
    "pelvis",
    "l_hip",
    "r_hip",
    "l_knee",
    "r_knee",
    "l_ankle",
    "r_ankle",
]
JID = {name: i for i, name in enumerate(JOINTS)}
N_JOINTS = len(JOINTS)

# Landmark tree (child -> parent), rooted at the pelvis.
LANDMARK_PARENT = {
    "neck": "pelvis",
    "nose": "neck",
    "l_shoulder": "neck",
    "r_shoulder": "neck",
    "l_elbow": "l_shoulder",
    "r_elbow": "r_shoulder",
    "l_wrist": "l_elbow",
    "r_wrist": "r_elbow",
    "l_hip": "pelvis",
    "r_hip": "pelvis",
    "l_knee": "l_hip",
    "r_knee": "r_hip",
    "l_ankle": "l_knee",
    "r_ankle": "r_knee",
    "l_heel": "l_ankle",
    "r_heel": "r_ankle",
    "l_toe": "l_ankle",
    "r_toe": "r_ankle",
}

# Joint tree (restriction of the landmark tree to joints).
JOINT_PARENT = {
    "pelvis": None,
    "neck": "pelvis",
    "l_shoulder": "neck",
    "r_shoulder": "neck",
    "l_elbow": "l_shoulder",
    "r_elbow": "r_shoulder",
    "l_hip": "pelvis",
    "r_hip": "pelvis",
    "l_knee": "l_hip",
    "r_knee": "r_hip",
    "l_ankle": "l_knee",
    "r_ankle": "r_knee",
}

# Canonical rest offsets (child relative to parent, meters, ~1.75 m adult).
# Shoulders are purely lateral from the neck and chain bones purely axial;
# this keeps every offset inside the span the frame construction observes,
# which is what makes FK(extract_angles(frame)) exact on rigid data.
REST_OFFSET = {
    "neck": (0.0, 0.0, 0.50),
    "nose": (0.08, 0.0, 0.12),
    "l_shoulder": (0.0, 0.19, 0.0),
    "r_shoulder": (0.0, -0.19, 0.0),
    "l_elbow": (0.0, 0.0, -0.29),
    "r_elbow": (0.0, 0.0, -0.29),
    "l_wrist": (0.0, 0.0, -0.26),
    "r_wrist": (0.0, 0.0, -0.26),
    "l_hip": (0.0, 0.09, -0.05),
    "r_hip": (0.0, -0.09, -0.05),
    "l_knee": (0.0, 0.0, -0.40),
    "r_knee": (0.0, 0.0, -0.40),
    "l_ankle": (0.0, 0.0, -0.40),
    "r_ankle": (0.0, 0.0, -0.40),
    "l_heel": (-0.05, 0.0, -0.07),
    "r_heel": (-0.05, 0.0, -0.07),
    "l_toe": (0.15, 0.0, -0.07),
    "r_toe": (0.15, 0.0, -0.07),
}

REST_LENGTH = {c: float(np.linalg.norm(REST_OFFSET[c])) for c in LANDMARK_PARENT}
REST_UNIT = {c: np.asarray(REST_OFFSET[c]) / REST_LENGTH[c] for c in LANDMARK_PARENT}

# Pelvis height above the floor in the rest pose (heel z = -0.92).
REST_PELVIS_HEIGHT = 0.92

# Per-joint secondary reference axis (rest coordinates) for frame building.
_AUX_AXIS = {
    "neck": np.array([0.0, 0.0, 1.0]),
    "l_shoulder": np.array([0.0, 1.0, 0.0]),
    "r_shoulder": np.array([0.0, 1.0, 0.0]),
    "l_elbow": np.array([0.0, 1.0, 0.0]),
    "r_elbow": np.array([0.0, 1.0, 0.0]),
    "l_hip": np.array([0.0, 1.0, 0.0]),
    "r_hip": np.array([0.0, 1.0, 0.0]),
    "l_knee": np.array([0.0, 1.0, 0.0]),
    "r_knee": np.array([0.0, 1.0, 0.0]),
}

# Primary observable: joint -> (frame primary rest axis, landmark giving it).
_PRIMARY_CHILD = {
    "l_shoulder": "l_elbow",
    "r_shoulder": "r_elbow",
    "l_elbow": "l_wrist",
    "r_elbow": "r_wrist",
    "l_hip": "l_knee",
    "r_hip": "r_knee",
    "l_knee": "l_ankle",
    "r_knee": "r_ankle",
}

MIN_LENGTH_OBSERVATIONS = 10


# =============================================================================
# Core types
# =============================================================================


@dataclass
class Trial:
    """One recorded trial: (N, 19, 3) positions with NaN marking missing."""

    subject_id: str
    condition: str
    fps: float
    times: np.ndarray          # (N,) seconds
    positions: np.ndarray      # (N, 19, 3) meters, NaN = missing
    source: Optional[object] = None  # synthetic generation record, if any

    @property
    def n_frames(self) -> int:
        return int(self.positions.shape[0])

    def copy(self) -> "Trial":
        return Trial(
            self.subject_id,
            self.condition,
            self.fps,
            self.times.copy(),
            self.positions.copy(),
            self.source,
        )


@dataclass
class SkeletonTopology:
    """Joint tree plus per-subject segment lengths for every landmark bone."""

    parent: dict = field(default_factory=lambda: dict(JOINT_PARENT))
    lengths: dict = field(default_factory=lambda: dict(REST_LENGTH))

    def offset(self, child: str) -> np.ndarray:
        """Rest offset of ``child`` relative to its parent, subject-scaled."""
        return REST_UNIT[child] * self.lengths[child]


@dataclass
class Pose:
    """Per-joint intrinsic XYZ Euler angles for one frame."""

    angles: np.ndarray               # (12, 3) radians
    gimbal: np.ndarray = None        # (12,) bool, |py| within 1e-3 of pi/2

    def __post_init__(self):
        self.angles = np.asarray(self.angles, dtype=float)
        if self.angles.shape != (N_JOINTS, 3):
            raise DataError(f"pose angles must be (12, 3), got {self.angles.shape}")
        if self.gimbal is None:
            self.gimbal = is_gimbal(self.angles)


# =============================================================================
# Segment length estimation
# =============================================================================


def estimate_segment_lengths(trial: Trial) -> SkeletonTopology:
    """Median per-bone landmark distance over frames where both ends exist.

    Raises DataError naming the bone when a segment has fewer than
    ``MIN_LENGTH_OBSERVATIONS`` usable frames.
    """
    pos = trial.positions
    lengths = {}
    for child, parent in LANDMARK_PARENT.items():
        a = pos[:, LM[parent]]
        b = pos[:, LM[child]]
        ok = np.isfinite(a).all(axis=1) & np.isfinite(b).all(axis=1)
        if ok.sum() < MIN_LENGTH_OBSERVATIONS:
            raise DataError(
                f"segment {parent}->{child}: only {int(ok.sum())} usable frames "
                f"(need {MIN_LENGTH_OBSERVATIONS})"
            )
        lengths[child] = float(np.median(np.linalg.norm(b[ok] - a[ok], axis=1)))
    return SkeletonTopology(lengths=lengths)


# =============================================================================
# Constraint projections
# =============================================================================


def project_bone_length(point: np.ndarray, parent: np.ndarray, length: float) -> np.ndarray:
    """Project ``point`` onto the sphere of ``length`` around ``parent``."""
    point = np.asarray(point, dtype=float)
    parent = np.asarray(parent, dtype=float)
    d = point - parent
    n = np.linalg.norm(d)
    if n < 1e-12:
        raise DegenerateFrameError("bone-length projection: point coincides with parent")
    return parent + d * (length / n)


def project_two_sphere(
    point: np.ndarray,
    center_a: np.ndarray,
    radius_a: float,
    center_b: np.ndarray,
    radius_b: float,
) -> np.ndarray:
    """Nearest point on the intersection circle of two spheres.

    When the spheres do not intersect (separated or nested), the circle
    collapses to the equal-violation point on the center axis,
    c = A + u * (d^2 + rA^2 - rB^2) / (2 d), which is the limit of the
    circle center as the configuration leaves feasibility.
    """
    p = np.asarray(point, dtype=float)
    a = np.asarray(center_a, dtype=float)
    b = np.asarray(center_b, dtype=float)
    ab = b - a
    d = np.linalg.norm(ab)
    if d < 1e-9:
        raise DegenerateFrameError(
            "two-sphere projection: concentric centers cannot define a joint"
        )
    u = ab / d
    along = (d * d + radius_a * radius_a - radius_b * radius_b) / (2.0 * d)
    center = a + along * u
    rho_sq = radius_a * radius_a - along * along
    if rho_sq <= 0.0:
        return center
    rho = np.sqrt(rho_sq)
    w = (p - center) - np.dot(p - center, u) * u
    wn = np.linalg.norm(w)
    if wn < 1e-12:
        # Point on the center axis: any circle point is nearest; pick a
        # deterministic direction orthogonal to u.
        ref = np.array([1.0, 0.0, 0.0])
        if abs(np.dot(ref, u)) > 0.9:
            ref = np.array([0.0, 1.0, 0.0])
        w = ref - np.dot(ref, u) * u
        wn = np.linalg.norm(w)
    return center + w * (rho / wn)


def estimate_floor(trial: Trial) -> float:
    """Floor height = 1st percentile of observed heel z."""
    z = trial.positions[:, [LM["l_heel"], LM["r_heel"]], 2].ravel()
    z = z[np.isfinite(z)]
    if z.size == 0:
        raise DataError("ground clamp: no heel observations to estimate floor")
    return float(np.percentile(z, 1.0))


# =============================================================================
# Missing-sample interpolation
# =============================================================================

# Joints repaired with a two-sphere projection (both incident bones), given
# (proximal landmark, distal landmark).
_TWO_SPHERE = {
    "l_knee": ("l_hip", "l_ankle"),
    "r_knee": ("r_hip", "r_ankle"),
    "l_elbow": ("l_shoulder", "l_wrist"),
    "r_elbow": ("r_shoulder", "r_wrist"),
}

# Tree-topological order for cascading projections parent-first.
_FILL_ORDER = [
    "neck", "nose", "l_shoulder", "r_shoulder", "l_elbow", "r_elbow",
    "l_wrist", "r_wrist", "l_hip", "r_hip", "l_knee", "r_knee",
    "l_ankle", "r_ankle", "l_heel", "r_heel", "l_toe", "r_toe",
]


def _fill_series(x: np.ndarray) -> np.ndarray:
    """Constant-velocity fill of NaN runs in an (N, 3) series.

    Interior gaps use the chord velocity between the bracketing
    observations, leading/trailing gaps continue the velocity of the
    nearest observed pair.
    """
    n = x.shape[0]
    ok = np.isfinite(x).all(axis=1)
    idx = np.flatnonzero(ok)
    out = x.copy()
    t = np.arange(n, dtype=float)
    for k in range(3):
        out[:, k] = np.interp(t, idx.astype(float), x[idx, k])
    # np.interp holds endpoints constant; continue edge velocities instead.
    if idx[0] > 0:
        if len(idx) >= 2:
            v = (x[idx[1]] - x[idx[0]]) / (idx[1] - idx[0])
        else:
            v = np.zeros(3)
        steps = (t[: idx[0]] - idx[0])[:, None]
        out[: idx[0]] = x[idx[0]] + steps * v
    if idx[-1] < n - 1:
        if len(idx) >= 2:
            v = (x[idx[-1]] - x[idx[-2]]) / (idx[-1] - idx[-2])
        else:
            v = np.zeros(3)
        steps = (t[idx[-1] + 1 :] - idx[-1])[:, None]
        out[idx[-1] + 1 :] = x[idx[-1]] + steps * v
    return out


def interpolate_missing(trial: Trial, topo: Optional[SkeletonTopology] = None) -> Trial:
    """Fill missing landmark samples; observed samples are never altered.

    Filled samples are pulled back toward the skeleton's rigid geometry:
    plain bone-length projection for single-bone landmarks, two-sphere
    projection for knees/elbows, floor clamp for filled foot samples.
    """
    if topo is None:
        topo = estimate_segment_lengths(trial)
    pos = trial.positions
    filled_mask = ~np.isfinite(pos).all(axis=2)  # (N, 19) True where filled

    out = trial.copy()
    for name in LANDMARKS:
        col = LM[name]
        if not filled_mask[:, col].any():
            continue
        if not (~filled_mask[:, col]).any():
            raise UnrecoverableLandmarkError(name)
        out.positions[:, col] = _fill_series(pos[:, col])

    try:
        floor = estimate_floor(trial)
    except DataError:
        floor = None

    # Constraint projections on filled samples only, parents first.
    for name in _FILL_ORDER:
        col = LM[name]
        rows = np.flatnonzero(filled_mask[:, col])
        if rows.size == 0:
            continue
        parent = LANDMARK_PARENT[name]
        pcol = LM[parent]
        for r in rows:
            if name in _TWO_SPHERE:
                prox, dist = _TWO_SPHERE[name]
                distal = out.positions[r, LM[dist]]
                if np.isfinite(distal).all():
                    out.positions[r, col] = project_two_sphere(
                        out.positions[r, col],
                        out.positions[r, LM[prox]],
                        topo.lengths[name],
                        distal,
                        topo.lengths[dist],
                    )
                    continue
            out.positions[r, col] = project_bone_length(
                out.positions[r, col], out.positions[r, pcol], topo.lengths[name]
            )
        if floor is not None and name in ("l_heel", "r_heel", "l_toe", "r_toe"):
            z = out.positions[rows, col, 2]
            out.positions[rows, col, 2] = np.where(z < floor, floor, z)
    return out


# =============================================================================
# Pelvis normalization
# =============================================================================


def pelvis_normalize(positions: np.ndarray) -> np.ndarray:
    """Translate/yaw frames so the pelvis sits at the origin and the
    horizontal projection of the hip axis (r_hip -> l_hip) is +y.

    Accepts one frame (19, 3) or a stack (N, 19, 3). Global z is preserved;
    x = y cross z completes the right-handed frame.
    """
    single = positions.ndim == 2
    pos = positions[None] if single else positions
    pelvis = pos[:, LM["pelvis"]]
    h = pos[:, LM["l_hip"]] - pos[:, LM["r_hip"]]
    hxy = h[:, :2]
    norms = np.linalg.norm(hxy, axis=1)
    if np.any(~np.isfinite(norms)) or np.any(norms < 1e-9):
        raise DegenerateFrameError(
            "pelvis normalization: hip axis has no horizontal component"
        )
    yx = hxy[:, 0] / norms
    yy = hxy[:, 1] / norms
    # Rows of the rotation: new x = y cross z = (yy, -yx, 0), new y, new z.
    rot = np.zeros((pos.shape[0], 3, 3))
    rot[:, 0, 0] = yy
    rot[:, 0, 1] = -yx
    rot[:, 1, 0] = yx
    rot[:, 1, 1] = yy
    rot[:, 2, 2] = 1.0
    centered = pos - pelvis[:, None, :]
    out = np.einsum("nij,nlj->nli", rot, centered)
    return out[0] if single else out


# =============================================================================
# Angle extraction and forward kinematics
# =============================================================================


_JOINT_ROWS = [LM[j] for j in JOINTS]
# Parent joint index per joint; the pelvis (root) is its own placeholder and
# gets the world frame instead.
_PARENT_INDEX = [JID[JOINT_PARENT[j] or j] for j in JOINTS]


def _directions(pos: np.ndarray, a: str, b: str):
    """Unit directions a -> b over frames, (N, 3), and the (N,) mask of frames
    where both endpoints exist and are at least 1 nm apart (NaN rows elsewhere)."""
    v = pos[:, LM[b]] - pos[:, LM[a]]
    n = np.linalg.norm(v, axis=-1)
    ok = np.isfinite(v).all(axis=-1) & (n >= 1e-9)
    unit = np.full_like(v, np.nan)
    unit[ok] = v[ok] / n[ok, None]
    return unit, ok


def _check_frames(pos: np.ndarray, required) -> None:
    """Raise for the first frame that lacks a joint landmark or one of the
    ``required`` (ok mask, message) directions, in the order a per-frame
    pass would meet them."""
    missing = ~np.isfinite(pos[:, _JOINT_ROWS]).all(axis=-1)        # (N, 12)
    bad_dir = ~np.stack([ok for ok, _ in required], axis=-1)         # (N, C)
    bad = missing.any(axis=-1) | bad_dir.any(axis=-1)
    if not bad.any():
        return
    k = int(np.argmax(bad))
    if missing[k].any():
        names = [JOINTS[j] for j in np.flatnonzero(missing[k])]
        raise DataError(f"frame {k}: joint landmarks missing: {names}")
    message = required[int(np.argmax(bad_dir[k]))][1]
    raise DegenerateFrameError(f"frame {k}: {message}")


def _rotations(u_primary, u_secondary, v_primary, v_secondary, rows, joint: str):
    """``rotation_from_pairs`` over the trial frames ``rows``; raises
    DegenerateFrameError naming the first frame whose observed primary
    direction is parallel to its secondary hint."""
    try:
        return rotation_from_pairs(u_primary, u_secondary, v_primary, v_secondary)
    except ValueError:
        # the Gram-Schmidt step of rotations.orthonormal_pair, row by row
        e0 = v_primary / np.linalg.norm(v_primary, axis=-1, keepdims=True)
        s = v_secondary - np.sum(v_secondary * e0, axis=-1, keepdims=True) * e0
        k = rows[int(np.argmax(np.linalg.norm(s, axis=-1) < 1e-12))]
        raise DegenerateFrameError(
            f"frame {k}: {joint} frame: primary direction parallel to its hint"
        ) from None


def _frames_from_positions(pos: np.ndarray) -> np.ndarray:
    """World frame of every joint in every frame, (N, 12, 3, 3), built from
    observables per the table; all frames at once."""
    trunk, trunk_ok = _directions(pos, "pelvis", "neck")
    hip_axis, hip_ok = _directions(pos, "r_hip", "l_hip")
    sh_axis, sh_ok = _directions(pos, "r_shoulder", "l_shoulder")
    primary = {j: _directions(pos, j, c) for j, c in _PRIMARY_CHILD.items()}
    required = [
        (trunk_ok & hip_ok, "pelvis frame needs trunk and hip-axis directions"),
        (sh_ok, "neck frame needs the shoulder axis"),
    ] + [
        (ok, f"{j} frame needs the {_PRIMARY_CHILD[j]} direction")
        for j, (_, ok) in primary.items()
        if j not in ("l_elbow", "r_elbow")
    ]
    _check_frames(pos, required)

    z = np.array([0.0, 0.0, 1.0])
    y = np.array([0.0, 1.0, 0.0])
    frames = np.empty((pos.shape[0], N_JOINTS, 3, 3))
    pelvis = frames[:, JID["pelvis"]]
    every = np.arange(pos.shape[0])
    pelvis[:] = _rotations(z, y, trunk, hip_axis, every, "pelvis")
    frames[:, JID["neck"]] = _rotations(y, z, sh_axis, pelvis @ z, every, "neck")

    # Elbows without a wrist keep their parent's frame (identity rotation).
    for joint, (d, ok) in primary.items():
        parent = frames[:, JID[JOINT_PARENT[joint]]]
        out = frames[:, JID[joint]]
        out[:] = parent
        aux = _AUX_AXIS[joint]
        out[ok] = _rotations(
            REST_UNIT[_PRIMARY_CHILD[joint]], aux, d[ok], parent[ok] @ aux,
            np.flatnonzero(ok), joint,
        )

    # Ankles without both toe and heel keep the knee's frame.
    for side in ("l", "r"):
        d_toe, toe_ok = _directions(pos, f"{side}_ankle", f"{side}_toe")
        d_heel, heel_ok = _directions(pos, f"{side}_ankle", f"{side}_heel")
        ok = toe_ok & heel_ok
        out = frames[:, JID[f"{side}_ankle"]]
        out[:] = frames[:, JID[f"{side}_knee"]]
        out[ok] = _rotations(
            REST_UNIT[f"{side}_toe"], REST_UNIT[f"{side}_heel"], d_toe[ok], d_heel[ok],
            np.flatnonzero(ok), f"{side}_ankle",
        )
    return frames


def extract_angle_sequence(positions: np.ndarray, topo=None):
    """Joint angles of a stack of pelvis-normalized frames, all frames at once.

    ``positions`` is (N, 19, 3) landmarks (NaN = missing) or (N, 12, 3) joint
    positions in ``JOINTS`` order, such as ``forward_kinematics`` output; a
    joint stack has no decoration landmarks, so its elbows and ankles keep
    their parent frames. Returns ((N, 12, 3) angles, (N, 12) gimbal flags).

    All 12 joint landmarks must be present in every frame (DataError naming
    the first frame's missing joints otherwise). Decoration landmarks are
    used where available (forearms, feet); in frames without them the
    corresponding joint keeps an identity rotation rather than failing.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim == 3 and pos.shape[1:] == (N_JOINTS, 3):
        joints = pos
        pos = np.full((joints.shape[0], N_LANDMARKS, 3), np.nan)
        pos[:, _JOINT_ROWS] = joints
    elif pos.ndim != 3 or pos.shape[1:] != (N_LANDMARKS, 3):
        raise DataError(
            f"positions must be (N, {N_LANDMARKS}, 3) or (N, {N_JOINTS}, 3), "
            f"got {pos.shape}"
        )
    frames = _frames_from_positions(pos)
    parents = frames[:, _PARENT_INDEX]
    parents[:, JID["pelvis"]] = np.eye(3)
    angles = matrix_to_euler(np.swapaxes(parents, -1, -2) @ frames)
    return angles, is_gimbal(angles)


def extract_angles(frame: np.ndarray, topo: Optional[SkeletonTopology] = None) -> Pose:
    """Joint angles of one pelvis-normalized frame, (19, 3) or (12, 3).

    The one-frame case of ``extract_angle_sequence``, with the same rules
    for missing joint and decoration landmarks.
    """
    frame = np.asarray(frame, dtype=float)
    if frame.ndim != 2:
        raise DataError(
            f"frame must be ({N_LANDMARKS}, 3) or ({N_JOINTS}, 3), got {frame.shape}"
        )
    angles, gimbal = extract_angle_sequence(frame[None], topo)
    return Pose(angles=angles[0], gimbal=gimbal[0])


def joint_world_frames(pose_angles: np.ndarray) -> np.ndarray:
    """Compose per-joint world rotations (..., 12, 3, 3) from pose angles.

    Accepts a single pose (12, 3) or any batch (..., 12, 3).
    """
    rel = euler_to_matrix(np.asarray(pose_angles, dtype=float))
    world = np.zeros_like(rel)
    for joint in _FK_ORDER:
        j = JID[joint]
        parent = JOINT_PARENT[joint]
        if parent is None:
            world[..., j, :, :] = rel[..., j, :, :]
        else:
            world[..., j, :, :] = world[..., JID[parent], :, :] @ rel[..., j, :, :]
    return world


_FK_ORDER = [
    "pelvis", "neck", "l_shoulder", "r_shoulder", "l_elbow", "r_elbow",
    "l_hip", "r_hip", "l_knee", "r_knee", "l_ankle", "r_ankle",
]


def forward_kinematics(pose: Pose | np.ndarray, topo: SkeletonTopology) -> np.ndarray:
    """Pose -> positions of the 12 joints (..., 12, 3), pelvis at the origin.

    Bone lengths are exactly ``topo.lengths``; arbitrary (even wildly
    non-physiological) angles always produce a well-defined skeleton.
    Batches of poses (..., 12, 3) are handled in one call.
    """
    angles = pose.angles if isinstance(pose, Pose) else np.asarray(pose, dtype=float)
    world = joint_world_frames(angles)
    out = np.zeros(angles.shape[:-2] + (N_JOINTS, 3))
    for joint in _FK_ORDER:
        parent = JOINT_PARENT[joint]
        if parent is None:
            continue
        p = JID[parent]
        off = topo.offset(joint)
        out[..., JID[joint], :] = out[..., p, :] + world[..., p, :, :] @ off
    return out


def forward_kinematics_landmarks(
    pose: Pose | np.ndarray, topo: SkeletonTopology
) -> np.ndarray:
    """Pose -> all 19 landmark positions (..., 19, 3), pelvis at the origin."""
    angles = pose.angles if isinstance(pose, Pose) else np.asarray(pose, dtype=float)
    world = joint_world_frames(angles)
    out = np.zeros(angles.shape[:-2] + (N_LANDMARKS, 3))
    order = ["neck", "l_shoulder", "r_shoulder", "l_elbow", "r_elbow", "l_hip",
             "r_hip", "l_knee", "r_knee", "l_ankle", "r_ankle",
             "nose", "l_wrist", "r_wrist", "l_heel", "r_heel", "l_toe", "r_toe"]
    for name in order:
        parent = LANDMARK_PARENT[name]
        p = JID[parent]
        out[..., LM[name], :] = out[..., LM[parent], :] + world[..., p, :, :] @ topo.offset(name)
    return out
