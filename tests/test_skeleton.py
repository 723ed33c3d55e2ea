"""Skeleton model: segment lengths, constraint projections, interpolation,
normalization, angle extraction and forward kinematics."""

import numpy as np
import pytest

from gaitmae.errors import DataError, DegenerateFrameError, UnrecoverableLandmarkError
from gaitmae.rotations import matrix_to_euler, rotation_from_pairs
from gaitmae.skeleton import (
    JOINT_PARENT,
    JOINTS,
    JID,
    LANDMARKS,
    LM,
    N_JOINTS,
    N_LANDMARKS,
    REST_LENGTH,
    REST_UNIT,
    SkeletonTopology,
    Trial,
    estimate_floor,
    estimate_segment_lengths,
    extract_angles,
    extract_angle_sequence,
    forward_kinematics,
    forward_kinematics_landmarks,
    interpolate_missing,
    pelvis_normalize,
    project_bone_length,
    project_two_sphere,
)


def _rest_frame():
    return forward_kinematics_landmarks(np.zeros((N_JOINTS, 3)), SkeletonTopology())


def _trial_from_positions(pos, fps=30.0):
    n = pos.shape[0]
    return Trial("S000", "normative", fps, np.arange(n) / fps, pos.copy())


def _walking_like_trial(n=120, seed=0):
    """Rigid FK positions along a small smooth pose orbit, plus translation."""
    rng = np.random.default_rng(seed)
    topo = SkeletonTopology()
    t = np.arange(n) / 30.0
    base = rng.normal(0.0, 0.15, size=(N_JOINTS, 3))
    wob = 0.2 * np.sin(2 * np.pi * 1.0 * t)[:, None, None]
    angles = base[None] * (1.0 + wob)
    pos = forward_kinematics_landmarks(angles, topo)
    pos = pos + np.stack([0.8 * t, np.zeros(n), np.full(n, 0.9)], axis=1)[:, None, :]
    return _trial_from_positions(pos), topo


# -----------------------------------------------------------------------------
# Segment lengths
# -----------------------------------------------------------------------------


def test_segment_lengths_exact_on_rigid_data():
    trial, _ = _walking_like_trial()
    topo = estimate_segment_lengths(trial)
    for child, ref in REST_LENGTH.items():
        assert topo.lengths[child] == pytest.approx(ref, abs=1e-9)


def test_segment_lengths_median_robust_to_outlier():
    trial, _ = _walking_like_trial()
    trial.positions[5, LM["l_wrist"]] += 3.0  # one wild frame
    topo = estimate_segment_lengths(trial)
    assert topo.lengths["l_wrist"] == pytest.approx(REST_LENGTH["l_wrist"], abs=1e-9)


def test_segment_lengths_noisy_within_2mm():
    trial, _ = _walking_like_trial(n=100, seed=1)
    rng = np.random.default_rng(2)
    trial.positions += rng.normal(0.0, 0.005, size=trial.positions.shape)
    topo = estimate_segment_lengths(trial)
    # thigh bone with 5 mm endpoint noise: median estimate within 2 mm
    assert abs(topo.lengths["r_knee"] - REST_LENGTH["r_knee"]) < 0.002


def test_segment_lengths_insufficient_names_bone():
    trial, _ = _walking_like_trial(n=30)
    trial.positions[5:, LM["r_toe"]] = np.nan  # 5 usable frames left
    with pytest.raises(DataError, match="r_toe"):
        estimate_segment_lengths(trial)


# -----------------------------------------------------------------------------
# Constraint projections
# -----------------------------------------------------------------------------


def test_project_bone_length_basic_and_idempotent():
    parent = np.array([1.0, 2.0, 3.0])
    p = project_bone_length(np.array([1.0, 2.0, 5.5]), parent, 0.4)
    assert np.linalg.norm(p - parent) == pytest.approx(0.4, abs=1e-12)
    p2 = project_bone_length(p, parent, 0.4)
    assert np.abs(p2 - p).max() < 1e-12


def test_project_bone_length_degenerate():
    with pytest.raises(DegenerateFrameError):
        project_bone_length(np.ones(3), np.ones(3), 0.4)


def test_project_two_sphere_intersecting():
    a = np.zeros(3)
    b = np.array([1.0, 0.0, 0.0])
    p = project_two_sphere(np.array([0.4, 0.9, 0.2]), a, 0.7, b, 0.7)
    assert np.linalg.norm(p - a) == pytest.approx(0.7, abs=1e-12)
    assert np.linalg.norm(p - b) == pytest.approx(0.7, abs=1e-12)
    again = project_two_sphere(p, a, 0.7, b, 0.7)
    assert np.abs(again - p).max() < 1e-12


def test_project_two_sphere_separated_equal_violation():
    a = np.zeros(3)
    b = np.array([2.0, 0.0, 0.0])
    p = project_two_sphere(np.array([0.3, 0.5, 0.0]), a, 0.5, b, 0.5)
    # spheres cannot touch: collapses onto the center axis, violating both
    # lengths equally
    assert np.allclose(p, [1.0, 0.0, 0.0], atol=1e-12)
    va = abs(np.linalg.norm(p - a) - 0.5)
    vb = abs(np.linalg.norm(p - b) - 0.5)
    assert va == pytest.approx(vb, abs=1e-12)


def test_project_two_sphere_on_axis_is_deterministic():
    a = np.zeros(3)
    b = np.array([1.0, 0.0, 0.0])
    p1 = project_two_sphere(np.array([0.5, 0.0, 0.0]), a, 0.8, b, 0.8)
    p2 = project_two_sphere(np.array([0.5, 0.0, 0.0]), a, 0.8, b, 0.8)
    assert np.array_equal(p1, p2)
    assert np.linalg.norm(p1 - a) == pytest.approx(0.8, abs=1e-12)


def test_project_two_sphere_concentric_raises():
    with pytest.raises(DegenerateFrameError):
        project_two_sphere(np.ones(3), np.zeros(3), 0.5, np.zeros(3), 0.6)


# -----------------------------------------------------------------------------
# Floor and clamp
# -----------------------------------------------------------------------------


def test_interpolate_clamps_filled_foot_samples_to_floor():
    trial, topo = _walking_like_trial()
    heel = LM["l_heel"]
    trial.positions[3, LM["l_ankle"], 2] -= 0.5   # the heel filled around it lands low
    trial.positions[3, heel] = np.nan
    trial.positions[10, heel, 2] -= 0.5           # observed below the floor: kept
    floor = estimate_floor(trial)
    out = interpolate_missing(trial, topo)
    assert out.positions[3, heel, 2] == floor
    assert out.positions[10, heel, 2] == trial.positions[10, heel, 2] < floor
    assert out.positions[3, LM["l_ankle"], 2] == trial.positions[3, LM["l_ankle"], 2]


def test_estimate_floor_no_heels_raises():
    trial, _ = _walking_like_trial(n=30)
    trial.positions[:, [LM["l_heel"], LM["r_heel"]]] = np.nan
    with pytest.raises(DataError):
        estimate_floor(trial)


# -----------------------------------------------------------------------------
# Missing-sample interpolation
# -----------------------------------------------------------------------------


def test_interpolate_never_touches_observed_samples():
    trial, topo = _walking_like_trial(seed=3)
    rng = np.random.default_rng(4)
    gone = rng.random(trial.positions.shape[:2]) < 0.05
    trial.positions[gone] = np.nan
    out = interpolate_missing(trial, topo)
    kept = ~gone
    assert np.array_equal(out.positions[kept], trial.positions[kept])
    assert np.isfinite(out.positions).all()


def test_interpolated_samples_satisfy_bone_lengths():
    trial, topo = _walking_like_trial(seed=5)
    holes = [(10, "l_wrist"), (20, "r_ankle"), (40, "neck"), (41, "neck"), (60, "l_toe")]
    for r, name in holes:
        trial.positions[r, LM[name]] = np.nan
    out = interpolate_missing(trial, topo)
    from gaitmae.skeleton import LANDMARK_PARENT

    for r, name in holes:
        parent = LANDMARK_PARENT[name]
        d = np.linalg.norm(out.positions[r, LM[name]] - out.positions[r, LM[parent]])
        assert d == pytest.approx(topo.lengths[name], abs=1e-9)


def test_interpolated_knee_lands_on_two_sphere_circle():
    trial, topo = _walking_like_trial(seed=6)
    trial.positions[33, LM["r_knee"]] = np.nan
    out = interpolate_missing(trial, topo)
    knee = out.positions[33, LM["r_knee"]]
    hip = out.positions[33, LM["r_hip"]]
    ankle = out.positions[33, LM["r_ankle"]]
    assert np.linalg.norm(knee - hip) == pytest.approx(topo.lengths["r_knee"], abs=1e-9)
    assert np.linalg.norm(ankle - knee) == pytest.approx(topo.lengths["r_ankle"], abs=1e-9)


def test_short_gap_fill_tracks_true_path():
    trial, topo = _walking_like_trial(seed=7)
    truth = trial.positions[50:53, LM["l_elbow"]].copy()
    trial.positions[50:53, LM["l_elbow"]] = np.nan
    out = interpolate_missing(trial, topo)
    err = np.linalg.norm(out.positions[50:53, LM["l_elbow"]] - truth, axis=1)
    assert err.max() < 0.02  # 3-frame gap on a smooth path


def test_fully_missing_landmark_is_unrecoverable():
    trial, topo = _walking_like_trial(n=40)
    trial.positions[:, LM["r_heel"]] = np.nan
    with pytest.raises(UnrecoverableLandmarkError):
        interpolate_missing(trial, topo)


def test_leading_gap_extrapolates_with_edge_velocity():
    trial, topo = _walking_like_trial(seed=8)
    pos = trial.positions
    pos[:4, LM["nose"]] = np.nan
    out = interpolate_missing(trial, topo)
    # filled head continues the first observed chord, then gets projected;
    # it must at least stay near the moving skeleton, not at the origin
    d = np.linalg.norm(out.positions[0, LM["nose"]] - out.positions[0, LM["neck"]])
    assert d == pytest.approx(topo.lengths["nose"], abs=1e-9)


# -----------------------------------------------------------------------------
# Pelvis normalization
# -----------------------------------------------------------------------------


def test_pelvis_normalize_origin_and_hip_axis():
    trial, _ = _walking_like_trial(seed=9)
    out = pelvis_normalize(trial.positions)
    assert np.abs(out[:, LM["pelvis"]]).max() < 1e-12
    h = out[:, LM["l_hip"]] - out[:, LM["r_hip"]]
    assert np.abs(h[:, 0]).max() < 1e-9      # horizontal part fully on +y
    assert (h[:, 1] > 0).all()


def test_pelvis_normalize_invariant_to_rigid_motion():
    trial, _ = _walking_like_trial(seed=10)
    base = pelvis_normalize(trial.positions)
    ang = 1.1
    rz = np.array([[np.cos(ang), -np.sin(ang), 0.0],
                   [np.sin(ang), np.cos(ang), 0.0],
                   [0.0, 0.0, 1.0]])
    moved = trial.positions @ rz.T + np.array([5.0, -2.0, 0.7])
    assert np.abs(pelvis_normalize(moved) - base).max() < 1e-9


def test_pelvis_normalize_preserves_z_differences():
    trial, _ = _walking_like_trial(seed=11)
    out = pelvis_normalize(trial.positions)
    dz_in = trial.positions[:, :, 2] - trial.positions[:, LM["pelvis"], 2][:, None]
    assert np.abs(out[:, :, 2] - dz_in).max() < 1e-9


def test_pelvis_normalize_vertical_hip_axis_degenerate():
    frame = _rest_frame()
    frame[LM["l_hip"]] = frame[LM["pelvis"]] + [0.0, 0.0, 0.1]
    frame[LM["r_hip"]] = frame[LM["pelvis"]] - [0.0, 0.0, 0.1]
    with pytest.raises(DegenerateFrameError):
        pelvis_normalize(frame)


# -----------------------------------------------------------------------------
# Angle extraction and FK
# -----------------------------------------------------------------------------


def test_rest_pose_extracts_to_zero():
    pose = extract_angles(_rest_frame())
    assert np.abs(pose.angles).max() < 1e-9
    assert not pose.gimbal.any()


def test_single_joint_rotation_recovered():
    topo = SkeletonTopology()
    angles = np.zeros((N_JOINTS, 3))
    angles[JID["r_elbow"], 0] = np.pi / 6
    frame = forward_kinematics_landmarks(angles, topo)
    pose = extract_angles(frame, topo)
    assert pose.angles[JID["r_elbow"], 0] == pytest.approx(np.pi / 6, abs=1e-9)
    off = pose.angles.copy()
    off[JID["r_elbow"], 0] = 0.0
    assert np.abs(off).max() < 1e-9


def test_fk_zero_pose_is_rest_and_lengths_match():
    topo = SkeletonTopology()
    lm = forward_kinematics_landmarks(np.zeros((N_JOINTS, 3)), topo)
    from gaitmae.skeleton import LANDMARK_PARENT

    for child, parent in LANDMARK_PARENT.items():
        d = np.linalg.norm(lm[LM[child]] - lm[LM[parent]])
        assert d == pytest.approx(topo.lengths[child], abs=1e-12)
    assert np.abs(lm[LM["pelvis"]]).max() == 0.0


def test_fk_scales_linearly_with_lengths():
    topo = SkeletonTopology()
    doubled = SkeletonTopology()
    doubled.lengths = {k: 2.0 * v for k, v in topo.lengths.items()}
    rng = np.random.default_rng(12)
    pose = rng.normal(0.0, 0.4, size=(N_JOINTS, 3))
    assert np.allclose(forward_kinematics(pose, doubled),
                       2.0 * forward_kinematics(pose, topo), atol=1e-12)


def test_fk_batch_matches_loop():
    topo = SkeletonTopology()
    rng = np.random.default_rng(13)
    poses = rng.normal(0.0, 0.5, size=(6, N_JOINTS, 3))
    batch = forward_kinematics_landmarks(poses, topo)
    for i in range(6):
        assert np.allclose(batch[i], forward_kinematics_landmarks(poses[i], topo),
                           atol=1e-12)


def test_roundtrip_on_constraint_satisfying_frames():
    # FK of an arbitrary pose is NOT generally reproducible (a twist the
    # landmarks cannot witness, e.g. head yaw, is resolved by convention).
    # One extract+FK pass projects onto the representable family; on that
    # family the roundtrip is exact.
    topo = SkeletonTopology()
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(100):
        seed_pose = rng.normal(0.0, 0.7, size=(N_JOINTS, 3))
        frame = forward_kinematics_landmarks(seed_pose, topo)
        frame = forward_kinematics_landmarks(extract_angles(frame, topo).angles, topo)
        back = forward_kinematics_landmarks(extract_angles(frame, topo).angles, topo)
        worst = max(worst, float(np.abs(back - frame).max()))
    assert worst < 1e-6


def test_unprojected_random_pose_roundtrip_fails_only_at_head():
    # documents the one unobservable direction: everything except the nose
    # is pinned by landmark directions even for arbitrary poses
    topo = SkeletonTopology()
    rng = np.random.default_rng(15)
    pose = rng.normal(0.0, 0.5, size=(N_JOINTS, 3))
    frame = forward_kinematics_landmarks(pose, topo)
    back = forward_kinematics_landmarks(extract_angles(frame, topo).angles, topo)
    err = np.linalg.norm(back - frame, axis=1)
    body = [i for i, n in enumerate(LANDMARKS) if n != "nose"]
    assert err[body].max() < 1e-9


def test_extract_requires_joint_landmarks():
    frame = _rest_frame()
    frame[LM["l_knee"]] = np.nan
    with pytest.raises(DataError, match="l_knee"):
        extract_angles(frame)


def test_extract_tolerates_missing_decoration():
    frame = _rest_frame()
    frame[LM["l_wrist"]] = np.nan
    frame[[LM["r_toe"], LM["r_heel"]]] = np.nan
    pose = extract_angles(frame)
    # elbows/ankles without their decoration landmarks inherit the parent
    # frame => zero relative rotation, but extraction succeeds
    assert np.abs(pose.angles[JID["l_elbow"]]).max() < 1e-9
    assert np.abs(pose.angles[JID["r_ankle"]]).max() < 1e-9


def _reference_angles(frame):
    """Per-frame loop over the frame table, one joint at a time: the
    reference the batched extraction is held to."""
    def direction(a, b):
        v = frame[LM[b]] - frame[LM[a]]
        ok = np.isfinite(v).all() and np.linalg.norm(v) >= 1e-9
        return v / np.linalg.norm(v) if ok else None

    _, y, z = np.eye(3)
    f = {"pelvis": rotation_from_pairs(z, y, direction("pelvis", "neck"),
                                       direction("r_hip", "l_hip"))}
    f["neck"] = rotation_from_pairs(y, z, direction("r_shoulder", "l_shoulder"),
                                    f["pelvis"] @ z)
    for joint, child in (("l_shoulder", "l_elbow"), ("r_shoulder", "r_elbow"),
                         ("l_elbow", "l_wrist"), ("r_elbow", "r_wrist"),
                         ("l_hip", "l_knee"), ("r_hip", "r_knee"),
                         ("l_knee", "l_ankle"), ("r_knee", "r_ankle")):
        parent = f[JOINT_PARENT[joint]]
        d = direction(joint, child)
        f[joint] = parent if d is None else rotation_from_pairs(
            REST_UNIT[child], y, d, parent @ y)
    for side in "lr":
        toe = direction(f"{side}_ankle", f"{side}_toe")
        heel = direction(f"{side}_ankle", f"{side}_heel")
        f[f"{side}_ankle"] = f[f"{side}_knee"] if toe is None or heel is None else (
            rotation_from_pairs(REST_UNIT[f"{side}_toe"], REST_UNIT[f"{side}_heel"],
                                toe, heel))
    return np.array([
        matrix_to_euler((np.eye(3) if JOINT_PARENT[j] is None else f[JOINT_PARENT[j]]).T
                        @ f[j])
        for j in JOINTS
    ])


def _pose_stack(n, seed):
    rng = np.random.default_rng(seed)
    poses = rng.normal(0.0, 0.3, size=(n, N_JOINTS, 3))
    return forward_kinematics_landmarks(poses, SkeletonTopology())


def test_extract_angle_sequence_shapes_and_gimbal():
    frames = _pose_stack(9, seed=16)
    frames[[1, 4, 5], LM["l_wrist"]] = np.nan
    frames[[2, 5], LM["r_toe"]] = np.nan
    frames[[6], LM["r_heel"]] = np.nan
    frames[7, LM["l_heel"]] = frames[7, LM["l_ankle"]]   # zero-length foot
    angles, gimbal = extract_angle_sequence(frames)
    assert angles.shape == (9, N_JOINTS, 3)
    assert gimbal.shape == (9, N_JOINTS)
    assert gimbal.dtype == bool
    for k, frame in enumerate(frames):
        pose = extract_angles(frame)
        assert np.abs(angles[k] - pose.angles).max() < 1e-12
        assert np.array_equal(gimbal[k], pose.gimbal)
        assert np.abs(angles[k] - _reference_angles(frame)).max() < 1e-12
    # each fallback applies only to the frames that lack the decoration
    assert np.abs(angles[[1, 4, 5], JID["l_elbow"]]).max() < 1e-9
    assert np.abs(angles[[2, 5, 6], JID["r_ankle"]]).max() < 1e-9
    assert np.abs(angles[7, JID["l_ankle"]]).max() < 1e-9
    kept = angles[[0, 3, 8]][:, [JID["l_elbow"], JID["r_ankle"]]]
    assert np.abs(kept).max(axis=-1).min() > 1e-6


def test_extract_angle_sequence_accepts_joint_stacks():
    topo = SkeletonTopology()
    rng = np.random.default_rng(17)
    poses = rng.normal(0.0, 0.3, size=(6, N_JOINTS, 3))
    joints = forward_kinematics(poses, topo)
    landmarks = np.full((6, N_LANDMARKS, 3), np.nan)
    landmarks[:, [LM[j] for j in JOINTS]] = joints
    from_joints, _ = extract_angle_sequence(joints, topo)
    from_landmarks, _ = extract_angle_sequence(landmarks, topo)
    assert np.array_equal(from_joints, from_landmarks)
    for bad in (np.zeros((6, 5, 3)), np.zeros((N_LANDMARKS, 3)), np.zeros((2, 19, 2))):
        with pytest.raises(DataError):
            extract_angle_sequence(bad)


def test_extract_sequence_names_first_frame_missing_joint():
    frames = _pose_stack(5, seed=18)
    frames[3, LM["l_knee"]] = np.nan
    frames[4, LM["neck"]] = np.nan
    with pytest.raises(DataError, match=r"frame 3\b.*l_knee"):
        extract_angle_sequence(frames)


def test_extract_sequence_coincident_hips_is_degenerate():
    frames = _pose_stack(5, seed=19)
    frames[2, LM["l_hip"]] = frames[2, LM["r_hip"]]
    with pytest.raises(DegenerateFrameError, match="frame 2"):
        extract_angle_sequence(frames)


def test_extract_sequence_trunk_along_hip_axis_is_degenerate():
    frames = _pose_stack(5, seed=20)
    hips = frames[3, LM["l_hip"]] - frames[3, LM["r_hip"]]
    frames[3, LM["neck"]] = frames[3, LM["pelvis"]] + hips
    with pytest.raises(DegenerateFrameError, match="frame 3") as exc:
        extract_angle_sequence(frames)
    assert exc.value.exit_code == 3
