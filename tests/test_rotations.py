"""Angle utilities against scipy's Rotation as an independent oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from gaitmae.rotations import (
    euler_to_matrix,
    is_gimbal,
    matrix_to_euler,
    normalize,
    orthonormal_pair,
    rotation_from_pairs,
    wrap_angle,
)

finite_angle = st.floats(-50.0, 50.0, allow_nan=False)


@given(st.lists(finite_angle, min_size=1, max_size=20))
def test_wrap_angle_range_and_equivalence(xs):
    x = np.array(xs)
    w = wrap_angle(x)
    assert np.all(w >= -np.pi) and np.all(w < np.pi)
    # same angle modulo a full turn
    assert np.allclose(np.exp(1j * w), np.exp(1j * x), atol=1e-9)


def test_wrap_angle_pi_boundary():
    assert wrap_angle(np.pi) == -np.pi
    assert wrap_angle(-np.pi) == -np.pi
    assert wrap_angle(3 * np.pi) == -np.pi
    assert wrap_angle(0.0) == 0.0


def test_euler_to_matrix_matches_scipy_intrinsic_xyz():
    rng = np.random.default_rng(0)
    ang = rng.uniform(-np.pi, np.pi, size=(200, 3))
    ours = euler_to_matrix(ang)
    ref = Rotation.from_euler("XYZ", ang).as_matrix()
    assert np.abs(ours - ref).max() < 1e-13


def test_euler_to_matrix_broadcasts():
    rng = np.random.default_rng(1)
    ang = rng.uniform(-np.pi, np.pi, size=(4, 5, 3))
    batch = euler_to_matrix(ang)
    assert batch.shape == (4, 5, 3, 3)
    assert np.allclose(batch[2, 3], euler_to_matrix(ang[2, 3]))


def test_matrix_to_euler_roundtrips_rotation():
    # matrix -> angles -> matrix is exact even though angles themselves are
    # only unique away from gimbal lock.
    rots = Rotation.random(300, rng=np.random.default_rng(2)).as_matrix()
    back = euler_to_matrix(matrix_to_euler(rots))
    assert np.abs(back - rots).max() < 1e-12


def test_matrix_to_euler_gimbal_branch():
    for sign in (1.0, -1.0):
        ang = np.array([0.4, sign * np.pi / 2, 0.7])
        r = euler_to_matrix(ang)
        dec = matrix_to_euler(r)
        assert dec[2] == 0.0  # z absorbed into x at the singularity
        assert np.abs(euler_to_matrix(dec) - r).max() < 1e-12


def test_is_gimbal_flags_near_lock():
    a = np.array([[0.0, np.pi / 2 - 5e-4, 0.0],
                  [0.0, -np.pi / 2 + 5e-4, 0.0],
                  [0.0, 1.2, 0.0]])
    assert list(is_gimbal(a)) == [True, True, False]


def test_wrap_is_transparent_to_matrices():
    rng = np.random.default_rng(3)
    ang = rng.uniform(-9.0, 9.0, size=(50, 3))
    assert np.allclose(euler_to_matrix(wrap_angle(ang)), euler_to_matrix(ang), atol=1e-12)


def test_normalize_unit_and_zero_raises():
    v = normalize(np.array([3.0, 0.0, 4.0]))
    assert np.allclose(v, [0.6, 0.0, 0.8])
    with pytest.raises(ValueError):
        normalize(np.zeros(3))


vec3 = st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=3, max_size=3)


@settings(max_examples=200)
@given(vec3, vec3)
def test_orthonormal_pair_properties(p, s):
    p = np.array(p)
    s = np.array(s)
    cross = np.cross(p, s)
    if np.linalg.norm(p) < 1e-3 or np.linalg.norm(cross) < 1e-3:
        return  # collinear / degenerate inputs are a separate test
    f = orthonormal_pair(p, s)
    assert np.allclose(f.T @ f, np.eye(3), atol=1e-9)
    assert np.linalg.det(f) > 0.99
    assert np.allclose(f[:, 0], p / np.linalg.norm(p), atol=1e-9)


def test_orthonormal_pair_collinear_raises():
    with pytest.raises(ValueError):
        orthonormal_pair(np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0]))


def test_batched_pairs_match_row_by_row_calls():
    rng = np.random.default_rng(5)
    u1, u2, v1, v2 = rng.normal(size=(4, 20, 3))
    frames = orthonormal_pair(v1, v2)
    rots = rotation_from_pairs(u1, u2, v1, v2)
    assert frames.shape == rots.shape == (20, 3, 3)
    for i in range(20):
        assert np.allclose(frames[i], orthonormal_pair(v1[i], v2[i]), rtol=0, atol=1e-15)
        assert np.allclose(rots[i], rotation_from_pairs(u1[i], u2[i], v1[i], v2[i]),
                           rtol=0, atol=1e-15)
    # a single reference pair broadcasts against a stack of targets
    shared = rotation_from_pairs(u1[0], u2[0], v1, v2)
    assert np.allclose(shared[7], rotation_from_pairs(u1[0], u2[0], v1[7], v2[7]),
                       rtol=0, atol=1e-15)
    v2[13] = 3.0 * v1[13]
    with pytest.raises(ValueError):
        orthonormal_pair(v1, v2)
    with pytest.raises(ValueError):
        rotation_from_pairs(u1, u2, v1, v2)


def test_rotation_from_pairs_exact_on_rigid_pairs():
    rng = np.random.default_rng(4)
    for _ in range(50):
        r_true = Rotation.random(rng=rng).as_matrix()
        u1 = normalize(rng.normal(size=3))
        u2_raw = rng.normal(size=3)
        if np.linalg.norm(np.cross(u1, u2_raw)) < 1e-3:
            continue
        v1, v2 = r_true @ u1, r_true @ u2_raw
        r = rotation_from_pairs(u1, u2_raw, v1, v2)
        # rigid pairs (same mutual angle) are mapped exactly
        assert np.allclose(r @ u1, v1, atol=1e-9)
        assert np.allclose(r @ u2_raw, v2, atol=1e-9)
        assert np.allclose(r, r_true, atol=1e-9)


def test_rotation_from_pairs_primary_exact_even_when_secondary_bends():
    # secondary hints that do not share the mutual angle still give a valid
    # rotation carrying primary -> primary exactly
    u1 = np.array([0.0, 0.0, 1.0])
    u2 = np.array([0.0, 1.0, 0.0])
    v1 = normalize(np.array([1.0, 1.0, 1.0]))
    v2 = np.array([0.2, 0.9, -0.3])
    r = rotation_from_pairs(u1, u2, v1, v2)
    assert np.allclose(r @ u1, v1, atol=1e-12)
    assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
