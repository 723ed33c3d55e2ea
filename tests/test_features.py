"""Token features: sin/cos + 6D rotation encoding, decode fallback, windows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitmae.errors import DataError
from gaitmae.features import (
    FEAT_DIM,
    SINCOS_SLICE,
    VEL_DIM,
    WINDOW_LEN,
    decode_features,
    encode_features,
    make_windows,
    window_velocities,
)
from gaitmae.pipeline import ProcessedTrial, training_arrays
from gaitmae.rotations import euler_to_matrix, wrap_angle
from gaitmae.skeleton import N_JOINTS, N_LANDMARKS, SkeletonTopology


def test_encode_layout():
    ang = np.array([0.3, -1.1, 2.0])
    f = encode_features(ang)
    assert f.shape == (FEAT_DIM,)
    assert np.allclose(f[0:6:2], np.sin(ang))
    assert np.allclose(f[1:6:2], np.cos(ang))
    r = euler_to_matrix(ang)
    assert np.allclose(f[6:9], r[:, 0])
    assert np.allclose(f[9:12], r[:, 1])


angle_triple = st.lists(
    st.floats(-np.pi + 1e-3, np.pi - 1e-3, allow_nan=False), min_size=3, max_size=3
)


@settings(max_examples=300)
@given(angle_triple)
def test_encode_decode_roundtrip(ang):
    ang = np.array(ang)
    dec, bad = decode_features(encode_features(ang))
    assert not bad
    # compare as matrices: the angle triple itself is ambiguous at gimbal lock
    assert np.abs(euler_to_matrix(dec) - euler_to_matrix(ang)).max() < 1e-9


def test_decode_prefers_rotation_channels():
    # corrupt sin/cos but keep r1/r2: the 6D branch wins
    ang = np.array([0.4, 0.2, -0.9])
    f = encode_features(ang)
    f[SINCOS_SLICE] = 0.0
    dec, bad = decode_features(f)
    assert not bad
    assert np.abs(euler_to_matrix(dec) - euler_to_matrix(ang)).max() < 1e-9


def test_decode_fallback_on_degenerate_rotation():
    ang = np.array([0.4, 0.2, -0.9])
    f = encode_features(ang)
    f[6:12] = 0.0  # kill r1/r2 entirely
    dec, bad = decode_features(f)
    assert bad
    assert np.allclose(dec, ang, atol=1e-9)  # atan2(sin, cos) rescue


def test_decode_fallback_on_parallel_columns():
    f = np.zeros(FEAT_DIM)
    ang = np.array([0.1, -0.2, 0.3])
    f[:6] = encode_features(ang)[:6]
    f[6:9] = [1.0, 0.0, 0.0]
    f[9:12] = [2.0, 0.0, 0.0]  # parallel to r1
    dec, bad = decode_features(f)
    assert bad
    assert np.allclose(dec, ang, atol=1e-9)


def test_decode_mixed_batch_flags_only_bad_tokens():
    good = encode_features(np.array([0.5, 0.1, 0.2]))
    poisoned = good.copy()
    poisoned[6:12] = 0.0
    batch = np.stack([good, poisoned])
    dec, bad = decode_features(batch)
    assert list(bad) == [False, True]
    assert np.allclose(dec[0], dec[1], atol=1e-9)


def test_decode_normalizes_scaled_rotation_channels():
    ang = np.array([0.7, -0.3, 1.2])
    f = encode_features(ang)
    f[6:12] *= 3.7  # decode must be scale-invariant via Gram-Schmidt
    dec, bad = decode_features(f)
    assert not bad
    assert np.abs(euler_to_matrix(dec) - euler_to_matrix(ang)).max() < 1e-9


def test_decode_wrong_channel_count_raises():
    with pytest.raises(DataError):
        decode_features(np.zeros((4, 11)))


def test_window_velocities_zero_start_and_wrapped():
    w = np.zeros((N_JOINTS, WINDOW_LEN, 3))
    w[0, :, 0] = np.linspace(3.0, 3.6, WINDOW_LEN)  # crosses pi
    v = window_velocities(wrap_angle(w))
    assert np.abs(v[:, 0]).max() == 0.0
    assert np.allclose(v[0, 1:, 0], 0.1, atol=1e-9)  # no 2*pi jumps


def test_make_windows_counts_and_starts():
    n = 20
    seq = np.zeros((n, N_JOINTS, 3))
    ws = make_windows(seq)
    assert len(ws) == n - WINDOW_LEN + 1
    assert list(ws.starts[:3]) == [0, 1, 2]
    ws3 = make_windows(seq, stride=3)
    assert list(ws3.starts) == [0, 3, 6, 9, 12]


def test_make_windows_content_matches_manual_slice():
    rng = np.random.default_rng(0)
    seq = rng.uniform(-3.0, 3.0, size=(12, N_JOINTS, 3))
    w = make_windows(seq)[2]
    manual = np.transpose(encode_features(seq[2 : 2 + WINDOW_LEN]), (1, 0, 2))
    assert np.allclose(w.features, manual, atol=1e-12)
    assert w.velocities.shape == (N_JOINTS, WINDOW_LEN, VEL_DIM)


def test_make_windows_too_short():
    with pytest.raises(DataError):
        make_windows(np.zeros((WINDOW_LEN - 1, N_JOINTS, 3)))


def test_make_windows_rejects_wrong_shapes():
    for shape in ((20, N_JOINTS - 1, 3), (20, N_JOINTS, 2), (20, 3), ()):
        with pytest.raises(DataError):
            make_windows(np.zeros(shape))


def test_token_windows_indexing_slices_all_arrays():
    seq = np.random.default_rng(2).normal(size=(20, N_JOINTS, 3))
    ws = make_windows(seq)
    assert ws.features.shape == (14, N_JOINTS, WINDOW_LEN, FEAT_DIM)
    assert ws.velocities.shape == (14, N_JOINTS, WINDOW_LEN, VEL_DIM)
    assert ws.starts.shape == (14,)
    every3 = ws[::3]
    assert len(every3) == 5
    assert list(every3.starts) == [0, 3, 6, 9, 12]
    assert np.array_equal(every3.features, ws.features[::3])
    assert np.array_equal(every3.velocities, ws.velocities[::3])
    one = every3[2]
    assert one.starts == 6
    assert np.array_equal(one.features, make_windows(seq[6:13]).features[0])
    assert np.array_equal(one.velocities, make_windows(seq[6:13]).velocities[0])


def test_training_arrays_dtype_and_shapes():
    rng = np.random.default_rng(1)
    processed = [
        ProcessedTrial("S000", "normative", 30.0, SkeletonTopology(),
                       positions=np.zeros((n, N_LANDMARKS, 3)),
                       angles=rng.normal(size=(n, N_JOINTS, 3)),
                       gimbal=np.zeros((n, N_JOINTS), dtype=bool))
        for n in (10, 12)
    ]
    feats, vels = training_arrays(processed)
    assert feats.shape == (4 + 6, N_JOINTS, WINDOW_LEN, FEAT_DIM)
    assert vels.shape == (4 + 6, N_JOINTS, WINDOW_LEN, VEL_DIM)
    assert feats.dtype == np.float32 and vels.dtype == np.float32
    assert np.array_equal(feats[4:], make_windows(processed[1].angles).features.astype(np.float32))


def test_window_velocities_any_leading_shape():
    w = np.random.default_rng(3).uniform(-3.0, 3.0, size=(4, N_JOINTS, WINDOW_LEN, 3))
    v = window_velocities(w)
    for k in range(4):
        assert np.array_equal(v[k], window_velocities(w[k]))
