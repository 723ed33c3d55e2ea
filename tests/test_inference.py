"""Tiled-occlusion screening: score formulas, tile construction, calibration,
flag selection, and second-pass correction assembly."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaitmae.errors import DataError, DegenerateFrameError
from gaitmae.features import decode_features, make_windows
from gaitmae.inference import (
    TILED_JOINTS,
    BadnessSeries,
    NoiseFloor,
    RomTable,
    badness_combine,
    badness_geom,
    badness_rom,
    build_tiles,
    calibrate_noise_floor,
    compute_badness,
    default_rom_table,
    detect_and_correct,
    load_noise_floor,
    peak_stat,
    save_noise_floor,
    select_flagged,
    write_badness_report,
)
from gaitmae.model import ModelConfig, init_parameters, reconstruct, zeros_like_params
from gaitmae.skeleton import JID, REST_LENGTH, SkeletonTopology


@pytest.fixture(scope="module")
def topo():
    return SkeletonTopology(lengths=dict(REST_LENGTH))


@pytest.fixture(scope="module")
def tiny_model():
    cfg = ModelConfig.tiny()
    return init_parameters(cfg, np.random.default_rng(1)), cfg


# -----------------------------------------------------------------------------
# ROM table
# -----------------------------------------------------------------------------


def test_default_rom_table_well_formed():
    t = default_rom_table()
    assert t.rom.shape == t.weights.shape == (12, 3)
    assert np.all(t.rom > 0)
    assert np.allclose(t.weights.sum(axis=1), 1.0, atol=1e-12)
    rom, w = t.rom[JID["r_hip"]], t.weights[JID["r_hip"]]
    assert rom[1] > rom[0]  # sagittal swing is the widest hip range
    assert w[1] == max(w)


def test_rom_table_validation():
    good = default_rom_table()
    with pytest.raises(DataError):
        RomTable(rom=np.zeros((12, 3)), weights=good.weights)
    bad_w = good.weights.copy()
    bad_w[0] = (0.5, 0.5, 0.5)
    with pytest.raises(DataError):
        RomTable(rom=good.rom, weights=bad_w)
    with pytest.raises(DataError):
        RomTable(rom=good.rom[:6], weights=good.weights[:6])


# -----------------------------------------------------------------------------
# Score formulas
# -----------------------------------------------------------------------------


def test_rom_score_zero_when_equal():
    t = default_rom_table()
    rom, w = t.rom[JID["r_hip"]], t.weights[JID["r_hip"]]
    assert badness_rom([0.1, 0.2, 0.3], [0.1, 0.2, 0.3], rom, w) == 0.0


def test_rom_score_saturates_at_full_range():
    rom = default_rom_table().rom[JID["r_hip"]]
    assert badness_rom([0, 0, 0], [rom[0], 0, 0], rom, [1, 0, 0]) == 1.0
    # overshooting the range clips rather than exceeding 1
    assert badness_rom([0, 0, 0], [3 * rom[0], 0, 0], rom, [1, 0, 0]) == 1.0


def test_rom_score_wraps_full_turns():
    t = default_rom_table()
    rom, w = t.rom[JID["r_hip"]], t.weights[JID["r_hip"]]
    two_pi = np.full(3, 2 * np.pi)
    assert badness_rom(np.zeros(3), two_pi, rom, w) == pytest.approx(0.0, abs=1e-9)


def test_rom_score_weighted_mix():
    rom = np.array([1.0, 2.0, 4.0])
    w = np.array([0.3, 0.5, 0.2])
    assert badness_rom(np.zeros(3), rom / 2, rom, w) == pytest.approx(0.5, abs=1e-12)


def test_geom_score_reference_directions():
    assert badness_geom([1, 0, 0], [2, 0, 0]) == 0.0
    assert badness_geom([1, 0, 0], [-3, 0, 0]) == 1.0
    assert badness_geom([1, 0, 0], [0, 5, 0]) == 0.5


def test_geom_score_scale_invariant_and_batched():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(40, 3))
    b = rng.normal(size=(40, 3))
    e = badness_geom(a, b)
    assert e.shape == (40,)
    assert np.allclose(badness_geom(3.7 * a, 0.2 * b), e, atol=1e-12)
    assert e.min() >= 0.0 and e.max() <= 1.0


def test_geom_score_rejects_zero_bone():
    with pytest.raises(DegenerateFrameError):
        badness_geom([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])


def test_combine_examples():
    assert badness_combine(0.6, 0.0) == pytest.approx(0.30, abs=1e-12)
    assert badness_combine(0.6, 1.0) == pytest.approx(0.60, abs=1e-12)
    assert badness_combine(0.0, 0.77) == 0.0


@given(st.floats(0, 1), st.floats(0, 1))
def test_combine_stays_in_unit_interval(e, c):
    b = badness_combine(e, c)
    assert 0.0 <= b <= 1.0
    assert b <= e  # ROM gate can only attenuate the direction error


def test_peak_stat_constant_impulse_plateau():
    assert peak_stat(np.full(30, 0.37)) == pytest.approx(0.37, abs=1e-12)
    imp = np.zeros(30)
    imp[12] = 0.8
    assert peak_stat(imp) == pytest.approx(0.8 / 5, abs=1e-12)
    plat = np.zeros(30)
    plat[10:20] = 0.55
    assert peak_stat(plat) == pytest.approx(0.55, abs=1e-12)


def test_peak_stat_short_series_truncates_window():
    assert peak_stat([0.2]) == pytest.approx(0.2, abs=1e-12)
    assert peak_stat([0.1, 0.5]) == pytest.approx(0.3, abs=1e-12)
    with pytest.raises(DataError):
        peak_stat([])


# -----------------------------------------------------------------------------
# Tiles
# -----------------------------------------------------------------------------


def test_build_tiles_layout():
    win = make_windows(np.random.default_rng(3).normal(0, 0.3, (10, 12, 3)))[0]
    feats, vels, masks = build_tiles(win)
    assert feats.shape == (7, 12, 7, 12) and masks.shape == (7, 12, 7)
    assert not masks[0].any()
    for i, joint in enumerate(TILED_JOINTS):
        assert masks[i + 1].sum() == 7
        assert masks[i + 1, JID[joint]].all()
    for tile in range(7):
        assert np.array_equal(feats[tile], win.features)
        assert np.array_equal(vels[tile], win.velocities)


def test_build_tiles_many_windows_is_window_major():
    wins = make_windows(np.random.default_rng(4).normal(0, 0.3, (12, 12, 3)))
    feats, vels, masks = build_tiles(wins)
    assert feats.shape == (6 * 7, 12, 7, 12) and vels.shape == (6 * 7, 12, 7, 3)
    for w in range(len(wins)):
        one = build_tiles(wins[w])
        for got, want in zip((feats, vels, masks), one):
            assert np.array_equal(got[7 * w : 7 * w + 7], want)


def test_ankles_are_never_tiled():
    _, _, masks = build_tiles(make_windows(np.zeros((7, 12, 3)))[0])
    assert not masks[:, JID["l_ankle"]].any()
    assert not masks[:, JID["r_ankle"]].any()
    assert "l_ankle" not in TILED_JOINTS and "r_ankle" not in TILED_JOINTS


# -----------------------------------------------------------------------------
# Trial screening
# -----------------------------------------------------------------------------


def _windows(n=20, seed=0):
    return make_windows(np.random.default_rng(seed).normal(0, 0.3, (n, 12, 3)))


def test_zero_model_scores_zero(topo):
    # all-zero parameters reconstruct the same features for every tile, so
    # baseline and tiles agree exactly and every score collapses to 0
    cfg = ModelConfig.tiny()
    zero = zeros_like_params(init_parameters(cfg, np.random.default_rng(0)))
    b = compute_badness(zero, cfg, _windows(), topo)
    assert b.series.max() == 0.0
    assert b.summary.max() == 0.0


def test_badness_series_frames_and_ranges(tiny_model, topo):
    params, cfg = tiny_model
    wins = _windows()
    b = compute_badness(params, cfg, wins, topo)
    assert b.joints == TILED_JOINTS
    assert list(b.frames) == list(wins.starts + 6)
    assert b.series.shape == (6, len(wins))
    assert b.series.min() >= 0.0 and b.series.max() <= 1.0
    assert b.summary.min() >= 0.0 and b.summary.max() <= 1.0


def test_badness_deterministic_and_batch_size_free(tiny_model, topo):
    params, cfg = tiny_model
    wins = _windows()
    a = compute_badness(params, cfg, wins, topo)
    b = compute_badness(params, cfg, wins, topo, batch_size=3)
    assert np.array_equal(a.series, b.series)
    assert np.array_equal(a.summary, b.summary)


def test_badness_empty_windows(tiny_model, topo):
    params, cfg = tiny_model
    with pytest.raises(DataError):
        compute_badness(params, cfg, [], topo)


def test_badness_series_validation():
    ok = dict(joints=TILED_JOINTS, frames=np.arange(4),
              series=np.zeros((6, 4)), summary=np.zeros(6))
    BadnessSeries(**ok)
    with pytest.raises(DataError):
        BadnessSeries(**{**ok, "series": np.zeros((5, 4))})
    with pytest.raises(DataError):
        BadnessSeries(**{**ok, "series": np.full((6, 4), 1.2)})
    with pytest.raises(DataError):
        BadnessSeries(**{**ok, "frames": np.array([3, 2, 1, 0])})
    with pytest.raises(DataError):
        BadnessSeries(joints=TILED_JOINTS, frames=np.arange(0),
                      series=np.zeros((6, 0)), summary=np.zeros(6))


# -----------------------------------------------------------------------------
# Calibration and flag selection
# -----------------------------------------------------------------------------


def _const_series(value, n=5):
    return BadnessSeries(joints=TILED_JOINTS, frames=np.arange(n),
                         series=np.full((6, n), value), summary=np.full(6, value))


def test_calibration_constant_scores():
    floor = calibrate_noise_floor([_const_series(0.12)] * 5)
    assert np.allclose(floor.taus, 0.12, atol=1e-15)
    assert floor.n_trials == 5
    assert floor.statistic == "median+3mad"


def test_calibration_median_plus_three_mad():
    floor = calibrate_noise_floor([_const_series(v) for v in (0.1, 0.1, 0.1, 0.1, 0.2)])
    # median 0.1; deviations {0,0,0,0,0.1} have median 0, so tau stays 0.1
    assert np.allclose(floor.taus, 0.1, atol=1e-15)
    spread = calibrate_noise_floor([_const_series(v) for v in (0.1, 0.12, 0.14, 0.16, 0.3)])
    assert np.allclose(spread.taus, 0.14 + 3 * 0.02, atol=1e-12)


def test_calibration_guards():
    with pytest.raises(DataError):
        calibrate_noise_floor([_const_series(0.1)] * 4)
    other = BadnessSeries(joints=("pelvis", "neck"), frames=np.arange(3),
                          series=np.zeros((2, 3)), summary=np.zeros(2))
    with pytest.raises(DataError):
        calibrate_noise_floor([_const_series(0.1)] * 4 + [other])


def test_noise_floor_validation():
    with pytest.raises(DataError):
        NoiseFloor(joints=TILED_JOINTS, taus=np.full(6, -0.01), n_trials=5)
    with pytest.raises(DataError):
        NoiseFloor(joints=TILED_JOINTS, taus=np.zeros(5), n_trials=5)


def test_flag_selection_top_k():
    summary = np.array([0.1, 0.5, 0.3, 0.9, 0.05, 0.4])
    b = BadnessSeries(joints=TILED_JOINTS, frames=np.arange(4),
                      series=np.tile(summary[:, None], (1, 4)), summary=summary)
    floor = NoiseFloor(joints=TILED_JOINTS, taus=np.full(6, 0.2), n_trials=5)
    assert select_flagged(b, floor) == (("r_hip", 0.9), ("pelvis", 0.5))
    assert select_flagged(b, floor, k=3) == (
        ("r_hip", 0.9), ("pelvis", 0.5), ("r_knee", 0.4))
    high = NoiseFloor(joints=TILED_JOINTS, taus=np.full(6, 0.95), n_trials=5)
    assert select_flagged(b, high) == ()
    # at threshold is not above threshold
    at = NoiseFloor(joints=TILED_JOINTS, taus=summary, n_trials=5)
    assert select_flagged(b, at) == ()
    with pytest.raises(DataError):
        select_flagged(b, NoiseFloor(joints=("pelvis",), taus=[0.1], n_trials=5))


# -----------------------------------------------------------------------------
# Detection + correction
# -----------------------------------------------------------------------------


def _assemble_oracle(params, cfg, windows, mask):
    feats = windows.features.astype(np.float32)
    vels = windows.velocities.astype(np.float32)
    angles, _ = decode_features(np.asarray(reconstruct(params, cfg, feats, vels, mask),
                                           dtype=float))
    head = np.transpose(angles[0], (1, 0, 2))
    return np.concatenate([head[:6], angles[:, :, -1, :]], axis=0)


def test_correct_without_flags_is_plain_reconstruction(tiny_model, topo):
    params, cfg = tiny_model
    seq = np.random.default_rng(2).normal(0, 0.3, (25, 12, 3))
    high = NoiseFloor(joints=TILED_JOINTS, taus=np.full(6, 0.95), n_trials=5)
    res = detect_and_correct(seq, params, cfg, topo, high)
    assert res.flagged == ()
    assert res.corrected.shape == res.original.shape == (25, 12, 3)
    assert np.array_equal(res.original, seq)
    assert np.array_equal(res.corrected,
                          _assemble_oracle(params, cfg, make_windows(seq), None))


def test_correct_with_flags_masks_exactly_those_joints(tiny_model, topo):
    params, cfg = tiny_model
    seq = np.random.default_rng(2).normal(0, 0.3, (25, 12, 3))
    low = NoiseFloor(joints=TILED_JOINTS, taus=np.zeros(6), n_trials=5)
    res = detect_and_correct(seq, params, cfg, topo, low)
    assert 1 <= len(res.flagged) <= 2
    assert all(name in TILED_JOINTS for name, _ in res.flagged)
    scores = [s for _, s in res.flagged]
    assert scores == sorted(scores, reverse=True)
    mask = np.zeros((12, 7), dtype=bool)
    for name, _ in res.flagged:
        mask[JID[name]] = True
    assert np.array_equal(res.corrected,
                          _assemble_oracle(params, cfg, make_windows(seq), mask))


def test_correct_deterministic(tiny_model, topo):
    params, cfg = tiny_model
    seq = np.random.default_rng(4).normal(0, 0.3, (20, 12, 3))
    high = NoiseFloor(joints=TILED_JOINTS, taus=np.full(6, 0.95), n_trials=5)
    a = detect_and_correct(seq, params, cfg, topo, high)
    b = detect_and_correct(seq, params, cfg, topo, high)
    assert np.array_equal(a.corrected, b.corrected)
    assert a.flagged == b.flagged


def test_detect_stride_thins_the_screening(tiny_model, topo):
    params, cfg = tiny_model
    seq = np.random.default_rng(5).normal(0, 0.3, (25, 12, 3))
    high = NoiseFloor(joints=TILED_JOINTS, taus=np.full(6, 0.95), n_trials=5)
    res = detect_and_correct(seq, params, cfg, topo, high, detect_stride=3)
    assert list(res.badness.frames) == [6, 9, 12, 15, 18, 21, 24]
    assert res.corrected.shape == (25, 12, 3)  # correction stays per-frame


# -----------------------------------------------------------------------------
# Persistence
# -----------------------------------------------------------------------------


def test_noise_floor_roundtrip(tmp_path):
    floor = NoiseFloor(joints=TILED_JOINTS,
                       taus=np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6]), n_trials=7)
    p = tmp_path / "floor.json"
    save_noise_floor(p, floor)
    back = load_noise_floor(p)
    assert back.joints == floor.joints
    assert np.array_equal(back.taus, floor.taus)
    assert back.n_trials == 7 and back.statistic == floor.statistic


def test_noise_floor_load_rejects_garbage(tmp_path):
    p = tmp_path / "floor.json"
    p.write_text("not json")
    with pytest.raises(DataError):
        load_noise_floor(p)
    p.write_text('{"n_trials": 3}')
    with pytest.raises(DataError):
        load_noise_floor(p)


def test_badness_report_schema(tmp_path, tiny_model, topo):
    params, cfg = tiny_model
    b = compute_badness(params, cfg, _windows(), topo)
    floor = NoiseFloor(joints=TILED_JOINTS, taus=np.full(6, 0.5), n_trials=5)
    p = tmp_path / "report.json"
    write_badness_report(p, b, floor, flagged=[("r_hip", 0.9)])
    doc = json.loads(p.read_text())
    assert sorted(doc) == sorted(TILED_JOINTS)
    for joint, entry in doc.items():
        assert set(entry) == {"series", "summary", "threshold", "flagged"}
        assert len(entry["series"]) == b.frames.size
        assert entry["flagged"] == (joint == "r_hip")
        assert entry["threshold"] == 0.5
