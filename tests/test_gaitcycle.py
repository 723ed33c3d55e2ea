"""Cycle segmentation: smoothing filter, activity gating, heel-strike peaks,
and 100-sample time normalization."""

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitmae.errors import DataError
from gaitmae.gaitcycle import (
    CYCLE_SAMPLES,
    CycleBoundaries,
    active_region,
    detect_cycles,
    normalize_cycle,
    normalized_cycles,
    savgol,
    write_cycle_report,
)
from gaitmae.pipeline import ProcessedTrial, segment
from gaitmae.skeleton import LM, N_LANDMARKS, SkeletonTopology


def _sine_heel(hz=1.0, seconds=5.0, fps=30.0, amp=0.04):
    t = np.arange(int(seconds * fps)) / fps
    return 0.05 + amp * 0.5 * (1.0 - np.cos(2 * np.pi * hz * t)), t


def _stand_walk_stand(fps=30.0, hz=1.0, stand_s=1.0, walk_s=4.0):
    n_stand = int(stand_s * fps)
    walk, _ = _sine_heel(hz=hz, seconds=walk_s, fps=fps)
    z = np.concatenate([np.full(n_stand, 0.05), walk, np.full(n_stand, 0.05)])
    return z, n_stand


# -----------------------------------------------------------------------------
# Savitzky-Golay smoothing
# -----------------------------------------------------------------------------


def test_savgol_interior_matches_scipy():
    rng = np.random.default_rng(0)
    y = rng.normal(size=200)
    ours = savgol(y, window=7, order=2)
    ref = scipy.signal.savgol_filter(y, 7, 2)
    assert np.abs(ours[3:-3] - ref[3:-3]).max() < 1e-12


def test_savgol_center_kernel_is_classic_quadratic():
    # the window-7 quadratic smoother has the closed-form weights
    # (-2, 3, 6, 7, 6, 3, -2)/21; an impulse response exposes the kernel
    y = np.zeros(13)
    y[6] = 1.0
    out = savgol(y, window=7, order=2)
    assert np.allclose(out[3:10], np.array([-2, 3, 6, 7, 6, 3, -2]) / 21.0, atol=1e-12)


def test_savgol_preserves_quadratics_everywhere():
    x = np.arange(40, dtype=float)
    y = 0.3 * x * x - 2.0 * x + 5.0
    out = savgol(y, window=7, order=2)
    assert np.abs(out - y).max() < 1e-9  # including the truncated-window edges


def test_savgol_attenuates_noise():
    rng = np.random.default_rng(1)
    t = np.linspace(0, 2 * np.pi, 300)
    clean = np.sin(t)
    noisy = clean + rng.normal(0, 0.1, size=t.size)
    out = savgol(noisy)
    assert np.std(out - clean) < 0.6 * np.std(noisy - clean)


def test_savgol_validation():
    with pytest.raises(DataError):
        savgol(np.zeros((5, 2)))
    with pytest.raises(DataError):
        savgol(np.zeros(20), window=6)
    with pytest.raises(DataError):
        savgol(np.zeros(20), window=7, order=7)
    with pytest.raises(DataError):
        savgol(np.zeros(5), window=7)


# -----------------------------------------------------------------------------
# Activity gating
# -----------------------------------------------------------------------------


def test_active_region_full_for_continuous_walk():
    z, _ = _sine_heel()
    a, b = active_region(z, fps=30.0)
    assert (a, b) == (0, z.size)


def test_active_region_excludes_standing():
    z, n_stand = _stand_walk_stand()
    a, b = active_region(z, fps=30.0)
    # boundaries land within the RMS window of the true transitions
    assert abs(a - n_stand) <= 15
    assert abs(b - (z.size - n_stand)) <= 15
    assert a < z.size // 2 < b


def test_active_region_errors():
    with pytest.raises(DataError):
        active_region(np.zeros((10, 2)), fps=30.0)
    with pytest.raises(DataError, match="interpolate"):
        z, _ = _sine_heel()
        z[5] = np.nan
        active_region(z, fps=30.0)
    with pytest.raises(DataError):
        active_region(np.zeros(10), fps=30.0)  # under a second of data
    with pytest.raises(DataError):
        active_region(np.full(300, 0.07), fps=30.0)  # stationary


# -----------------------------------------------------------------------------
# Cycle detection
# -----------------------------------------------------------------------------


def test_detect_cycles_sine_walk_counts():
    z, _ = _sine_heel(hz=1.0, seconds=5.0, fps=30.0)
    bounds = detect_cycles(z, fps=30.0)
    # 5 heel-lift peaks -> 4 consecutive cycles spanning the active region
    assert bounds.n_cycles == 4
    assert bounds.active == (0, z.size)
    for (s0, e0), (s1, _) in zip(bounds.cycles, bounds.cycles[1:]):
        assert s1 == e0  # consecutive peaks chain into contiguous cycles


def test_detect_cycles_boundary_accuracy_stand_walk_stand():
    fps = 30.0
    z, n_stand = _stand_walk_stand(fps=fps)
    bounds = detect_cycles(z, fps=fps)
    start = bounds.cycles[0][0] / fps
    end = bounds.cycles[-1][1] / fps
    assert abs(start - n_stand / fps) <= 0.3 + 1.0  # first peak ~1 cycle in
    assert bounds.n_cycles >= 3
    # every boundary is a true peak time of the sine (multiples of 1 s after
    # the stand phase, peak at phase pi)
    for s, e in bounds.cycles:
        for f in (s, e):
            t_walk = f / fps - n_stand / fps
            assert abs(t_walk - (round(t_walk - 0.5) + 0.5)) <= 0.3


def test_detect_cycles_spacing_prunes_jitter_doubles():
    # two near-coincident bumps per cycle: minimum peak spacing keeps one
    fps = 30.0
    t = np.arange(int(5 * fps)) / fps
    z = 0.05 + 0.02 * (1 - np.cos(2 * np.pi * 1.0 * t)) + 0.003 * (
        1 - np.cos(2 * np.pi * 2.0 * t + 0.4))
    bounds = detect_cycles(z, fps=fps)
    assert bounds.n_cycles in (4, 5)


def test_detect_cycles_needs_two_peaks():
    z, _ = _sine_heel(hz=1.0, seconds=1.2)
    with pytest.raises(DataError):
        detect_cycles(z, fps=30.0)


def test_segment_trial_uses_left_heel():
    fps = 30.0
    z, _ = _sine_heel(hz=1.0, seconds=5.0, fps=fps)
    pos = np.zeros((z.size, N_LANDMARKS, 3))
    pos[:, :, 2] = 0.9
    pos[:, LM["l_heel"], 2] = z
    pos[:, LM["r_heel"], 2] = 0.05
    processed = ProcessedTrial("S000", "normative", fps, SkeletonTopology(), pos,
                               angles=np.zeros((z.size, 12, 3)),
                               gimbal=np.zeros((z.size, 12), dtype=bool))
    bounds = segment(processed)
    assert bounds.n_cycles == 4


# -----------------------------------------------------------------------------
# CycleBoundaries invariants
# -----------------------------------------------------------------------------


def test_cycle_boundaries_validation():
    CycleBoundaries(cycles=[(0, 10), (10, 20)], active=(0, 25))
    with pytest.raises(DataError):
        CycleBoundaries(cycles=[(10, 5)], active=(0, 20))       # reversed
    with pytest.raises(DataError):
        CycleBoundaries(cycles=[(0, 10), (5, 15)], active=(0, 20))  # overlap
    with pytest.raises(DataError):
        CycleBoundaries(cycles=[(0, 30)], active=(0, 20))       # outside active


@settings(max_examples=100)
@given(st.lists(st.integers(0, 400), min_size=2, max_size=9, unique=True))
def test_cycle_boundaries_accepts_any_peak_chain(peaks):
    peaks = sorted(peaks)
    cycles = [(a, b) for a, b in zip(peaks, peaks[1:])]
    cb = CycleBoundaries(cycles=cycles, active=(peaks[0], peaks[-1] + 1))
    assert cb.n_cycles == len(peaks) - 1


# -----------------------------------------------------------------------------
# Time normalization
# -----------------------------------------------------------------------------


def test_normalize_cycle_resamples_to_100():
    n = 45
    ang = np.linspace(0.0, 1.0, n)[:, None, None] * np.ones((1, 12, 3))
    out = normalize_cycle(ang, (0, n - 1))
    assert out.shape == (CYCLE_SAMPLES, 12, 3)
    assert np.allclose(out[:, 0, 0], np.linspace(0.0, 1.0, CYCLE_SAMPLES), atol=1e-9)


def test_normalize_cycle_idempotent_on_100_frames():
    rng = np.random.default_rng(2)
    ang = rng.uniform(-0.5, 0.5, size=(CYCLE_SAMPLES, 12, 3))
    out = normalize_cycle(ang, (0, CYCLE_SAMPLES - 1))
    assert np.abs(out - ang).max() < 1e-12


def test_normalize_cycle_unwraps_pi_crossings():
    n = 60
    ang = np.zeros((n, 12, 3))
    ang[:, 5, 1] = np.mod(np.linspace(3.0, 3.5, n) + np.pi, 2 * np.pi) - np.pi
    out = normalize_cycle(ang, (0, n - 1))
    steps = np.abs(np.diff(np.unwrap(out[:, 5, 1])))
    assert steps.max() < 0.02  # smooth through the wrap, no 2*pi tears


def test_normalize_cycle_output_is_wrapped():
    n = 50
    ang = np.zeros((n, 12, 3))
    ang[:, 3, 0] = np.linspace(2.5, 4.0, n)  # drifts past pi
    out = normalize_cycle(ang, (0, n - 1))
    assert out.max() < np.pi and out.min() >= -np.pi


def test_normalize_cycle_bounds_validation():
    ang = np.zeros((30, 12, 3))
    with pytest.raises(DataError):
        normalize_cycle(ang, (10, 5))
    with pytest.raises(DataError):
        normalize_cycle(ang, (0, 30))


def test_normalized_cycles_stacks():
    z, _ = _sine_heel(hz=1.0, seconds=5.0)
    bounds = detect_cycles(z, fps=30.0)
    ang = np.random.default_rng(3).uniform(-0.4, 0.4, size=(z.size, 12, 3))
    stack = normalized_cycles(ang, bounds)
    assert stack.shape == (bounds.n_cycles, CYCLE_SAMPLES, 12, 3)


def test_write_cycle_report(tmp_path):
    path = tmp_path / "cycles.csv"
    bounds = CycleBoundaries(cycles=[(30, 60), (60, 91)], active=(28, 95))
    write_cycle_report(path, [("S000-normal", bounds, 30.0)])
    lines = path.read_text().splitlines()
    assert lines[0] == "trial_id,cycle_index,start_frame,end_frame,duration_s"
    assert lines[1] == "S000-normal,0,30,60,1"
    assert lines[2].split(",") == ["S000-normal", "1", "60", "91", f"{31 / 30.0:.9g}"]
    assert len(lines) == 3
