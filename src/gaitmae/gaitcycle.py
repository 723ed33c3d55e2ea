"""Gait cycle segmentation and phase normalization.

A walking trial is cut into cycles at successive maxima of the (smoothed)
left-heel height, restricted to the trial's active region — the longest
stretch where the heel's vertical-velocity RMS envelope stays above 20% of
its trial maximum, which strips the standing lead-in/lead-out. Each cycle is
then resampled to 100 phase points so curves from different cycles, trials,
and subjects can be compared sample-by-sample.

Smoothing is a Savitzky-Golay filter written out explicitly because the
boundary handling is part of the contract here: edge samples are fitted on
the truncated window that remains inside the signal (scipy's ``mode`` options
do something different at the edges).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import find_peaks

from .errors import DataError
from .rotations import wrap_angle

SMOOTH_WINDOW = 7
SMOOTH_ORDER = 2
RMS_WINDOW_S = 0.5          # activity envelope averaging window
ACTIVITY_FRACTION = 0.2     # of the trial's max RMS
PEAK_PROMINENCE_M = 0.002
MIN_PEAK_SPACING_S = 0.35
CYCLE_SAMPLES = 100


@dataclass
class CycleBoundaries:
    """Cycle (start, end) frame pairs plus the active region that bounds them."""

    cycles: list            # [(start_frame, end_frame)], end inclusive
    active: tuple           # (first_frame, last_frame_exclusive)

    def __post_init__(self):
        a, b = self.active
        prev_end = None
        for start, end in self.cycles:
            if not (a <= start < end < b):
                raise DataError(
                    f"cycle ({start}, {end}) outside active region ({a}, {b})")
            if prev_end is not None and start < prev_end:
                raise DataError("cycles overlap")
            prev_end = end

    @property
    def n_cycles(self) -> int:
        return len(self.cycles)


# =============================================================================
# Savitzky-Golay smoothing
# =============================================================================

def _fit_rows(window: int, order: int) -> np.ndarray:
    """Rows of the least-squares hat matrix for one full window.

    Row i dotted with the window's samples gives the fitted polynomial
    evaluated at position i.
    """
    x = np.arange(window, dtype=float)
    a = x[:, None] ** np.arange(order + 1)
    return a @ np.linalg.pinv(a)


def savgol(signal: np.ndarray, window: int = SMOOTH_WINDOW,
           order: int = SMOOTH_ORDER) -> np.ndarray:
    """Least-squares polynomial smoothing with truncated-window edges.

    Interior samples use the centered fit (for window 7 / order 2 this is the
    classic (-2, 3, 6, 7, 6, 3, -2)/21 kernel). The first and last half-window
    samples are each fitted on whatever part of their window lies inside the
    signal, so polynomials up to ``order`` pass through unchanged everywhere,
    edges included.
    """
    y = np.asarray(signal, dtype=float)
    if y.ndim != 1:
        raise DataError(f"savgol expects a 1-d signal, got shape {y.shape}")
    if window % 2 != 1 or window < 3:
        raise DataError(f"savgol window must be odd and >= 3, got {window}")
    if order >= window:
        raise DataError(f"savgol order {order} needs a window > {order}")
    n = y.shape[0]
    if n < window:
        raise DataError(f"signal too short to smooth: {n} < window {window}")

    half = window // 2
    center_kernel = _fit_rows(window, order)[half]
    out = np.empty_like(y)
    out[half:n - half] = np.correlate(y, center_kernel, mode="valid")

    for i in range(half):
        # leading edge: window [0, i + half]; trailing edge mirrored
        rows = _fit_rows(i + half + 1, order)
        out[i] = rows[i] @ y[:i + half + 1]
        out[n - 1 - i] = rows[-1 - i] @ y[n - (i + half + 1):]
    return out


# =============================================================================
# Activity gating and cycle detection
# =============================================================================

def _rms_envelope(velocity: np.ndarray, fps: float) -> np.ndarray:
    """Centered moving RMS over ``RMS_WINDOW_S`` (windows truncate at edges)."""
    k = int(round(RMS_WINDOW_S * fps))
    half = max(k // 2, 1)
    sq = np.concatenate([[0.0], np.cumsum(velocity * velocity)])
    idx = np.arange(velocity.shape[0])
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half + 1, velocity.shape[0])
    return np.sqrt((sq[hi] - sq[lo]) / (hi - lo))


def active_region(heel_z: np.ndarray, fps: float) -> tuple:
    """Longest stretch where heel vertical speed stays above the gate.

    Velocity is the frame difference scaled by fps; its RMS envelope is
    compared against ``ACTIVITY_FRACTION`` of the trial maximum. Returns
    (start_frame, end_frame_exclusive).
    """
    z = np.asarray(heel_z, dtype=float)
    if z.ndim != 1:
        raise DataError(f"active_region expects a 1-d signal, got shape {z.shape}")
    if np.isnan(z).any():
        raise DataError("heel series contains missing samples; interpolate first")
    if z.shape[0] < fps:
        raise DataError(f"trial shorter than 1 s ({z.shape[0]} frames at {fps} fps)")
    v = np.diff(z) * fps
    rms = _rms_envelope(v, fps)
    peak = rms.max()
    if peak <= 0.0:
        raise DataError("heel is stationary: no active region")
    gate = rms >= ACTIVITY_FRACTION * peak

    # longest contiguous True run
    edges = np.diff(np.concatenate([[0], gate.view(np.int8), [0]]))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)
    runs = ends - starts
    best = int(np.argmax(runs))
    # velocity sample j sits between frames j and j+1
    return int(starts[best]), int(ends[best]) + 1


def detect_cycles(heel_z: np.ndarray, fps: float) -> CycleBoundaries:
    """Cycle boundaries from successive heel-height maxima.

    The raw heel z is smoothed, gated to its active region, and peaks with
    prominence >= 2 mm and spacing >= 0.35 s are kept; each consecutive peak
    pair is one gait cycle.
    """
    z = savgol(np.asarray(heel_z, dtype=float))
    a, b = active_region(z, fps)
    peaks, _ = find_peaks(z[a:b], prominence=PEAK_PROMINENCE_M,
                          distance=MIN_PEAK_SPACING_S * fps)
    if peaks.shape[0] < 2:
        raise DataError(
            f"found {peaks.shape[0]} heel peak(s) in the active region: "
            "no complete gait cycle")
    peaks = peaks + a
    cycles = [(int(s), int(e)) for s, e in zip(peaks[:-1], peaks[1:])]
    return CycleBoundaries(cycles=cycles, active=(a, b))


# =============================================================================
# Phase normalization
# =============================================================================

def normalize_cycle(angles: np.ndarray, bounds: tuple) -> np.ndarray:
    """Resample one cycle's angles to 100 phase points.

    ``angles`` is (n_frames, ...) in radians; ``bounds`` the cycle's
    (start, end) frames, both included in the resampled span. Each angle
    channel is unwrapped, linearly interpolated onto 100 evenly spaced
    phase points, and re-wrapped to [-pi, pi], so paths that cross the +-pi
    seam stay continuous. Endpoints are preserved exactly, and a 100-frame
    input comes back unchanged.
    """
    arr = np.asarray(angles, dtype=float)
    start, end = int(bounds[0]), int(bounds[1])
    if start < 0 or end >= arr.shape[0] or end - start < 1:
        raise DataError(
            f"cycle bounds ({start}, {end}) invalid for {arr.shape[0]} frames")
    seg = arr[start:end + 1]
    n = seg.shape[0]
    flat = np.unwrap(seg.reshape(n, -1), axis=0)
    src = np.linspace(0.0, 1.0, n)
    dst = np.linspace(0.0, 1.0, CYCLE_SAMPLES)
    res = np.empty((CYCLE_SAMPLES, flat.shape[1]))
    for c in range(flat.shape[1]):
        res[:, c] = np.interp(dst, src, flat[:, c])
    return wrap_angle(res.reshape((CYCLE_SAMPLES,) + seg.shape[1:]))


def normalized_cycles(angle_seq: np.ndarray, boundaries: CycleBoundaries) -> np.ndarray:
    """Stack every cycle of a trial: (n_cycles, 100, ...) wrapped radians."""
    return np.stack([normalize_cycle(angle_seq, b) for b in boundaries.cycles])


# =============================================================================
# Report output
# =============================================================================

def write_cycle_report(path, entries) -> None:
    """Cycle report CSV.

    ``entries`` is an iterable of (trial_id, CycleBoundaries, fps); one row
    per cycle with its frame bounds and duration in seconds.
    """
    with open(path, "w") as fh:
        fh.write("trial_id,cycle_index,start_frame,end_frame,duration_s\n")
        for trial_id, bounds, fps in entries:
            for i, (s, e) in enumerate(bounds.cycles):
                fh.write(f"{trial_id},{i},{s},{e},{(e - s) / fps:.9g}\n")
