"""Plumbing from raw landmark trials to model-ready streams, and the two
per-trial inference requests.

Each step is a thin composition of the dedicated modules: gap filling,
pelvis-frame normalization, angle extraction, tokenization, and cycle
segmentation. The only grounding is inside ``interpolate_missing``: gap-filled
foot samples (heels, toes) are clamped up to the floor; observed samples are
never moved. Cycle boundaries are always detected on the original
(gap-filled) heel track, so an anomalous or corrected angle stream is cut at
the same frames as the stream it is compared against.

``screen_trial`` and ``correct_trial`` are the one implementation of the
screening and correction requests; the CLI subcommands and ``e2e`` both
call them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .features import TokenWindows, make_windows
from .gaitcycle import CycleBoundaries, detect_cycles, normalized_cycles
from .inference import (
    BadnessSeries,
    CorrectionResult,
    NoiseFloor,
    RomTable,
    compute_badness,
    detect_and_correct,
)
from .model import ModelConfig
from .skeleton import (
    LM,
    SkeletonTopology,
    Trial,
    estimate_segment_lengths,
    extract_angle_sequence,
    forward_kinematics_landmarks,
    interpolate_missing,
    pelvis_normalize,
)
from .stats import select_analyzed


@dataclass
class ProcessedTrial:
    """A trial after gap filling and angle extraction."""

    subject_id: str
    condition: str
    fps: float
    topo: SkeletonTopology
    positions: np.ndarray  # (N, 19, 3) gap-filled world landmarks
    angles: np.ndarray     # (N, 12, 3) pelvis-frame joint angles
    gimbal: np.ndarray     # (N, 12) per-joint gimbal flags
    source: dict | None = None

    @property
    def n_frames(self) -> int:
        return self.angles.shape[0]


def preprocess_trial(trial: Trial, topo: SkeletonTopology | None = None) -> ProcessedTrial:
    """Raw trial -> joint angles (estimating bone lengths unless given)."""
    topo = topo or estimate_segment_lengths(trial)
    filled = interpolate_missing(trial, topo)
    normalized = pelvis_normalize(filled.positions)
    angles, gimbal = extract_angle_sequence(normalized, topo)
    return ProcessedTrial(
        subject_id=trial.subject_id,
        condition=trial.condition,
        fps=trial.fps,
        topo=topo,
        positions=filled.positions,
        angles=angles,
        gimbal=gimbal,
        source=trial.source,
    )


def trial_windows(processed: ProcessedTrial, stride: int = 1) -> TokenWindows:
    return make_windows(processed.angles, stride=stride)


def training_arrays(processed_trials, stride: int = 1):
    """Every trial's windows as one (N, 12, 7, 12)/(N, 12, 7, 3) float32 pair."""
    windows = [trial_windows(p, stride=stride) for p in processed_trials]
    if not windows:
        raise DataError("no training windows produced")
    feats = np.concatenate([w.features for w in windows]).astype(np.float32)
    vels = np.concatenate([w.velocities for w in windows]).astype(np.float32)
    return feats, vels


def screen_trial(
    trial: Trial, params, cfg: ModelConfig, rom: RomTable | None, stride: int
) -> BadnessSeries:
    """Preprocess a trial and score every ``stride``-th window."""
    p = preprocess_trial(trial)
    return compute_badness(params, cfg, trial_windows(p)[::stride], p.topo, rom)


def correct_trial(
    trial: Trial,
    params,
    cfg: ModelConfig,
    floor: NoiseFloor,
    *,
    k: int,
    rom: RomTable | None,
    detect_stride: int,
) -> tuple[ProcessedTrial, CorrectionResult, Trial]:
    """Preprocess, screen and correct a trial.

    Returns the processed original, the correction, and the normative twin:
    the corrected angle stream posed on the trial's own bone lengths, with
    a ``source`` naming the original condition and the flagged joints.
    """
    p = preprocess_trial(trial)
    res = detect_and_correct(p.angles, params, cfg, p.topo, floor,
                             k=k, rom=rom, detect_stride=detect_stride)
    twin = Trial(
        subject_id=trial.subject_id,
        condition=trial.condition,
        fps=trial.fps,
        times=trial.times.copy(),
        positions=forward_kinematics_landmarks(res.corrected, p.topo),
        source={
            "corrected_from": trial.condition,
            "flagged": [[name, score] for name, score in res.flagged],
        },
    )
    return p, res, twin


def segment(processed: ProcessedTrial) -> CycleBoundaries:
    """Gait cycles from the left heel height of the gap-filled positions."""
    return detect_cycles(processed.positions[:, LM["l_heel"], 2], processed.fps)


def analyzed_cycle_curves(
    angle_seq: np.ndarray, boundaries: CycleBoundaries
) -> np.ndarray:
    """Phase-normalized analysis channels: (n_cycles, 100, 4)."""
    cycles = normalized_cycles(np.asarray(angle_seq, dtype=float), boundaries)
    return select_analyzed(cycles)
