"""Trial file I/O.

A corpus file is JSON Lines: one trial per line, shaped

    {"subject_id": ..., "condition": ..., "fps": ...,
     "frames": [{"t": ..., "landmarks": {"nose": [x, y, z] | null, ...}}, ...]}

Missing landmarks are null. Floats are serialized with Python's shortest
round-trip repr and keys are sorted, so write -> read -> write reproduces the
file byte for byte. Trials that carry generator provenance (the synthetic
corpus does) keep it under an optional "source" key; the anomaly injector
relies on it surviving a save/load cycle.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DataError
from .skeleton import LANDMARKS, N_LANDMARKS, Trial


def trial_to_obj(trial: Trial) -> dict:
    """One trial as a JSON-ready dict (NaN landmarks become null)."""
    frames = []
    for t, row in zip(trial.times, trial.positions):
        lms = {}
        for name, xyz in zip(LANDMARKS, row):
            lms[name] = None if np.any(np.isnan(xyz)) else [float(v) for v in xyz]
        frames.append({"t": float(t), "landmarks": lms})
    obj = {
        "subject_id": trial.subject_id,
        "condition": trial.condition,
        "fps": float(trial.fps),
        "frames": frames,
    }
    if trial.source is not None:
        obj["source"] = trial.source
    return obj


_MISSING = (float("nan"),) * 3


def trial_from_obj(obj: dict) -> Trial:
    """Inverse of trial_to_obj; raises DataError on malformed input.

    Every landmark must be null (or absent) or exactly three numbers; the
    (n, 19, 3) position array is built in one conversion of all of them.
    """
    try:
        frames = obj["frames"]
        times = np.array([float(frame["t"]) for frame in frames])
        rows = [_MISSING if xyz is None else xyz
                for frame in frames for xyz in map(frame["landmarks"].get, LANDMARKS)]
        positions = _landmark_array(rows)
        if positions is None:
            i = next(i for i, xyz in enumerate(rows) if _landmark_array([xyz]) is None)
            frame, k = divmod(i, N_LANDMARKS)
            raise DataError(f"malformed trial record: frame {frame} landmark "
                            f"{LANDMARKS[k]!r} must be null or [x, y, z], got {rows[i]!r}")
        return Trial(
            subject_id=str(obj["subject_id"]),
            condition=str(obj["condition"]),
            fps=float(obj["fps"]),
            times=times,
            positions=positions.reshape(len(frames), N_LANDMARKS, 3),
            source=obj.get("source"),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed trial record: {exc}") from exc


def _landmark_array(rows):
    """(len(rows), 3) float array, or None unless every row is three numbers
    or missing as a whole (a null coordinate converts to NaN)."""
    try:
        arr = np.array(rows or np.empty((0, 3)), dtype=float)
    except (TypeError, ValueError):
        return None
    if arr.shape != (len(rows), 3) or np.any(np.isnan(arr).sum(axis=-1) % 3):
        return None
    return arr


def save_trials(path, trials) -> None:
    """Write trials as JSON Lines (one compact, key-sorted object per line)."""
    with open(path, "w") as fh:
        for trial in trials:
            fh.write(json.dumps(trial_to_obj(trial), sort_keys=True,
                                separators=(",", ":")))
            fh.write("\n")


def load_trials(path) -> list[Trial]:
    trials = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
            try:
                trials.append(trial_from_obj(obj))
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    if not trials:
        raise DataError(f"{path}: no trials found")
    return trials


def write_angle_csv(path, angle_seq: np.ndarray) -> None:
    """Angle stream CSV: one row per frame, one column per (joint, axis)."""
    from .skeleton import JOINTS

    angle_seq = np.asarray(angle_seq, dtype=float)
    if angle_seq.ndim != 3 or angle_seq.shape[1:] != (len(JOINTS), 3):
        raise DataError(f"angle stream must be (N, 12, 3), got {angle_seq.shape}")
    with open(path, "w") as fh:
        cols = [f"{j}_{ax}" for j in JOINTS for ax in "xyz"]
        fh.write("frame," + ",".join(cols) + "\n")
        for i, frame in enumerate(angle_seq):
            fh.write(f"{i}," + ",".join(f"{v:.9g}" for v in frame.ravel()) + "\n")
