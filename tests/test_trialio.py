"""Trial JSONL round-tripping and the angle-stream CSV export."""

import json

import numpy as np
import pytest

from gaitmae.errors import DataError
from gaitmae.skeleton import LM, Trial
from gaitmae.synthgait import AnomalySpec, GaitGenConfig, generate_normative, inject_anomaly
from gaitmae.trialio import (
    load_trials,
    save_trials,
    trial_from_obj,
    trial_to_obj,
    write_angle_csv,
)


@pytest.fixture(scope="module")
def corpus():
    cfg = GaitGenConfig(n_subjects=2, stand_s=1.0, ramp_s=0.5, walk_s=2.0, seed=5)
    trials = generate_normative(cfg)
    trials.append(inject_anomaly(trials[0], AnomalySpec(kind="CD", intensity=0.6,
                                                        side="right")))
    return trials


def test_write_read_write_is_byte_exact(tmp_path, corpus):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_trials(p1, corpus)
    save_trials(p2, load_trials(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_values_and_missing_pattern_survive(tmp_path, corpus):
    p = tmp_path / "c.jsonl"
    save_trials(p, corpus)
    back = load_trials(p)
    assert len(back) == len(corpus)
    for a, b in zip(corpus, back):
        assert (a.subject_id, a.condition, a.fps) == (b.subject_id, b.condition, b.fps)
        assert np.array_equal(a.times, b.times)
        na, nb = np.isnan(a.positions), np.isnan(b.positions)
        assert np.array_equal(na.any(axis=-1), nb.any(axis=-1))
        assert np.array_equal(a.positions[~na], b.positions[~nb])


def test_source_survives_and_injector_accepts_reloaded(tmp_path, corpus):
    p = tmp_path / "d.jsonl"
    save_trials(p, corpus)
    back = load_trials(p)
    assert back[-1].source["anomaly"]["kind"] == "CD"
    spec = AnomalySpec(kind="TF", intensity=0.5)
    direct = inject_anomaly(corpus[0], spec)
    rehydrated = inject_anomaly(back[0], spec)
    md, mr = ~np.isnan(direct.positions), ~np.isnan(rehydrated.positions)
    assert np.array_equal(md, mr)
    assert np.array_equal(direct.positions[md], rehydrated.positions[mr])


def test_null_and_absent_landmarks_become_nan():
    obj = trial_to_obj(Trial(subject_id="X", condition="normative", fps=30.0,
                             times=np.array([0.0]),
                             positions=np.zeros((1, 19, 3))))
    obj["frames"][0]["landmarks"]["nose"] = None
    del obj["frames"][0]["landmarks"]["l_wrist"]
    t = trial_from_obj(obj)
    assert np.isnan(t.positions[0, LM["nose"]]).all()
    assert np.isnan(t.positions[0, LM["l_wrist"]]).all()
    assert t.positions[0, LM["pelvis"]].tolist() == [0.0, 0.0, 0.0]


def test_load_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"subject_id": "A", "condition": "normative", "fps": 30, "frames": []}\nnot json\n')
    with pytest.raises(DataError, match=":2:"):
        load_trials(p)
    p.write_text('{"subject_id": "A"}\n')
    with pytest.raises(DataError, match=":1:"):
        load_trials(p)
    p.write_text('{"subject_id": "A", "condition": "normative", "fps": 30, '
                 '"frames": [{"t": 0.0, "landmarks": [1, 2]}]}\n')
    with pytest.raises(DataError, match="bad.jsonl:1:"):
        load_trials(p)
    p.write_text("\n\n")
    with pytest.raises(DataError, match="no trials"):
        load_trials(p)


def test_blank_lines_are_skipped(tmp_path, corpus):
    p = tmp_path / "gaps.jsonl"
    body = "\n\n".join(json.dumps(trial_to_obj(t), sort_keys=True) for t in corpus[:2])
    p.write_text(body + "\n")
    assert len(load_trials(p)) == 2


def test_angle_csv_layout(tmp_path):
    p = tmp_path / "a.csv"
    write_angle_csv(p, np.zeros((5, 12, 3)))
    lines = p.read_text().splitlines()
    assert lines[0].startswith("frame,neck_x,neck_y,neck_z,")
    assert len(lines) == 6
    assert lines[1].split(",")[0] == "0"
    with pytest.raises(DataError):
        write_angle_csv(p, np.zeros((5, 11, 3)))
