"""Command-line surface: config round-trip, exit codes, error JSON, and the
fast subcommands end to end on a miniature corpus."""

import json
import os
import struct
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from gaitmae.cli import (
    PipelineConfig,
    build_parser,
    load_pipeline_config,
    main,
    save_pipeline_config,
)
from gaitmae.model import (
    CKPT_MAGIC,
    CKPT_VERSION,
    ModelConfig,
    init_parameters,
    save_checkpoint,
)
from gaitmae.synthgait import GaitGenConfig, config_as_dict
from gaitmae.training import CurriculumConfig, TrainConfig


# ---------------------------------------------------------------------------
# Pipeline configuration
# ---------------------------------------------------------------------------


def test_pipeline_config_roundtrip_lossless(tmp_path):
    cfg = PipelineConfig(
        seed=99,
        model=ModelConfig.tiny(),
        train=TrainConfig(lr=1e-3, epochs=7),
        curriculum=CurriculumConfig(transition_epochs=12),
        gaitgen=GaitGenConfig(n_subjects=3, seed=4),
    )
    path = tmp_path / "pipeline.json"
    save_pipeline_config(path, cfg)
    back = load_pipeline_config(path)
    assert back.as_dict() == cfg.as_dict()
    assert back.seed == 99
    assert back.model == ModelConfig.tiny()
    assert back.train.epochs == 7
    assert back.curriculum.transition_epochs == 12
    assert config_as_dict(back.gaitgen) == config_as_dict(cfg.gaitgen)


def test_pipeline_config_hash_sensitive_to_fields():
    a = PipelineConfig(seed=0)
    b = PipelineConfig(seed=1)
    c = PipelineConfig(seed=0, train=TrainConfig(lr=3e-4))
    assert a.config_hash() != b.config_hash()
    assert a.config_hash() != c.config_hash()
    assert a.config_hash() == PipelineConfig(seed=0).config_hash()


def test_pipeline_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": {"n_layerz": 3}}))
    rc = main(["train", "--config", str(path), "--corpus", "x", "--checkpoint", "y"])
    assert rc == 2


# ---------------------------------------------------------------------------
# Exit codes and error reporting
# ---------------------------------------------------------------------------


def test_detect_without_checkpoint_is_usage_error(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("{}\n")
    rc = main([
        "detect", "--corpus", str(corpus),
        "--checkpoint", str(tmp_path / "missing.bin"),
        "--noise-floor", str(tmp_path / "missing.json"),
        "--report-dir", str(tmp_path / "reports"),
    ])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "UsageError"
    assert err["exit_code"] == 1
    assert "missing.bin" in err["message"]


def test_unknown_flag_is_usage_error(capsys):
    rc = main(["synth", "--out", "x.jsonl", "--no-such-flag"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "UsageError"


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1


def test_malformed_corpus_is_data_error(tmp_path, capsys):
    corpus = tmp_path / "garbage.jsonl"
    corpus.write_text("this is not json\n")
    rc = main(["segment", "--corpus", str(corpus), "--out", str(tmp_path / "c.csv")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DataError"
    assert err["exit_code"] == 2


def _checkpoint_with_header(header: dict) -> bytes:
    h = json.dumps(header).encode()
    return CKPT_MAGIC + struct.pack("<II", CKPT_VERSION, len(h)) + h + struct.pack("<I", 0)


@pytest.mark.parametrize("flag, content, named", [
    ("--checkpoint", _checkpoint_with_header({"bogus": 1}), "corrupt checkpoint"),
    ("--config", b"[1, 2]", "pipeline config"),
    ("--config", b'{"gaitgen": [1]}', "pipeline config"),
    ("--config", b'{"seed": "x"}', "pipeline config"),
    ("--config", b'{"rom_path": "rom.json"}', "pipeline config"),
], ids=["checkpoint-unknown-key", "config-list", "config-gaitgen-list", "config-seed-text",
        "config-dropped-field"])
def test_malformed_input_file_is_data_error(tmp_path, capsys, flag, content, named):
    cfg = ModelConfig.tiny()
    ckpt = tmp_path / "tiny.bin"
    save_checkpoint(ckpt, init_parameters(cfg, np.random.default_rng(0)), cfg)
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("{}\n")
    bad = tmp_path / "bad"
    bad.write_bytes(content)
    argv = {"--corpus": corpus, "--checkpoint": ckpt, "--out": tmp_path / "floor.json"}
    argv[flag] = bad
    rc = main(["calibrate"] + [str(x) for kv in argv.items() for x in kv])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DataError"
    assert err["exit_code"] == 2
    assert named in err["message"]


def test_parser_knows_all_nine_commands():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, type(parser._subparsers._group_actions[0])))
    names = set(sub.choices)
    assert names == {"synth", "preprocess", "train", "calibrate", "detect",
                     "correct", "segment", "evaluate", "e2e"}


# ---------------------------------------------------------------------------
# Small commands end to end
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mini_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    out = root / "mini.jsonl"
    rc = main(["synth", "--out", str(out), "--n-subjects", "2",
               "--speeds", "normal=1.0", "--seed", "3"])
    assert rc == 0
    return out


def test_synth_writes_corpus_manifest_and_provenance(mini_corpus):
    lines = mini_corpus.read_text().splitlines()
    assert len(lines) == 2
    doc = json.loads(lines[0])
    assert doc["subject_id"] == "S000"
    manifest = json.loads(
        mini_corpus.with_suffix(".manifest.json").read_text())
    assert manifest["n_trials"] == 2
    assert "_provenance" in manifest
    assert "seed=3" in manifest["_provenance"]
    sidecar = json.loads(open(str(mini_corpus) + ".provenance.json").read())
    assert "config=" in sidecar["_provenance"]


def test_synth_seed_determinism(tmp_path, mini_corpus):
    again = tmp_path / "again.jsonl"
    rc = main(["synth", "--out", str(again), "--n-subjects", "2",
               "--speeds", "normal=1.0", "--seed", "3"])
    assert rc == 0
    assert again.read_bytes() == mini_corpus.read_bytes()


def test_synth_inject_turns_conditions_into_kind(tmp_path):
    out = tmp_path / "cd.jsonl"
    rc = main(["synth", "--out", str(out), "--n-subjects", "1",
               "--speeds", "normal=1.0", "--seed", "3",
               "--inject", "CD", "--intensity", "0.5"])
    assert rc == 0
    doc = json.loads(out.read_text().splitlines()[0])
    assert doc["condition"] == "CD"


def test_preprocess_store_layout(tmp_path, mini_corpus):
    store = tmp_path / "store"
    rc = main(["preprocess", "--corpus", str(mini_corpus),
               "--out-dir", str(store)])
    assert rc == 0
    index = json.loads((store / "index.json").read_text())
    assert len(index["trials"]) == 2
    entry = index["trials"][0]
    assert entry["subject_id"] == "S000"
    assert entry["condition"] == "normative"
    with np.load(store / entry["file"]) as z:
        assert z["angles"].shape == (entry["n_frames"], 12, 3)
        assert z["positions"].shape == (entry["n_frames"], 19, 3)
        assert not np.isnan(z["positions"]).any()
    csvs = sorted(store.glob("*.angles.csv"))
    assert len(csvs) == 2


def test_segment_report_has_provenance_header(tmp_path, mini_corpus):
    out = tmp_path / "cycles.csv"
    rc = main(["segment", "--corpus", str(mini_corpus), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# gaitmae ")
    assert lines[1] == "trial_id,cycle_index,start_frame,end_frame,duration_s"
    assert len(lines) > 2


def test_calibrate_needs_five_trials(tmp_path, mini_corpus, capsys):
    cfg = ModelConfig.tiny()
    params = init_parameters(cfg, np.random.default_rng(0))
    ckpt = tmp_path / "tiny.bin"
    save_checkpoint(ckpt, params, cfg)
    rc = main(["calibrate", "--corpus", str(mini_corpus),
               "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "floor.json"), "--stride", "64"])
    assert rc == 2   # only two trials in the corpus
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DataError"


def test_rom_table_not_json_is_data_error(tmp_path, mini_corpus, capsys):
    cfg = ModelConfig.tiny()
    ckpt = tmp_path / "tiny.bin"
    save_checkpoint(ckpt, init_parameters(cfg, np.random.default_rng(0)), cfg)
    rom = tmp_path / "rom.json"
    rom.write_text("{not json")
    rc = main(["calibrate", "--corpus", str(mini_corpus),
               "--checkpoint", str(ckpt), "--rom", str(rom),
               "--out", str(tmp_path / "floor.json")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DataError"
    assert "rom.json" in err["message"]


def test_landmarks_not_an_object_is_data_error(tmp_path, capsys):
    corpus = tmp_path / "lists.jsonl"
    corpus.write_text(json.dumps({"subject_id": "A", "condition": "normative", "fps": 30,
                                  "frames": [{"t": 0.0, "landmarks": [1, 2]}]}) + "\n")
    rc = main(["segment", "--corpus", str(corpus), "--out", str(tmp_path / "c.csv")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DataError"
    assert "lists.jsonl:1:" in err["message"]


def test_console_script_is_wired():
    # the child imports the package from wherever this process did
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-m", "gaitmae.cli", "--version"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert out.stdout.startswith("gaitmae ")
