"""Command-line pipeline driver.

Subcommands map one-to-one onto the pipeline stages: synthesize a corpus,
preprocess it into angle streams, train the masked autoencoder, calibrate
the screening noise floor, detect / correct deviating joints, segment gait
cycles, and run the statistical evaluation. ``e2e`` synthesizes its corpora
and then runs the same stage code the subcommands run (training, calibration,
correction, cycle report, evaluation) under one seed into a work directory;
it is byte-deterministic, and its files are what the subcommands write on
the same inputs.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric fault. Errors
are reported as one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, GaitError, UsageError
from .gaitcycle import write_cycle_report
from .inference import (
    TOP_K,
    NoiseFloor,
    RomTable,
    calibrate_noise_floor,
    default_rom_table,
    load_noise_floor,
    save_noise_floor,
    select_flagged,
    write_badness_report,
)
from .model import ModelConfig, load_checkpoint, save_checkpoint
from .pipeline import (
    ProcessedTrial,
    analyzed_cycle_curves,
    correct_trial,
    preprocess_trial,
    screen_trial,
    segment,
    training_arrays,
)
from .skeleton import JOINTS
from .stats import (
    ANGLE_LABELS,
    BOOTSTRAP_ITERS,
    DELTA_DEG,
    CurveSet,
    build_band,
    evaluate,
    write_band_csv,
    write_rmse_csv,
    write_stats_json,
)
from .synthgait import (
    ANOMALY_KINDS,
    AnomalySpec,
    GaitGenConfig,
    config_as_dict,
    config_from_dict,
    corpus_manifest,
    generate_normative,
    inject_anomaly,
)
from .training import (
    CurriculumConfig,
    TrainConfig,
    train,
    save_train_config,
    write_loss_history,
)
from .trialio import load_trials, save_trials, write_angle_csv

log = logging.getLogger("gaitmae")


def _version() -> str:
    try:
        from importlib.metadata import version

        return version("artifact")
    except Exception:
        return "0"


# =============================================================================
# Pipeline configuration
# =============================================================================


@dataclass
class PipelineConfig:
    """Everything one run needs: component configs and one seed."""

    seed: int = 0
    model: ModelConfig = field(default_factory=ModelConfig.desk_scale)
    train: TrainConfig = field(default_factory=TrainConfig)
    curriculum: CurriculumConfig = field(default_factory=CurriculumConfig)
    gaitgen: GaitGenConfig = field(default_factory=GaitGenConfig)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "model": asdict(self.model),
            "train": asdict(self.train),
            "curriculum": asdict(self.curriculum),
            "gaitgen": config_as_dict(self.gaitgen),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        try:
            unknown = sorted(set(doc) - {"seed", "model", "train", "curriculum", "gaitgen"})
            if unknown:
                raise DataError(f"unknown pipeline config keys {unknown}")
            return cls(
                seed=int(doc.get("seed", 0)),
                model=ModelConfig(**doc.get("model", {})),
                train=TrainConfig(**doc.get("train", {})),
                curriculum=CurriculumConfig(**doc.get("curriculum", {})),
                gaitgen=config_from_dict(doc.get("gaitgen", {})),
            )
        except (AttributeError, TypeError, ValueError) as exc:
            raise DataError(f"malformed pipeline config ({exc})") from None

    def config_hash(self) -> str:
        blob = json.dumps(self.as_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def save_pipeline_config(path, cfg: PipelineConfig) -> None:
    with open(path, "w") as fh:
        json.dump(cfg.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_pipeline_config(path) -> PipelineConfig:
    try:
        with open(path) as fh:
            return PipelineConfig.from_dict(json.load(fh))
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read pipeline config {path}: {exc}") from exc


# =============================================================================
# Provenance stamping
# =============================================================================


def _provenance(cfg_hash: str, seed: int) -> str:
    return f"gaitmae {_version()} config={cfg_hash} seed={seed}"


def _stamp_csv(path, prov: str) -> None:
    """Prepend a comment line; module writers emit plain CSV."""
    p = Path(path)
    p.write_text(f"# {prov}\n" + p.read_text())


def _stamp_json(path, prov: str) -> None:
    p = Path(path)
    doc = json.loads(p.read_text())
    doc["_provenance"] = prov
    p.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _sidecar(path, prov: str) -> None:
    """Provenance next to byte-format-pinned files (trial JSONL, checkpoint)."""
    Path(str(path) + ".provenance.json").write_text(
        json.dumps({"_provenance": prov, "file": Path(path).name},
                   indent=2, sort_keys=True) + "\n"
    )


# =============================================================================
# Shared helpers
# =============================================================================


def _require_files(*paths) -> None:
    for p in paths:
        if p is not None and not Path(p).exists():
            raise UsageError(f"required input not found: {p}")


def _config_for(args) -> PipelineConfig:
    cfg = load_pipeline_config(args.config) if getattr(args, "config", None) else PipelineConfig()
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    return cfg


def _rom_for(args) -> RomTable:
    path = getattr(args, "rom", None)
    if not path:
        return default_rom_table()
    _require_files(path)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed ROM table {path}: {exc}") from exc
    try:
        return RomTable(rom=np.array([doc[name]["rom"] for name in JOINTS], dtype=float),
                        weights=np.array([doc[name]["weights"] for name in JOINTS], dtype=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed ROM table {path}: {exc}") from exc


def _trial_tag(trial, index: int) -> str:
    return f"{trial.subject_id}-{trial.condition}-{index:03d}"


_MODEL_PRESETS = {"desk": ModelConfig.desk_scale, "paper": ModelConfig, "tiny": ModelConfig.tiny}


def _preprocess_corpus(trials) -> list[ProcessedTrial]:
    out = []
    for i, t in enumerate(trials):
        out.append(preprocess_trial(t))
        if (i + 1) % 20 == 0:
            log.info("preprocessed %d/%d trials", i + 1, len(trials))
    return out


# =============================================================================
# Stages: each is run by its subcommand and by e2e
# =============================================================================


def _train_checkpoint(processed, model_cfg, train_cfg, curriculum, seed, *, stride,
                      checkpoint, loss_csv, train_config, prov):
    """Train on the trials' windows and write the checkpoint with its sidecar,
    plus the loss history and training config where paths are given.
    Returns the TrainResult and the number of training windows."""
    feats, vels = training_arrays(processed, stride=stride)
    log.info("training on %d windows from %d trials (%d epochs)",
             feats.shape[0], len(processed), train_cfg.epochs)
    t0 = time.monotonic()

    def progress(epoch, breakdown):
        log.info("epoch %d: total %.5f (%.1f s elapsed)",
                 epoch, breakdown.total, time.monotonic() - t0)

    result = train(feats, vels, model_cfg, train_cfg, curriculum, seed=seed, progress=progress)
    save_checkpoint(checkpoint, result.params, result.config)
    _sidecar(checkpoint, prov)
    if loss_csv:
        write_loss_history(loss_csv, result.history, provenance=prov)
    if train_config:
        save_train_config(train_config, train_cfg, curriculum)
    log.info("checkpoint written to %s", checkpoint)
    return result, feats.shape[0]


def _calibrate(trials, params, model_cfg, rom, stride, out, prov) -> NoiseFloor:
    """Noise floor from screening clean trials, written to ``out``."""
    series = []
    for i, trial in enumerate(trials):
        series.append(screen_trial(trial, params, model_cfg, rom, stride))
        log.info("screened %s (%d/%d)", _trial_tag(trial, i), i + 1, len(trials))
    floor = calibrate_noise_floor(series)
    save_noise_floor(out, floor)
    _stamp_json(out, prov)
    log.info("noise floor from %d trials -> %s: %s", floor.n_trials, out,
             np.round(floor.taus, 4).tolist())
    return floor


def _correct_corpus(trials, params, model_cfg, floor, rom, *, k, stride, out,
                    report_dir, report_prefix, prov):
    """Correct every trial and write the twins to ``out``; with a
    ``report_dir``, also each trial's badness report. Returns
    ``correct_trial``'s (processed original, CorrectionResult, twin) per trial."""
    done = []
    for i, trial in enumerate(trials):
        p, res, twin = correct_trial(trial, params, model_cfg, floor,
                                     k=k, rom=rom, detect_stride=stride)
        tag = _trial_tag(trial, i)
        if report_dir:
            path = Path(report_dir) / f"{report_prefix}{tag}.badness.json"
            write_badness_report(path, res.badness, floor, res.flagged)
            _stamp_json(path, prov)
        log.info("corrected %s%s: flags %s (%d/%d)", report_prefix, tag,
                 [n for n, _ in res.flagged] or "none", i + 1, len(trials))
        done.append((p, res, twin))
    save_trials(out, [twin for _p, _res, twin in done])
    _sidecar(out, prov)
    return done


def _cycle_report(processed, out, prov) -> None:
    entries = [(_trial_tag(p, i), segment(p), p.fps) for i, p in enumerate(processed)]
    write_cycle_report(out, entries)
    _stamp_csv(out, prov)
    log.info("cycle report for %d trials -> %s", len(processed), out)


def _curve_sets(originals, corrected) -> list[CurveSet]:
    """Cycle curves of (original, corrected) pairs, both cut at the original
    trial's detected cycle boundaries."""
    if len(originals) != len(corrected):
        raise DataError(
            f"pairing mismatch: {len(originals)} originals vs {len(corrected)} corrected"
        )
    sets = []
    for po, pc in zip(originals, corrected):
        if (po.subject_id, po.condition) != (pc.subject_id, pc.condition):
            raise DataError(
                f"pair mismatch: {po.subject_id}/{po.condition} vs "
                f"{pc.subject_id}/{pc.condition}"
            )
        if po.n_frames != pc.n_frames:
            raise DataError(f"frame count mismatch for {po.subject_id}")
        bounds = segment(po)
        sets.append(CurveSet(
            participant=po.subject_id,
            condition=po.condition,
            original=analyzed_cycle_curves(po.angles, bounds),
            reconstructed=analyzed_cycle_curves(pc.angles, bounds),
        ))
    return sets


def _evaluate(normative, originals, corrected, *, band_k, delta, iters, seed,
              rmse_csv, stats_json, band_csv, prov):
    """Band from the normative trials, paired curve sets, statistics, and
    their reports (the band CSV where a path is given)."""
    curves = [analyzed_cycle_curves(p.angles, segment(p))
              for p in normative if p.condition == "normative"]
    if not curves:
        raise DataError("no normative trials to build the band from")
    band = build_band(np.concatenate(curves, axis=0), k=band_k, labels=ANGLE_LABELS)
    sets = _curve_sets(originals, corrected)
    report = evaluate(sets, band, delta=delta, iters=iters, seed=seed)
    write_rmse_csv(rmse_csv, report.records)
    _stamp_csv(rmse_csv, prov)
    write_stats_json(stats_json, report)
    _stamp_json(stats_json, prov)
    if band_csv:
        write_band_csv(band_csv, band)
        _stamp_csv(band_csv, prov)
    log.info("evaluation over %d trial pairs -> %s", len(sets), stats_json)
    return report


# =============================================================================
# Commands
# =============================================================================


def cmd_synth(args) -> int:
    cfg = _config_for(args)
    g = cfg.gaitgen
    overrides = {}
    for name in ("n_subjects", "trials_per_speed", "walk_s", "stand_s", "ramp_s",
                 "fps", "noise_sigma", "dropout_prob"):
        v = getattr(args, name, None)
        if v is not None:
            overrides[name] = v
    if args.speeds:
        speeds = {}
        for part in args.speeds.split(","):
            name, _, hz = part.partition("=")
            if not hz:
                raise UsageError(f"--speeds entries must look like name=hz, got {part!r}")
            speeds[name.strip()] = float(hz)
        overrides["speeds"] = speeds
    if overrides or cfg.seed != g.seed:
        g = config_from_dict({**config_as_dict(g), **overrides, "seed": cfg.seed})
    trials = generate_normative(g)
    if args.inject:
        spec = AnomalySpec(kind=args.inject, intensity=args.intensity, side=args.side)
        trials = [inject_anomaly(t, spec) for t in trials]
    save_trials(args.out, trials)
    prov = _provenance(cfg.config_hash(), cfg.seed)
    _sidecar(args.out, prov)
    manifest = args.manifest or str(Path(args.out).with_suffix(".manifest.json"))
    with open(manifest, "w") as fh:
        json.dump(corpus_manifest(trials), fh, indent=2, sort_keys=True)
        fh.write("\n")
    _stamp_json(manifest, prov)
    log.info("wrote %d trials to %s", len(trials), args.out)
    return 0


def cmd_preprocess(args) -> int:
    cfg = _config_for(args)
    _require_files(args.corpus)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trials = load_trials(args.corpus)
    index = []
    for i, trial in enumerate(trials):
        p = preprocess_trial(trial)
        tag = _trial_tag(trial, i)
        np.savez(
            out_dir / f"{tag}.npz",
            positions=p.positions,
            angles=p.angles,
            gimbal=p.gimbal,
            times=trial.times,
        )
        write_angle_csv(out_dir / f"{tag}.angles.csv", p.angles)
        index.append({
            "file": f"{tag}.npz",
            "subject_id": p.subject_id,
            "condition": p.condition,
            "fps": p.fps,
            "n_frames": p.n_frames,
            "lengths": {k: float(v) for k, v in sorted(p.topo.lengths.items())},
        })
    with open(out_dir / "index.json", "w") as fh:
        json.dump({"trials": index}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _stamp_json(out_dir / "index.json", _provenance(cfg.config_hash(), cfg.seed))
    log.info("preprocessed %d trials into %s", len(trials), out_dir)
    return 0


def cmd_train(args) -> int:
    cfg = _config_for(args)
    _require_files(args.corpus)
    model_cfg = _MODEL_PRESETS[args.scale]() if args.scale else cfg.model
    overrides = {k: getattr(args, k) for k in ("epochs", "batch_size", "lr")
                 if getattr(args, k) is not None}
    train_cfg = TrainConfig(**{**asdict(cfg.train), **overrides})

    trials = [t for t in load_trials(args.corpus) if t.condition == "normative"]
    if not trials:
        raise DataError("training corpus contains no normative trials")
    prov = _provenance(cfg.config_hash(), cfg.seed)
    _train_checkpoint(_preprocess_corpus(trials), model_cfg, train_cfg, cfg.curriculum,
                      cfg.seed, stride=args.stride, checkpoint=args.checkpoint,
                      loss_csv=args.loss_csv, train_config=args.train_config, prov=prov)
    if args.train_config:
        _stamp_json(args.train_config, prov)
    return 0


def cmd_calibrate(args) -> int:
    cfg = _config_for(args)
    _require_files(args.corpus, args.checkpoint)
    params, model_cfg = load_checkpoint(args.checkpoint)
    rom = _rom_for(args)
    trials = [t for t in load_trials(args.corpus) if t.condition == "normative"]
    _calibrate(trials, params, model_cfg, rom, args.stride, args.out,
               _provenance(cfg.config_hash(), cfg.seed))
    return 0


def cmd_detect(args) -> int:
    cfg = _config_for(args)
    _require_files(args.corpus, args.checkpoint, args.noise_floor)
    params, model_cfg = load_checkpoint(args.checkpoint)
    floor = load_noise_floor(args.noise_floor)
    rom = _rom_for(args)
    report_dir = Path(args.report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    prov = _provenance(cfg.config_hash(), cfg.seed)

    trials = load_trials(args.corpus)
    summary = []
    for i, trial in enumerate(trials):
        badness = screen_trial(trial, params, model_cfg, rom, args.stride)
        flagged = select_flagged(badness, floor, k=args.k_top)
        tag = _trial_tag(trial, i)
        log.info("screened %s (%d/%d)", tag, i + 1, len(trials))
        path = report_dir / f"{tag}.badness.json"
        write_badness_report(path, badness, floor, flagged)
        _stamp_json(path, prov)
        summary.append({
            "trial": tag,
            "condition": trial.condition,
            "flagged": [[name, score] for name, score in flagged],
        })
    with open(report_dir / "flags.json", "w") as fh:
        json.dump({"trials": summary}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _stamp_json(report_dir / "flags.json", prov)
    return 0


def cmd_correct(args) -> int:
    cfg = _config_for(args)
    _require_files(args.corpus, args.checkpoint, args.noise_floor)
    params, model_cfg = load_checkpoint(args.checkpoint)
    floor = load_noise_floor(args.noise_floor)
    rom = _rom_for(args)
    for d in (args.angles_dir, args.report_dir):
        if d:
            Path(d).mkdir(parents=True, exist_ok=True)
    done = _correct_corpus(load_trials(args.corpus), params, model_cfg, floor, rom,
                           k=args.k_top, stride=args.stride, out=args.out,
                           report_dir=args.report_dir, report_prefix="",
                           prov=_provenance(cfg.config_hash(), cfg.seed))
    if args.angles_dir:
        for i, (p, res, _twin) in enumerate(done):
            tag = _trial_tag(p, i)
            write_angle_csv(Path(args.angles_dir) / f"{tag}.corrected.csv", res.corrected)
            write_angle_csv(Path(args.angles_dir) / f"{tag}.original.csv", res.original)
    return 0


def cmd_segment(args) -> int:
    cfg = _config_for(args)
    _require_files(args.corpus)
    _cycle_report(_preprocess_corpus(load_trials(args.corpus)), args.out,
                  _provenance(cfg.config_hash(), cfg.seed))
    return 0


def cmd_evaluate(args) -> int:
    cfg = _config_for(args)
    _require_files(args.normative, args.originals, args.corrected)
    _evaluate(_preprocess_corpus(load_trials(args.normative)),
              _preprocess_corpus(load_trials(args.originals)),
              _preprocess_corpus(load_trials(args.corrected)),
              band_k=args.band_k, delta=args.delta_deg, iters=args.iters, seed=cfg.seed,
              rmse_csv=args.rmse_csv, stats_json=args.stats_json, band_csv=args.band_csv,
              prov=_provenance(cfg.config_hash(), cfg.seed))
    return 0


# =============================================================================
# End-to-end run
# =============================================================================


def run_e2e(args) -> dict:
    """Synthesize the corpora, then run the subcommands' own stages on them
    under one seed: train, calibrate, correct, segment, evaluate. Returns the
    summary dict (also written to <workdir>/summary.json)."""
    cfg = _config_for(args)
    seed = cfg.seed
    work = Path(args.workdir)
    for sub in ("corpus", "model", "reports", "eval"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    prov = _provenance(cfg.config_hash(), seed)
    t_start = time.monotonic()

    base = config_as_dict(cfg.gaitgen)

    def gen(n_subjects, speeds, seed_offset):
        doc = {**base, "n_subjects": n_subjects, "seed": seed + seed_offset}
        if speeds is not None:
            doc["speeds"] = speeds
        return generate_normative(config_from_dict(doc))

    # --- corpora: train (3 speeds), held-out / anomaly / calibration (normal)
    train_trials = gen(args.train_subjects, None, 0)
    holdout_trials = gen(args.holdout_subjects, {"normal": 1.0}, 1)
    calib_trials = gen(args.calib_subjects, {"normal": 1.0}, 2)
    anomaly_base = gen(args.anomaly_subjects, {"normal": 1.0}, 3)
    anomaly_trials = [
        inject_anomaly(t, AnomalySpec(kind=kind, intensity=args.intensity, side="right"))
        for t in anomaly_base
        for kind in ANOMALY_KINDS
    ]
    for name, trials in (("train", train_trials), ("holdout", holdout_trials),
                         ("calib", calib_trials), ("anomaly", anomaly_trials)):
        path = work / "corpus" / f"{name}.jsonl"
        save_trials(path, trials)
        _sidecar(path, prov)
    log.info("corpora: %d train / %d holdout / %d calib / %d anomaly trials",
             len(train_trials), len(holdout_trials), len(calib_trials),
             len(anomaly_trials))

    # --- train
    train_cfg = TrainConfig(**{**asdict(cfg.train), "epochs": args.epochs,
                               "batch_size": args.batch_size, "lr": args.lr})
    # Short runs still need a fully-structured-masking phase at the end, since
    # that is the regime the occlusion tiles exercise at screening time.
    curriculum = cfg.curriculum
    if curriculum.transition_epochs > max(1, args.epochs // 3):
        curriculum = CurriculumConfig(**{
            **asdict(curriculum), "transition_epochs": max(1, args.epochs // 3)})
    processed_train = _preprocess_corpus(train_trials)
    model_dir = work / "model"
    result, n_windows = _train_checkpoint(
        processed_train, cfg.model, train_cfg, curriculum, seed, stride=args.stride,
        checkpoint=model_dir / "checkpoint.bin", loss_csv=model_dir / "loss.csv",
        train_config=model_dir / "train_config.json", prov=prov)

    # --- calibrate, then screen + correct held-out normative and anomaly trials
    rom = _rom_for(args)
    params, model_cfg = result.params, result.config
    floor = _calibrate(calib_trials, params, model_cfg, rom, args.detect_stride,
                       model_dir / "noise_floor.json", prov)
    holdout, anomaly = [
        _correct_corpus(trials, params, model_cfg, floor, rom, k=args.k_top,
                        stride=args.detect_stride,
                        out=work / "corpus" / f"{label}_corrected.jsonl",
                        report_dir=work / "reports", report_prefix=f"{label}-", prov=prov)
        for label, trials in (("holdout", holdout_trials), ("anomaly", anomaly_trials))
    ]

    # --- localization bookkeeping
    loc = {}
    for kind in ANOMALY_KINDS:
        rows = [(p, res) for p, res, _twin in anomaly if p.condition == kind]
        target = "pelvis" if kind in ("TE", "TF", "TL", "GG") else None
        hits = sum(
            1 for p, res in rows
            if (target or p.source["anomaly"]["primary_joint"])
            in [n for n, _ in res.flagged]
        )
        loc[kind] = {"trials": len(rows), "hits": hits,
                     "rate": hits / len(rows) if rows else None}
    normative_flagged = sum(1 for _p, res, _twin in holdout if res.flagged)

    # --- cycles report and statistics over everything corrected; the twins
    # are evaluated on the angles re-extracted from their landmarks, the same
    # stream their JSONL holds
    originals = [p for p, _res, _twin in holdout + anomaly]
    _cycle_report(originals, work / "eval" / "cycles.csv", prov)
    report = _evaluate(
        processed_train, originals,
        [preprocess_trial(twin) for _p, _res, twin in holdout + anomaly],
        band_k=args.band_k, delta=args.delta_deg, iters=args.iters, seed=seed,
        rmse_csv=work / "eval" / "rmse.csv", stats_json=work / "eval" / "stats.json",
        band_csv=work / "eval" / "band.csv", prov=prov)

    summary = {
        "_provenance": prov,
        "seed": seed,
        "config_hash": cfg.config_hash(),
        "corpus": {
            "train_trials": len(train_trials),
            "holdout_trials": len(holdout_trials),
            "calibration_trials": len(calib_trials),
            "anomaly_trials": len(anomaly_trials),
        },
        "training": {
            "windows": int(n_windows),
            "epochs": train_cfg.epochs,
            "final_loss": float(result.history[-1].total),
        },
        "specificity": {
            "equivalence": {
                label: {
                    "mean_deg": e.mean,
                    "ci90_deg": [e.ci_lo, e.ci_hi],
                    "equivalent": e.equivalent,
                }
                for label, e in report.equivalence.items()
            },
            "normative_trials_flagged": normative_flagged,
            "normative_flag_rate": normative_flagged / len(holdout),
        },
        "localization": loc,
        "sensitivity": [
            {
                "angle": t.angle,
                "p": t.p,
                "p_holm": t.p_adjusted,
                "r_rb": t.r_rb,
                "n": t.n,
            }
            for t in report.tests
        ],
    }
    with open(work / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("e2e finished in %.1f s; summary at %s",
             time.monotonic() - t_start, work / "summary.json")
    return summary


def cmd_e2e(args) -> int:
    run_e2e(args)
    return 0


# =============================================================================
# Argument parsing
# =============================================================================


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gaitmae",
                     description="Gait screening pipeline: synthesize, train, "
                                 "screen, correct, evaluate.")
    parser.add_argument("--version", action="version", version=f"gaitmae {_version()}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_, description=help_)
        p.set_defaults(fn=fn)
        p.add_argument("--config", help="pipeline config JSON (flags override)")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        return p

    p = add("synth", cmd_synth, "generate a synthetic walking corpus")
    p.add_argument("--out", required=True, help="output trial JSONL")
    p.add_argument("--manifest", help="corpus manifest JSON (default: <out>.manifest.json)")
    p.add_argument("--n-subjects", dest="n_subjects", type=int)
    p.add_argument("--trials-per-speed", dest="trials_per_speed", type=int)
    p.add_argument("--speeds", help="comma list name=cadence_hz")
    p.add_argument("--walk-s", dest="walk_s", type=float)
    p.add_argument("--stand-s", dest="stand_s", type=float)
    p.add_argument("--ramp-s", dest="ramp_s", type=float)
    p.add_argument("--fps", type=float)
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    p.add_argument("--dropout-prob", dest="dropout_prob", type=float)
    p.add_argument("--inject", choices=ANOMALY_KINDS,
                   help="turn every trial into this deviation")
    p.add_argument("--intensity", type=float, default=1.0)
    p.add_argument("--side", choices=("left", "right"), default="right")

    p = add("preprocess", cmd_preprocess, "gap-fill trials and extract joint angles")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-dir", required=True)

    p = add("train", cmd_train, "train the masked autoencoder on normative trials")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--loss-csv")
    p.add_argument("--train-config")
    p.add_argument("--scale", choices=sorted(_MODEL_PRESETS))
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--stride", type=int, default=1,
                   help="window subsampling stride for training data")

    p = add("calibrate", cmd_calibrate, "calibrate the screening noise floor")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="noise-floor JSON")
    p.add_argument("--stride", type=int, default=1, help="screening stride")
    p.add_argument("--rom", help="ROM table JSON override")

    p = add("detect", cmd_detect, "screen trials and flag deviating joints")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--noise-floor", required=True)
    p.add_argument("--report-dir", required=True)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--k-top", dest="k_top", type=int, default=TOP_K)
    p.add_argument("--rom")

    p = add("correct", cmd_correct, "flag joints and write re-synthesized trials")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--noise-floor", required=True)
    p.add_argument("--out", required=True, help="corrected trial JSONL")
    p.add_argument("--angles-dir", help="write per-trial angle stream CSVs here")
    p.add_argument("--report-dir", help="write per-trial badness reports here")
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--k-top", dest="k_top", type=int, default=TOP_K)
    p.add_argument("--rom")

    p = add("segment", cmd_segment, "detect gait cycles and write the cycle report")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="cycle report CSV")

    p = add("evaluate", cmd_evaluate, "band RMSE, equivalence, and paired tests")
    p.add_argument("--normative", required=True, help="corpus defining the band")
    p.add_argument("--originals", required=True)
    p.add_argument("--corrected", required=True)
    p.add_argument("--rmse-csv", required=True)
    p.add_argument("--stats-json", required=True)
    p.add_argument("--band-csv")
    p.add_argument("--band-k", dest="band_k", type=float, default=2.0)
    p.add_argument("--delta-deg", dest="delta_deg", type=float, default=DELTA_DEG)
    p.add_argument("--iters", type=int, default=BOOTSTRAP_ITERS)

    p = add("e2e", cmd_e2e, "full pipeline: synth, train, calibrate, screen, evaluate")
    p.add_argument("--workdir", required=True)
    p.add_argument("--train-subjects", dest="train_subjects", type=int, default=40)
    p.add_argument("--holdout-subjects", dest="holdout_subjects", type=int, default=8)
    p.add_argument("--calib-subjects", dest="calib_subjects", type=int, default=6)
    p.add_argument("--anomaly-subjects", dest="anomaly_subjects", type=int, default=8)
    p.add_argument("--intensity", type=float, default=0.7)
    p.add_argument("--epochs", type=int, default=32)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=128)
    p.add_argument("--lr", type=float, default=2e-4)
    p.add_argument("--stride", type=int, default=31,
                   help="training window subsampling stride")
    p.add_argument("--detect-stride", dest="detect_stride", type=int, default=3)
    p.add_argument("--k-top", dest="k_top", type=int, default=TOP_K)
    p.add_argument("--band-k", dest="band_k", type=float, default=2.0)
    p.add_argument("--delta-deg", dest="delta_deg", type=float, default=DELTA_DEG)
    p.add_argument("--iters", type=int, default=BOOTSTRAP_ITERS)
    p.add_argument("--rom")

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "fn", None):
            raise UsageError("no command given; see --help")
        return args.fn(args)
    except GaitError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc),
                   "exit_code": exc.exit_code}, sys.stderr)
        sys.stderr.write("\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
