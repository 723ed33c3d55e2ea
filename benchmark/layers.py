"""Per-layer spans of the traced run and the metrics computed from them.

Each layer is timed where a calling module imports it: the wrapped name is
the one the caller looks up (``gaitmae.inference.reconstruct`` is the model
forward pass as screening and correction call it). Names the benchmark
itself calls are wrapped on their own module.
"""

from __future__ import annotations

import os

import gaitmae.cli as cli
import gaitmae.inference as inference
import gaitmae.pipeline as pipeline
import gaitmae.skeleton as skeleton
import gaitmae.synthgait as synthgait
import gaitmae.training as training

from spans import self_time_by_name

# metric -> span name; the metric is that span's self time per operation.
TIMES = {
    "trialio.parse_s": "trialio.parse",
    "trialio.write_s": "trialio.write",
    "skeleton.gapfill_s": "skeleton.gapfill",
    "skeleton.angles_s": "skeleton.angles",
    "skeleton.fk_s": "skeleton.fk",
    "features.tokenize_s": "features.tokenize",
    "features.decode_s": "features.decode",
    "model.forward_s": "model.forward",
    "model.backward_s": "model.backward",
    "inference.screen_self_s": "inference.screen",
    "inference.correct_self_s": "inference.correct",
    "training.mask_s": "training.mask",
    "training.loss_s": "training.loss",
    "training.optim_s": "training.optim",
    "gaitcycle.segment_s": "gaitcycle.segment",
    "stats.band_s": "stats.band",
    "stats.evaluate_s": "stats.evaluate",
}

# Counters, reported per operation.
COUNTS = (
    "trialio.bytes",
    "skeleton.frames",
    "features.windows",
    "model.forward_calls",
    "model.forward_windows",
    "inference.tile_windows",
    "inference.unflagged_trials",
    "training.steps",
    "gaitcycle.cycles",
)

UNITS = {"trialio.bytes": "bytes/op"}


def _trial_id(args, kwargs):
    trial = args[0] if args else kwargs["trial"]
    return f"{trial.subject_id}/{trial.condition}"


def _count(name, measure):
    def counter(tracer, args, kwargs, result):
        tracer.count(name, measure(args, kwargs, result))
    return counter


def _forward(tracer, args, kwargs, result):
    recon = result[0] if isinstance(result, tuple) else result
    tracer.count("model.forward_calls")
    tracer.count("model.forward_windows", recon.shape[0] if recon.ndim == 4 else 1)


def install(tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    w = tracer.wrap
    w(cli, "load_trials", "trialio.parse",
      counter=_count("trialio.bytes", lambda a, k, r: os.path.getsize(a[0])))
    w(cli, "preprocess_trial", "pipeline.preprocess", trial_of=_trial_id)
    w(pipeline, "preprocess_trial", "pipeline.preprocess", trial_of=_trial_id)
    w(pipeline, "estimate_segment_lengths", "skeleton.gapfill")
    w(pipeline, "interpolate_missing", "skeleton.gapfill")
    w(pipeline, "pelvis_normalize", "skeleton.angles")
    w(pipeline, "extract_angle_sequence", "skeleton.angles",
      counter=_count("skeleton.frames", lambda a, k, r: len(a[0])))
    w(inference, "forward_kinematics", "skeleton.fk")
    w(skeleton, "forward_kinematics_landmarks", "skeleton.fk")
    windows = _count("features.windows", lambda a, k, r: len(r))
    w(inference, "make_windows", "features.tokenize", counter=windows)
    w(pipeline, "make_windows", "features.tokenize", counter=windows)
    w(inference, "decode_features", "features.decode")
    w(inference, "reconstruct", "model.forward", counter=_forward)
    w(training, "forward", "model.forward", counter=_forward)
    w(training, "backward", "model.backward")
    w(inference, "compute_badness", "inference.screen",
      counter=_count("inference.tile_windows",
                     lambda a, k, r: len(a[2]) * inference.N_TILES))
    w(inference, "detect_and_correct", "inference.correct",
      counter=_count("inference.unflagged_trials", lambda a, k, r: not r.flagged))
    w(training, "sample_mask", "training.mask")
    w(training, "compute_losses", "training.loss")
    w(training, "clip_gradients", "training.optim")
    w(training, "adamw_step", "training.optim",
      counter=_count("training.steps", lambda a, k, r: 1))
    w(pipeline, "detect_cycles", "gaitcycle.segment",
      counter=_count("gaitcycle.cycles", lambda a, k, r: r.n_cycles))
    w(pipeline, "normalized_cycles", "gaitcycle.segment")
    w(cli, "build_band", "stats.band")
    w(cli, "evaluate", "stats.evaluate")
    w(synthgait, "generate_normative", "synthgait.generate")
    w(synthgait, "inject_anomaly", "synthgait.generate")


def metrics(tracer, loop_spans: tuple, loop_counts: tuple, ops: int, setups: int) -> dict:
    """Per-layer values: self time and counts per operation of the measured
    loop, and generation time per set-up.

    ``loop_spans`` is the (first, end) index range of the loop's spans and
    ``loop_counts`` the counters as they stood at its start and its end.
    """
    loop = self_time_by_name(tracer.spans, *loop_spans)
    setup = self_time_by_name(tracer.spans, 0, loop_spans[0])
    before, after = loop_counts
    out = {}
    for metric, span in TIMES.items():
        out[metric] = {"value": loop.get(span, 0.0) / ops, "unit": "s/op"}
    for name in COUNTS:
        value = after.get(name, 0.0) - before.get(name, 0.0)
        out[name] = {"value": value / ops, "unit": UNITS.get(name, "count/op")}
    out["synthgait.generate_s"] = {"value": setup.get("synthgait.generate", 0.0) / setups,
                                   "unit": "s"}
    return out
