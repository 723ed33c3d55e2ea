"""The benchmark's three workloads: inputs, set-up, one operation, checks.

Each workload is driven by one client in a closed loop: ``run_op`` is
called again only after the previous call returned. ``setup`` builds every
input from the workload seed and may be called several times; the inputs
of the last call are used. ``check`` returns a list of failed correctness
checks (empty when the outputs are correct).

The package is driven through its public functions, looked up on their
modules at call time so that the traced run can time them.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import gaitmae.cli as cli
import gaitmae.features as features
import gaitmae.inference as inference
import gaitmae.model as model
import gaitmae.pipeline as pipeline
import gaitmae.skeleton as skeleton
import gaitmae.synthgait as synthgait
import gaitmae.training as training
import gaitmae.trialio as trialio
from gaitmae.stats import ANGLE_LABELS

import reference
from spans import Patches

# Every trial has the generator's default shape, as the CLI's synth and e2e
# commands make it: 1.5 s standing, 0.7 s ramp, 7 s walking, ramp and stand
# again, at 30 fps = 342 frames and about seven gait cycles.
NORMAL = {"normal": 1.0}
INTENSITY = 0.7            # deviation intensity, as in the CLI's e2e run
SCREEN_STRIDE = 3          # screening stride, as in the CLI's e2e run

# The benchmark checkpoint: a short training run on normative windows.
CKPT_SUBJECTS = 5          # also the noise-floor calibration trials
CKPT_WINDOWS = 64
TRAIN_CFG = {"batch_size": 32, "epochs": 3}   # 2 batches x 3 epochs = 6 steps

SCREEN_SUBJECTS = 1        # held-out participants: 1 walk + 7 deviations each
TRAIN_SUBJECTS = 2         # trials cycled through by the train workload
TRAIN_WINDOWS = 64         # windows per trial per train operation
BAND_SUBJECTS = 1          # x 3 speeds define the normative band
COHORT_SUBJECTS = 1        # held-out participants in the evaluated cohort

# Analyzed channels each deviation moves by 10 degrees or more at the
# benchmark's intensity, read off the generator's angle-space perturbations,
# and that took every trial of seeds 1-24 away from the band: the clean twin
# must sit closer to the band. HH (5.6 degrees of swing abduction) and GG
# (4.9 degrees of stance width) move no channel that far, and TL rolls the
# pelvis about x, which no analyzed channel measures. HS hip flexion is left
# out: HS takes 12.6 degrees of flexion off the swing phase, and a
# participant whose swing flexion exceeds the band's is brought closer to it
# (seeds 7 and 16: twin 4.84 and deviant 3.87 degrees at seed 7).
PERTURBED = {
    "CD": ("r_hip_abd_add",),
    "HS": ("r_knee_flex_ext",),
    "TE": ("pelvis_flex_ext",),
    "TF": ("pelvis_flex_ext",),
}

RECON_ATOL = 1e-4          # float32 program vs float64 reference reconstruction
BADNESS_ATOL = 1e-4
CYCLE_TOL_FRAMES = 1       # mean cycle length of a trial vs fps / cadence


class NullTracer:
    """Stands in for ``spans.Tracer`` when the run is not traced."""

    def span(self, name, trial=None):
        return nullcontext()

    def count(self, name, n=1):
        pass


def gen_config(seed: int, stream: int, n_subjects: int, speeds=None):
    """Generator config for one input stream of a workload seed."""
    doc = {"n_subjects": n_subjects, "seed": seed * 16 + stream}
    if speeds is not None:
        doc["speeds"] = speeds
    return synthgait.GaitGenConfig(**doc)


def encode_record(trial) -> str:
    """One trial as a line of the trial JSON Lines format."""
    return json.dumps(trialio.trial_to_obj(trial), sort_keys=True, separators=(",", ":"))


def with_deviations(normative):
    """Each normative trial followed by its seven simulated deviations."""
    out = []
    for trial in normative:
        out.append(trial)
        for kind in synthgait.ANOMALY_KINDS:
            out.append(synthgait.inject_anomaly(
                trial, synthgait.AnomalySpec(kind=kind, intensity=INTENSITY, side="right")))
    return out


def train_once(feats, vels, seed):
    return training.train(
        feats, vels, model.ModelConfig.desk_scale(),
        training.TrainConfig(**TRAIN_CFG),
        # Fully structured masking from the second epoch on, as the CLI's
        # e2e run does for short runs: that is the regime screening probes.
        training.CurriculumConfig(transition_epochs=1),
        seed=seed,
    )


# =============================================================================
# screen
# =============================================================================


class Screen:
    """Per-trial inference: parse, preprocess, screen, correct, FK, write."""

    name = "screen"

    def __init__(self, seed: int, out_dir: Path, tracer):
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = tracer
        self.done = []   # (request index, topology, CorrectionResult, reply)

    def setup(self):
        normative = synthgait.generate_normative(gen_config(self.seed, 0, CKPT_SUBJECTS, NORMAL))
        processed = [pipeline.preprocess_trial(t) for t in normative]
        feats, vels = pipeline.training_arrays(processed)
        pick = np.random.default_rng(self.seed).choice(len(feats), CKPT_WINDOWS, replace=False)
        result = train_once(feats[pick], vels[pick], self.seed)
        ckpt = self.out_dir / "checkpoint.bin"
        model.save_checkpoint(ckpt, result.params, result.config)
        self.params, self.cfg = model.load_checkpoint(ckpt)
        self.floor = inference.calibrate_noise_floor([
            inference.compute_badness(self.params, self.cfg,
                                      pipeline.trial_windows(p)[::SCREEN_STRIDE], p.topo)
            for p in processed
        ])
        heldout = synthgait.generate_normative(gen_config(self.seed, 1, SCREEN_SUBJECTS, NORMAL))
        self.requests = [encode_record(t) for t in with_deviations(heldout)]
        self.done = []

    def run_op(self, i: int) -> int:
        line = self.requests[i % len(self.requests)]
        tr = self.tracer
        with tr.span("op.screen", trial=f"request-{i}"):
            with tr.span("trialio.parse"):
                trial = trialio.trial_from_obj(json.loads(line))
            p = pipeline.preprocess_trial(trial)
            res = inference.detect_and_correct(p.angles, self.params, self.cfg, p.topo,
                                               self.floor, detect_stride=SCREEN_STRIDE)
            corrected = skeleton.Trial(
                subject_id=trial.subject_id,
                condition=trial.condition,
                fps=trial.fps,
                times=trial.times.copy(),
                positions=skeleton.forward_kinematics_landmarks(res.corrected, p.topo),
                source={"corrected_from": trial.condition,
                        "flagged": [[n, s] for n, s in res.flagged]},
            )
            with tr.span("trialio.write"):
                reply = encode_record(corrected)
        tr.count("trialio.bytes", len(line) + len(reply))
        self.done.append((i, p.topo, res, reply))
        return 1

    def check(self) -> list[str]:
        errors = []
        rng = np.random.default_rng(self.seed + 1)
        for i, topo, res, reply in self.done:
            errors += self._check_flags(i, res)
            errors += self._check_bones(i, topo, reply)
        for k in rng.choice(len(self.done), min(2, len(self.done)), replace=False):
            errors += self._check_reconstruction(rng, *self.done[k][:3])
        if self.done:
            errors += self._check_masked_inputs(rng, self.done[rng.integers(len(self.done))])
        return errors

    def _check_flags(self, i, res) -> list[str]:
        b, taus = res.badness, self.floor.taus
        names = [n for n, _ in res.flagged]
        scores = [s for _, s in res.flagged]
        above = [(b.summary[j], name) for j, name in enumerate(b.joints) if b.summary[j] > taus[j]]
        expected = [name for _, name in sorted(above, key=lambda x: -x[0])[:inference.TOP_K]]
        ok = (len(names) <= inference.TOP_K
              and all(n in inference.TILED_JOINTS for n in names)
              and all(s > self.floor.tau(n) and s == b.summary[b.joints.index(n)]
                      for n, s in res.flagged)
              and scores == sorted(scores, reverse=True)
              and names == expected)
        return [] if ok else [f"request {i}: flags {res.flagged} break the rule (expected {expected})"]

    def _check_bones(self, i, topo, reply) -> list[str]:
        frames = json.loads(reply)["frames"]
        pos = {name: np.array([f["landmarks"][name] for f in frames])
               for name in skeleton.LANDMARKS}
        worst = max(
            float(np.max(np.abs(np.linalg.norm(pos[c] - pos[par], axis=1) / topo.lengths[c] - 1.0)))
            for c, par in skeleton.LANDMARK_PARENT.items()
        )
        return [] if worst < 1e-9 else [f"request {i}: bone length off by {worst:.3g} (relative)"]

    def _check_reconstruction(self, rng, i, topo, res) -> list[str]:
        """Reference forward pass and badness recomputation on sampled windows."""
        windows = features.make_windows(res.original)[::SCREEN_STRIDE]
        rom = inference.default_rom_table()
        errors = []
        for w in rng.choice(len(windows), 2, replace=False):
            feats, vels, masks = inference.build_tiles(windows[w])
            got = model.reconstruct(self.params, self.cfg, feats, vels, masks)
            want = reference.forward(self.params, self.cfg, feats, vels, masks)
            err = float(np.max(np.abs(got - want)))
            if not err <= RECON_ATOL:
                errors.append(f"request {i} window {w}: reconstruction off by {err:.3g}")
            scores = reference.badness(want, inference.TILED_JOINTS, skeleton.JID,
                                       skeleton.JOINT_PARENT, skeleton.REST_UNIT,
                                       rom.rom, rom.weights)
            err = float(np.max(np.abs(scores - res.badness.series[:, w])))
            if not err <= BADNESS_ATOL:
                errors.append(f"request {i} window {w}: badness off by {err:.3g}")
        return errors

    def _check_masked_inputs(self, rng, done) -> list[str]:
        """Output must not depend on the input at masked positions.

        The mask is the trial's flags, or the right hip when nothing was
        flagged. A noise floor that only those joints can clear fixes the
        mask; their input angles are then perturbed and the first 40 frames
        corrected again.
        """
        i, topo, res, _reply = done
        names = [n for n, _ in res.flagged] or ["r_hip"]
        taus = np.array([0.0 if j in names else 1.0 for j in inference.TILED_JOINTS])
        forced = inference.NoiseFloor(joints=inference.TILED_JOINTS, taus=taus, n_trials=1)
        angles = res.original[:40].copy()
        base = inference.detect_and_correct(angles, self.params, self.cfg, topo, forced,
                                            detect_stride=SCREEN_STRIDE)
        cols = [skeleton.JID[n] for n in names]
        angles[:, cols] += rng.uniform(-0.5, 0.5, size=angles[:, cols].shape)
        again = inference.detect_and_correct(angles, self.params, self.cfg, topo, forced,
                                             detect_stride=SCREEN_STRIDE)
        errors = []
        if sorted(n for n, _ in base.flagged) != sorted(names):
            errors.append(f"request {i}: forced mask {names} gave flags {base.flagged}")
        if not np.array_equal(base.corrected, again.corrected):
            err = float(np.max(np.abs(base.corrected - again.corrected)))
            errors.append(f"request {i}: masked input changed the output by {err:.3g}")
        return errors


# =============================================================================
# train
# =============================================================================


class Train:
    """Fixed optimisation steps of ``training.train`` on one trial's windows."""

    name = "train"

    def __init__(self, seed: int, out_dir: Path, tracer):
        self.seed = seed
        self.tracer = tracer
        self.histories = []
        self.last = None

    def setup(self):
        normative = synthgait.generate_normative(gen_config(self.seed, 2, TRAIN_SUBJECTS, NORMAL))
        rng = np.random.default_rng(self.seed)
        self.trials = []
        for trial in normative:
            feats, vels = pipeline.training_arrays([pipeline.preprocess_trial(trial)])
            pick = rng.choice(len(feats), TRAIN_WINDOWS, replace=False)
            self.trials.append((trial.subject_id, feats[pick], vels[pick]))
        self.histories = []
        self.last = None

    def run_op(self, i: int) -> int:
        subject, feats, vels = self.trials[i % len(self.trials)]
        with self.tracer.span("op.train", trial=f"{subject}-{i}"):
            result = train_once(feats, vels, self.seed + i)
        self.histories.append((i, [h.total for h in result.history]))
        self.last = (result, feats, vels)
        return 1

    def check(self) -> list[str]:
        errors = [f"operation {i}: loss went from {h[0]:.5f} to {h[-1]:.5f}"
                  for i, h in self.histories if not h[-1] < h[0]]
        if self.last is not None:
            errors += self._check_gradients(*self.last)
        return errors

    def _check_gradients(self, result, feats, vels) -> list[str]:
        """Central differences against ``model.backward`` at the final
        parameters, in float64, on a linear functional of the output."""
        rng = np.random.default_rng(self.seed + 2)
        cfg = result.config
        params = {k: v.astype(np.float64) for k, v in result.params.items()}
        f = feats[:2].astype(np.float64)
        v = vels[:2].astype(np.float64)
        mask = np.zeros(f.shape[:3], dtype=bool)
        mask[:, skeleton.JID["l_hip"], 2:5] = True
        weights = rng.standard_normal(f.shape)

        def loss():
            return float(np.sum(model.forward(params, cfg, f, v, mask)[0] * weights))

        _, cache = model.forward(params, cfg, f, v, mask)
        grads = model.backward(params, cfg, cache, weights)
        errors = []
        for name in ("embed.w_in", "embed.mask_token", "enc.0.attn.wq",
                     "enc.1.ffn.w1", "dec.0.ln1.g", "head.w"):
            index = tuple(int(rng.integers(n)) for n in params[name].shape)
            fd = reference.central_difference(loss, params, name, index)
            g = float(grads[name][index])
            if not abs(fd - g) <= 1e-7 + 1e-5 * abs(g):
                errors.append(f"gradient {name}{list(index)}: backward {g:.6g} vs "
                              f"central difference {fd:.6g}")
        return errors


# =============================================================================
# cohort_eval
# =============================================================================


class CohortEval:
    """The ``evaluate`` command on a normative corpus and paired corpora."""

    name = "cohort_eval"

    def __init__(self, seed: int, out_dir: Path, tracer):
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = tracer
        self.paths = {k: out_dir / f"{k}.jsonl" for k in ("normative", "originals", "corrected")}
        self.rmse_csv = out_dir / "rmse.csv"
        self.stats_json = out_dir / "stats.json"
        self.seen = {}
        # Keep what the command computes, for the checks.
        self.patches = Patches()
        for attr, key in (("segment", "segments"), ("build_band", "band"),
                          ("evaluate", "report")):
            self.patches.patch(cli, attr, self._keeper(key))

    def _keeper(self, key):
        def keep(original, *args, **kwargs):
            result = original(*args, **kwargs)
            self.seen.setdefault(key, []).append((args, result))
            return result
        return keep

    def close(self):
        self.patches.restore()

    def setup(self):
        band = synthgait.generate_normative(gen_config(self.seed, 3, BAND_SUBJECTS))
        heldout = synthgait.generate_normative(gen_config(self.seed, 4, COHORT_SUBJECTS, NORMAL))
        originals = with_deviations(heldout)
        twins = []
        for trial in originals:
            clean = next(t for t in heldout if t.subject_id == trial.subject_id)
            twins.append(skeleton.Trial(subject_id=clean.subject_id, condition=trial.condition,
                                        fps=clean.fps, times=clean.times, positions=clean.positions,
                                        source=clean.source))
        trialio.save_trials(self.paths["normative"], band)
        trialio.save_trials(self.paths["originals"], originals)
        trialio.save_trials(self.paths["corrected"], twins)
        self.n_trials = len(band) + len(originals) + len(twins)

    def run_op(self, i: int) -> int:
        self.seen = {}
        with self.tracer.span("op.cohort_eval", trial=f"cohort-{i}"):
            rc = cli.main([
                "evaluate", "--seed", str(self.seed),
                "--normative", str(self.paths["normative"]),
                "--originals", str(self.paths["originals"]),
                "--corrected", str(self.paths["corrected"]),
                "--rmse-csv", str(self.rmse_csv),
                "--stats-json", str(self.stats_json),
            ])
        if rc != 0:
            raise RuntimeError(f"evaluate exited with code {rc}")
        return self.n_trials

    def check(self) -> list[str]:
        if "report" not in self.seen:
            return ["no evaluation completed"]
        errors = []
        ((band_cycles,), band), = [(a[:1], r) for a, r in self.seen["band"]]
        ((curve_sets, _band), report), = [(a[:2], r) for a, r in self.seen["report"]]
        center = reference.mean_cycle(band_cycles)
        if not np.allclose(center, band.mu, rtol=0.0, atol=1e-12):
            errors.append("band center differs from the mean of the normative cycles")

        rows = {}
        with open(self.rmse_csv) as fh:
            for line in fh:
                if line.startswith(("#", "participant")):
                    continue
                who, cond, angle, r_o, r_r = line.strip().split(",")
                rows[(who, cond, angle)] = (float(r_o), float(r_r))

        for cs in curve_sets:
            r_o = reference.rmse_deg(reference.mean_cycle(cs.original), center)
            r_r = reference.rmse_deg(reference.mean_cycle(cs.reconstructed), center)
            for c, angle in enumerate(ANGLE_LABELS):
                got = rows[(cs.participant, cs.condition, angle)]
                if not np.allclose(got, (r_o[c], r_r[c]), rtol=1e-8, atol=1e-12):
                    errors.append(f"{cs.participant}/{cs.condition} {angle}: RMSE {got} "
                                  f"vs {(r_o[c], r_r[c])}")
            if cs.condition == "normative":
                if any(r.rmse_original != r.rmse_reconstructed for r in report.records
                       if (r.participant, r.condition) == (cs.participant, cs.condition)):
                    errors.append(f"{cs.participant}: normative trial paired with itself "
                                  "gave a nonzero difference")
            else:
                for angle in PERTURBED.get(cs.condition, ()):
                    c = ANGLE_LABELS.index(angle)
                    if not r_r[c] < r_o[c]:
                        errors.append(f"{cs.participant}/{cs.condition} {angle}: clean twin "
                                      f"{r_r[c]:.3f} deg not closer than deviant {r_o[c]:.3f}")

        # The signed-rank suite runs on the program's own differences, so that
        # differences that are exactly zero (dropped) are the same ones.
        diffs = {a: [] for a in ANGLE_LABELS}
        for r in report.records:
            if r.condition != "normative":
                diffs[r.angle].append(r.rmse_reconstructed - r.rmse_original)
        with open(self.stats_json) as fh:
            tests = {t["angle"]: t for t in json.load(fh)["signed_rank"]}
        if not tests:
            errors.append("no signed-rank test was run")
        for angle, t in tests.items():
            p = reference.signed_rank_p(diffs[angle])
            r = reference.rank_biserial(diffs[angle])
            if not np.isclose(t["p"], p, rtol=1e-9, atol=0.0):
                errors.append(f"{angle}: signed-rank p {t['p']} vs reference {p}")
            if not np.isclose(t["r_rb"], r, rtol=1e-9, atol=1e-12):
                errors.append(f"{angle}: rank-biserial {t['r_rb']} vs {r}")

        errors += self._check_cycles()
        return errors

    def _check_cycles(self) -> list[str]:
        """Cycles of steady normative walking last one period of the cadence.

        The generator holds its cadence only while the walking envelope is
        fully open, so cycles that reach into the start or stop ramps are not
        checked. The check is on each trial's mean cycle length: a boundary
        sits at a heel-height maximum, which at slow cadence is flat over
        several frames, so single cycles are up to 4 frames off while their
        chain keeps the cadence (a fault recorded in CHANGES.md). Deviation
        trials are not checked: on many of them the left heel rises twice per
        cycle and gaitcycle.detect_cycles cuts each cycle in two (also
        recorded there).
        """
        errors = []
        checked = 0
        for (processed,), bounds in [(a[:1], r) for a, r in self.seen["segments"]]:
            if processed.condition != "normative":
                continue
            src = processed.source
            gen = src["config"]
            first = (gen["stand_s"] + gen["ramp_s"]) * gen["fps"]
            last = first + gen["walk_s"] * gen["fps"]
            period = processed.fps / gen["speeds"][src["speed"]]
            steady = [(s, e) for s, e in bounds.cycles if first <= s and e < last]
            if not steady:
                continue
            checked += 1
            mean = (steady[-1][1] - steady[0][0]) / len(steady)
            if abs(mean - period) > CYCLE_TOL_FRAMES:
                errors.append(f"{processed.subject_id}/{processed.condition}: steady cycles "
                              f"{steady} last {mean:.1f} frames on average, cadence gives "
                              f"{period:.1f}")
        if checked == 0:
            errors.append("no cycle of steady walking was detected")
        return errors


WORKLOADS = {w.name: w for w in (Screen, Train, CohortEval)}
