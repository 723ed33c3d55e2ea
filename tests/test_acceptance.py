"""Release gate: every shipped behavior checked at its stated tolerance.

Ordered to match the package's external contract: formula suite, kinematics
roundtrip, gradients, mask curriculum, statistics oracles, gait segmentation,
the desk-scale end-to-end run, and byte-exact file round-trips. The e2e run
executes once per session at full scale (40 train subjects, 8 held-out,
8 x 7 deviations, >= 30 epochs) and takes the bulk of the suite's runtime.
"""

import json
import time

import numpy as np
import pytest

from gaitmae.cli import main
from gaitmae.errors import DataError
from gaitmae.gaitcycle import active_region, detect_cycles
from gaitmae.inference import (
    badness_combine,
    badness_geom,
    badness_rom,
    peak_stat,
)
from gaitmae.model import (
    ModelConfig,
    backward,
    forward,
    init_parameters,
    load_checkpoint,
    save_checkpoint,
)
from gaitmae.skeleton import (
    SkeletonTopology,
    extract_angle_sequence,
    forward_kinematics,
)
from gaitmae.stats import (
    bootstrap_equivalence,
    build_band,
    holm_bonferroni,
    rmse_deg,
    shapiro_wilk,
    wilcoxon_signed_rank,
)
from gaitmae.training import (
    CurriculumConfig,
    _GROUP_COLS,
    compute_losses,
    sample_mask,
    sample_span,
    structured_fraction,
)
from gaitmae.trialio import load_trials, save_trials


# =============================================================================
# 1. Formula suite: closed-form examples exact to 1e-9, bounds under fuzz
# =============================================================================


class TestFormulaSuite:
    def test_examples_exact(self):
        t0 = time.monotonic()
        # range-of-motion consumption
        phi = np.array([0.1, -0.2, 0.3])
        rom = np.array([1.0, 1.0, 1.0])
        w3 = np.array([0.5, 0.3, 0.2])
        assert badness_rom(phi, phi, rom, w3) == pytest.approx(0.0, abs=1e-9)
        assert badness_rom(np.zeros(3), np.array([1.0, 0.0, 0.0]), rom,
                           np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0, abs=1e-9)
        assert badness_rom(phi, phi + 2 * np.pi, rom, w3) == pytest.approx(0.0, abs=1e-9)
        # bone-direction mismatch
        v = np.array([0.0, 0.0, 1.0])
        assert badness_geom(v, 2.5 * v) == pytest.approx(0.0, abs=1e-9)
        assert badness_geom(v, -v) == pytest.approx(1.0, abs=1e-9)
        assert badness_geom(v, np.array([1.0, 0.0, 0.0])) == pytest.approx(0.5, abs=1e-9)
        # combination
        assert badness_combine(0.6, 0.0) == pytest.approx(0.30, abs=1e-9)
        assert badness_combine(0.6, 1.0) == pytest.approx(0.60, abs=1e-9)
        for c in (0.0, 0.3, 1.0):
            assert badness_combine(0.0, c) == pytest.approx(0.0, abs=1e-9)
        # peak statistic
        assert peak_stat(np.full(50, 0.37)) == pytest.approx(0.37, abs=1e-9)
        impulse = np.zeros(31)
        impulse[15] = 0.8
        assert peak_stat(impulse) == pytest.approx(0.8 / 5, abs=1e-9)
        plateau = np.zeros(40)
        plateau[10:20] = 0.6
        assert peak_stat(plateau) == pytest.approx(0.6, abs=1e-9)
        # normative band
        cycle = np.linspace(-0.4, 0.4, 100)[:, None]
        band = build_band(np.stack([cycle] * 4), k=2.0, labels=("a",))
        assert np.allclose(band.mu, cycle, atol=1e-9)
        assert np.allclose(band.sigma, 0.0, atol=1e-9)
        d = np.deg2rad(1.0)
        two = np.stack([np.full((100, 1), d), np.full((100, 1), -d)])
        band2 = build_band(two, k=2.0, labels=("a",))
        assert np.allclose(band2.mu, 0.0, atol=1e-9)
        assert np.allclose(band2.sigma, d, atol=1e-9)
        # RMSE against the band center
        assert rmse_deg(band.mu, band)[0] == pytest.approx(0.0, abs=1e-9)
        assert rmse_deg(band.mu + np.deg2rad(5.0), band)[0] == pytest.approx(5.0, abs=1e-9)
        seam = build_band(np.stack([np.full((100, 1), np.deg2rad(179.0))] * 2),
                          k=2.0, labels=("a",))
        assert rmse_deg(np.full((100, 1), np.deg2rad(-179.0)),
                        seam)[0] == pytest.approx(2.0, abs=1e-9)
        assert time.monotonic() - t0 < 10.0

    def test_fuzz_bounds_hundred_thousand(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(2024)
        n = 100_000
        # geom over random nonzero vector pairs, vectorized formula identity
        a = rng.normal(size=(n, 3))
        b = rng.normal(size=(n, 3))
        cos = np.sum(a * b, axis=1) / (np.linalg.norm(a, axis=1)
                                       * np.linalg.norm(b, axis=1))
        e = (1.0 - np.clip(cos, -1.0, 1.0)) / 2.0
        assert np.all((e >= 0.0) & (e <= 1.0))
        for i in rng.integers(0, n, size=200):           # spot-check the scalar op
            val = badness_geom(a[i], b[i])
            assert 0.0 <= val <= 1.0
            assert val == pytest.approx(e[i], abs=1e-12)
        # rom over random angles/rom/weights
        phi_a = rng.uniform(-10, 10, size=(n, 3))
        phi_b = rng.uniform(-10, 10, size=(n, 3))
        rom = rng.uniform(0.1, 3.0, size=(n, 3))
        w = rng.dirichlet((1.0, 1.0, 1.0), size=n)
        d = np.abs((phi_b - phi_a + np.pi) % (2 * np.pi) - np.pi)
        c = np.sum(w * np.clip(d / rom, 0.0, 1.0), axis=1)
        assert np.all((c >= 0.0) & (c <= 1.0))
        for i in rng.integers(0, n, size=200):
            val = badness_rom(phi_a[i], phi_b[i], rom[i], w[i])
            assert 0.0 <= val <= 1.0
            assert val == pytest.approx(c[i], abs=1e-12)
        # combine stays inside [0,1] whenever its inputs do
        bb = e * (0.5 + 0.5 * c)
        assert np.all((bb >= 0.0) & (bb <= 1.0))
        # peak_stat of [0,1] series stays in [0,1]
        for _ in range(300):
            s = rng.uniform(0.0, 1.0, size=rng.integers(1, 60))
            assert 0.0 <= peak_stat(s) <= 1.0
        assert time.monotonic() - t0 < 10.0


# =============================================================================
# 2. Kinematics roundtrip on 1000 random poses
# =============================================================================


def test_kinematics_roundtrip_thousand_poses():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    topo = SkeletonTopology()
    raw = rng.uniform(-1.2, 1.2, size=(1000, 12, 3))
    # project onto the representable family: angles whose FK positions are
    # self-consistent (leaf twists observable, canonical frame gauge)
    frames = forward_kinematics(raw, topo)
    angles, _ = extract_angle_sequence(frames, topo)
    reference = forward_kinematics(angles, topo)
    angles2, _ = extract_angle_sequence(reference, topo)
    roundtrip = forward_kinematics(angles2, topo)
    err = np.linalg.norm(roundtrip - reference, axis=-1)
    assert err.max() < 1e-6
    assert time.monotonic() - t0 < 10.0


# =============================================================================
# 3. Gradient check, every parameter of the small config
# =============================================================================


def test_gradients_match_finite_differences():
    t0 = time.monotonic()
    cfg = ModelConfig.tiny()
    rng = np.random.default_rng(7)
    params = init_parameters(cfg, rng, dtype=np.float64)
    for p in params.values():
        p *= 5.0                     # std 0.1 so every path carries gradient

    batch = 2
    feats = rng.normal(size=(batch, 12, 7, 12))
    vels = rng.normal(size=(batch, 12, 7, 3))
    cc = CurriculumConfig()
    mask_a = np.stack([sample_mask(100, rng, cc) for _ in range(batch)])
    mask_b = np.stack([sample_mask(100, rng, cc) for _ in range(batch)])

    def loss_fn(p):
        ra, _ = forward(p, cfg, feats, vels, mask_a, train=False)
        rb, _ = forward(p, cfg, feats, vels, mask_b, train=False)
        return compute_losses(ra, rb, feats, mask_a)[0].total

    ra, ca = forward(params, cfg, feats, vels, mask_a, train=False)
    rb, cb = forward(params, cfg, feats, vels, mask_b, train=False)
    _, da, db = compute_losses(ra, rb, feats, mask_a)
    grads = backward(params, cfg, ca, da)
    backward(params, cfg, cb, db, grads)

    h = 1e-6
    failures = []
    for name, p in params.items():
        flat = p.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_fn(params)
            flat[i] = orig - h
            lm = loss_fn(params)
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            an = gflat[i]
            # absolute floor absorbs FD roundoff on analytically-zero grads
            if abs(fd - an) > 1e-7 + 1e-4 * max(abs(fd), abs(an)):
                failures.append((name, i, fd, an))
    assert failures == []
    assert time.monotonic() - t0 < 60.0


# =============================================================================
# 4. Mask curriculum statistics
# =============================================================================


def test_mask_curriculum_statistics():
    t0 = time.monotonic()
    rng = np.random.default_rng(5)
    cc = CurriculumConfig()
    draws = 10_000

    lengths = np.array([sample_span(rng, cc)[0] for _ in range(draws)])
    freq_one = np.mean(lengths == 1)
    freq_full = np.mean(lengths == cc.window)
    freq_mid = np.mean((lengths >= 2) & (lengths < cc.window))
    assert abs(freq_one - 0.25) <= 0.02
    assert abs(freq_full - 0.25) <= 0.02
    assert abs(freq_mid - 0.50) <= 0.02

    # epoch 0: pure random dropout at rate 0.5
    assert structured_fraction(0, cc) == 0.0
    hidden = np.mean([sample_mask(0, rng, cc).mean() for _ in range(draws)])
    assert abs(hidden - 0.50) <= 0.02

    # epoch >= 60: every column is a union of whole joint groups
    assert structured_fraction(60, cc) == 1.0
    group_cols = list(_GROUP_COLS.values())
    for _ in range(1000):
        m = sample_mask(60, rng, cc)
        for t in range(cc.window):
            col = m[:, t]
            on = [g for g in group_cols if col[g].all()]
            partial = [g for g in group_cols if col[g].any() and not col[g].all()]
            assert partial == []
            assert 1 <= len(on) <= 2
            union = np.zeros(12, dtype=bool)
            for g in on:
                union[g] = True
            assert np.array_equal(col, union)
    assert time.monotonic() - t0 < 5.0


# =============================================================================
# 5. Statistics oracles
# =============================================================================


class TestStatisticsOracles:
    def test_wilcoxon_branches_agree_at_n25(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(12)
        for _ in range(60):
            d = rng.normal(0.2, 1.0, size=25)
            d = d[d != 0.0]
            if d.size < 5:
                continue
            _, p_exact = wilcoxon_signed_rank(d, method="exact")
            _, p_normal = wilcoxon_signed_rank(d, method="normal")
            assert abs(p_exact - p_normal) < 1e-2
        assert time.monotonic() - t0 < 120.0

    def test_holm_worked_example(self):
        adjusted, reject = holm_bonferroni([0.01, 0.04, 0.03])
        assert np.allclose(adjusted, [0.03, 0.06, 0.06], atol=1e-12)
        assert list(reject) == [True, False, False]

    def test_shapiro_monte_carlo_size_and_power(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(42)
        reps = 400
        normal_rejects = sum(
            shapiro_wilk(rng.normal(size=50))[1] < 0.05 for _ in range(reps))
        expo_rejects = sum(
            shapiro_wilk(rng.exponential(size=50))[1] < 0.05 for _ in range(reps))
        assert normal_rejects / reps <= 0.10
        assert expo_rejects / reps >= 0.90
        assert time.monotonic() - t0 < 120.0

    def test_bootstrap_deterministic_under_seed(self):
        d = list(np.random.default_rng(3).normal(0.1, 0.5, size=12))
        a = bootstrap_equivalence(d, rng=np.random.default_rng(99))
        b = bootstrap_equivalence(d, rng=np.random.default_rng(99))
        assert (a.mean, a.ci_lo, a.ci_hi, a.p_equiv) == (b.mean, b.ci_lo,
                                                         b.ci_hi, b.p_equiv)
        c = bootstrap_equivalence(d, rng=np.random.default_rng(100))
        assert (a.ci_lo, a.ci_hi) != (c.ci_lo, c.ci_hi)


# =============================================================================
# 6. Gait segmentation on the closed-form walk
# =============================================================================


def test_segmentation_one_hertz_five_seconds():
    t0 = time.monotonic()
    fps = 30.0
    stand_s, walk_s = 2.0, 5.0
    t = np.arange(int(walk_s * fps)) / fps
    walk = 0.05 + 0.04 * 0.5 * (1.0 - np.cos(2 * np.pi * 1.0 * t))
    n_stand = int(stand_s * fps)
    z = np.concatenate([np.full(n_stand, 0.05), walk, np.full(n_stand, 0.05)])

    a, b = active_region(z, fps=fps)
    assert abs(a / fps - stand_s) <= 0.3
    assert abs(b / fps - (stand_s + walk_s)) <= 0.3
    assert detect_cycles(z, fps=fps).n_cycles == 4
    assert time.monotonic() - t0 < 5.0


# =============================================================================
# 7. End-to-end desk-scale run
# =============================================================================


E2E_SEED = 7


@pytest.fixture(scope="session")
def e2e_summary(tmp_path_factory):
    """One full-scale run: 40 train subjects x 3 speeds, 8 held-out normative,
    8 subjects x 7 deviation kinds, 32 epochs. Takes most of the suite time."""
    work = tmp_path_factory.mktemp("e2e")
    rc = main(["e2e", "--workdir", str(work), "--seed", str(E2E_SEED),
               "--epochs", "32"])
    assert rc == 0
    return json.loads((work / "summary.json").read_text()), work


class TestEndToEnd:
    def test_corpus_and_training_shape(self, e2e_summary):
        summary, _ = e2e_summary
        assert summary["corpus"]["train_trials"] == 40 * 3
        assert summary["corpus"]["holdout_trials"] == 8
        assert summary["corpus"]["anomaly_trials"] == 8 * 7
        assert summary["training"]["epochs"] >= 30

    def test_specificity_on_heldout_normative(self, e2e_summary):
        summary, _ = e2e_summary
        equiv = summary["specificity"]["equivalence"]
        assert len(equiv) == 4
        for label, e in equiv.items():
            lo, hi = e["ci90_deg"]
            assert -1.5 <= lo <= hi <= 1.5, (label, lo, hi)
        assert summary["specificity"]["normative_flag_rate"] <= 0.10

    def test_localization_rates(self, e2e_summary):
        summary, _ = e2e_summary
        loc = summary["localization"]
        for kind in ("CD", "HH", "HS", "TE", "TF", "TL", "GG"):
            assert loc[kind]["trials"] == 8
            assert loc[kind]["rate"] >= 0.80, (kind, loc[kind])

    def test_sensitivity_on_deviation_trials(self, e2e_summary):
        summary, _ = e2e_summary
        rows = {r["angle"]: r for r in summary["sensitivity"]}
        for angle in ("pelvis_flex_ext", "r_hip_flex_ext"):
            assert rows[angle]["p_holm"] < 0.05, rows[angle]
            assert rows[angle]["r_rb"] < 0.0, rows[angle]

    def test_artifacts_present(self, e2e_summary):
        _, work = e2e_summary
        for rel in ("model/checkpoint.bin", "model/loss.csv",
                    "model/noise_floor.json", "eval/rmse.csv",
                    "eval/stats.json", "eval/band.csv", "eval/cycles.csv",
                    "corpus/train.jsonl", "corpus/anomaly_corrected.jsonl"):
            assert (work / rel).exists(), rel


E2E_REDUCED = ["--seed", "21", "--train-subjects", "3", "--holdout-subjects", "2",
               "--calib-subjects", "5", "--anomaly-subjects", "1",
               "--epochs", "2", "--detect-stride", "8", "--iters", "2000"]


@pytest.fixture(scope="module")
def e2e_reduced_twice(tmp_path_factory):
    """Two reduced-scale runs under the same seed.

    The full-scale double run would double the suite's longest stage; the
    reduced run exercises the identical code path end to end."""
    root = tmp_path_factory.mktemp("e2e-reduced")
    wa, wb = root / "a", root / "b"
    assert main(["e2e", "--workdir", str(wa)] + E2E_REDUCED) == 0
    assert main(["e2e", "--workdir", str(wb)] + E2E_REDUCED) == 0
    return wa, wb


def test_e2e_seed_deterministic(e2e_reduced_twice):
    """Same seed, byte-identical artifact trees."""
    wa, wb = e2e_reduced_twice
    files_a = sorted(p.relative_to(wa) for p in wa.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(wb) for p in wb.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (wa / rel).read_bytes() == (wb / rel).read_bytes(), rel


def test_subcommands_reproduce_e2e(e2e_reduced_twice, tmp_path):
    """calibrate, correct and evaluate on e2e's own corpora and checkpoint
    write e2e's files byte for byte: both run the same stage code."""
    work, _ = e2e_reduced_twice
    corpus, model = work / "corpus", work / "model"
    seed = ["--seed", "21"]

    floor = tmp_path / "noise_floor.json"
    assert main(["calibrate", "--corpus", str(corpus / "calib.jsonl"),
                 "--checkpoint", str(model / "checkpoint.bin"),
                 "--out", str(floor), "--stride", "8"] + seed) == 0
    assert floor.read_bytes() == (model / "noise_floor.json").read_bytes()

    twins, reports = tmp_path / "holdout_corrected.jsonl", tmp_path / "reports"
    assert main(["correct", "--corpus", str(corpus / "holdout.jsonl"),
                 "--checkpoint", str(model / "checkpoint.bin"),
                 "--noise-floor", str(model / "noise_floor.json"),
                 "--out", str(twins), "--stride", "8",
                 "--report-dir", str(reports)] + seed) == 0
    assert twins.read_bytes() == (corpus / "holdout_corrected.jsonl").read_bytes()
    written = sorted(p.name for p in reports.iterdir())
    assert written == sorted(p.name.removeprefix("holdout-")
                             for p in (work / "reports").glob("holdout-*"))
    for name in written:
        assert (reports / name).read_bytes() == \
            (work / "reports" / f"holdout-{name}").read_bytes(), name

    def joined(name, *parts):
        path = tmp_path / name
        path.write_bytes(b"".join((corpus / p).read_bytes() for p in parts))
        return str(path)

    out = tmp_path / "eval"
    out.mkdir()
    assert main(["evaluate", "--normative", str(corpus / "train.jsonl"),
                 "--originals", joined("originals.jsonl", "holdout.jsonl", "anomaly.jsonl"),
                 "--corrected", joined("corrected.jsonl", "holdout_corrected.jsonl",
                                       "anomaly_corrected.jsonl"),
                 "--rmse-csv", str(out / "rmse.csv"),
                 "--stats-json", str(out / "stats.json"),
                 "--band-csv", str(out / "band.csv"), "--iters", "2000"] + seed) == 0
    for name in ("rmse.csv", "stats.json", "band.csv"):
        assert (out / name).read_bytes() == (work / "eval" / name).read_bytes(), name


# =============================================================================
# 8. Byte-exact file round-trips
# =============================================================================


class TestByteRoundTrips:
    def test_checkpoint_write_read_write(self, tmp_path):
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, np.random.default_rng(17))
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(p1, params, cfg)
        loaded, cfg2 = load_checkpoint(p1)
        save_checkpoint(p2, loaded, cfg2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_trials_write_read_write(self, tmp_path):
        from gaitmae.synthgait import GaitGenConfig, generate_normative

        trials = generate_normative(
            GaitGenConfig(n_subjects=2, speeds={"normal": 1.0},
                          dropout_prob=0.05, seed=13))
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_trials(p1, trials)
        save_trials(p2, load_trials(p1))
        assert p1.read_bytes() == p2.read_bytes()
        assert any(np.isnan(t.positions).any() for t in trials)
