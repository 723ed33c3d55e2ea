"""Training loop pieces: the five-term loss (value and gradient), curriculum
mask sampling, gradient clipping, the AdamW update, divergence handling, and
the config/history files."""

import numpy as np
import pytest

from gaitmae.errors import DataError
from gaitmae.features import SINCOS_SLICE
from gaitmae.model import ModelConfig, init_parameters, is_decay_excluded
from gaitmae.skeleton import JID, N_JOINTS
from gaitmae.training import (
    AdamWState,
    CurriculumConfig,
    LIMB_GROUPS,
    LossBreakdown,
    TrainConfig,
    TrainingDivergedError,
    adamw_step,
    clip_gradients,
    compute_losses,
    load_train_config,
    sample_mask,
    sample_span,
    save_train_config,
    structured_fraction,
    train,
    write_loss_history,
)


def _random_loss_inputs(seed=3, batch=2):
    rng = np.random.default_rng(seed)
    ra = rng.normal(size=(batch, 12, 7, 12))
    rb = rng.normal(size=(batch, 12, 7, 12))
    tgt = rng.normal(size=(batch, 12, 7, 12))
    mask = rng.random((batch, 12, 7)) < 0.3
    return ra, rb, tgt, mask


# -----------------------------------------------------------------------------
# Loss
# -----------------------------------------------------------------------------


def test_loss_terms_match_independent_computation():
    ra, rb, tgt, mask = _random_loss_inputs()
    bd, _, _ = compute_losses(ra, rb, tgt, mask)

    sc = SINCOS_SLICE
    a, b, t = ra[..., sc], rb[..., sc], tgt[..., sc]
    sel = np.repeat(mask[..., None], 6, axis=-1)
    assert bd.final == pytest.approx(np.abs(a[:, :, -1] - t[:, :, -1]).mean(), abs=1e-12)
    assert bd.masked == pytest.approx(np.abs((a - t)[sel]).mean(), abs=1e-12)
    assert bd.visible == pytest.approx(np.abs((a - t)[~sel]).mean(), abs=1e-12)
    assert bd.velocity == pytest.approx(
        np.abs(np.diff(a, axis=2) - np.diff(t, axis=2)).mean(), abs=1e-12)
    assert bd.context == pytest.approx(np.abs(a - b).mean(), abs=1e-12)
    assert bd.total == pytest.approx(sum(bd.as_tuple()), abs=1e-12)


def test_loss_perfect_reconstruction_is_zero():
    rng = np.random.default_rng(4)
    tgt = rng.normal(size=(1, 12, 7, 12))
    mask = rng.random((1, 12, 7)) < 0.5
    bd, da, db = compute_losses(tgt.copy(), tgt.copy(), tgt, mask)
    assert bd.total == 0.0


def test_loss_ignores_rotation_channels():
    ra, rb, tgt, mask = _random_loss_inputs(seed=5)
    bd1, _, _ = compute_losses(ra, rb, tgt, mask)
    ra2 = ra.copy()
    ra2[..., 6:] += 10.0  # r1/r2 channels are not supervised
    bd2, _, _ = compute_losses(ra2, rb, tgt, mask)
    assert bd1.as_tuple() == bd2.as_tuple()


def test_loss_empty_mask_has_zero_masked_term():
    ra, rb, tgt, _ = _random_loss_inputs(seed=6)
    none = np.zeros((2, 12, 7), dtype=bool)
    bd, _, _ = compute_losses(ra, rb, tgt, none)
    assert bd.masked == 0.0
    every = np.ones((2, 12, 7), dtype=bool)
    bd, _, _ = compute_losses(ra, rb, tgt, every)
    assert bd.visible == 0.0


def test_loss_gradients_match_finite_differences():
    ra, rb, tgt, mask = _random_loss_inputs(seed=7)
    _, da, db = compute_losses(ra, rb, tgt, mask)
    assert np.all(da[..., 6:] == 0.0) and np.all(db[..., 6:] == 0.0)

    rng = np.random.default_rng(8)
    h = 1e-7
    for arr, grad in ((ra, da), (rb, db)):
        for _ in range(25):
            idx = tuple(rng.integers(0, s) for s in arr.shape)
            keep = arr[idx]
            arr[idx] = keep + h
            up = compute_losses(ra, rb, tgt, mask)[0].total
            arr[idx] = keep - h
            dn = compute_losses(ra, rb, tgt, mask)[0].total
            arr[idx] = keep
            fd = (up - dn) / (2 * h)
            assert abs(fd - grad[idx]) <= 1e-6 + 1e-5 * abs(fd)


# -----------------------------------------------------------------------------
# Curriculum
# -----------------------------------------------------------------------------


def test_structured_fraction_ramp():
    cfg = CurriculumConfig()
    assert structured_fraction(0, cfg) == 0.0
    assert structured_fraction(30, cfg) == pytest.approx(0.5)
    assert structured_fraction(60, cfg) == 1.0
    assert structured_fraction(500, cfg) == 1.0


def test_limb_groups_partition_the_skeleton():
    seen = [JID[j] for joints in LIMB_GROUPS.values() for j in joints]
    assert sorted(seen) == list(range(N_JOINTS))


def test_sample_span_bounds_and_frequencies():
    cfg = CurriculumConfig()
    rng = np.random.default_rng(9)
    lens = []
    for _ in range(4000):
        length, start = sample_span(rng, cfg)
        assert 1 <= length <= 7
        assert 0 <= start <= 7 - length
        lens.append(length)
    lens = np.array(lens)
    assert abs(np.mean(lens == 1) - 0.25) < 0.025
    assert abs(np.mean(lens == 7) - 0.25) < 0.025
    assert abs(np.mean((lens >= 2) & (lens <= 6)) - 0.50) < 0.025


def test_epoch0_masks_are_half_dropout():
    rng = np.random.default_rng(10)
    frac = np.mean([sample_mask(0, rng).mean() for _ in range(2000)])
    assert abs(frac - 0.5) < 0.02


def test_late_epoch_masks_are_unions_of_limb_groups():
    valid = set()
    names = sorted(LIMB_GROUPS)
    cols = {n: frozenset(JID[j] for j in LIMB_GROUPS[n]) for n in names}
    for i, n1 in enumerate(names):
        valid.add(cols[n1])
        for n2 in names[i + 1:]:
            valid.add(cols[n1] | cols[n2])
    rng = np.random.default_rng(11)
    for _ in range(300):
        m = sample_mask(60, rng)
        for t in range(7):
            col = frozenset(np.flatnonzero(m[:, t]).tolist())
            assert col in valid


def test_mask_span_shares_one_column():
    # the sampled span forces identical columns inside it; with a full-window
    # span all 7 columns agree, which must occur in ~25% of draws
    rng = np.random.default_rng(12)
    same = 0
    n = 1000
    for _ in range(n):
        m = sample_mask(60, rng)
        same += int(all(np.array_equal(m[:, 0], m[:, t]) for t in range(1, 7)))
    assert same / n > 0.24  # full span plus coincidences


def test_curriculum_config_validates_probabilities():
    with pytest.raises(DataError):
        CurriculumConfig(p_span_one=0.7, p_span_full=0.6)


# -----------------------------------------------------------------------------
# Clipping and AdamW
# -----------------------------------------------------------------------------


def test_clip_under_threshold_is_bitwise_noop():
    g = {"a": np.array([0.3, 0.4], dtype=np.float32),
         "b": np.array([[0.1]], dtype=np.float32)}
    before = {k: v.copy() for k, v in g.items()}
    norm = clip_gradients(g, 1.0)
    assert norm == pytest.approx(np.sqrt(0.25 + 0.01), abs=1e-7)
    assert all(np.array_equal(g[k], before[k]) for k in g)


def test_clip_over_threshold_scales_to_max_norm():
    g = {"a": np.array([3.0, 4.0], dtype=np.float32)}
    norm = clip_gradients(g, 1.0)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(g["a"]) == pytest.approx(1.0, abs=1e-6)
    assert np.allclose(g["a"] / np.linalg.norm(g["a"]), [0.6, 0.8], atol=1e-6)


def test_adamw_first_step_matches_oracle():
    cfg = ModelConfig.tiny()
    params = init_parameters(cfg, np.random.default_rng(13), dtype=np.float64)
    rng = np.random.default_rng(14)
    grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
    ref = {k: v.copy() for k, v in params.items()}
    tc = TrainConfig(lr=1e-3)
    adamw_step(params, grads, AdamWState.fresh(params), tc)
    for k in params:
        p = ref[k].copy()
        if not is_decay_excluded(k):
            p -= tc.lr * tc.weight_decay * p
        g = grads[k]
        mhat = (1 - tc.beta1) * g / (1 - tc.beta1)
        vhat = (1 - tc.beta2) * g * g / (1 - tc.beta2)
        p -= tc.lr * mhat / (np.sqrt(vhat) + tc.eps)
        assert np.abs(p - params[k]).max() < 1e-15, k


def test_adamw_decay_only_on_weights():
    cfg = ModelConfig.tiny()
    params = init_parameters(cfg, np.random.default_rng(15), dtype=np.float64)
    params["enc.0.ln1.b"] += 0.5  # give excluded tensors nonzero values
    ref = {k: v.copy() for k, v in params.items()}
    zero_g = {k: np.zeros_like(v) for k, v in params.items()}
    adamw_step(params, zero_g, AdamWState.fresh(params), TrainConfig(lr=1e-3))
    for k in params:
        if is_decay_excluded(k):
            assert np.array_equal(params[k], ref[k]), k
        else:
            expect = ref[k] * (1.0 - 1e-3 * TrainConfig().weight_decay)
            assert np.abs(params[k] - expect).max() < 1e-12, k


def test_adamw_state_step_counts():
    cfg = ModelConfig.tiny()
    params = init_parameters(cfg, np.random.default_rng(16), dtype=np.float64)
    st = AdamWState.fresh(params)
    g = {k: np.ones_like(v) for k, v in params.items()}
    adamw_step(params, g, st, TrainConfig())
    adamw_step(params, g, st, TrainConfig())
    assert st.step == 2


# -----------------------------------------------------------------------------
# Training loop
# -----------------------------------------------------------------------------


def _toy_data(n=8, seed=17):
    rng = np.random.default_rng(seed)
    feats = rng.normal(scale=0.5, size=(n, 12, 7, 12)).astype(np.float32)
    vels = rng.normal(scale=0.1, size=(n, 12, 7, 3)).astype(np.float32)
    return feats, vels


def test_train_is_deterministic_by_seed():
    feats, vels = _toy_data()
    tc = TrainConfig(epochs=2, batch_size=4, lr=1e-3)
    r1 = train(feats, vels, ModelConfig.tiny(), tc, seed=5)
    r2 = train(feats, vels, ModelConfig.tiny(), tc, seed=5)
    assert all(np.array_equal(r1.params[k], r2.params[k]) for k in r1.params)
    assert [h.as_tuple() for h in r1.history] == [h.as_tuple() for h in r2.history]
    r3 = train(feats, vels, ModelConfig.tiny(), tc, seed=6)
    assert any(not np.array_equal(r1.params[k], r3.params[k]) for k in r1.params)


def test_train_reduces_loss_on_toy_problem():
    feats, vels = _toy_data(n=16)
    tc = TrainConfig(epochs=12, batch_size=8, lr=2e-3)
    res = train(feats, vels, ModelConfig.tiny(), tc, seed=7)
    assert len(res.history) == 12
    assert res.history[-1].total < res.history[0].total


def test_train_empty_data_raises():
    with pytest.raises(DataError):
        train(np.zeros((0, 12, 7, 12)), np.zeros((0, 12, 7, 3)), ModelConfig.tiny())


def test_train_divergence_keeps_last_good():
    feats, vels = _toy_data()
    tc = TrainConfig(epochs=4, batch_size=4, lr=1e12)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError) as exc:
            train(feats, vels, ModelConfig.tiny(), tc, seed=5)
    assert all(np.isfinite(v).all() for v in exc.value.last_good.values())


def test_train_progress_callback():
    feats, vels = _toy_data()
    seen = []
    train(feats, vels, ModelConfig.tiny(), TrainConfig(epochs=3, batch_size=8),
          seed=0, progress=lambda e, h: seen.append((e, h.total)))
    assert [e for e, _ in seen] == [0, 1, 2]


# -----------------------------------------------------------------------------
# Files
# -----------------------------------------------------------------------------


def test_write_loss_history_format(tmp_path):
    hist = [LossBreakdown(0.1, 0.2, 0.3, 0.4, 0.5),
            LossBreakdown(0.05, 0.1, 0.15, 0.2, 0.25)]
    path = tmp_path / "loss.csv"
    write_loss_history(path, hist, provenance="run abc")
    lines = path.read_text().splitlines()
    assert lines[0] == "# run abc"
    assert lines[1] == "epoch,final,masked,visible,velocity,context,total"
    first = lines[2].split(",")
    assert first[0] == "0"
    assert float(first[-1]) == pytest.approx(1.5)
    assert len(lines) == 4


def test_train_config_roundtrip(tmp_path):
    path = tmp_path / "train.json"
    tc = TrainConfig(lr=3e-4, epochs=40)
    cc = CurriculumConfig(transition_epochs=30)
    save_train_config(path, tc, cc)
    tc2, cc2 = load_train_config(path)
    assert tc2 == tc and cc2 == cc


@pytest.mark.parametrize("text", ['{"train": {"learning_rate": 1}}', "{not json", "[1, 2]"])
def test_train_config_unknown_key_or_not_json(tmp_path, text):
    path = tmp_path / "train.json"
    path.write_text(text)
    with pytest.raises(DataError):
        load_train_config(path)
