"""Noise mixing, residual start prediction, and the corruption curve."""

import csv

import numpy as np
import pytest

from draftflow import autoencoder as AE
from draftflow import corpus as C
from draftflow import diagnostics as D
from draftflow import draftprior as DP
from draftflow import pipeline as P
from draftflow import tensor as T
from draftflow.gradcheck import grad_check
from draftflow.tensor import Tensor


def _suffix(shape, seed=0):
    return T.gaussian_sample(shape, seed).data


def _tiny_pair(seed=7):
    ae = AE.Autoencoder(AE.AEConfig(vocab_size=24, d=8, h=16, m=4, n=8,
                                    n_heads=4, seed=seed))
    ae.freeze()
    prior = DP.DraftPrior(DP.DraftPriorConfig(d=8, m=4, n=8, h=16, n_heads=4,
                                              seed=seed + 1))
    return ae, prior


def _tiny_corpus(count=240, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        p = [int(x) for x in rng.integers(4, 24, size=int(rng.integers(1, 5)))]
        t = [int(x) for x in rng.integers(4, 24, size=int(rng.integers(1, 5)))]
        out.append(C.StoryExample(
            prompt=C.TokenSequence.from_tokens(p, 4),
            target=C.TokenSequence.from_tokens(t, 4),
            raw_text=("", "")))
    return out


# -- mixing ------------------------------------------------------------------

def test_start_latents_rejects_bad_alpha():
    ae, _ = _tiny_pair()
    examples = _tiny_corpus(count=2)
    for alpha in (0.0, -0.1, 1.01):
        prior = DP.DraftPrior(DP.DraftPriorConfig(
            d=8, m=4, n=8, h=16, n_heads=4, alpha=alpha, seed=8))
        with pytest.raises(ValueError, match="alpha"):
            DP.start_latents(ae, prior, examples, 0.0, 0)


def test_mix_alpha_one_is_identity():
    z = _suffix((16, 32))
    out = DP.mix_with_noise(z, 1.0, 5)
    assert np.array_equal(out, z)


def test_mix_alpha_near_zero_is_noise():
    z = _suffix((16, 32), seed=1)
    out = DP.mix_with_noise(z, 1e-4, 9)
    eps = T.gaussian_sample((16, 32), 9).data
    assert np.abs(out - eps).max() < 1e-3


def test_mix_deterministic():
    z = _suffix((16, 32), seed=2)
    a = DP.mix_with_noise(z, 0.7, 11)
    b = DP.mix_with_noise(z, 0.7, 11)
    assert np.array_equal(a, b)
    c = DP.mix_with_noise(z, 0.7, 12)
    assert not np.array_equal(a, c)


def test_mix_preserves_unit_variance():
    # alpha^2 + (1 - alpha^2) = 1, checked empirically on 100k+ coordinates
    z = _suffix((200, 16, 32), seed=3)
    out = DP.mix_with_noise(z, 0.7, 13)
    assert abs(float(np.var(out.astype(np.float64))) - 1.0) < 0.02


# -- start prediction --------------------------------------------------------

def test_predict_start_identity_at_init():
    _, prior = _tiny_pair()
    z_t = T.gaussian_sample((3, 4, 8), 1)
    z_p = T.gaussian_sample((3, 4, 8), 2)
    out = prior.predict_start_array(z_t, z_p, 0.7)
    assert np.array_equal(out.data, z_t.data)


def test_predict_start_deterministic(prior32):
    z_t = T.gaussian_sample((2, 16, 32), 4)
    z_p = T.gaussian_sample((2, 16, 32), 5)
    a = prior32.predict_start_array(z_t, z_p, 0.7).data
    b = prior32.predict_start_array(z_t, z_p, 0.7).data
    assert np.array_equal(a, b)


def test_predict_start_shape_checks():
    _, prior = _tiny_pair()
    good_t = T.gaussian_sample((2, 4, 8), 1)
    with pytest.raises(ValueError):
        prior.predict_start_array(good_t, T.gaussian_sample((2, 3, 8), 2), 0.7)
    with pytest.raises(ValueError):
        prior.predict_start_array(good_t, T.gaussian_sample((3, 4, 8), 2), 0.7)
    with pytest.raises(ValueError):
        prior.predict_start_array(T.gaussian_sample((2, 4, 6), 1),
                                  T.gaussian_sample((2, 4, 8), 2), 0.7)


# -- loss --------------------------------------------------------------------

def _loss_inputs(ae, seed=0):
    rng = np.random.default_rng(seed)
    B, m, n, d = 3, ae.config.m, ae.config.n, ae.config.d
    ids = rng.integers(4, ae.config.vocab_size, size=(B, n))
    mask = np.ones((B, n), dtype=bool)
    mask[0, n - 1] = False
    z_s = T.gaussian_sample((B, n - m, d), seed + 1).data
    z_p = T.gaussian_sample((B, m, d), seed + 2).data
    return z_s, z_p, ids, mask


def test_loss_geometry_terms_vanish_at_equality():
    ae, _ = _tiny_pair()
    z_s, z_p, ids, mask = _loss_inputs(ae)
    total, parts = DP.draftprior_loss(ae, Tensor(z_s.copy()), z_s, z_p, ids, mask)
    assert parts["mse"] == 0.0
    assert abs(parts["cos"]) < 1e-6
    assert parts["norm"] == 0.0
    assert abs(float(total.data) - parts["ce"]) < 1e-6


def test_loss_separates_angle_from_magnitude():
    ae, _ = _tiny_pair()
    z_s, z_p, ids, mask = _loss_inputs(ae)
    _, parts = DP.draftprior_loss(ae, Tensor(2.0 * z_s), z_s, z_p, ids, mask)
    B = z_s.shape[0]
    norms_sq = (z_s.reshape(B, -1).astype(np.float64) ** 2).sum(axis=1)
    assert abs(parts["cos"]) < 1e-5
    assert parts["norm"] == pytest.approx(float(norms_sq.mean()), rel=1e-3)
    assert parts["mse"] == pytest.approx(
        float(norms_sq.mean() / z_s[0].size), rel=1e-3)


def test_loss_shape_mismatch():
    ae, _ = _tiny_pair()
    z_s, z_p, ids, mask = _loss_inputs(ae)
    with pytest.raises(ValueError):
        DP.draftprior_loss(ae, Tensor(z_s[:2]), z_s, z_p, ids, mask)


def test_loss_gradcheck_small_instance():
    ae, prior = _tiny_pair()
    z_s, z_p, ids, mask = _loss_inputs(ae)
    z_t = T.gaussian_sample(z_s.shape, 3)

    def loss_fn(params):
        z_start = prior.predict_start_array(z_t, Tensor(z_p), 0.7)
        return DP.draftprior_loss(ae, z_start, z_s, z_p, ids, mask)[0]

    err = grad_check(loss_fn, prior.store, eps=1e-3, max_entries_per_param=4)
    assert err < 1e-4, f"relative error {err:.3e}"


# -- training ----------------------------------------------------------------

def test_train_requires_frozen_stage1():
    ae, _ = _tiny_pair()
    ae.frozen = False
    with pytest.raises(ValueError):
        DP.train_draftprior(ae, _tiny_corpus())


def test_train_rerun_identical():
    ae, _ = _tiny_pair()
    corpus = _tiny_corpus()
    cfg = DP.DraftPriorConfig(d=8, m=4, n=8, h=16, n_heads=4, seed=5)
    tc = DP.DraftPriorTrainConfig(steps=6, batch_size=8, val_count=20,
                                  log_every=2, seed=21)
    _, h1, c1 = DP.train_draftprior(ae, corpus, cfg, tc)
    _, h2, c2 = DP.train_draftprior(ae, corpus, cfg, tc)
    assert h1[-1]["loss"] == pytest.approx(h2[-1]["loss"], abs=1e-6)
    for r1, r2 in zip(c1, c2):
        assert r1["p_target"] == pytest.approx(r2["p_target"], abs=1e-6)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_train_divergence_raises():
    ae, _ = _tiny_pair()
    cfg = DP.DraftPriorConfig(d=8, m=4, n=8, h=16, n_heads=4, seed=5)
    tc = DP.DraftPriorTrainConfig(steps=60, batch_size=8, val_count=20,
                                  lr=1e6, grad_clip=1e9, seed=21)
    with pytest.raises(AE.DivergenceError):
        DP.train_draftprior(ae, _tiny_corpus(), cfg, tc)


def test_sample_alpha_flag_changes_training():
    ae, _ = _tiny_pair()
    corpus = _tiny_corpus()
    tc = DP.DraftPriorTrainConfig(steps=4, batch_size=8, val_count=20, seed=21)
    fixed = DP.DraftPriorConfig(d=8, m=4, n=8, h=16, n_heads=4, seed=5)
    sampled = DP.DraftPriorConfig(d=8, m=4, n=8, h=16, n_heads=4, seed=5,
                                  sample_alpha=True)
    _, h1, _ = DP.train_draftprior(ae, corpus, fixed, tc)
    _, h2, _ = DP.train_draftprior(ae, corpus, sampled, tc)
    assert h1[-1]["loss"] != h2[-1]["loss"]


# -- curve -------------------------------------------------------------------

def test_curve_rejects_empty_inputs(ae32, prior32):
    with pytest.raises(ValueError):
        DP.corruption_curve(ae32, prior32, C.generate_corpus(seed=4, count=2),
                            dropouts=())
    with pytest.raises(ValueError):
        DP.corruption_curve(ae32, prior32, [], dropouts=(0.0,))


def test_curve_repeat_identical(ae32, prior32, val_examples):
    sub = val_examples[:40]
    a = DP.corruption_curve(ae32, prior32, sub, dropouts=(0.0, 0.05), seed=77)
    b = DP.corruption_curve(ae32, prior32, sub, dropouts=(0.0, 0.05), seed=77)
    for r1, r2 in zip(a, b):
        for k in ("ce", "p_target", "top1"):
            assert r1[k] == pytest.approx(r2[k], abs=1e-6)


def test_curve_information_free_draft(ae32, prior32, val_examples):
    rows = DP.corruption_curve(ae32, prior32, val_examples[:60],
                               dropouts=(0.0, 1.0), seed=3)
    assert rows[1]["p_target"] < rows[0]["p_target"]
    assert rows[1]["ce"] > rows[0]["ce"]


def test_curve_csv_roundtrip(tmp_path, ae32, prior32, val_examples):
    rows = DP.corruption_curve(ae32, prior32, val_examples[:20],
                               dropouts=(0.0, 0.1), seed=5)
    path = tmp_path / "curve.csv"
    P._write_csv(path, DP.CURVE_COLUMNS, rows)
    text = path.read_text()
    assert text.splitlines()[0] == "dropout,ce,p_target,top1,n_examples,seed"
    back = list(csv.DictReader(text.splitlines()))
    assert len(back) == 2
    assert float(back[0]["p_target"]) == pytest.approx(rows[0]["p_target"])


# -- trained-model behavior --------------------------------------------------

def test_prior_denoises_clean_drafts(ae32, prior32, val_examples):
    # paired comparison: the predicted start must read better than the
    # raw noisy mix it was computed from
    z_full, z_t_full, ids, mask = DP.start_latents(
        ae32, prior32, val_examples, 0.0, 99)
    r_start = D.recoverability(ae32, z_full, ids, mask)
    r_mix = D.recoverability(ae32, z_t_full, ids, mask)
    assert r_start["p_target"] >= r_mix["p_target"]
    assert r_start["p_target"] >= 0.8


def test_corruption_curve_monotone(ae32, prior32, val_examples):
    rows = DP.corruption_curve(ae32, prior32, val_examples,
                               dropouts=(0.0, 0.03, 0.05, 0.10), seed=1337)
    ps = [r["p_target"] for r in rows]
    ces = [r["ce"] for r in rows]
    assert all(a > b for a, b in zip(ps, ps[1:]))
    assert all(a < b for a, b in zip(ces, ces[1:]))
