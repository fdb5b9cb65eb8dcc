"""Recoverability, interpolation, probe, and surface-metric diagnostics.

Stub decoders with known output distributions give closed-form expected
values (uniform logits decode to CE = ln V, a saturated one-hot decoder to
CE ~ 0); an untrained autoencoder exercises the real decode path.
"""

import types

import numpy as np
import pytest

from draftflow import autoencoder as AE
from draftflow import diagnostics as D
from draftflow import tensor as T
from draftflow.corpus import EOS, PAD
from draftflow.tensor import Tensor

V = 24
M, N, DDIM = 4, 8, 8


class _StubModel:
    """Fake decoder: logits come from a function of the latent batch."""

    def __init__(self, logits_fn, m: int = M):
        self.config = types.SimpleNamespace(m=m, n=N)
        self._fn = logits_fn

    def decode_array(self, z):
        z = np.asarray(z.data if isinstance(z, Tensor) else z)
        return Tensor(self._fn(z).astype(np.float32))


def _flat_model():
    return _StubModel(lambda z: np.zeros((z.shape[0], z.shape[1], V)))


def _ids_mask(B=3, seed=0):
    rng = np.random.default_rng(seed)
    ids = rng.integers(4, V, size=(B, N))
    mask = np.ones((B, N), dtype=bool)
    mask[0, N - 2:] = False
    ids[0, N - 2:] = PAD
    return ids, mask


def _z(B=3, seed=1):
    return np.asarray(
        np.random.default_rng(seed).standard_normal((B, N, DDIM)),
        dtype=np.float32)


@pytest.fixture(scope="module")
def toy_ae():
    # untrained, but a real encoder/decoder pair
    return AE.Autoencoder(AE.AEConfig(vocab_size=V, d=DDIM, h=16,
                                      m=M, n=N, seed=3))


# -- recoverability ----------------------------------------------------------

def test_uniform_decoder_hits_log_vocab():
    ids, mask = _ids_mask()
    out = D.recoverability(_flat_model(), _z(), ids, mask)
    assert abs(out["ce"] - np.log(V)) < 1e-6
    assert abs(out["p_target"] - 1.0 / V) < 1e-7
    # ties argmax to index 0, which never appears as a real suffix token
    assert out["top1"] == 0.0


def test_saturated_decoder_recovers_everything():
    ids, mask = _ids_mask()

    def onehot(z):
        logits = np.zeros((z.shape[0], z.shape[1], V))
        np.put_along_axis(logits, ids[..., None], 30.0, axis=-1)
        return logits

    out = D.recoverability(_StubModel(onehot), _z(), ids, mask)
    assert out["ce"] < 1e-5
    assert out["p_target"] > 1.0 - 1e-5
    assert out["top1"] == 1.0


def test_masked_positions_do_not_matter():
    ids, mask = _ids_mask()
    rng = np.random.default_rng(7)
    logits_table = rng.standard_normal((3, N, V))
    model = _StubModel(lambda z: logits_table)
    before = D.recoverability(model, _z(), ids, mask)
    scrambled = ids.copy()
    scrambled[~mask] = rng.integers(0, V, size=(~mask).sum())
    after = D.recoverability(model, _z(), scrambled, mask)
    assert before == after


def test_all_masked_suffix_rejected():
    ids, mask = _ids_mask(B=1)
    mask[:, M:] = False
    with pytest.raises(ValueError, match="suffix"):
        D.recoverability(_flat_model(), _z(B=1), ids, mask)


def test_ce_dominates_neg_log_mean_probability():
    # Jensen: E[-log p] >= -log E[p], any decoder
    ids, mask = _ids_mask(B=4, seed=5)
    rng = np.random.default_rng(11)
    model = _StubModel(lambda z: rng.standard_normal((z.shape[0], N, V)) * 3)
    out = D.recoverability(model, _z(B=4), ids, mask)
    assert out["ce"] >= -np.log(out["p_target"]) - 1e-9


def test_per_example_breakdown_matches_global():
    ids, mask = _ids_mask(B=4, seed=2)
    rng = np.random.default_rng(13)
    logits_table = rng.standard_normal((4, N, V))
    model = _StubModel(lambda z: logits_table)
    out = D.recoverability(model, _z(B=4), ids, mask, per_example=True)
    counts = mask[:, M:].sum(axis=1)
    pooled = (out["ce_per_example"] * counts).sum() / counts.sum()
    assert abs(pooled - out["ce"]) < 1e-12
    assert out["p_target_per_example"].shape == (4,)


# -- interpolation -----------------------------------------------------------

def test_interpolation_curve_validation():
    with pytest.raises(ValueError, match="equal length"):
        D.InterpolationCurve([0.0, 1.0], [1.0])
    with pytest.raises(ValueError, match="increasing"):
        D.InterpolationCurve([0.0, 0.5, 0.5], [1.0, 1.0, 1.0])


def test_interpolation_endpoints_exact(toy_ae):
    ids, mask = _ids_mask(seed=3)
    with T.no_grad():
        z_real = toy_ae.encode_array(ids).data
    z_hat = z_real + _z(seed=9) * 0.3
    curve = D.interpolation_diagnostic(
        toy_ae, z_hat[:, M:], z_real[:, M:], z_real[:, :M], ids, mask)
    assert curve.alphas == D.DEFAULT_INTERP_ALPHAS
    start = D.recoverability(
        toy_ae, np.concatenate([z_real[:, :M], z_hat[:, M:]], axis=1),
        ids, mask)["ce"]
    end = D.recoverability(toy_ae, z_real, ids, mask)["ce"]
    assert curve.ce_values[0] == start
    assert curve.ce_values[-1] == end


def test_interpolation_custom_alphas(toy_ae):
    ids, mask = _ids_mask(B=2, seed=4)
    with T.no_grad():
        z_real = toy_ae.encode_array(ids).data
    curve = D.interpolation_diagnostic(
        toy_ae, z_real[:, M:], z_real[:, M:], z_real[:, :M], ids, mask,
        alphas=[0.0, 0.5, 1.0])
    # identical endpoints make the whole line one point
    assert max(curve.ce_values) - min(curve.ce_values) < 1e-6


# -- dissociation probe ------------------------------------------------------

def test_probe_zero_budget_is_identity(toy_ae):
    ids, mask = _ids_mask(seed=6)
    with T.no_grad():
        z_real = toy_ae.encode_array(ids).data
    out = D.dissociation_probe(toy_ae, z_real, ids, mask, step_budget=0)
    assert np.allclose(out["cosine"], 1.0, atol=1e-6)
    assert np.array_equal(out["steps_used"], np.zeros(3, dtype=np.int64))
    assert not out["success"].any()
    assert out["budget_exhausted"]
    assert np.allclose(out["p_target"], out["p_target_real"])


def test_probe_respects_cosine_floor(toy_ae):
    ids, mask = _ids_mask(seed=8)
    with T.no_grad():
        z_real = toy_ae.encode_array(ids).data
    floor = 0.99
    out = D.dissociation_probe(toy_ae, z_real, ids, mask,
                               cosine_floor=floor, step_budget=12)
    assert (out["cosine"] >= floor - 1e-6).all()
    assert (out["p_target"] <= out["p_target_real"] + 1e-6).all()
    assert (out["steps_used"] <= 12).all()


def _probe_reference(model, z_full_real, ids, mask, cosine_floor,
                     step_budget, step_scale=0.05, target_ratio=0.5):
    """The probe decoding every row twice per step: a gradient pass and a
    separate no-grad scoring pass, until the slowest row finishes."""
    z_real = np.asarray(z_full_real, dtype=np.float32)
    m = model.config.m
    B = z_real.shape[0]
    S, d = z_real.shape[1] - m, z_real.shape[2]
    z_p = z_real[:, :m, :]
    z_s = z_real[:, m:, :].reshape(B, S * d).astype(np.float64)
    ref_unit = z_s / np.linalg.norm(z_s, axis=1, keepdims=True)
    base_pt = D.recoverability(model, z_real, ids, mask,
                               per_example=True)["p_target_per_example"]
    goal = target_ratio * base_pt
    w = mask[:, m:].astype(np.float32)
    denom = np.maximum(w.sum(axis=1), 1.0)
    step_len = step_scale * np.linalg.norm(z_s, axis=1, keepdims=True)
    z_adv = z_s.copy()
    done = np.zeros(B, dtype=bool)
    steps_used = np.zeros(B, dtype=np.int64)
    for step in range(step_budget):
        if done.all():
            break
        zt = Tensor(z_adv.reshape(B, S, d).astype(np.float32),
                    requires_grad=True)
        logits = model.decode_array(T.concat([Tensor(z_p), zt], axis=1))
        true_lp = T.gather_last(T.log_softmax(logits, axis=-1), ids)[:, m:]
        ce_per = T.tsum(true_lp * Tensor(-w), axis=1) / Tensor(denom)
        T.tsum(ce_per * Tensor((~done).astype(np.float32))).backward()
        g = zt.grad.reshape(B, S * d).astype(np.float64)
        gn = np.linalg.norm(g, axis=1, keepdims=True)
        g = np.where(gn > 0, g / np.maximum(gn, 1e-24), 0.0)
        proposal = D._project_to_cone(z_adv + step_len * g, ref_unit,
                                      cosine_floor)
        z_adv = np.where(done[:, None], z_adv, proposal)
        steps_used[~done] = step + 1
        with T.no_grad():
            now = D.recoverability(
                model, np.concatenate(
                    [z_p, z_adv.reshape(B, S, d).astype(np.float32)], axis=1),
                ids, mask, per_example=True)
        done = done | (now["p_target_per_example"] <= goal)
    final = D.recoverability(
        model, np.concatenate(
            [z_p, z_adv.reshape(B, S, d).astype(np.float32)], axis=1),
        ids, mask, per_example=True)["p_target_per_example"]
    succ = final <= goal
    return {"cosine": D._cosine_rows(z_adv, z_s), "p_target": final,
            "success": succ, "steps_used": steps_used,
            "budget_exhausted": bool((~succ).any())}


@pytest.mark.parametrize("seed,ratio", [(0, 0.5), (3, 0.7)])
def test_probe_matches_two_pass_reference(toy_ae, monkeypatch, seed, ratio):
    ids, mask = _ids_mask(B=8, seed=seed)
    with T.no_grad():
        z_real = toy_ae.encode_array(ids).data
    kw = dict(cosine_floor=0.95, step_budget=40, target_ratio=ratio)
    ref = _probe_reference(toy_ae, z_real, ids, mask, **kw)
    rows = []
    decode = toy_ae.decode_array
    monkeypatch.setattr(toy_ae, "decode_array",
                        lambda z: rows.append(len(z.data)) or decode(z))
    out = D.dissociation_probe(toy_ae, z_real, ids, mask, **kw)
    # a mix of early successes and spent budgets makes the check bite
    assert 0 < out["success"].sum() and (out["steps_used"] < 40).any()
    assert np.array_equal(out["steps_used"], ref["steps_used"])
    assert np.array_equal(out["success"], ref["success"])
    assert out["budget_exhausted"] == ref["budget_exhausted"]
    np.testing.assert_allclose(out["p_target"], ref["p_target"], atol=1e-6)
    np.testing.assert_allclose(out["cosine"], ref["cosine"], atol=1e-6)
    # base pass + one pass per step taken + a scoring pass per row
    assert sum(rows) <= 8 + out["steps_used"].sum() + 8


def test_probe_floor_validation(toy_ae):
    ids, mask = _ids_mask(B=1)
    with pytest.raises(ValueError, match="cosine_floor"):
        D.dissociation_probe(toy_ae, _z(B=1), ids, mask, cosine_floor=0.5)


def test_matched_norm_control_with_zero_delta(toy_ae):
    ids, mask = _ids_mask(seed=10)
    with T.no_grad():
        z_real = toy_ae.encode_array(ids).data
    base = D.recoverability(toy_ae, z_real, ids, mask, per_example=True)
    p_rand = D.matched_norm_random_probe(
        toy_ae, z_real, ids, mask, z_real[:, M:], seed=0)
    assert np.allclose(p_rand, base["p_target_per_example"], atol=1e-6)


# -- surface metrics ---------------------------------------------------------

def test_surface_metrics_constant_sequence():
    out = D.surface_metrics([[5, 5, 5, 5]])
    assert out["distinct1"] == 0.25
    assert out["distinct2"] == pytest.approx(1.0 / 3.0)
    assert out["repetition"] == 1.0
    assert out["avg_length"] == 4.0


def test_surface_metrics_all_distinct():
    out = D.surface_metrics([[4, 5, 6, 7]])
    assert out["distinct1"] == 1.0
    assert out["distinct2"] == 1.0
    assert out["repetition"] == 0.0


def test_surface_metrics_eos_and_pad_handling():
    out = D.surface_metrics([[4, 5, EOS, 9, 9], [4, PAD, 5]])
    # first row cuts at EOS, second drops padding
    assert out["avg_length"] == 2.0
    assert out["repetition"] == 0.0
    out = D.surface_metrics([[EOS, 7, 7]])
    assert out["avg_length"] == 0.0
    assert out["distinct1"] == 0.0


def test_surface_metrics_needs_input():
    with pytest.raises(ValueError):
        D.surface_metrics([])


# -- quality/speed sweep -----------------------------------------------------

def test_sweep_rows_and_latency(monkeypatch):
    ids, mask = _ids_mask()
    model = _flat_model()
    calls = []
    rows_decoded = []
    decode = model.decode_array
    monkeypatch.setattr(model, "decode_array",
                        lambda z: rows_decoded.append(len(z)) or decode(z))

    def infer_one(i, steps):
        calls.append((i, steps))
        return np.zeros((1, N, DDIM), dtype=np.float32)

    rows = D.quality_speed_sweep(infer_one, model, ids, mask, [0, 2])
    assert [r["steps"] for r in rows] == [0, 2]
    expected = set(D.DiagnosticReport().as_dict()) | {"steps"}
    for row in rows:
        assert set(row) == expected
        assert abs(row["ce"] - np.log(V)) < 1e-6
        assert row["latency_s"] > 0
        assert row["tokens_per_s"] > 0
    # one batch-1 call per example per step count
    assert calls == [(i, s) for s in (0, 2) for i in range(3)]
    # per step count: each serial run's decode (inside its latency) and one
    # batched readout for the quality and surface columns
    assert sum(rows_decoded) == 2 * 2 * 3
