"""Release gate: the eleven properties this package commits to.

Each test is one criterion and prints one pass/fail line under -v. Numeric
gates (oracle quality, orderings, tolerances) are pinned here and nowhere
else; trained-model criteria pull the session fixtures, which retrain from
scratch whenever the package sources change.
"""

import itertools
import json
import time

import numpy as np
import pytest

from draftflow import alignment as AL
from draftflow import autoencoder as AE
from draftflow import checkpoint as CK
from draftflow import config as CFG
from draftflow import corpus as C
from draftflow import diagnostics as D
from draftflow import draftprior as DP
from draftflow import flowfield as FF
from draftflow import metricnet as M
from draftflow import nn
from draftflow import pipeline as P
from draftflow import tensor as T
from draftflow.gradcheck import grad_check
from draftflow.tensor import Tensor, no_grad

SEED = 1337


def _g(shape, seed):
    return T.gaussian_sample(shape, seed).data


def _merged(*stores):
    params = {}
    for s in stores:
        params.update(dict(s.items()))

    class _Params:
        def items(self):
            return params.items()

    return _Params()


def test_c01_gradient_integrity():
    """Every training loss passes finite differences on small instances."""
    errs = {}
    rng = np.random.default_rng(5)
    ids = rng.integers(4, 24, size=(2, 8))
    mask = np.ones((2, 8), dtype=bool)
    mask[0, 6:] = False

    ae = AE.Autoencoder(AE.AEConfig(vocab_size=24, d=8, h=16, m=4, n=8,
                                    n_heads=4, seed=1))
    # softmax CE's third-order terms make 1e-3 steps marginal here
    errs["reconstruction"] = grad_check(
        lambda _: ae.loss_array(ids, mask), ae.store,
        eps=3e-4, max_entries_per_param=3)
    ae.freeze()

    prior = DP.DraftPrior(DP.DraftPriorConfig(d=8, m=4, n=8, h=16,
                                              n_heads=4, seed=2))
    z_s, z_p = _g((2, 4, 8), 3), _g((2, 4, 8), 4)
    z_t = Tensor(_g((2, 4, 8), 5))

    def dp_loss(_):
        z_start = prior.predict_start_array(z_t, Tensor(z_p), 0.7)
        return DP.draftprior_loss(ae, z_start, z_s, z_p, ids, mask)[0]

    errs["denoising_start"] = grad_check(dp_loss, prior.store, eps=1e-3,
                                         max_entries_per_param=3)

    net = FF.FlowNet(FF.FlowConfig(d=8, m=4, n=8, h=16, n_heads=4, seed=3))
    z, zp = Tensor(_g((2, 4, 8), 6)), Tensor(_g((2, 4, 8), 7))
    sample = FF.FlowSample(z, 0.4, Tensor(_g((2, 4, 8), 8)))
    errs["flow_matching"] = grad_check(
        lambda _: FF.flow_matching_loss(net, sample, zp), net.store,
        eps=1e-3, max_entries_per_param=3)

    metric = M.MetricNet(M.MetricConfig(d=8, seed=4))
    metric.l2.w.data = 0.05 * _g(metric.l2.w.data.shape, 9)
    errs["force_matching"] = grad_check(
        lambda _: FF.force_matching_loss(net, metric, sample, zp),
        _merged(net.store, metric.store), eps=1e-3, max_entries_per_param=3)

    # near its quadratic minimum the identity regularizer needs a fine step
    errs["metric_identity_reg"] = grad_check(
        lambda _: M.metric_reg(metric.metric_diag(z, 0.4, zp)),
        metric.store, eps=3e-4, max_entries_per_param=3)

    aux_store = nn.ParamStore(rng_seed=5)
    aux = FF.AuxHead(aux_store, 8, 24)
    z0, zp_np = _g((2, 4, 8), 10), _g((2, 4, 8), 11)

    def fused_fn(_):
        zp_c = Tensor(zp_np)
        ctx = net.context(zp_c)
        traj = FF.integrate(lambda zz, t: net(T.as_tensor(zz), t, ctx),
                            Tensor(z0), 2)
        z_full = T.concat([zp_c, traj[-1]], axis=-2)
        total, _ = FF.fused_loss(ae, aux, z_full, traj[1], ids, mask,
                                 beta=0.1)
        return total

    errs["fused_readout"] = grad_check(fused_fn,
                                       _merged(net.store, aux_store),
                                       eps=1e-3, max_entries_per_param=3)

    ot_store = nn.ParamStore(rng_seed=6)
    cloud = ot_store.add("cloud", (3, 4))
    target = rng.normal(size=(3, 4)).astype(np.float32)
    errs["ot_regularized"] = grad_check(
        lambda _: AL.ot_regularized_loss(
            T.tmean(cloud * cloud), cloud, Tensor(target), weight=0.5,
            epsilon=1e-3),
        ot_store, eps=1e-3, max_entries_per_param=8)

    bad = {name: err for name, err in errs.items()
           if err >= (1e-3 if name == "ot_regularized" else 1e-4)}
    assert not bad, f"gradient failures {bad}; all errors {errs}"


def test_c02_stage1_oracle_quality(ae32, val_examples):
    """Real latents decode nearly perfectly after a few minutes of training."""
    rep = AE.oracle_eval(ae32, val_examples)
    assert rep.ce <= 0.3, f"oracle ce {rep.ce:.4f}"
    assert rep.p_target >= 0.9, f"oracle p_target {rep.p_target:.4f}"
    assert rep.top1 >= 0.9, f"oracle top1 {rep.top1:.4f}"
    assert ae32.train_seconds <= 300.0, f"trained {ae32.train_seconds:.0f}s"


def test_c03_compression_strictly_hurts(ae32, prior32, ae8, prior8,
                                        val_examples):
    """The narrow-latent run reads worse at every corruption level."""
    levels = (0.0, 0.03, 0.05)
    wide = DP.corruption_curve(ae32, prior32, val_examples, levels, seed=SEED)
    narrow = DP.corruption_curve(ae8, prior8, val_examples, levels, seed=SEED)
    for r8, r32 in zip(narrow, wide):
        assert r8["ce"] > r32["ce"], f"level {r8['dropout']}"
        assert r8["p_target"] < r32["p_target"], f"level {r8['dropout']}"


def test_c04_corruption_curve_monotone(ae32, prior32, val_examples):
    """Heavier draft corruption strictly degrades recoverability."""
    assert len(val_examples) >= 200
    rows = DP.corruption_curve(ae32, prior32, val_examples,
                               (0.0, 0.03, 0.05, 0.10), seed=SEED)
    ps = [r["p_target"] for r in rows]
    ces = [r["ce"] for r in rows]
    assert all(a > b for a, b in zip(ps, ps[1:])), f"p_target {ps}"
    assert all(a < b for a, b in zip(ces, ces[1:])), f"ce {ces}"
    assert ps[0] >= 0.8, f"clean-draft p_target {ps[0]:.4f}"


def test_c05_interpolation_non_increasing(ae32, prior32, val_examples):
    """CE falls monotonically along the line from generated to real latents."""
    z_full, _, ids, mask = DP.start_latents(ae32, prior32, val_examples,
                                            0.05, SEED + 5)
    with no_grad():
        z_real = ae32.encode_array(ids).data
    m = ae32.config.m
    curve = D.interpolation_diagnostic(ae32, z_full[:, m:], z_real[:, m:],
                                       z_real[:, :m], ids, mask)
    assert curve.alphas == [0.0, 0.01, 0.03, 0.05, 0.10, 0.20, 0.50, 1.0]
    pairs = list(zip(curve.ce_values, curve.ce_values[1:]))
    assert all(b <= a for a, b in pairs), f"ce {curve.ce_values}"
    gen_ce = D.recoverability(
        ae32, np.concatenate([z_real[:, :m], z_full[:, m:]], axis=1),
        ids, mask)["ce"]
    oracle_ce = AE.oracle_eval(ae32, val_examples).ce
    assert abs(curve.ce_values[0] - gen_ce) <= 1e-6
    assert abs(curve.ce_values[-1] - oracle_ce) <= 1e-6


def test_c06_variant_ordering(stage2_rows):
    """Fused readout helps, raw local flow is conservative, residual moves."""
    rows = {r["variant"]: r for r in stage2_rows}
    start = rows["start"]
    assert rows["fused"]["ce"] <= start["ce"], \
        f"fused {rows['fused']['ce']:.4f} vs start {start['ce']:.4f}"
    drift = abs(rows["raw"]["ce"] - start["ce"])
    assert drift <= 0.1 * start["ce"], f"raw drift {drift:.4f}"
    assert rows["residual"]["latent_move_l2"] > rows["raw"]["latent_move_l2"]
    assert len({r["seed"] for r in stage2_rows}) == 1


def test_c07_dissociation_probe(ae32, val_examples):
    """Nearby-by-cosine latents that the decoder cannot read, quickly."""
    sub = val_examples[:100]
    ids, mask = AE.batchify(sub, ae32.config.m, ae32.config.n)
    with no_grad():
        z_real = ae32.encode_array(ids).data
    t0 = time.perf_counter()
    out = D.dissociation_probe(ae32, z_real, ids, mask, cosine_floor=0.99,
                               step_budget=200, target_ratio=0.5)
    elapsed = time.perf_counter() - t0
    assert out["success_rate"] >= 0.9, f"success {out['success_rate']:.2f}"
    assert (out["cosine"] >= 0.99 - 1e-9).all()
    ok = out["success"]
    assert (out["p_target"][ok]
            <= 0.5 * out["p_target_real"][ok] + 1e-12).all()
    assert (out["steps_used"] <= 200).all()
    assert elapsed <= 120.0, f"probe took {elapsed:.0f}s"


def test_c08_transport_costs_exact():
    """Entropic cost matches brute force; both costs are honest distances."""
    rng = np.random.default_rng(3)
    A = rng.normal(size=(3, 4))
    B = rng.normal(size=(3, 4)) + 0.5
    res = AL.sinkhorn_cost(A, B, epsilon=1e-3, max_iters=5000)
    sq = ((A[:, None, :] - B[None, :, :]) ** 2).sum(-1)
    exact = min(sum(sq[i, p[i]] for i in range(3)) / 3
                for p in itertools.permutations(range(3)))
    assert abs(res.cost - exact) <= 0.02 * exact

    # single points pair up directly: the cost is the squared distance
    c = np.array([1.5, -2.0, 0.25])
    single = AL.sinkhorn_cost(np.zeros((1, 3)), c[None, :], epsilon=0.7)
    assert single.cost == pytest.approx(float((c ** 2).sum()), abs=1e-9)

    X = rng.normal(size=(6, 5))
    assert AL.sliced_wasserstein(X, X.copy()) == 0.0
    # every 1-D unit projection is a sign, so single points are exact
    # (up to the float32 rounding of the stored point itself)
    gap = float(np.float64(np.float32(1.7)) ** 2)
    for seed in (0, 1, 2):
        got = AL.sliced_wasserstein(np.zeros((1, 1)), np.array([[1.7]]),
                                    seed=seed)
        assert got == pytest.approx(gap, abs=1e-12)

    # symmetry needs a fully converged solver: small clouds have near-flat
    # dual directions at sharp epsilon, so test at one that converges.
    # the shift is exactly representable to keep translation bit-clean
    shift = np.full((1, 4), 3.25)
    kw = dict(epsilon=2.0, tol=1e-11, max_iters=2000)
    assert AL.sinkhorn_cost(A, B, **kw).converged
    for cost_fn in (lambda x, y: AL.sinkhorn_cost(x, y, **kw).cost,
                    AL.sliced_wasserstein):
        ab, ba = cost_fn(A, B), cost_fn(B, A)
        assert abs(ab - ba) <= 1e-6
        assert abs(cost_fn(A + shift, B + shift) - ab) <= 1e-6


def test_c09_structural_exactness():
    """Hard invariants: caps, identities, and untouched frozen weights."""
    # sup-norm cap, ten thousand probes with adversarially large weights
    lam = np.float32(0.1)
    probes = 0
    for trial in range(10):
        ref = FF.ResidualRefiner(FF.RefinerConfig(d=8, lam=float(lam),
                                                  seed=trial))
        for t in ref.store.tensors():
            t.data = 20.0 * _g(t.data.shape, 100 + trial)
        z = Tensor(_g((32, 4, 8), 200 + trial))
        zp = Tensor(_g((32, 4, 8), 300 + trial))
        out = FF.bounded_residual(z, zp, ref)
        term = np.abs(np.tanh(ref(z, zp).data) * lam)
        assert term.max() <= lam
        delta = np.abs(out.data.astype(np.float64)
                       - z.data.astype(np.float64))
        assert (delta <= np.float64(lam)
                + np.spacing(np.abs(z.data) + lam)).all()
        probes += delta.size
    assert probes >= 10000

    # identity metric reduces force matching to flow matching, bit for bit
    net = FF.FlowNet(FF.FlowConfig(d=8, m=4, n=8, h=16, n_heads=4, seed=21))
    for t in net.store.tensors():
        t.data = t.data + 0.05 * _g(t.data.shape, 31)
    z, zp = Tensor(_g((3, 4, 8), 41)), Tensor(_g((3, 4, 8), 42))
    sample = FF.FlowSample(z, 0.3, Tensor(_g((3, 4, 8), 43)))
    flow = FF.flow_matching_loss(net, sample, zp)
    for metric in (None, M.MetricNet(M.MetricConfig(d=8, seed=22))):
        force = FF.force_matching_loss(net, metric, sample, zp)
        assert force.data.tobytes() == flow.data.tobytes()

    # positivity and per-slot mean-1 for an arbitrary metric
    metric = M.MetricNet(M.MetricConfig(d=8, seed=23))
    metric.l2.w.data = _g(metric.l2.w.data.shape, 51)
    g = metric.metric_diag(z, 0.6, zp).data
    assert g.min() > 0.0
    assert np.abs(g.mean(axis=-1) - 1.0).max() <= 1e-6

    # zero integration steps return the start state untouched
    traj = FF.integrate(lambda zz, t: zz, z, 0)
    assert len(traj) == 1 and traj[0] is z

    # refinement training cannot move frozen earlier-stage weights
    rng = np.random.default_rng(0)
    corpus = []
    for _ in range(260):
        p = [int(x) for x in rng.integers(4, 24, size=int(rng.integers(1, 5)))]
        t = [int(x) for x in rng.integers(4, 24, size=int(rng.integers(1, 5)))]
        corpus.append(C.StoryExample(
            prompt=C.TokenSequence.from_tokens(p, 4),
            target=C.TokenSequence.from_tokens(t, 4),
            raw_text=("", "")))
    ae = AE.Autoencoder(AE.AEConfig(vocab_size=24, d=8, h=16, m=4, n=8,
                                    n_heads=4, seed=7))
    ae.freeze()
    prior = DP.DraftPrior(DP.DraftPriorConfig(d=8, m=4, n=8, h=16,
                                              n_heads=4, seed=8))
    prior.store.freeze()
    before = (ae.store.checksum(), prior.store.checksum())
    cfg = FF.Stage2Config(steps=4, batch_size=8, val_count=20,
                          ot_points=16, log_every=2)
    for variant in ("fused", "metric_ot"):
        FF.train_stage2(ae, prior, corpus, variant, cfg)
    assert (ae.store.checksum(), prior.store.checksum()) == before


def test_c10_quality_speed_sweep(ae32, prior32, stage2, val_examples):
    """More refinement steps cost more time; zero steps is the start model."""
    bundles, _ = stage2
    bundle = bundles["fused"]
    cfg = FF.Stage2Config(steps=300, seed=SEED)
    sub = val_examples[:32]
    ids, mask = AE.batchify(sub, ae32.config.m, ae32.config.n)

    def infer_one(i: int, steps: int):
        z_start, _, _, _ = DP.start_latents(ae32, prior32, [sub[i]],
                                            cfg.dropout, cfg.seed + 5 + i)
        return FF.refine(bundle, z_start, steps=steps)

    rows = D.quality_speed_sweep(infer_one, ae32, ids, mask,
                                 [0, 1, 2, 4, 8, 16])
    assert [r["steps"] for r in rows] == [0, 1, 2, 4, 8, 16]
    latency = {r["steps"]: r["latency_s"] for r in rows}
    assert latency[16] > latency[1], f"latency {latency}"

    # the zero-step row is exactly the denoising start model's evaluation
    starts = [DP.start_latents(ae32, prior32, [sub[i]], cfg.dropout,
                               cfg.seed + 5 + i)[0]
              for i in range(len(sub))]
    z_direct = np.concatenate(starts, axis=0)
    direct = D.recoverability(ae32, z_direct, ids, mask)
    with no_grad():
        decoded = ae32.decode_array(z_direct).data.argmax(axis=-1)
    surf = D.surface_metrics(
        [list(row) for row in decoded[:, ae32.config.m:]])
    expected = {**direct, **surf}
    for key, value in expected.items():
        assert abs(rows[0][key] - value) <= 1e-6, key

    assert not any("mauve" in k.lower() for r in rows for k in r)
    assert "MAUVE" in P.MAUVE_NOTE  # the omission is documented


MINI_INI = """\
[run]
seed = 77
[dims]
d = 8
h = 16
[corpus]
train_count = 520
val_count = 24
[stage1]
steps = 30
batch_size = 32
val_count = 24
[draftprior]
steps = 20
batch_size = 32
val_count = 24
[stage2]
steps = 4
batch_size = 16
val_count = 24
eval_steps = 4
[eval]
dissociation_examples = 6
sweep_examples = 3
sweep_steps = 0,1,2
"""


def test_c11_determinism_and_provenance(tmp_path):
    """Re-runs reproduce corpora, checkpoints, and report rows exactly."""
    ini = tmp_path / "mini.ini"
    ini.write_text(MINI_INI)
    cfg = CFG.load_config(ini)
    cfg.sections["paths"]["workdir"] = str(tmp_path / "run")
    wd = tmp_path / "run"

    P.cmd_generate_corpus(cfg)
    corpora = [(wd / name).read_bytes()
               for name in ("corpus_train.tsv", "corpus_val.tsv")]
    P.cmd_generate_corpus(cfg)
    assert [(wd / name).read_bytes()
            for name in ("corpus_train.tsv", "corpus_val.tsv")] == corpora

    for stage in P.STAGES:
        P.cmd_train(stage, cfg)

    ck = CK.load_checkpoint(wd / "ae.ckpt")
    CK.save_checkpoint(tmp_path / "roundtrip.ckpt", ck.stage, ck.arrays,
                       ck.config)
    assert (tmp_path / "roundtrip.ckpt").read_bytes() \
        == (wd / "ae.ckpt").read_bytes()

    cfg2 = CFG.load_config(ini)
    cfg2.sections["paths"]["workdir"] = str(tmp_path / "run2")
    P.cmd_train("ae", cfg2)
    assert (tmp_path / "run2" / "ae.ckpt").read_bytes() \
        == (wd / "ae.ckpt").read_bytes()

    for report in ("corruption_curve", "stage2_matrix"):
        P.cmd_eval(report, cfg)
        first = json.loads((wd / f"report_{report}.json").read_text())
        P.cmd_eval(report, cfg)
        second = json.loads((wd / f"report_{report}.json").read_text())
        assert first["rows"] == second["rows"]
        assert first["provenance"] == second["provenance"]
