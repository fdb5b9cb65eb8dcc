"""Force field, Euler refinement, bounded residual, and the variant matrix."""

import csv

import numpy as np
import pytest

from draftflow import autoencoder as AE
from draftflow import corpus as C
from draftflow import diagnostics as D
from draftflow import flowfield as F
from draftflow import metricnet as M
from draftflow import nn
from draftflow import pipeline as P
from draftflow import tensor as T
from draftflow.gradcheck import grad_check
from draftflow.tensor import Tensor, no_grad


def _g(shape, seed):
    return T.gaussian_sample(shape, seed).data


def _tiny_net(seed=0, d=8):
    return F.FlowNet(F.FlowConfig(d=d, m=4, n=8, h=16, n_heads=4, seed=seed))


def _zzp(seed=0, B=3, d=8):
    z = _g((B, 4, d), seed)
    zp = _g((B, 4, d), seed + 1)
    return Tensor(z), Tensor(zp)


def _tiny_stage2_setup(seed=0):
    rng = np.random.default_rng(seed)
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
    from draftflow import draftprior as DP
    prior = DP.DraftPrior(DP.DraftPriorConfig(d=8, m=4, n=8, h=16, n_heads=4,
                                              seed=8))
    prior.store.freeze()
    return ae, prior, corpus


# -- time embedding ----------------------------------------------------------

def test_sinusoidal_embedding():
    e0 = F.sinusoidal_embedding(0.0, 16)
    assert np.all(e0[:8] == 0.0) and np.all(e0[8:] == 1.0)
    assert not np.allclose(F.sinusoidal_embedding(0.3, 16),
                           F.sinusoidal_embedding(0.7, 16))
    with pytest.raises(ValueError):
        F.sinusoidal_embedding(0.5, 15)


# -- flownet -----------------------------------------------------------------

def test_flownet_zero_force_at_init():
    net = _tiny_net()
    z, zp = _zzp()
    out = net(z, 0.4, net.context(zp))
    assert out.shape == z.shape
    assert np.all(out.data == 0.0)


def test_flownet_depth_is_fixed():
    with pytest.raises(ValueError):
        F.FlowNet(F.FlowConfig(d=8, depth=4))
    with pytest.raises(ValueError):
        F.FlowNet(F.FlowConfig(d=8, depth=6))


def test_flownet_rejects_bad_shapes():
    net = _tiny_net()
    z, zp = _zzp()
    ctx = net.context(zp)
    with pytest.raises(ValueError):
        net(Tensor(z.data[0]), 0.1, ctx)
    with pytest.raises(ValueError):
        net(Tensor(z.data[:, :3]), 0.1, ctx)
    with pytest.raises(ValueError):
        net.context(Tensor(zp.data[:, :2]))
    with pytest.raises(ValueError):
        net.context(Tensor(zp.data[0]))


def test_flownet_time_conditioning():
    net = _tiny_net(seed=3)
    for t in net.store.tensors():
        t.data = t.data + 0.05 * _g(t.data.shape, 11)
    z, zp = _zzp(seed=5)
    ctx = net.context(zp)
    a = net(z, 0.0, ctx).data
    b = net(z, 1.0, ctx).data
    assert np.abs(a - b).max() > 1e-5


# -- linear-path samples -----------------------------------------------------

def test_sample_flow_state_endpoints():
    z0 = _g((2, 4, 8), 0)
    z1 = _g((2, 4, 8), 1)
    s = F.sample_flow_state(z0, z1, 0.0)
    assert np.array_equal(s.z_t.data, z0)
    assert np.array_equal(s.u_t.data, z1 - z0)
    assert np.array_equal(F.sample_flow_state(z0, z1, 1.0).z_t.data, z1)
    mid = F.sample_flow_state(z0, z1, 0.5).z_t.data
    assert np.abs(mid - 0.5 * (z0 + z1)).max() < 1e-6


def test_sample_flow_state_validation():
    z0 = _g((2, 4, 8), 0)
    with pytest.raises(ValueError):
        F.sample_flow_state(z0, z0[:1], 0.5)
    for t in (-0.1, 1.1):
        with pytest.raises(ValueError):
            F.sample_flow_state(z0, z0, t)
    with pytest.raises(ValueError):
        F.FlowSample(Tensor(z0), 0.5, Tensor(z0[:, :2]))


# -- matching losses ---------------------------------------------------------

def test_flow_loss_zero_velocity_zero_net():
    net = _tiny_net()
    z, zp = _zzp()
    s = F.FlowSample(z, 0.3, Tensor(np.zeros_like(z.data)))
    assert float(F.flow_matching_loss(net, s, zp).data) == 0.0


def test_flow_loss_equals_mean_square_velocity_at_init():
    # zero force at init, so the loss is just mean(u^2)
    net = _tiny_net()
    z, zp = _zzp(seed=2)
    u = _g(z.shape, 9)
    s = F.FlowSample(z, 0.3, Tensor(u))
    loss = float(F.flow_matching_loss(net, s, zp).data)
    assert abs(loss - float((u.astype(np.float64) ** 2).mean())) < 1e-6


def test_force_loss_identity_metric_is_flow_loss_bitwise():
    net = _tiny_net(seed=4)
    for t in net.store.tensors():
        t.data = t.data + 0.1 * _g(t.data.shape, 21)
    metric = M.MetricNet(M.MetricConfig(d=8, seed=31))
    z, zp = _zzp(seed=6)
    s = F.FlowSample(z, 0.6, Tensor(_g(z.shape, 12)))
    a = F.force_matching_loss(net, None, s, zp)
    b = F.force_matching_loss(net, metric, s, zp)
    assert a.data.tobytes() == b.data.tobytes()


def test_flow_loss_gradcheck():
    net = _tiny_net(seed=5)
    z, zp = _zzp(seed=7, B=2)
    s = F.FlowSample(z, 0.4, Tensor(_g(z.shape, 13)))

    def loss_fn(params):
        return F.flow_matching_loss(net, s, zp)

    assert grad_check(loss_fn, net.store, eps=1e-3,
                      max_entries_per_param=3) < 1e-4


def test_force_loss_gradcheck_through_metric():
    net = _tiny_net(seed=6)
    metric = M.MetricNet(M.MetricConfig(d=8, seed=41))
    # move the metric off identity so its parameters matter
    metric.l2.w.data = 0.05 * _g(metric.l2.w.data.shape, 3)
    z, zp = _zzp(seed=8, B=2)
    s = F.FlowSample(z, 0.7, Tensor(_g(z.shape, 14)))
    params = dict(net.store.items())
    params.update(metric.store.items())

    class Both:
        def items(self):
            return params.items()

    def loss_fn(_):
        return F.force_matching_loss(net, metric, s, zp)

    assert grad_check(loss_fn, Both(), eps=1e-3,
                      max_entries_per_param=3) < 1e-4


def test_local_target_values():
    a = _g((2, 4, 8), 0)
    b = _g((2, 4, 8), 1)
    out = F.local_target(a, b, rho=0.05)
    assert np.abs(out - 0.05 * (a - b)).max() < 1e-7
    assert np.array_equal(F.local_target(a, b, rho=1.0), a - b)
    for rho in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            F.local_target(a, b, rho=rho)
    with pytest.raises(ValueError):
        F.local_target(a, b[:1], 0.5)


# -- metric inversion and integration ----------------------------------------

def test_natural_velocity():
    f = _g((3, 4), 0)
    assert np.array_equal(F.natural_velocity(f, np.ones_like(f)), f)
    g = np.abs(_g((3, 4), 1)) + 0.5
    v = F.natural_velocity(Tensor(f), Tensor(g))
    assert isinstance(v, Tensor)
    assert np.abs(v.data * g - f).max() < 1e-6
    bad = g.copy()
    bad[0, 0] = 0.0
    with pytest.raises(ValueError):
        F.natural_velocity(f, bad)


def test_integrate_zero_steps_and_validation():
    z = Tensor(_g((2, 4, 8), 0))
    traj = F.integrate(lambda zz, t: zz, z, 0)
    assert len(traj) == 1 and traj[0] is z
    with pytest.raises(ValueError):
        F.integrate(lambda zz, t: zz, z, -1)
    with pytest.raises(ValueError):
        F.integrate(lambda zz, t: zz, z, 4, gamma=0.0)


def test_integrate_constant_field_total_is_step_count_invariant():
    # gamma * v * dt summed over 1/dt steps: total displacement gamma * v
    z0 = _g((2, 4, 8), 3)
    c = _g((2, 4, 8), 4)
    outs = []
    for steps in (1, 4, 16):
        traj = F.integrate(lambda zz, t: Tensor(c), Tensor(z0), steps,
                           gamma=0.01)
        assert len(traj) == steps + 1
        outs.append(traj[-1].data)
        assert np.abs(traj[-1].data - z0 - 0.01 * c).max() < 1e-6
    assert np.abs(outs[0] - outs[2]).max() < 1e-6


def test_integrate_bounded_field_displacement_bound():
    rng = np.random.default_rng(0)
    for trial in range(5):
        z0 = rng.standard_normal((2, 4, 8)).astype(np.float32)
        cap = float(rng.uniform(0.5, 3.0))

        def vel(zz, t):
            raw = np.sin(zz.data * (trial + 1) + t)
            norm = np.linalg.norm(raw.reshape(2, -1), axis=1)
            scale = np.minimum(1.0, cap / np.maximum(norm, 1e-12))
            return Tensor((raw * scale[:, None, None]).astype(np.float32))

        traj = F.integrate(vel, Tensor(z0), 16, gamma=0.01)
        move = np.linalg.norm(
            (traj[-1].data - z0).reshape(2, -1).astype(np.float64), axis=1)
        assert (move <= 0.01 * cap + 1e-6).all()


def test_integrate_nonfinite_names_step():
    z = Tensor(np.zeros((1, 2, 4), dtype=np.float32))

    def vel(zz, t):
        bad = np.zeros_like(zz.data)
        if t >= 0.5:
            bad[:] = np.inf
        return Tensor(bad)

    with pytest.raises(FloatingPointError, match="step 2"):
        F.integrate(vel, z, 4)


# -- bounded residual --------------------------------------------------------

def test_refiner_config_validation():
    cfg = F.RefinerConfig(d=8)
    assert cfg.hidden == 32
    for lam in (0.0, -0.5, float("nan")):
        with pytest.raises(ValueError):
            F.RefinerConfig(d=8, lam=lam)


def test_bounded_residual_identity_at_init():
    ref = F.ResidualRefiner(F.RefinerConfig(d=8, seed=1))
    z, zp = _zzp(seed=9)
    out = F.bounded_residual(z, zp, ref)
    assert np.array_equal(out.data, z.data)


def test_bounded_residual_sup_norm_never_exceeded():
    # the additive term obeys |lam * tanh| <= lam exactly; the final add
    # rounds at float32, so the measured displacement gets one ulp of slack
    lam = np.float32(0.1)
    total = 0
    for trial in range(10):
        ref = F.ResidualRefiner(F.RefinerConfig(d=8, lam=float(lam),
                                                seed=trial))
        for t in ref.store.tensors():
            t.data = 20.0 * _g(t.data.shape, 100 + trial)
        z, zp = _zzp(seed=200 + trial, B=32)
        out = F.bounded_residual(z, zp, ref)
        delta = np.abs(out.data.astype(np.float64) -
                       z.data.astype(np.float64))
        bound = np.float64(lam) + np.spacing(np.abs(z.data) + lam)
        assert (delta <= bound).all()
        term = np.abs(np.tanh(ref(z, zp).data) * lam)
        assert term.max() <= lam
        total += delta.size
    assert total >= 10000


def test_bounded_residual_saturates_to_lambda():
    ref = F.ResidualRefiner(F.RefinerConfig(d=8, lam=0.1, seed=2))
    ref.l2.w.data[:] = 0.0
    ref.l2.b.data[:] = 50.0  # tanh saturates to exactly 1 in float32
    z, zp = _zzp(seed=10)
    out = F.bounded_residual(z, zp, ref)
    assert np.array_equal(out.data, z.data + np.float32(0.1))


# -- fused readout -----------------------------------------------------------

def _fused_setup(seed=0):
    ae = AE.Autoencoder(AE.AEConfig(vocab_size=24, d=8, h=16, m=4, n=8,
                                    n_heads=4, seed=seed))
    ae.freeze()
    store = __import__("draftflow.nn", fromlist=["nn"]).ParamStore(rng_seed=5)
    aux = F.AuxHead(store, 8, 24)
    rng = np.random.default_rng(seed)
    ids = rng.integers(1, 24, size=(3, 8))
    mask = np.ones((3, 8), dtype=bool)
    z_full = Tensor(_g((3, 8, 8), seed + 1))
    z_mid = Tensor(_g((3, 4, 8), seed + 2))
    return ae, aux, store, z_full, z_mid, ids, mask


def test_fused_loss_beta_zero_is_decoder_ce():
    ae, aux, _, z_full, z_mid, ids, mask = _fused_setup()
    total, parts = F.fused_loss(ae, aux, z_full, z_mid, ids, mask, beta=0.0)
    assert float(total.data) == parts["ce_dec"]


def test_fused_loss_uniform_heads_analytic():
    # zeroed decoder head and zeroed aux head both emit uniform rows,
    # so the total collapses to (1 + beta) * ln V
    ae, aux, store, z_full, z_mid, ids, mask = _fused_setup(seed=3)
    ae.store["dec.head.w"].data[:] = 0.0
    ae.store["dec.head.b"].data[:] = 0.0
    store["aux.head.w"].data[:] = 0.0
    total, _ = F.fused_loss(ae, aux, z_full, z_mid, ids, mask, beta=0.1)
    assert abs(float(total.data) - 1.1 * np.log(24.0)) < 1e-5


def test_fused_loss_validation():
    ae, aux, _, z_full, z_mid, ids, mask = _fused_setup()
    with pytest.raises(ValueError):
        F.fused_loss(ae, aux, z_full, z_mid, ids, mask, beta=-0.1)
    empty = mask.copy()
    empty[:, 4:] = False
    with pytest.raises(ValueError):
        F.fused_loss(ae, aux, z_full, z_mid, ids, empty)


def test_fused_loss_gradcheck_and_frozen_decoder():
    ae, aux, store, _, _, ids, mask = _fused_setup(seed=4)
    net = _tiny_net(seed=9)
    z0 = _g((3, 4, 8), 30)
    zp_np = _g((3, 4, 8), 31)
    before = ae.store.checksum()

    def loss_fn(_):
        zp = Tensor(zp_np)
        ctx = net.context(zp)
        traj = F.integrate(lambda zz, t: net(T.as_tensor(zz), t, ctx),
                           Tensor(z0), 2)
        z_full = T.concat([zp, traj[-1]], axis=-2)
        total, _ = F.fused_loss(ae, aux, z_full, traj[1], ids, mask, beta=0.1)
        return total

    params = dict(net.store.items())
    params.update(store.items())

    class Both:
        def items(self):
            return params.items()

    assert grad_check(loss_fn, Both(), eps=1e-3,
                      max_entries_per_param=3) < 1e-4
    loss_fn(None).backward()
    assert all(t.grad is None for t in ae.store.tensors())
    assert ae.store.checksum() == before


# -- bundle plumbing ---------------------------------------------------------

def _assert_loading_matches_overwrite(build, stores):
    """A model built inside `nn.loading` equals one drawn, then overwritten.

    `build(seed)` makes the model; the arrays are shifted off every init
    value, so a loaded parameter that init code touched would show.
    """
    arrays = {k: v + np.float32(0.5)
              for s in stores(build(1)) for k, v in s.state_arrays().items()}
    with nn.loading(arrays):
        loaded = build(2)
    drawn = build(2)
    for s in stores(drawn):
        for name, t in s.items():
            t.data = arrays[name].copy()
    sums = [s.checksum() for s in stores(loaded)]
    assert sums == [s.checksum() for s in stores(drawn)]
    assert sums != [s.checksum() for s in stores(build(2))]


def test_make_bundle_parts_and_roundtrip():
    for variant, has in [("raw", (False, False, False)),
                         ("fused", (False, False, True)),
                         ("metric_ot", (True, False, False)),
                         ("residual", (False, True, False))]:
        b = F.make_bundle(variant, 8, 4, 8, 24)
        assert (b.metric is not None, b.refiner is not None,
                b.aux is not None) == has
        _assert_loading_matches_overwrite(
            lambda seed, v=variant: F.make_bundle(
                v, 8, 4, 8, 24, F.Stage2Config(seed=seed)),
            lambda bundle: bundle.stores())
    with pytest.raises(ValueError):
        F.make_bundle("nope", 8, 4, 8, 24)


def test_loaded_ae_and_prior_match_drawn_then_overwritten():
    from draftflow import draftprior as DP

    _assert_loading_matches_overwrite(
        lambda seed: AE.Autoencoder(AE.AEConfig(
            vocab_size=24, d=8, h=16, m=4, n=8, n_heads=4, seed=seed)),
        lambda ae: [ae.store])
    _assert_loading_matches_overwrite(
        lambda seed: DP.DraftPrior(DP.DraftPriorConfig(
            d=8, m=4, n=8, h=16, n_heads=4, seed=seed)),
        lambda prior: [prior.store])


def test_integrate_gradcheck_through_shared_context():
    # both Euler steps read one context; its gradient sums over them
    bundle = F.make_bundle("raw", 8, 4, 8, 24)
    net = bundle.flownet
    for t in net.store.tensors():
        t.data = t.data + 0.1 * _g(t.data.shape, 61)
    z0, zp = _zzp(seed=12, B=2)
    w = Tensor(_g(z0.shape, 14))

    def loss_fn(_):
        traj = F.integrate(bundle.velocity_fn(zp), z0, 2, gamma=1.0)
        return T.tsum(traj[-1] * w)

    params = {k: net.store[k]
              for k in ("flow.ctx.w", "flow.layer2.xattn.k.w")}
    assert grad_check(loss_fn, params, eps=1e-3,
                      max_entries_per_param=6) < 1e-4


def test_train_stage2_input_validation():
    ae, prior, corpus = _tiny_stage2_setup()
    with pytest.raises(ValueError):
        F.train_stage2(ae, prior, corpus, "nope")
    with pytest.raises(ValueError):
        F.train_stage2(ae, prior, corpus[:10],
                       "raw", F.Stage2Config(val_count=40))
    thawed = AE.Autoencoder(AE.AEConfig(vocab_size=24, d=8, h=16, m=4, n=8,
                                        n_heads=4, seed=7))
    with pytest.raises(ValueError):
        F.train_stage2(thawed, prior, corpus, "raw")


def test_train_stage2_deterministic_and_leaves_frozen_untouched():
    ae, prior, corpus = _tiny_stage2_setup()
    ae_sum, prior_sum = ae.store.checksum(), prior.store.checksum()
    cfg = F.Stage2Config(steps=4, batch_size=8, val_count=40, ot_points=16)
    sums = []
    for _ in range(2):
        bundle = F.train_stage2(ae, prior, corpus, "metric_ot", cfg)
        sums.append([s.checksum() for s in bundle.stores()])
    assert sums[0] == sums[1]
    assert ae.store.checksum() == ae_sum
    assert prior.store.checksum() == prior_sum


def test_refine_zero_steps_is_start():
    ae, prior, corpus = _tiny_stage2_setup()
    cfg = F.Stage2Config(steps=3, batch_size=8, val_count=40)
    bundle = F.train_stage2(ae, prior, corpus, "raw", cfg)
    z = _g((5, 8, 8), 77)
    out = F.refine(bundle, z, steps=0)
    assert np.array_equal(out, z)


def test_report_csv_roundtrip(tmp_path):
    ae, prior, corpus = _tiny_stage2_setup()
    cfg = F.Stage2Config(steps=3, batch_size=8, val_count=40)
    bundle = F.train_stage2(ae, prior, corpus, "residual", cfg)
    rows = F.stage2_report(ae, prior, [bundle], corpus[-cfg.val_count:], cfg)
    path = tmp_path / "report.csv"
    P._write_csv(path, F.REPORT_COLUMNS, rows)
    with open(path) as fh:
        assert fh.readline().strip() == ",".join(F.REPORT_COLUMNS)
        got = list(csv.DictReader(fh, fieldnames=F.REPORT_COLUMNS))
    assert [g["variant"] for g in got] == ["start", "residual", "oracle"]
    for g, r in zip(got, rows):
        assert abs(float(g["ce"]) - r["ce"]) < 1e-9


# -- trained variants --------------------------------------------------------

def test_variant_rows_and_ordering(stage2_rows):
    assert [r["variant"] for r in stage2_rows] == \
        ["start", "raw", "fused", "metric_ot", "residual", "oracle"]
    for r in stage2_rows:
        assert list(r) == F.REPORT_COLUMNS
    by = {r["variant"]: r for r in stage2_rows}
    start = by["start"]
    assert by["fused"]["ce"] <= start["ce"]
    assert abs(by["raw"]["ce"] - start["ce"]) <= 0.1 * start["ce"]
    assert by["residual"]["latent_move_l2"] > by["raw"]["latent_move_l2"]
    assert start["latent_move_l2"] == 0.0


def test_oracle_row_matches_stage1_eval(ae32, stage2_rows, val_examples):
    report = AE.oracle_eval(ae32, val_examples)
    oracle = stage2_rows[-1]
    assert oracle["ce"] == report.ce
    assert oracle["p_target"] == report.p_target


def test_metric_stats_only_for_metric_variant(stage2_rows):
    by = {r["variant"]: r for r in stage2_rows}
    assert by["metric_ot"]["metric_std"] > 0.01
    assert by["metric_ot"]["metric_min"] < 1.0 < by["metric_ot"]["metric_max"]
    for v in ("start", "raw", "fused", "residual", "oracle"):
        assert by[v]["metric_std"] == 0.0
        assert by[v]["metric_min"] == 1.0 and by[v]["metric_max"] == 1.0


def test_report_rerun_is_identical(ae32, prior32, stage2, val_examples):
    bundles, _ = stage2
    cfg = F.Stage2Config(seed=1337)
    a = F.stage2_report(ae32, prior32, [bundles["fused"]], val_examples, cfg)
    b = F.stage2_report(ae32, prior32, [bundles["fused"]], val_examples, cfg)
    assert a == b


def test_stage2_training_within_budget(stage2):
    _, seconds = stage2
    assert sum(seconds.values()) <= 600.0


def test_refine_matches_per_step_context_reference(ae32, prior32, stage2,
                                                  val_examples):
    from draftflow.draftprior import start_latents

    bundles, _ = stage2
    m = ae32.config.m
    z_start, _, _, _ = start_latents(ae32, prior32, val_examples[:16], 0.05, 5)
    z_p = Tensor(z_start[:, :m])
    for bundle in bundles.values():
        net, metric = bundle.flownet, bundle.metric

        def v_ref(z, t):
            f = net(T.as_tensor(z), t, net.context(z_p))
            if metric is None:
                return f
            return F.natural_velocity(f, metric.metric_diag(z, t, z_p))

        with no_grad():
            z_end = F.integrate(v_ref, Tensor(z_start[:, m:]), 16,
                                bundle.config.gamma)[-1]
            if bundle.refiner is not None:
                z_end = F.bounded_residual(z_end, z_p, bundle.refiner)
        got = F.refine(bundle, z_start, steps=16)
        assert got[:, m:].tobytes() == z_end.data.tobytes(), bundle.variant


def test_fused_step0_matches_prior_eval(ae32, prior32, stage2, val_examples):
    from draftflow.draftprior import start_latents

    bundles, _ = stage2
    cfg = bundles["fused"].config
    z_start, _, ids, mask = start_latents(ae32, prior32, val_examples,
                                          cfg.dropout, cfg.seed + 5)
    direct = D.recoverability(ae32, z_start, ids, mask)
    z0 = F.refine(bundles["fused"], z_start, steps=0)
    again = D.recoverability(ae32, z0, ids, mask)
    assert abs(direct["ce"] - again["ce"]) < 1e-6
    assert np.array_equal(z0, z_start)
