"""Force field over suffix latents and the stage-2 refinement variants.

A conditional network predicts a per-slot force; with a learned diagonal
metric the force is inverted to a natural velocity and integrated by a few
gamma-scaled Euler steps starting from the DraftPrior output. Readout
variants differ in what supervises the field: plain displacement regression
(flow/force matching on a local target), a fused decoder-aware loss through
differentiable integration, an OT-regularized force loss, and a bounded
residual corrector applied after the ODE.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import alignment, diagnostics, nn
from . import tensor as T
from .autoencoder import Autoencoder, batchify
from .draftprior import DraftPrior, start_latents
from .metricnet import IDENTITY_STATS, MetricConfig, MetricNet, metric_reg, \
    metric_stats
from .tensor import Tensor, no_grad


def sinusoidal_embedding(t: float, dim: int) -> np.ndarray:
    """Fixed sin/cos features of a scalar time in [0,1]."""
    if dim % 2 != 0:
        raise ValueError("embedding dim must be even")
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    angles = float(t) * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)]).astype(np.float32)


@dataclass
class FlowConfig:
    d: int
    m: int = 16
    n: int = 32
    h: int = 64
    n_heads: int = 8
    depth: int = 5
    conv_kernel: int = 5
    seed: int = 5521


class FlowNet:
    """Per-slot force field conditioned on time and prompt latents."""

    def __init__(self, config: FlowConfig):
        # depth is part of the contract, not a tunable
        if config.depth != 5:
            raise ValueError("force field uses exactly 5 layers")
        self.config = config
        self.store = nn.ParamStore(rng_seed=config.seed)
        s, c = self.store, config
        suffix = c.n - c.m
        self.in_proj = nn.Linear(s, "flow.in", c.d, c.h)
        self.ctx_proj = nn.Linear(s, "flow.ctx", c.d, c.h)
        self.pos = nn.positional_table(s, "flow.pos", suffix, c.h)
        self.ctx_pos = nn.positional_table(s, "flow.ctx_pos", c.m, c.h)
        self.convs = [
            nn.DepthwiseConv1d(s, f"flow.conv{i}", c.h, k=c.conv_kernel)
            for i in range(c.depth)]
        self.conv_lns = [
            nn.LayerNorm(s, f"flow.conv_ln{i}", c.h) for i in range(c.depth)]
        self.blocks = [
            nn.TransformerLayer(s, f"flow.layer{i}", c.h, c.n_heads, 4 * c.h,
                                cross=True)
            for i in range(c.depth)]
        self.ln_out = nn.LayerNorm(s, "flow.ln_out", c.h)
        self.out_proj = nn.Linear(s, "flow.out", c.h, c.d, zero_init=True)

    def context(self, z_p: Tensor) -> list:
        """Per-layer cross-attention (k, v) heads of the (B, m, d) prompt.

        They depend on the prompt alone, so one integration computes them
        once and passes them to every field evaluation.
        """
        if z_p.ndim != 3 or z_p.shape[-2] != self.config.m:
            raise ValueError("prompt latents must be (B, m, d)")
        ctx = self.ctx_proj(z_p) + self.ctx_pos
        return [block.cross_attn.kv(ctx) for block in self.blocks]

    def __call__(self, z: Tensor, t: float, context: list) -> Tensor:
        """Force on (B, n - m, d) suffix latents; `context` from `context()`."""
        c = self.config
        if z.ndim != 3 or z.shape[-2] != c.n - c.m:
            raise ValueError("suffix latents must be (B, n - m, d)")
        emb = sinusoidal_embedding(t, c.h)
        x = self.in_proj(z) + self.pos + Tensor(emb)
        for conv, ln, block, kv in zip(self.convs, self.conv_lns, self.blocks,
                                       context):
            x = x + conv(ln(x))
            x = block(x, kv)
        return self.out_proj(self.ln_out(x))


@dataclass
class FlowSample:
    """Linear-path state: z_t at time t with its target velocity u_t."""

    z_t: Tensor
    t: float
    u_t: Tensor

    def __post_init__(self):
        if not isinstance(self.z_t, Tensor):
            self.z_t = Tensor(np.asarray(self.z_t, dtype=np.float32))
        if not isinstance(self.u_t, Tensor):
            self.u_t = Tensor(np.asarray(self.u_t, dtype=np.float32))
        if self.z_t.shape != self.u_t.shape:
            raise ValueError("state and velocity shapes differ")
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"t must be in [0,1], got {self.t}")


def sample_flow_state(z_source, z_target, t: float) -> FlowSample:
    """Point on the linear path plus its constant displacement velocity."""
    z0 = np.asarray(z_source.data if isinstance(z_source, Tensor) else z_source,
                    dtype=np.float32)
    z1 = np.asarray(z_target.data if isinstance(z_target, Tensor) else z_target,
                    dtype=np.float32)
    if z0.shape != z1.shape:
        raise ValueError("source and target shapes differ")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must be in [0,1], got {t}")
    tf = np.float32(t)
    z_t = (np.float32(1.0) - tf) * z0 + tf * z1
    return FlowSample(Tensor(z_t), float(t), Tensor(z1 - z0))


def flow_matching_loss(flownet: FlowNet, sample: FlowSample, z_p) -> Tensor:
    """Mean squared error between the field and the path velocity."""
    v = flownet(sample.z_t, sample.t, flownet.context(T.as_tensor(z_p)))
    diff = v - sample.u_t
    return T.tmean(diff * diff)


def force_matching_loss(flownet: FlowNet, metric: MetricNet | None,
                        sample: FlowSample, z_p) -> Tensor:
    """MSE against the metric-weighted velocity g * u_t.

    With no metric (or a zero-initialized one) this is exactly
    flow_matching_loss: g is identically 1 and 1.0 * u_t == u_t bitwise.
    """
    z_p = T.as_tensor(z_p)
    f = flownet(sample.z_t, sample.t, flownet.context(z_p))
    if metric is None:
        target = sample.u_t
    else:
        g = metric.metric_diag(sample.z_t, sample.t, z_p)
        target = g * sample.u_t
    diff = f - target
    return T.tmean(diff * diff)


def local_target(z_s, z_start, rho: float = 0.05):
    """Residual fraction of the full displacement toward the real latent."""
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must be in (0,1], got {rho}")
    a = np.asarray(z_s.data if isinstance(z_s, Tensor) else z_s,
                   dtype=np.float32)
    b = np.asarray(z_start.data if isinstance(z_start, Tensor) else z_start,
                   dtype=np.float32)
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    return np.float32(rho) * (a - b)


def natural_velocity(f, g):
    """Invert the diagonal metric: v = f / g. Tape-aware on Tensor inputs."""
    g_data = g.data if isinstance(g, Tensor) else np.asarray(g)
    if (g_data <= 0).any():
        raise ValueError("metric diagonal must be strictly positive")
    if isinstance(f, Tensor) or isinstance(g, Tensor):
        return T.as_tensor(f) / T.as_tensor(g)
    return np.asarray(f) / g_data


def integrate(velocity_fn, z_start, steps: int, gamma: float = 0.01) -> list:
    """Run `steps` gamma-scaled Euler steps; returns the full trajectory.

    velocity_fn(z, t) is queried at t = k/steps. steps=0 returns [z_start]
    unchanged. A non-finite state aborts with the offending step index.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    z = T.as_tensor(z_start)
    trajectory = [z]
    if steps == 0:
        return trajectory
    dt = 1.0 / steps
    for k in range(steps):
        v = velocity_fn(z, k * dt)
        z = T.euler_step(z, T.as_tensor(v), gamma, dt)
        if not np.isfinite(z.data).all():
            raise FloatingPointError(f"non-finite state at step {k}")
        trajectory.append(z)
    return trajectory


@dataclass
class RefinerConfig:
    d: int
    hidden: int = 0  # 0 means 4d
    lam: float = 0.1
    seed: int = 6633

    def __post_init__(self):
        if self.hidden == 0:
            self.hidden = 4 * self.d
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ValueError("lam must be finite and positive")


class ResidualRefiner:
    """Small MLP whose tanh-squashed output nudges the post-ODE latent."""

    def __init__(self, config: RefinerConfig):
        self.config = config
        self.store = nn.ParamStore(rng_seed=config.seed)
        d = config.d
        self.l1 = nn.Linear(self.store, "refiner.l1", 2 * d, config.hidden)
        self.l2 = nn.Linear(self.store, "refiner.l2", config.hidden, d,
                            zero_init=True)

    def __call__(self, z_ode: Tensor, z_p: Tensor) -> Tensor:
        B, S, d = z_ode.shape
        pooled = T.tmean(T.as_tensor(z_p), axis=-2, keepdims=True)
        wide = pooled * Tensor(np.ones((B, S, 1), dtype=np.float32))
        return self.l2(T.tanh(self.l1(T.concat([z_ode, wide], axis=-1))))


def bounded_residual(z_ode, z_p, refiner: ResidualRefiner) -> Tensor:
    """z + lam * tanh(R(z, prompt)): sup-norm displacement is at most lam."""
    z_ode = T.as_tensor(z_ode)
    lam = Tensor(np.float32(refiner.config.lam))
    return z_ode + lam * T.tanh(refiner(z_ode, T.as_tensor(z_p)))


class AuxHead:
    """Linear token readout for intermediate latents."""

    def __init__(self, store: nn.ParamStore, d: int, vocab_size: int):
        self.proj = nn.Linear(store, "aux.head", d, vocab_size)

    def __call__(self, z: Tensor) -> Tensor:
        return self.proj(z)


def _suffix_ce(logits: Tensor, ids: np.ndarray, w: np.ndarray) -> Tensor:
    logp = T.log_softmax(logits, axis=-1)
    true_lp = T.gather_last(logp, ids)
    return T.tsum(true_lp * Tensor(-w)) / float(w.sum())


def fused_loss(ae: Autoencoder, aux: AuxHead, z_full: Tensor, z_mid: Tensor,
               ids: np.ndarray, mask: np.ndarray, beta: float = 0.1):
    """Frozen-decoder CE on the final latent + beta x aux CE mid-trajectory.

    Returns (total, parts). beta=0 reduces exactly to the decoder term.
    """
    if beta < 0:
        raise ValueError("beta must be non-negative")
    m = ae.config.m
    w = np.zeros(mask.shape, dtype=np.float32)
    w[:, m:] = mask[:, m:]
    if w.sum() == 0:
        raise ValueError("loss needs at least one real suffix position")
    ce_dec = _suffix_ce(ae.decode_array(z_full), ids, w)
    ce_aux = _suffix_ce(aux(z_mid), ids[:, m:], w[:, m:])
    total = ce_dec + Tensor(np.float32(beta)) * ce_aux
    return total, {"ce_dec": float(ce_dec.data), "ce_aux": float(ce_aux.data)}


# -- stage-2 training --------------------------------------------------------

VARIANTS = ("raw", "fused", "metric_ot", "residual")

REPORT_COLUMNS = ["variant", "ce", "p_target", "top1", "latent_move_l2",
                  "metric_std", "metric_min", "metric_max", "ot_cost", "seed"]


@dataclass
class Stage2Config:
    steps: int = 300
    batch_size: int = 64
    lr: float = 1e-3
    weight_decay: float = 0.01
    grad_clip: float = 1.0
    dropout: float = 0.05
    rho: float = 0.05
    gamma: float = 0.01
    train_steps_ode: int = 4
    eval_steps: int = 16
    beta: float = 0.1
    lambda_res: float = 0.1
    metric_weight: float = 0.01
    ot_weight: float = 1.0
    ot_points: int = 64
    val_count: int = 200
    log_every: int = 100
    seed: int = 1337


@dataclass
class Stage2Bundle:
    variant: str
    flownet: FlowNet
    config: Stage2Config
    metric: MetricNet | None = None
    refiner: ResidualRefiner | None = None
    aux: AuxHead | None = None
    aux_store: nn.ParamStore | None = None
    history: list = field(default_factory=list)

    def stores(self) -> list:
        out = [self.flownet.store]
        for extra in (self.metric, self.refiner):
            if extra is not None:
                out.append(extra.store)
        if self.aux_store is not None:
            out.append(self.aux_store)
        return out

    def state_arrays(self) -> dict:
        # parameter names carry disjoint module prefixes, so a flat merge
        # is lossless
        merged = {}
        for s in self.stores():
            merged.update(s.state_arrays())
        return merged

    def velocity_fn(self, z_p: Tensor):
        """Closure turning the trained field into v(z, t) for integration.

        The prompt context is computed here, once per integration.
        """
        context = self.flownet.context(z_p)

        def v(z, t):
            f = self.flownet(T.as_tensor(z), t, context)
            if self.metric is None:
                return f
            g = self.metric.metric_diag(z, t, z_p)
            return natural_velocity(f, g)
        return v


def make_bundle(variant: str, d: int, m: int, n: int, vocab_size: int,
                config: Stage2Config | None = None) -> Stage2Bundle:
    """Build the untrained networks a variant needs."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant '{variant}'")
    cfg = config or Stage2Config()
    flownet = FlowNet(FlowConfig(d=d, m=m, n=n, seed=cfg.seed + 1))
    bundle = Stage2Bundle(variant=variant, flownet=flownet, config=cfg)
    if variant == "metric_ot":
        bundle.metric = MetricNet(MetricConfig(d=d, seed=cfg.seed + 2))
    if variant == "residual":
        bundle.refiner = ResidualRefiner(
            RefinerConfig(d=d, lam=cfg.lambda_res, seed=cfg.seed + 3))
    if variant == "fused":
        bundle.aux_store = nn.ParamStore(rng_seed=cfg.seed + 4)
        bundle.aux = AuxHead(bundle.aux_store, d, vocab_size)
    return bundle


def refine(bundle: Stage2Bundle, z_start_full: np.ndarray,
           steps: int | None = None) -> np.ndarray:
    """Integrate the trained field from the prior's start latents.

    Operates on full-region latents; only the suffix region moves. Applies
    the bounded residual corrector when the bundle carries one.
    """
    cfg = bundle.flownet.config
    m = cfg.m
    z = np.atleast_3d(np.asarray(z_start_full, dtype=np.float32))
    if z.shape[-2] != cfg.n:
        raise ValueError(f"expected {cfg.n} slots, got {z.shape[-2]}")
    n_steps = bundle.config.eval_steps if steps is None else steps
    with no_grad():
        z_p = Tensor(z[:, :m])
        traj = integrate(bundle.velocity_fn(z_p), Tensor(z[:, m:]), n_steps,
                         bundle.config.gamma)
        z_end = traj[-1]
        if bundle.refiner is not None:
            z_end = bounded_residual(z_end, z_p, bundle.refiner)
    return np.concatenate([z[:, :m], z_end.data], axis=1)


def _flat_cloud(z_suffix: np.ndarray) -> np.ndarray:
    return z_suffix.reshape(-1, z_suffix.shape[-1])


def _eval_row(ae: Autoencoder, variant: str, z_full, z_start_full,
              z_real_suffix, ids, mask, stats: dict, seed: int) -> dict:
    m = ae.config.m
    rec = diagnostics.recoverability(ae, z_full, ids, mask)
    move = np.linalg.norm(
        (z_full[:, m:] - z_start_full[:, m:]).reshape(len(z_full), -1)
        .astype(np.float64), axis=1).mean()
    rng = T.rng_for(seed, 404)
    pick = rng.choice(len(_flat_cloud(z_real_suffix)), size=min(
        256, len(_flat_cloud(z_real_suffix))), replace=False)
    ot = alignment.sinkhorn_cost(
        _flat_cloud(z_full[:, m:])[pick], _flat_cloud(z_real_suffix)[pick])
    return {"variant": variant, "ce": rec["ce"], "p_target": rec["p_target"],
            "top1": rec["top1"], "latent_move_l2": float(move),
            "metric_std": stats["std"], "metric_min": stats["min"],
            "metric_max": stats["max"], "ot_cost": ot.cost, "seed": seed}


def train_stage2(ae: Autoencoder, prior: DraftPrior, corpus: list,
                 variant: str, config: Stage2Config | None = None):
    """Train one refinement variant on all but the last `val_count` examples.

    Returns the frozen bundle; `stage2_report` scores it on held-out data.
    """
    if not ae.frozen:
        raise ValueError("stage-1 model must be frozen")
    cfg = config or Stage2Config()
    if len(corpus) <= cfg.val_count:
        raise ValueError("val_count leaves no training data")
    train = corpus[:-cfg.val_count]
    m, n, d = ae.config.m, ae.config.n, ae.config.d

    bundle = make_bundle(variant, d, m, n, ae.config.vocab_size, cfg)
    flownet = bundle.flownet
    stores = bundle.stores()

    ids_real, mask_real = batchify(train, m, n)
    z_real = ae.encode_all(ids_real)

    def step_fn(step):
        rng = T.rng_for(cfg.seed, step, 17)
        idx = rng.integers(0, len(train), size=cfg.batch_size)
        batch = [train[i] for i in idx]
        z_start_full, _, _, _ = start_latents(
            ae, prior, batch, cfg.dropout, int(rng.integers(0, 2**31)))
        z_start = z_start_full[:, m:]
        z_p = Tensor(z_start_full[:, :m])
        z_s = z_real[idx][:, m:]
        t = float(rng.uniform(0.0, 1.0))

        if variant == "fused":
            traj = integrate(bundle.velocity_fn(z_p), Tensor(z_start),
                             cfg.train_steps_ode, cfg.gamma)
            z_full_t = T.concat([z_p, traj[-1]], axis=-2)
            z_mid = traj[cfg.train_steps_ode // 2]
            return fused_loss(ae, bundle.aux, z_full_t, z_mid,
                              ids_real[idx], mask_real[idx], cfg.beta)
        sample = FlowSample(
            Tensor(sample_flow_state(z_start, z_s, t).z_t.data), t,
            Tensor(local_target(z_s, z_start, cfg.rho)))
        loss = force_matching_loss(flownet, bundle.metric, sample, z_p)
        parts = {"force": float(loss.data)}
        if variant == "metric_ot":
            g = bundle.metric.metric_diag(sample.z_t, t, z_p)
            reg = metric_reg(g)
            loss = loss + Tensor(np.float32(cfg.metric_weight)) * reg
            traj = integrate(bundle.velocity_fn(z_p), Tensor(z_start),
                             cfg.train_steps_ode, cfg.gamma)
            cloud = T.reshape(traj[-1], (-1, d))
            pick = rng.choice(cloud.shape[0], size=min(
                cfg.ot_points, cloud.shape[0]), replace=False)
            loss = alignment.ot_regularized_loss(
                loss, cloud[pick], Tensor(_flat_cloud(z_s)[pick]),
                weight=cfg.ot_weight)
            parts["metric_reg"] = float(reg.data)
        if variant == "residual":
            with no_grad():
                traj = integrate(bundle.velocity_fn(z_p), Tensor(z_start),
                                 cfg.train_steps_ode, cfg.gamma)
            z_res = bounded_residual(traj[-1].data, z_p, bundle.refiner)
            res_diff = z_res - Tensor(z_s)
            res_loss = T.tmean(res_diff * res_diff)
            loss = loss + res_loss
            parts["residual_mse"] = float(res_loss.data)
        return loss, parts

    bundle.history = nn.fit(stores, cfg, step_fn)
    for s in stores:
        s.freeze()
    return bundle


def stage2_report(ae: Autoencoder, prior: DraftPrior, bundles: list,
                  examples: list, config: Stage2Config | None = None) -> list:
    """Start row, one row per trained bundle, oracle row; shared eval seeds."""
    cfg = config or Stage2Config()
    m = ae.config.m
    z_start_full, _, ids, mask = start_latents(
        ae, prior, examples, cfg.dropout, cfg.seed + 5)
    with no_grad():
        z_real = ae.encode_array(ids).data
    z_real_suffix = z_real[:, m:]
    rows = [_eval_row(ae, "start", z_start_full, z_start_full, z_real_suffix,
                      ids, mask, IDENTITY_STATS, cfg.seed)]
    for bundle in bundles:
        z_final = refine(bundle, z_start_full)
        if bundle.metric is not None:
            with no_grad():
                g = bundle.metric.metric_diag(
                    Tensor(z_final[:, m:]), 0.5, Tensor(z_final[:, :m]))
            stats = metric_stats(g)
        else:
            stats = IDENTITY_STATS
        rows.append(_eval_row(ae, bundle.variant, z_final, z_start_full,
                              z_real_suffix, ids, mask, stats, cfg.seed))
    # oracle decodes the pure real latents, matching the stage-1 evaluation
    rows.append(_eval_row(ae, "oracle", z_real, z_start_full,
                          z_real_suffix, ids, mask, IDENTITY_STATS, cfg.seed))
    return rows

