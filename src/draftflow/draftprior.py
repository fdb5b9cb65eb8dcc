"""Denoising start model.

The corrupted draft is re-encoded by the frozen encoder, its suffix latents
are mixed with Gaussian noise, and a small conditional transformer predicts a
residual correction toward the real suffix latents. Its output z_start is the
decoder-readable starting point that the flow stage later refines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diagnostics, nn
from . import tensor as T
from .autoencoder import Autoencoder, batchify
from .corpus import CorruptionSpec, StoryExample, corrupt_draft, pad_to_slots
from .tensor import Tensor, no_grad


def mix_with_noise(z: np.ndarray, alpha, seed: int) -> np.ndarray:
    """alpha * z + sqrt(1 - alpha^2) * eps, seeded; alpha may be per-row."""
    a = np.asarray(alpha, dtype=np.float32)
    if a.ndim == 1:
        a = a[:, None, None]
    eps = T.gaussian_sample(z.shape, seed).data
    return a * z + np.sqrt(1.0 - a * a, dtype=np.float32) * eps


@dataclass
class DraftPriorConfig:
    d: int
    m: int = 16
    n: int = 32
    h: int = 64
    n_heads: int = 8
    n_layers: int = 4
    alpha: float = 0.7
    sample_alpha: bool = False  # alpha ~ U(0.5, 0.9) per example instead of fixed
    seed: int = 2337


@dataclass(frozen=True)
class LossWeights:
    mse: float = 1.0
    cos: float = 0.5
    norm: float = 0.1


class DraftPrior:
    """Residual corrector: z_start = z_t + f(z_t, prompt latents, alpha)."""

    def __init__(self, config: DraftPriorConfig):
        # layer count is part of the contract, not a tunable
        if config.n_layers != 4:
            raise ValueError("prior uses exactly 4 layers")
        self.config = config
        self.store = nn.ParamStore(rng_seed=config.seed)
        s, c = self.store, config
        suffix = c.n - c.m
        self.in_proj = nn.Linear(s, "dp.in", c.d, c.h)
        self.ctx_proj = nn.Linear(s, "dp.ctx", c.d, c.h)
        self.pos = nn.positional_table(s, "dp.pos", suffix, c.h)
        self.ctx_pos = nn.positional_table(s, "dp.ctx_pos", c.m, c.h)
        self.alpha_emb = nn.Linear(s, "dp.alpha", 1, c.h)
        self.layers = [
            nn.TransformerLayer(s, f"dp.layer{i}", c.h, c.n_heads, 4 * c.h,
                                cross=True)
            for i in range(c.n_layers)]
        self.ln_out = nn.LayerNorm(s, "dp.ln_out", c.h)
        # zero-init residual head: identity map until training moves it
        self.out_proj = nn.Linear(s, "dp.out", c.h, c.d, zero_init=True)

    def predict_start_array(self, z_t: Tensor, z_p: Tensor, alpha) -> Tensor:
        """(B, S, d) noisy suffix + (B, m, d) prompt context -> (B, S, d)."""
        c = self.config
        if z_t.shape[-1] != c.d or z_p.shape[-1] != c.d:
            raise ValueError("latent width mismatch")
        if z_t.shape[-2] != c.n - c.m or z_p.shape[-2] != c.m:
            raise ValueError(
                f"expected suffix {c.n - c.m} / prompt {c.m} slots, got "
                f"{z_t.shape[-2]} / {z_p.shape[-2]}")
        if z_t.ndim != 3 or z_p.ndim != 3 or z_t.shape[0] != z_p.shape[0]:
            raise ValueError("prompt/suffix batch shapes differ")
        a = np.asarray(alpha, dtype=np.float32).reshape(-1, 1, 1)
        x = self.in_proj(z_t) + self.pos + self.alpha_emb(Tensor(a))
        ctx = self.ctx_proj(z_p) + self.ctx_pos
        for layer in self.layers:
            x = layer(x, layer.cross_attn.kv(ctx))
        return z_t + self.out_proj(self.ln_out(x))


def draftprior_loss(ae: Autoencoder, z_start: Tensor, z_s: np.ndarray,
                    z_p: np.ndarray, ids: np.ndarray, mask: np.ndarray,
                    weights: LossWeights = LossWeights()):
    """Decoder CE on [prompt; z_start] plus latent geometry anchors.

    Returns (total, parts) where parts holds each sub-term as a float. The
    geometry terms compare flattened per-example vectors: mean squared error,
    1 - cosine, and squared norm gap.
    """
    m = ae.config.m
    if z_start.shape != z_s.shape:
        raise ValueError("z_start / z_s shape mismatch")
    z_full = T.concat([Tensor(np.asarray(z_p, dtype=np.float32)), z_start], axis=-2)
    logits = ae.decode_array(z_full)
    logp = T.log_softmax(logits, axis=-1)
    true_lp = T.gather_last(logp, ids)
    w = mask[:, m:].astype(np.float32)
    if w.sum() == 0:
        raise ValueError("loss needs at least one real suffix position")
    wfull = np.zeros(mask.shape, dtype=np.float32)
    wfull[:, m:] = w
    ce = T.tsum(true_lp * Tensor(-wfull)) / float(w.sum())

    B = z_start.shape[0]
    u = z_start.reshape((B, -1))
    v = Tensor(np.asarray(z_s, dtype=np.float32).reshape(B, -1))
    diff = u - v
    mse = T.tmean(diff * diff)
    nu = T.tsum(u * u, axis=-1) ** 0.5
    nv = T.tsum(v * v, axis=-1) ** 0.5
    cos = T.tsum(u * v, axis=-1) / (nu * nv + 1e-8)
    cos_term = T.tmean(Tensor(np.float32(1.0)) - cos)
    norm_term = T.tmean((nu - nv) * (nu - nv))

    total = (ce + Tensor(np.float32(weights.mse)) * mse
             + Tensor(np.float32(weights.cos)) * cos_term
             + Tensor(np.float32(weights.norm)) * norm_term)
    parts = {"ce": float(ce.data), "mse": float(mse.data),
             "cos": float(cos_term.data), "norm": float(norm_term.data)}
    return total, parts


@dataclass
class DraftPriorTrainConfig:
    steps: int = 1800
    batch_size: int = 64
    lr: float = 1e-3
    weight_decay: float = 0.01
    grad_clip: float = 1.0
    corruption_levels: tuple = (0.0, 0.03, 0.05, 0.10, 0.20)
    val_count: int = 200
    log_every: int = 100
    weights: LossWeights = LossWeights()
    seed: int = 1337


def _draft_ids(examples: list, levels: np.ndarray, m: int, n: int,
               seed: int, step: int) -> np.ndarray:
    """Corrupt each example's target at its own level and relay out slots."""
    rows = []
    for j, (ex, p) in enumerate(zip(examples, levels)):
        sub = int(T.rng_for(seed, step, j).integers(0, 2**31))
        bad = corrupt_draft(ex.target, CorruptionSpec(float(p), sub))
        rows.append(pad_to_slots(
            StoryExample(ex.prompt, bad, ex.raw_text), m, n).ids)
    return np.stack(rows)


def train_draftprior(ae: Autoencoder, corpus: list,
                     config: DraftPriorConfig | None = None,
                     train_config: DraftPriorTrainConfig | None = None):
    """Train the prior against a frozen stage-1 model.

    Per step each example draws its own corruption level from the grid, the
    draft is re-encoded, mixed with noise, and the prior is pushed toward the
    real suffix latents. Returns (model, history, val_curve).
    """
    if not ae.frozen:
        raise ValueError("stage-1 model must be frozen before prior training")
    tc = train_config or DraftPriorTrainConfig()
    cfg = config or DraftPriorConfig(d=ae.config.d, m=ae.config.m, n=ae.config.n)
    if len(corpus) <= tc.val_count:
        raise ValueError("val_count leaves no training data")
    model = DraftPrior(cfg)
    train, val = corpus[:-tc.val_count], corpus[-tc.val_count:]
    m, n = cfg.m, cfg.n
    ids_real, mask_real = batchify(train, m, n)
    z_real = ae.encode_all(ids_real)
    grid = np.asarray(tc.corruption_levels, dtype=np.float64)

    def step_fn(step):
        rng = T.rng_for(tc.seed, step)
        idx = rng.integers(0, len(train), size=tc.batch_size)
        levels = grid[rng.integers(0, len(grid), size=tc.batch_size)]
        if cfg.sample_alpha:
            alpha = rng.uniform(0.5, 0.9, size=tc.batch_size)
        else:
            alpha = cfg.alpha
        ids_d = _draft_ids([train[i] for i in idx], levels, m, n, tc.seed, step)
        with no_grad():
            z_draft = ae.encode_array(ids_d).data
        mix_seed = int(rng.integers(0, 2**31))
        z_t = mix_with_noise(z_draft[:, m:], alpha, mix_seed)
        z_start = model.predict_start_array(
            Tensor(z_t), Tensor(z_draft[:, :m]), alpha)
        return draftprior_loss(
            ae, z_start, z_real[idx][:, m:], z_draft[:, :m],
            ids_real[idx], mask_real[idx], tc.weights)

    history = nn.fit([model.store], tc, step_fn)
    model.store.freeze()
    curve = corruption_curve(ae, model, val, dropouts=(0.0, 0.03, 0.05, 0.10),
                             seed=tc.seed)
    return model, history, curve


def start_latents(ae: Autoencoder, prior: DraftPrior, examples: list,
                  dropout: float, seed: int, alpha: float | None = None):
    """Run the inference-side start path on a batch of examples.

    Returns (z_full, z_t_full, ids, mask): the prior's start latents and the
    raw mixed latents, both glued to the draft's prompt latents.
    """
    if not examples:
        raise ValueError("need at least one example")
    cfg = prior.config
    a = cfg.alpha if alpha is None else alpha
    if not 0.0 < a <= 1.0:
        raise ValueError(f"alpha must be in (0,1], got {a}")
    ids, mask = batchify(examples, cfg.m, cfg.n)
    levels = np.full(len(examples), dropout)
    ids_d = _draft_ids(examples, levels, cfg.m, cfg.n, seed, 0)
    with no_grad():
        z_draft = ae.encode_array(ids_d).data
        mix_seed = int(T.rng_for(seed, 1).integers(0, 2**31))
        z_t = mix_with_noise(z_draft[:, cfg.m:], a, mix_seed) if a < 1.0 \
            else z_draft[:, cfg.m:]
        z_start = prior.predict_start_array(
            Tensor(z_t), Tensor(z_draft[:, :cfg.m]), a).data
    z_full = np.concatenate([z_draft[:, :cfg.m], z_start], axis=1)
    z_t_full = np.concatenate([z_draft[:, :cfg.m], z_t], axis=1)
    return z_full, z_t_full, ids, mask


def corruption_curve(ae: Autoencoder, prior: DraftPrior, examples: list,
                     dropouts=(0.0, 0.03, 0.05, 0.10), seed: int = 1337,
                     alpha: float | None = None) -> list:
    """Recoverability of z_start per dropout level over a fixed eval set."""
    if len(tuple(dropouts)) == 0:
        raise ValueError("need at least one dropout level")
    if not examples:
        raise ValueError("need at least one example")
    rows = []
    for k, p in enumerate(dropouts):
        z_full, _, ids, mask = start_latents(
            ae, prior, examples, float(p), seed + k, alpha)
        rec = diagnostics.recoverability(ae, z_full, ids, mask)
        rows.append({"dropout": float(p), "ce": rec["ce"],
                     "p_target": rec["p_target"], "top1": rec["top1"],
                     "n_examples": len(examples), "seed": seed})
    return rows


CURVE_COLUMNS = ["dropout", "ce", "p_target", "top1", "n_examples", "seed"]

