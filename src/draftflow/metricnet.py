"""Learned positive diagonal metric over suffix latents.

A two-layer MLP reads each suffix slot's latent together with a mean-pooled
prompt summary and the time coordinate, and emits per-coordinate log scales.
Logs are clamped to [-LOG_BOUND, LOG_BOUND] and exponentiated, so the
diagonal is strictly positive by construction, then rescaled to mean 1 per
slot so the metric redistributes sensitivity without changing the overall
velocity scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from . import tensor as T
from .tensor import Tensor


@dataclass
class MetricConfig:
    d: int
    seed: int = 4411


LOG_BOUND = 0.5


class MetricNet:
    """g = exp(clamp(mlp(z_t, pooled prompt, t, 1))), mean-1 per slot."""

    def __init__(self, config: MetricConfig):
        self.config = config
        self.store = nn.ParamStore(rng_seed=config.seed)
        d = config.d
        self.l1 = nn.Linear(self.store, "metric.l1", 2 * d + 2, 4 * d)
        # zero-init second layer: the metric starts as the exact identity
        self.l2 = nn.Linear(self.store, "metric.l2", 4 * d, d, zero_init=True)

    def prompt_features(self, z_p, S: int) -> Tensor:
        """Mean-pooled (B, m, d) prompt broadcast over S suffix slots.

        It depends on the prompt alone, so one integration computes it once
        and passes it to every `metric_diag` call.
        """
        z_p = T.as_tensor(z_p)
        if z_p.ndim != 3:
            raise ValueError("metric_diag expects batched (B, S, d) latents")
        if z_p.shape[-1] != self.config.d:
            raise ValueError("latent width mismatch")
        pooled = T.tmean(z_p, axis=-2, keepdims=True)
        return pooled * Tensor(np.ones((z_p.shape[0], S, 1), dtype=np.float32))

    def metric_diag(self, z_t, t: float, z_p, prompt: Tensor | None = None
                    ) -> Tensor:
        """(B, S, d) suffix latents at time t -> positive (B, S, d) diagonal.

        `prompt` is `prompt_features(z_p, S)`, computed here when not given.
        """
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"t must be in [0,1], got {t}")
        z_t = T.as_tensor(z_t)
        if z_t.ndim != 3:
            raise ValueError("metric_diag expects batched (B, S, d) latents")
        B, S, d = z_t.shape
        if d != self.config.d:
            raise ValueError("latent width mismatch")
        if prompt is None:
            prompt = self.prompt_features(z_p, S)
        ones = np.ones((B, S, 1), dtype=np.float32)
        feats = T.concat(
            [z_t, prompt, Tensor(np.float32(t) * ones), Tensor(ones)], axis=-1)
        raw = self.l2(T.tanh(self.l1(feats)))
        g = T.exp(T.clip(raw, -LOG_BOUND, LOG_BOUND))
        return g / T.tmean(g, axis=-1, keepdims=True)


def metric_reg(g) -> Tensor:
    """Per-slot mean of sum (g_i - 1)^2: distance from the identity metric."""
    g = T.as_tensor(g)
    dev = g - Tensor(np.float32(1.0))
    total = T.tsum(dev * dev)
    slots = int(np.prod(g.shape[:-1])) if g.ndim > 1 else 1
    return total / float(slots)


def metric_stats(g) -> dict:
    """Flattened summary statistics for report columns."""
    values = np.asarray(g.data if isinstance(g, Tensor) else g, dtype=np.float64)
    if values.size == 0:
        raise ValueError("metric_stats needs a non-empty batch")
    flat = values.ravel()
    return {"std": float(flat.std()), "min": float(flat.min()),
            "max": float(flat.max())}


IDENTITY_STATS = {"std": 0.0, "min": 1.0, "max": 1.0}
