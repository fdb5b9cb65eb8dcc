"""Stage-1 latent autoencoder.

A small transformer encoder maps token slots to per-slot latents through a
projection; a parallel decoder reads latents back to token logits for every
slot at once. After stage-1 training both halves are frozen: they define the
latent space and the recoverability oracle everything downstream uses.

Latents are layer-normalized per slot (no learned affine), so coordinates
come out near zero mean / unit variance. That fixes the latent scale, which
the noise-mixing stage and all geometry terms rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diagnostics, nn
from . import tensor as T
from .corpus import pad_to_slots
from .nn import DivergenceError  # noqa: F401  (re-exported)
from .tensor import Tensor, no_grad


@dataclass
class AEConfig:
    vocab_size: int
    d: int = 32
    h: int = 64
    m: int = 16
    n: int = 32
    n_heads: int = 8
    enc_layers: int = 2
    dec_layers: int = 2
    seed: int = 1337


def batchify(examples: list, m: int, n: int):
    """Stack examples into (B, n) id and mask arrays via the slot layout."""
    ids = np.stack([pad_to_slots(ex, m, n).ids for ex in examples])
    mask = np.stack([pad_to_slots(ex, m, n).mask for ex in examples])
    return ids, mask


class Autoencoder:
    """Encoder + parallel decoder over fixed prompt/suffix slots."""

    def __init__(self, config: AEConfig):
        if config.m >= config.n:
            raise ValueError("need m < n")
        self.config = config
        self.store = nn.ParamStore(rng_seed=config.seed)
        s, c = self.store, config
        self.tok_emb = s.add("enc.tok_emb", (c.vocab_size, c.h), scale=0.1)
        self.enc_pos = s.add("enc.pos", (c.n, c.h), scale=0.02)
        self.enc_layers = [
            nn.TransformerLayer(s, f"enc.layer{i}", c.h, c.n_heads, 4 * c.h)
            for i in range(c.enc_layers)]
        self.enc_ln = nn.LayerNorm(s, "enc.ln_out", c.h)
        self.proj = nn.Linear(s, "enc.proj", c.h, c.d)
        # decoder blocks run at latent width d with feed-forward hidden 4h,
        # so smaller d squeezes attention width but keeps model capacity close
        self.dec_pos = s.add("dec.pos", (c.n, c.d), scale=0.02)
        self.dec_layers = [
            nn.TransformerLayer(s, f"dec.layer{i}", c.d, c.n_heads, 4 * c.h)
            for i in range(c.dec_layers)]
        self.dec_ln = nn.LayerNorm(s, "dec.ln_out", c.d)
        self.head = nn.Linear(s, "dec.head", c.d, c.vocab_size)
        self.frozen = False

    # -- array-level forward (batched) --------------------------------------

    def encode_array(self, ids: np.ndarray) -> Tensor:
        """(B, n) token ids -> (B, n, d) latents, layer-normalized per slot."""
        ids = np.atleast_2d(np.asarray(ids))
        if ids.shape[-1] != self.config.n:
            raise ValueError(f"expected {self.config.n} slots, got {ids.shape[-1]}")
        x = T.embedding(self.tok_emb, ids) + self.enc_pos
        for layer in self.enc_layers:
            x = layer(x)
        z = self.proj(self.enc_ln(x))
        return T.layer_norm(z)

    def decode_array(self, z) -> Tensor:
        """(B, n, d) latents -> (B, n, V) logits."""
        if not isinstance(z, Tensor):
            z = Tensor(np.asarray(z, dtype=np.float32))
        if z.shape[-1] != self.config.d or z.shape[-2] != self.config.n:
            raise ValueError(
                f"latents shaped {z.shape[-2:]}, expected "
                f"({self.config.n}, {self.config.d})")
        x = z + self.dec_pos
        for layer in self.dec_layers:
            x = layer(x)
        return self.head(self.dec_ln(x))

    def loss_array(self, ids: np.ndarray, mask: np.ndarray) -> Tensor:
        """Reconstruction CE averaged over all mask-true positions."""
        mask = np.atleast_2d(np.asarray(mask))
        ids = np.atleast_2d(np.asarray(ids))
        if not mask.any():
            raise ValueError("ae loss needs at least one real position")
        logits = self.decode_array(self.encode_array(ids))
        logp = T.log_softmax(logits, axis=-1)
        true_lp = T.gather_last(logp, ids)
        w = mask.astype(np.float32)
        return T.tsum(true_lp * Tensor(-w)) / float(w.sum())

    def encode_all(self, ids: np.ndarray) -> np.ndarray:
        """No-grad latents of a whole (N, n) id array, in chunks of 256 rows."""
        with no_grad():
            return np.concatenate([self.encode_array(ids[i:i + 256]).data
                                   for i in range(0, len(ids), 256)])

    def freeze(self):
        self.store.freeze()
        self.frozen = True

    def checksum(self) -> str:
        return self.store.checksum()


@dataclass
class StageOneTrainConfig:
    steps: int = 1200
    batch_size: int = 64
    lr: float = 1e-3
    weight_decay: float = 0.01
    grad_clip: float = 1.0
    val_count: int = 200
    log_every: int = 100
    seed: int = 1337


def train_stage1(corpus: list, config: AEConfig,
                 train_config: StageOneTrainConfig | None = None):
    """Train encoder+decoder jointly, freeze, and return (model, history).

    The last `val_count` examples are held out; history rows carry step,
    train loss, and validation loss for curve emission.
    """
    tc = train_config or StageOneTrainConfig()
    if len(corpus) < 500:
        raise ValueError("stage-1 training needs at least 500 examples")
    if len(corpus) <= tc.val_count:
        raise ValueError("val_count leaves no training data")
    model = Autoencoder(config)
    train, val = corpus[:-tc.val_count], corpus[-tc.val_count:]
    ids, mask = batchify(train, config.m, config.n)
    vids, vmask = batchify(val, config.m, config.n)

    def step_fn(step):
        idx = T.rng_for(tc.seed, step).integers(0, len(train), size=tc.batch_size)
        return model.loss_array(ids[idx], mask[idx]), {}

    def log_row(step, loss, parts):
        with no_grad():
            vloss = float(model.loss_array(vids, vmask).data)
        return {"step": step, "train_loss": loss, "val_loss": vloss}

    history = nn.fit([model.store], tc, step_fn, log_row)
    model.freeze()
    return model, history


def oracle_eval(model: Autoencoder, examples: list) -> diagnostics.DiagnosticReport:
    """Recoverability and surface metrics of real (encoded) latents.

    This is the frozen-decoder ceiling all stage-2 variants compare against.
    """
    ids, mask = batchify(examples, model.config.m, model.config.n)
    with no_grad():
        z = model.encode_array(ids)
        rec = diagnostics.recoverability(model, z.data, ids, mask)
        decoded = model.decode_array(z.data).data.argmax(axis=-1)
    suffix_tokens = [list(row) for row in decoded[:, model.config.m:]]
    surf = diagnostics.surface_metrics(suffix_tokens)
    return diagnostics.DiagnosticReport(
        ce=rec["ce"], p_target=rec["p_target"], top1=rec["top1"], **surf)
