"""Parameter storage, layers, the optimizer and the shared training loop.

Modules register their tensors in a shared ParamStore under canonical dotted
names. Initial values depend only on (name, rng_seed), never on creation
order, so two runs that build the same architecture get bit-identical weights.
Inside a `loading(arrays)` block the same constructors take their values from
saved arrays instead, which is how a model is built from a checkpoint.
"""

from __future__ import annotations

import contextlib
import hashlib
import zlib
from typing import Iterator

import numpy as np

from . import tensor as T
from .tensor import Tensor


class ParamMismatch(ValueError):
    """Saved arrays do not fit the architecture being built."""


class _ArraySource:
    """The arrays a `loading` block builds from, and the names taken so far."""

    def __init__(self, arrays: dict):
        self.arrays = arrays
        self.taken: set = set()

    def take(self, name: str, shape: tuple) -> np.ndarray:
        if name not in self.arrays:
            raise ParamMismatch(f"parameter '{name}' missing")
        arr = np.asarray(self.arrays[name], dtype=T.DTYPE)
        if arr.shape != shape:
            raise ParamMismatch(f"shape mismatch for '{name}': "
                                f"{arr.shape} vs {shape}")
        self.taken.add(name)
        return arr


_source: _ArraySource | None = None


@contextlib.contextmanager
def loading(arrays: dict):
    """Build modules inside the block with parameters taken from `arrays`.

    `ParamStore.add` then draws no init values: it takes `arrays[name]`,
    shape-checked and not copied when it is already float32. A name the
    architecture asks for but `arrays` lacks raises ParamMismatch at once;
    arrays left unused when the block ends raise it on exit.
    """
    global _source
    source = _ArraySource(arrays)
    prev, _source = _source, source
    try:
        yield
    finally:
        _source = prev
    extra = sorted(set(arrays) - source.taken)
    if extra:
        raise ParamMismatch(f"arrays not in the architecture: {extra}")


class ParamStore:
    """Ordered name -> Tensor map with a store-level rng seed.

    Names must be unique; iteration follows insertion order, which is
    deterministic because module construction is deterministic.
    """

    def __init__(self, rng_seed: int = 0):
        if rng_seed < 0 or rng_seed > 0xFFFFFFFFFFFFFFFF:
            raise ValueError("rng_seed must fit in unsigned 64 bits")
        self.rng_seed = int(rng_seed)
        self._entries: dict[str, Tensor] = {}

    def add(self, name: str, shape: tuple, scale: float | None = None,
            fill: float = 0.0) -> Tensor:
        """Create and register a parameter.

        scale=None gives fan-in scaled normal init (last-but-one extent is the
        fan-in for matrices, the only extent for vectors); scale=0.0 gives
        the exact constant `fill`. Inside a `loading` block the value comes
        from the loaded arrays instead.
        """
        if name in self._entries:
            raise KeyError(f"duplicate parameter name '{name}'")
        shape = tuple(int(s) for s in shape)
        if _source is not None:
            data = _source.take(name, shape)
        elif scale == 0.0:
            data = np.full(shape, fill, dtype=T.DTYPE)
        else:
            if scale is None:
                fan_in = shape[-2] if len(shape) >= 2 else shape[0]
                scale = 1.0 / np.sqrt(fan_in)
            # init keyed by (store seed, crc32 of name): order-independent
            rng = T.rng_for(self.rng_seed, zlib.crc32(name.encode()))
            data = (rng.standard_normal(shape, dtype=T.DTYPE) * T.DTYPE(scale))
        t = Tensor(data, requires_grad=True, name=name)
        self._entries[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._entries.items())

    def names(self) -> list[str]:
        return list(self._entries)

    def tensors(self) -> list[Tensor]:
        return list(self._entries.values())

    def zero_grad(self):
        for t in self._entries.values():
            t.grad = None

    def freeze(self):
        for t in self._entries.values():
            t.requires_grad = False

    def unfreeze(self):
        for t in self._entries.values():
            t.requires_grad = True

    def checksum(self) -> str:
        """SHA-256 over names and raw little-endian float32 bytes, in order."""
        h = hashlib.sha256()
        for name, t in self._entries.items():
            h.update(name.encode())
            h.update(np.ascontiguousarray(t.data, dtype="<f4").tobytes())
        return h.hexdigest()

    def n_params(self) -> int:
        return sum(t.data.size for t in self._entries.values())

    def state_arrays(self) -> dict:
        return {k: v.data for k, v in self._entries.items()}


# -- layers -----------------------------------------------------------------


class Linear:
    def __init__(self, store: ParamStore, name: str, d_in: int, d_out: int,
                 zero_init: bool = False):
        self.w = store.add(f"{name}.w", (d_in, d_out),
                           scale=0.0 if zero_init else None)
        self.b = store.add(f"{name}.b", (d_out,), scale=0.0)

    def __call__(self, x: Tensor) -> Tensor:
        return T.affine(x, self.w, self.b)


class LayerNorm:
    def __init__(self, store: ParamStore, name: str, dim: int,
                 affine: bool = True):
        if affine:
            self.gamma = store.add(f"{name}.gamma", (dim,), scale=0.0,
                                   fill=1.0)
            self.beta = store.add(f"{name}.beta", (dim,), scale=0.0)
        else:
            self.gamma = None
            self.beta = None

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta)


class MultiHeadAttention:
    """Standard scaled dot-product attention, self or cross, no masking."""

    def __init__(self, store: ParamStore, name: str, dim: int, n_heads: int):
        if dim % n_heads:
            raise ValueError(f"dim {dim} not divisible by heads {n_heads}")
        self.n_heads = n_heads
        self.head_dim = dim // n_heads
        self.q = Linear(store, f"{name}.q", dim, dim)
        self.k = Linear(store, f"{name}.k", dim, dim)
        self.v = Linear(store, f"{name}.v", dim, dim)
        self.o = Linear(store, f"{name}.o", dim, dim)

    def _split(self, x: Tensor, B: int, S: int) -> Tensor:
        # (B, S, dim) -> (B, heads, S, head_dim)
        return T.transpose(T.reshape(x, (B, S, self.n_heads, self.head_dim)),
                           (0, 2, 1, 3))

    def kv(self, context: Tensor) -> tuple:
        """Key and value heads of `context`; cross-attention to a context that
        stays fixed over many calls computes them once."""
        B, Sc, _ = context.shape
        return (self._split(self.k(context), B, Sc),
                self._split(self.v(context), B, Sc))

    def __call__(self, x: Tensor, kv: tuple | None = None) -> Tensor:
        """Self-attention, or cross-attention to precomputed `kv` heads."""
        B, S, dim = x.shape
        q = self._split(self.q(x), B, S)
        k, v = self.kv(x) if kv is None else kv
        out = T.attention_core(q, k, v, 1.0 / np.sqrt(self.head_dim))
        out = T.reshape(T.transpose(out, (0, 2, 1, 3)), (B, S, dim))
        return self.o(out)


class FeedForward:
    def __init__(self, store: ParamStore, name: str, dim: int, hidden: int):
        self.up = Linear(store, f"{name}.up", dim, hidden)
        self.down = Linear(store, f"{name}.down", hidden, dim)

    def __call__(self, x: Tensor) -> Tensor:
        return self.down(T.tanh(self.up(x)))


class TransformerLayer:
    """Pre-norm block: self-attention, optional cross-attention, feed-forward."""

    def __init__(self, store: ParamStore, name: str, dim: int, n_heads: int,
                 ff_hidden: int, cross: bool = False):
        self.ln1 = LayerNorm(store, f"{name}.ln1", dim)
        self.attn = MultiHeadAttention(store, f"{name}.attn", dim, n_heads)
        self.cross_attn = None
        if cross:
            self.ln_c = LayerNorm(store, f"{name}.ln_c", dim)
            self.cross_attn = MultiHeadAttention(store, f"{name}.xattn", dim, n_heads)
        self.ln2 = LayerNorm(store, f"{name}.ln2", dim)
        self.ff = FeedForward(store, f"{name}.ff", dim, ff_hidden)

    def __call__(self, x: Tensor, cross_kv: tuple | None = None) -> Tensor:
        """`cross_kv` is `self.cross_attn.kv(context)` for a cross layer."""
        x = x + self.attn(self.ln1(x))
        if self.cross_attn is not None:
            if cross_kv is None:
                raise ValueError("cross-attention layer needs a context")
            x = x + self.cross_attn(self.ln_c(x), cross_kv)
        x = x + self.ff(self.ln2(x))
        return x


class DepthwiseConv1d:
    """Per-channel conv over the slot axis, kernel width k, same padding."""

    def __init__(self, store: ParamStore, name: str, channels: int, k: int = 5):
        self.kernel = store.add(f"{name}.kernel", (k, channels),
                                scale=1.0 / np.sqrt(k))
        self.bias = store.add(f"{name}.bias", (channels,), scale=0.0)

    def __call__(self, x: Tensor) -> Tensor:
        return T.dwconv1d(x, self.kernel, self.bias)


def positional_table(store: ParamStore, name: str, n_slots: int, dim: int) -> Tensor:
    return store.add(name, (n_slots, dim), scale=0.02)


# -- optimizer --------------------------------------------------------------


class AdamW:
    """Decoupled weight decay Adam over a ParamStore.

    Decay skips biases, layer-norm gains/offsets, and other 1-D tensors,
    following common practice.
    """

    def __init__(self, store: ParamStore, lr: float = 3e-4,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.01):
        self.store = store
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = {name: np.zeros_like(t.data) for name, t in store.items()}
        self._v = {name: np.zeros_like(t.data) for name, t in store.items()}

    def step(self):
        self.t += 1
        b1t = 1.0 - self.b1 ** self.t
        b2t = 1.0 - self.b2 ** self.t
        for name, p in self.store.items():
            if p.grad is None or not p.requires_grad:
                continue
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * (g * g)
            update = (m / b1t) / (np.sqrt(v / b2t) + self.eps)
            if self.weight_decay and p.data.ndim > 1:
                update = update + self.weight_decay * p.data
            p.data = p.data - T.DTYPE(self.lr) * update.astype(T.DTYPE)


def clip_grad_norm(store: ParamStore, max_norm: float) -> float:
    """Scale all gradients so the global L2 norm is at most max_norm."""
    total = 0.0
    for _, p in store.items():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = T.DTYPE(max_norm / norm)
        for _, p in store.items():
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


# -- training loop ----------------------------------------------------------


class DivergenceError(RuntimeError):
    """Training loss went non-finite; carries the failing step index."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"non-finite loss at step {step}")


def fit(stores: list, train_config, step_fn, log_row=None) -> list:
    """Run `train_config.steps` optimizer steps over `stores`; return the log.

    `step_fn(step)` builds one batch and returns (loss Tensor, parts dict of
    floats). Each step zeroes every store's gradients, checks the loss is
    finite, backpropagates, then clips and applies one AdamW step per store,
    in store order. Every `log_every` steps and on the last one it appends
    `log_row(step, loss, parts)`, by default {"step", "loss", **parts}, with
    the loss as a float.
    """
    tc = train_config
    opts = [AdamW(s, lr=tc.lr, weight_decay=tc.weight_decay) for s in stores]
    history = []
    for step in range(tc.steps):
        for s in stores:
            s.zero_grad()
        loss, parts = step_fn(step)
        if not np.isfinite(loss.data):
            raise DivergenceError(step)
        loss.backward()
        for s, opt in zip(stores, opts):
            clip_grad_norm(s, tc.grad_clip)
            opt.step()
        value = float(loss.data)
        # free this step's tape and gradients before the next forward: held
        # over it, two metric_ot tapes (Sinkhorn iterations) stack at the peak
        del loss
        if step % tc.log_every == 0 or step == tc.steps - 1:
            history.append(log_row(step, value, parts) if log_row
                           else {"step": step, "loss": value, **parts})
    return history
