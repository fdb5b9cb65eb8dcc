"""Differentiable array substrate.

A small reverse-mode autodiff tape over numpy arrays. Values are float32 by
default; every op preserves the dtype of its inputs, so a whole computation
can be re-run in float64 (the finite-difference checker relies on this).

All randomness goes through counter-based Philox generators keyed by explicit
integer seeds, so any sample is bit-identical across runs and platforms.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

DTYPE = np.float32

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape construction inside the block (evaluation fast path)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    return _grad_enabled


class Tensor:
    """Array node on the autodiff tape.

    `data` is a numpy array; `grad` is filled by `backward()` for nodes
    created with `requires_grad=True` and for intermediates that lead to one.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(DTYPE)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward: Callable | None = None
        self.name = name

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self):
        tag = f" name={self.name}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"

    # -- autograd ------------------------------------------------------------

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Reverse-mode sweep from a scalar output."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output, got shape "
                             f"{self.data.shape}")
        topo: list[Tensor] = []
        seen = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            grads = node._backward(node.grad)
            for parent, g in zip(node._parents, grads):
                if g is None:
                    continue
                # frozen leaves take no gradient at all
                if not parent.requires_grad and parent._backward is None:
                    continue
                if g.dtype != parent.data.dtype:
                    g = g.astype(parent.data.dtype)
                # accumulate with + (never +=): first grad may be a borrowed
                # view of another node's buffer and must not be mutated
                parent.grad = g if parent.grad is None else parent.grad + g

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return power(self, p)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, *axes):
        return transpose(self, axes if axes else None)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: Sequence[Tensor], backward: Callable) -> Tensor:
    out = Tensor(data)
    if not _grad_enabled:
        return out
    if any(p.requires_grad or p._parents for p in parents):
        out._parents = tuple(parents)
        out._backward = backward
        out.requires_grad = True
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- elementwise ------------------------------------------------------------


def add(a, b):
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    ad = a.data if ta else a
    bd = b.data if tb else b
    data = ad + bd
    parents = tuple(x for x, t in ((a, ta), (b, tb)) if t)

    def backward(g):
        out = []
        if ta:
            out.append(_unbroadcast(g, a.data.shape))
        if tb:
            out.append(_unbroadcast(g, b.data.shape))
        return out

    return _node(data, parents, backward)


def sub(a, b):
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    ad = a.data if ta else a
    bd = b.data if tb else b
    data = ad - bd
    parents = tuple(x for x, t in ((a, ta), (b, tb)) if t)

    def backward(g):
        out = []
        if ta:
            out.append(_unbroadcast(g, a.data.shape))
        if tb:
            out.append(_unbroadcast(-g, b.data.shape))
        return out

    return _node(data, parents, backward)


def mul(a, b):
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    ad = a.data if ta else a
    bd = b.data if tb else b
    data = ad * bd
    parents = tuple(x for x, t in ((a, ta), (b, tb)) if t)

    def backward(g):
        out = []
        if ta:
            out.append(_unbroadcast(g * bd, a.data.shape))
        if tb:
            out.append(_unbroadcast(g * ad, b.data.shape))
        return out

    return _node(data, parents, backward)


def div(a, b):
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    ad = a.data if ta else a
    bd = b.data if tb else b
    data = ad / bd
    parents = tuple(x for x, t in ((a, ta), (b, tb)) if t)

    def backward(g):
        out = []
        if ta:
            out.append(_unbroadcast(g / bd, a.data.shape))
        if tb:
            out.append(_unbroadcast(-g * ad / (bd * bd), b.data.shape))
        return out

    return _node(data, parents, backward)


def power(a, p: float):
    a = as_tensor(a)
    data = a.data ** p

    def backward(g):
        return (g * p * a.data ** (p - 1),)

    return _node(data, (a,), backward)


def exp(a):
    a = as_tensor(a)
    data = np.exp(a.data)

    def backward(g):
        return (g * data,)

    return _node(data, (a,), backward)


def log(a):
    a = as_tensor(a)
    data = np.log(a.data)

    def backward(g):
        return (g / a.data,)

    return _node(data, (a,), backward)


def sqrt(a):
    a = as_tensor(a)
    data = np.sqrt(a.data)

    def backward(g):
        return (g / (2.0 * data),)

    return _node(data, (a,), backward)


def tanh(a):
    a = as_tensor(a)
    data = np.tanh(a.data)

    def backward(g):
        return (g * (1.0 - data * data),)

    return _node(data, (a,), backward)


def clip(a, lo: float, hi: float):
    """Clamp with pass-through gradient inside [lo, hi], zero outside."""
    a = as_tensor(a)
    data = np.clip(a.data, lo, hi)
    inside = (a.data >= lo) & (a.data <= hi)

    def backward(g):
        return (g * inside,)

    return _node(data, (a,), backward)


# -- reductions & shape -----------------------------------------------------


def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape),)
        ax = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, a.data.shape),)

    return _node(data, (a,), backward)


def tmean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    if axis is None:
        n = a.data.size
    else:
        ax = axis if isinstance(axis, tuple) else (axis,)
        n = int(np.prod([a.data.shape[i] for i in ax]))
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(a, shape):
    a = as_tensor(a)
    data = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.data.shape),)

    return _node(data, (a,), backward)


def transpose(a, axes=None):
    a = as_tensor(a)
    data = np.transpose(a.data, axes)

    def backward(g):
        return (np.transpose(g, None if axes is None else np.argsort(axes)),)

    return _node(data, (a,), backward)


def getitem(a, idx):
    a = as_tensor(a)
    data = a.data[idx]

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return _node(data, (a,), backward)


def concat(tensors: Iterable, axis: int = 0):
    ts = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(data, tuple(ts), backward)


# -- linear algebra ---------------------------------------------------------


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = a.data @ b.data

    def backward(g):
        if b.data.ndim == 2 and a.data.ndim >= 2:
            # flatten leading dims so BLAS sees two plain GEMMs and the
            # weight gradient needs no unbroadcast reduction
            k = a.data.shape[-1]
            n = b.data.shape[-1]
            g2 = g.reshape(-1, n)
            ga = (g2 @ b.data.T).reshape(a.data.shape)
            gb = a.data.reshape(-1, k).T @ g2
            return (ga, gb)
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return (_unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape))

    return _node(data, (a, b), backward)


def affine(x, w, b):
    """Fused x @ w + b for 2-D weights; bias broadcasts over leading dims."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    data = x.data @ w.data + b.data

    def backward(g):
        n = w.data.shape[-1]
        k = x.data.shape[-1]
        g2 = g.reshape(-1, n)
        gx = (g2 @ w.data.T).reshape(x.data.shape)
        gw = x.data.reshape(-1, k).T @ g2
        gb = g2.sum(axis=0)
        return (gx, gw, gb)

    return _node(data, (x, w, b), backward)


def attention_core(q, k, v, scale: float):
    """softmax(q @ k^T * scale) @ v in one node (heads in leading dims)."""
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    scores = (q.data @ np.swapaxes(k.data, -1, -2)) * q.data.dtype.type(scale)
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    attn = e / e.sum(axis=-1, keepdims=True)
    data = attn @ v.data

    def backward(g):
        gv = np.swapaxes(attn, -1, -2) @ g
        g_attn = g @ np.swapaxes(v.data, -1, -2)
        g_scores = attn * (g_attn - (g_attn * attn).sum(axis=-1, keepdims=True))
        g_scores *= g_scores.dtype.type(scale)
        gq = g_scores @ k.data
        gk = np.swapaxes(g_scores, -1, -2) @ q.data
        return (gq, gk, gv)

    return _node(data, (q, k, v), backward)


# -- softmax family ---------------------------------------------------------


def softmax(a, axis: int = -1):
    """Stabilized softmax; the normalizing sum is accumulated in float64."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    denom = e.sum(axis=axis, keepdims=True, dtype=np.float64)
    data = e * (1.0 / denom).astype(a.data.dtype)

    def backward(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        return (data * (g - dot),)

    return _node(data, (a,), backward)


def log_softmax(a, axis: int = -1):
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True, dtype=np.float64))
    data = shifted - lse.astype(a.data.dtype)

    def backward(g):
        sm = np.exp(data)
        return (g - sm * g.sum(axis=axis, keepdims=True),)

    return _node(data, (a,), backward)


def logsumexp(a, axis: int = -1, keepdims: bool = False):
    a = as_tensor(a)
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    data = (np.log(s) + m)
    sm = e / s
    if not keepdims:
        data = np.squeeze(data, axis=axis)

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (g * sm,)

    return _node(data, (a,), backward)


# -- fused layers -----------------------------------------------------------


def layer_norm(x, gamma=None, beta=None, eps: float = 1e-5):
    """Normalize the last axis to zero mean / unit variance, optional affine."""
    x = as_tensor(x)
    # sum / n is the float32 reduction and division np.mean performs, bit for
    # bit, without its Python-level dispatch
    n = x.data.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True) / n
    xc = x.data - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    has_gamma = gamma is not None
    has_beta = beta is not None
    data = xhat
    if has_gamma:
        data = data * gamma.data
    if has_beta:
        data = data + beta.data
    parents = [x]
    if has_gamma:
        parents.append(gamma)
    if has_beta:
        parents.append(beta)

    def backward(g):
        dxhat = g * gamma.data if has_gamma else g
        m1 = dxhat.sum(axis=-1, keepdims=True) / n
        m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / n
        dx = inv * (dxhat - m1 - xhat * m2)
        grads = [dx]
        if has_gamma:
            grads.append(_unbroadcast(g * xhat, gamma.data.shape))
        if has_beta:
            grads.append(_unbroadcast(g, beta.data.shape))
        return grads

    return _node(data, tuple(parents), backward)


def embedding(table, ids: np.ndarray):
    """Row lookup `table[ids]` with scatter-add backward into the table."""
    ids = np.asarray(ids)
    data = table.data[ids]

    def backward(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids, g)
        return (full,)

    return _node(data, (table,), backward)


def gather_last(x, ids: np.ndarray):
    """Pick one entry along the last axis per leading position."""
    x = as_tensor(x)
    ids = np.asarray(ids)
    expanded = ids[..., None]
    data = np.take_along_axis(x.data, expanded, axis=-1)[..., 0]

    def backward(g):
        full = np.zeros_like(x.data)
        np.put_along_axis(full, expanded, g[..., None], axis=-1)
        return (full,)

    return _node(data, (x,), backward)


def dwconv1d(x, kernel, bias=None):
    """Depthwise 1-D convolution over axis -2 with same zero padding.

    x: (..., S, C), kernel: (K, C), bias: (C,) or None.
    """
    x = as_tensor(x)
    K = kernel.data.shape[0]
    S = x.data.shape[-2]
    half = K // 2
    xp = np.zeros(x.data.shape[:-2] + (S + K - 1, x.data.shape[-1]),
                  dtype=x.data.dtype)
    xp[..., half:half + S, :] = x.data
    data = np.zeros_like(x.data)
    for k in range(K):
        data = data + xp[..., k:k + S, :] * kernel.data[k]
    has_bias = bias is not None
    if has_bias:
        data = data + bias.data
    parents = [x, kernel] + ([bias] if has_bias else [])

    def backward(g):
        gxp = np.zeros_like(xp)
        gk = np.zeros_like(kernel.data)
        for k in range(K):
            gxp[..., k:k + S, :] += g * kernel.data[k]
            sl = xp[..., k:k + S, :] * g
            gk[k] = sl.reshape(-1, sl.shape[-1]).sum(axis=0)
        gx = gxp[..., half:half + S, :]
        grads = [gx, gk]
        if has_bias:
            grads.append(g.reshape(-1, g.shape[-1]).sum(axis=0))
        return grads

    return _node(data, tuple(parents), backward)


# -- seeded sampling --------------------------------------------------------


def rng_for(*keys: int) -> np.random.Generator:
    """Counter-based Philox generator keyed by an explicit integer tuple."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([int(k) & 0xFFFFFFFFFFFFFFFF for k in keys]))
    )


def gaussian_sample(shape, seed: int) -> Tensor:
    """Standard-normal sample, bit-identical for a given (shape, seed)."""
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0 or any(s < 1 for s in shape):
        raise ValueError(f"gaussian_sample requires non-empty shape with extents >= 1, got {shape}")
    data = rng_for(seed).standard_normal(shape, dtype=DTYPE)
    return Tensor(data)


# -- integration ------------------------------------------------------------


def euler_step(z_t, v, gamma: float, dt: float):
    """One explicit Euler update `z + gamma * v * dt` (shapes must match)."""
    zt = as_tensor(z_t)
    vt = as_tensor(v)
    if zt.data.shape != vt.data.shape:
        raise ValueError(f"euler_step shape mismatch: {zt.data.shape} vs {vt.data.shape}")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if dt <= 0:
        raise ValueError("dt must be positive")
    return add(zt, mul(vt, gamma * dt))
