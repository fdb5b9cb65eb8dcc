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

    def __repr__(self):
        tag = f" name={self.name}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"

    # -- autograd ------------------------------------------------------------

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
                if not _takes_grad(parent):
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


def _takes_grad(t: Tensor) -> bool:
    """Whether `Tensor.backward` delivers a gradient to parent `t`; a frozen
    leaf takes none, so a backward closure need not compute one for it."""
    return t.requires_grad or t._backward is not None


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


def _binary(a, b, ufunc, grad_a, grad_b):
    """Broadcasting elementwise node `ufunc(a, b)`; either side may be a
    plain array or scalar. `grad_a(g, ad, bd)` and `grad_b(g, ad, bd)` give
    each side's gradient before it is summed back to that side's shape."""
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    ad = a.data if ta else a
    bd = b.data if tb else b
    data = ufunc(ad, bd)
    parents = tuple(x for x, t in ((a, ta), (b, tb)) if t)

    def backward(g):
        out = []
        if ta:
            out.append(_unbroadcast(grad_a(g, ad, bd), a.data.shape))
        if tb:
            out.append(_unbroadcast(grad_b(g, ad, bd), b.data.shape))
        return out

    return _node(data, parents, backward)


def add(a, b):
    return _binary(a, b, np.add, lambda g, ad, bd: g, lambda g, ad, bd: g)


def sub(a, b):
    return _binary(a, b, np.subtract, lambda g, ad, bd: g,
                   lambda g, ad, bd: -g)


def mul(a, b):
    return _binary(a, b, np.multiply, lambda g, ad, bd: g * bd,
                   lambda g, ad, bd: g * ad)


def div(a, b):
    return _binary(a, b, np.divide, lambda g, ad, bd: g / bd,
                   lambda g, ad, bd: -g * ad / (bd * bd))


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


def tanh(a):
    a = as_tensor(a)
    data = np.tanh(a.data)

    def backward(g):
        d = data * data
        np.subtract(1.0, d, out=d)
        d *= g
        return (d,)

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
    data = x.data @ w.data
    data += b.data

    def backward(g):
        n = w.data.shape[-1]
        k = x.data.shape[-1]
        g2 = g.reshape(-1, n)
        gx = (g2 @ w.data.T).reshape(x.data.shape) if _takes_grad(x) else None
        gw = x.data.reshape(-1, k).T @ g2 if _takes_grad(w) else None
        gb = g2.sum(axis=0) if _takes_grad(b) else None
        return (gx, gw, gb)

    return _node(data, (x, w, b), backward)


def _sum_keys(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """`a.sum(axis=-2)`, or `(a * b).sum(axis=-2)`, bit for bit: both add
    the key rows in order, but einsum runs it as long vector adds rather
    than one short loop per query column. With one query column the keys
    are contiguous: numpy sums them pairwise, einsum in unrolled partial
    sums, so that shape keeps numpy's sum."""
    if a.shape[-1] == 1:
        return (a if b is None else a * b).sum(axis=-2)
    if b is None:
        return np.einsum("...ts->...s", a)
    return np.einsum("...ts,...ts->...s", a, b)


def _max_keys(a: np.ndarray) -> np.ndarray:
    """`a.max(axis=-2, keepdims=True)` by pairwise halving; max is exact, so
    the order of the comparisons does not change the result."""
    m = a
    while m.shape[-2] > 1:
        rows = m.shape[-2]
        half = rows // 2
        # the first halving fills a fresh buffer, later ones reuse it
        top = np.maximum(m[..., :half, :], m[..., half:2 * half, :],
                         out=None if m is a else m[..., :half, :])
        if rows % 2:
            np.maximum(top[..., :1, :], m[..., rows - 1:, :],
                       out=top[..., :1, :])
        m = top
    return a.copy() if m is a else m


def attention_core(q, k, v, n_heads: int):
    """Multi-head softmax(q k^T / sqrt(head_dim)) v in one node.

    q: (B, S, dim) queries, k and v: (B, T, dim) keys and values, each the
    concatenation of `n_heads` heads. Heads are split and merged as numpy
    views inside the op, in both directions, so the tape holds one node.
    The scores are held key-major, (B, heads, T, S), so the softmax max and
    sum reduce over the key axis -2 as long vector ops.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    B, S, dim = q.data.shape
    Tk = k.data.shape[1]
    hd = dim // n_heads
    scale = 1.0 / np.sqrt(hd)

    def split(a, n):
        # (B, n, dim) -> (B, heads, n, head_dim) view
        return a.reshape(B, n, n_heads, hd).transpose(0, 2, 1, 3)

    def merge(a, n):
        # (B, heads, n, head_dim) -> (B, n, dim) copy
        return a.transpose(0, 2, 1, 3).reshape(B, n, dim)

    q4, k4, v4 = split(q.data, S), split(k.data, Tk), split(v.data, Tk)
    attn_t = k4 @ np.swapaxes(q4, -1, -2)
    attn_t *= attn_t.dtype.type(scale)
    attn_t -= _max_keys(attn_t)
    np.exp(attn_t, out=attn_t)
    attn_t /= _sum_keys(attn_t)[..., None, :]
    data = merge(np.swapaxes(attn_t, -1, -2) @ v4, S)

    def backward(g):
        g4 = split(g, S)
        gv = merge(attn_t @ g4, Tk) if _takes_grad(v) else None
        g_st = v4 @ np.swapaxes(g4, -1, -2)
        g_st -= _sum_keys(g_st, attn_t)[..., None, :]
        g_st *= attn_t
        g_st *= g_st.dtype.type(scale)
        gq = merge(np.swapaxes(g_st, -1, -2) @ k4, S) if _takes_grad(q) \
            else None
        gk = merge(g_st @ q4, Tk) if _takes_grad(k) else None
        return (gq, gk, gv)

    return _node(data, (q, k, v), backward)


# -- softmax family ---------------------------------------------------------


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
    e = a.data - m
    np.exp(e, out=e)
    s = e.sum(axis=axis, keepdims=True)
    data = np.log(s)
    data += m
    if not keepdims:
        data = np.squeeze(data, axis=axis)

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        sm = e / s
        sm *= g
        return (sm,)

    return _node(data, (a,), backward)


# -- fused layers -----------------------------------------------------------


def layer_norm(x, gamma=None, beta=None, eps: float = 1e-5):
    """Normalize the last axis to zero mean / unit variance, then scale by
    `gamma` and shift by `beta` when given: both or neither."""
    x = as_tensor(x)
    # sum / n is the float32 reduction and division np.mean performs, bit for
    # bit, without its Python-level dispatch
    n = x.data.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True) / n
    xc = x.data - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc
    xhat *= inv
    affine = gamma is not None
    if affine:
        data = xhat * gamma.data
        data += beta.data
    else:
        data = xhat

    def backward(g):
        dx = None
        scratch = None
        if _takes_grad(x):
            dxhat = g * gamma.data if affine else g
            m1 = dxhat.sum(axis=-1, keepdims=True) / n
            scratch = dxhat * xhat
            m2 = scratch.sum(axis=-1, keepdims=True) / n
            np.multiply(xhat, m2, out=scratch)
            dx = np.subtract(dxhat, m1, out=dxhat) if affine else dxhat - m1
            dx -= scratch
            dx *= inv
        if not affine:
            return (dx,)
        dgamma = _unbroadcast(np.multiply(g, xhat, out=scratch),
                              gamma.data.shape) if _takes_grad(gamma) else None
        dbeta = _unbroadcast(g, beta.data.shape) if _takes_grad(beta) else None
        return (dx, dgamma, dbeta)

    return _node(data, (x, gamma, beta) if affine else (x,), backward)


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


def dwconv1d(x, kernel, bias):
    """Depthwise 1-D convolution over axis -2 with same zero padding.

    x: (..., S, C), kernel: (K, C), bias: (C,).
    """
    x = as_tensor(x)
    K = kernel.data.shape[0]
    S = x.data.shape[-2]
    half = K // 2
    xp = np.zeros(x.data.shape[:-2] + (S + K - 1, x.data.shape[-1]),
                  dtype=x.data.dtype)
    xp[..., half:half + S, :] = x.data
    data = np.zeros(x.data.shape, np.result_type(x.data, kernel.data))
    term = np.empty_like(data)
    for k in range(K):
        np.multiply(xp[..., k:k + S, :], kernel.data[k], out=term)
        data += term
    data += bias.data

    def backward(g):
        gxp = np.zeros_like(xp)
        gk = np.zeros_like(kernel.data)
        term = np.empty(g.shape, dtype=g.dtype)
        for k in range(K):
            np.multiply(g, kernel.data[k], out=term)
            gxp[..., k:k + S, :] += term
            np.multiply(xp[..., k:k + S, :], g, out=term)
            gk[k] = term.reshape(-1, term.shape[-1]).sum(axis=0)
        return (gxp[..., half:half + S, :], gk,
                g.reshape(-1, g.shape[-1]).sum(axis=0))

    return _node(data, (x, kernel, bias), backward)


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
