"""Layer and optimizer checks on top of the tape."""

import pathlib
import platform
import subprocess
import sys
import types

import numpy as np
import pytest

from draftflow import nn
from draftflow import tensor as T
from draftflow.gradcheck import grad_check
from draftflow.tensor import Tensor


def test_paramstore_names_unique_and_ordered():
    store = nn.ParamStore(rng_seed=1)
    store.add("a.w", (2, 3))
    store.add("b.w", (3,))
    assert store.names() == ["a.w", "b.w"]
    with pytest.raises(KeyError):
        store.add("a.w", (2, 3))


def test_paramstore_init_order_independent():
    s1 = nn.ParamStore(rng_seed=9)
    s1.add("x", (4, 4))
    s1.add("y", (4, 4))
    s2 = nn.ParamStore(rng_seed=9)
    s2.add("y", (4, 4))
    s2.add("x", (4, 4))
    assert np.array_equal(s1["x"].data, s2["x"].data)
    assert np.array_equal(s1["y"].data, s2["y"].data)
    s3 = nn.ParamStore(rng_seed=10)
    s3.add("x", (4, 4))
    assert not np.array_equal(s1["x"].data, s3["x"].data)


def test_paramstore_checksum_tracks_values():
    store = nn.ParamStore(rng_seed=3)
    store.add("w", (3, 3))
    before = store.checksum()
    assert before == store.checksum()
    store["w"].data[0, 0] += 1.0
    assert store.checksum() != before


def _build_wb(rng_seed):
    store = nn.ParamStore(rng_seed=rng_seed)
    store.add("w", (3, 3))
    store.add("b", (3,), scale=0.0)
    return store


def test_paramstore_roundtrip_load():
    arrays = {k: v + 1.0 for k, v in _build_wb(3).state_arrays().items()}
    with nn.loading(arrays):
        store = _build_wb(4)
    for name, arr in arrays.items():
        assert store[name].data.tobytes() == arr.tobytes()
    # a missing, an extra and a mis-shaped array each refuse the build
    with pytest.raises(nn.ParamMismatch, match="'b' missing"):
        with nn.loading({"w": arrays["w"]}):
            _build_wb(3)
    with pytest.raises(nn.ParamMismatch, match="extra"):
        with nn.loading({**arrays, "extra": arrays["b"]}):
            _build_wb(3)
    with pytest.raises(nn.ParamMismatch, match="shape mismatch for 'w'"):
        with nn.loading({**arrays, "w": arrays["w"][:2]}):
            _build_wb(3)
    # outside the block the store draws again
    assert _build_wb(3).checksum() != store.checksum()


def _layer_gradcheck(build, n_in, tol=1e-4, seed=0):
    """Wrap a module forward as a loss over its store and finite-check it."""
    rng = np.random.default_rng(seed)
    store = nn.ParamStore(rng_seed=seed)
    forward = build(store)
    x = rng.standard_normal(n_in).astype(np.float32)

    def loss_fn(params):
        out = forward(Tensor(x))
        return (out * out).mean()

    err = grad_check(loss_fn, store, eps=1e-3)
    assert err < tol, f"relative error {err:.3e}"


def test_linear_gradients():
    def build(store):
        lin = nn.Linear(store, "lin", 6, 4)
        return lambda x: lin(x)

    _layer_gradcheck(build, (3, 6), seed=21)


def test_attention_gradients():
    def build(store):
        attn = nn.MultiHeadAttention(store, "attn", 8, n_heads=2)
        return lambda x: attn(x)

    _layer_gradcheck(build, (2, 5, 8), seed=22)


def test_transformer_layer_gradients_with_cross():
    rng = np.random.default_rng(23)
    ctx = rng.standard_normal((2, 3, 8)).astype(np.float32)

    def build(store):
        layer = nn.TransformerLayer(store, "blk", 8, n_heads=2, ff_hidden=16,
                                    cross=True)
        return lambda x: layer(x, layer.cross_attn.kv(Tensor(ctx)))

    _layer_gradcheck(build, (2, 5, 8), seed=23)


def test_dwconv_layer_gradients():
    def build(store):
        conv = nn.DepthwiseConv1d(store, "conv", channels=6, k=5)
        return lambda x: conv(x)

    _layer_gradcheck(build, (2, 7, 6), seed=24)


def test_cross_attention_requires_context():
    store = nn.ParamStore(rng_seed=0)
    layer = nn.TransformerLayer(store, "blk", 8, 2, 16, cross=True)
    with pytest.raises(ValueError):
        layer(Tensor(np.zeros((1, 2, 8), dtype=np.float32)))


def test_adamw_reduces_quadratic():
    store = nn.ParamStore(rng_seed=5)
    w = store.add("w", (8, 8))
    opt = nn.AdamW(store, lr=0.05)
    target = np.zeros((8, 8), dtype=np.float32)
    first = None
    for step in range(200):
        store.zero_grad()
        diff = w - Tensor(target)
        loss = (diff * diff).sum()
        loss.backward()
        opt.step()
        if first is None:
            first = loss.item()
    assert loss.item() < 0.01 * first


def _fit_config(steps, log_every=2):
    return types.SimpleNamespace(steps=steps, lr=0.05, weight_decay=0.0,
                                 grad_clip=1.0, log_every=log_every)


def test_fit_logs_every_k_steps_and_the_last():
    store = nn.ParamStore(rng_seed=5)
    w = store.add("w", (4, 4))

    def step_fn(step):
        loss = (w * w).sum()
        return loss, {"double": 2.0 * float(loss.data)}

    rows = nn.fit([store], _fit_config(6, log_every=4), step_fn)
    assert [r["step"] for r in rows] == [0, 4, 5]
    assert all(type(r["loss"]) is float for r in rows)
    assert rows[-1]["double"] == pytest.approx(2.0 * rows[-1]["loss"])
    assert rows[-1]["loss"] < rows[0]["loss"]
    custom = nn.fit([store], _fit_config(2), step_fn,
                    lambda step, loss, parts: {"step": step, "x": loss})
    assert list(custom[0]) == ["step", "x"]


def test_fit_raises_divergence_with_step():
    store = nn.ParamStore(rng_seed=5)
    w = store.add("w", (2, 2))

    def step_fn(step):
        scale = np.float32(np.nan if step == 3 else 1.0)
        return (w * w).sum() * Tensor(scale), {}

    with pytest.raises(nn.DivergenceError) as err:
        nn.fit([store], _fit_config(10), step_fn)
    assert err.value.step == 3


_FIT_FAULTS = """
import resource, types
import numpy as np
from draftflow import nn
from draftflow import tensor as T
from draftflow.tensor import Tensor

store = nn.ParamStore(rng_seed=3)
w = store.add("w", (1,))
start = {}

def step_fn(step):
    if step == 2:
        start["faults"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    # 256 tape nodes of 64 KiB (below the mmap threshold, so on the heap):
    # a 16 MiB tape, far above glibc's default 128 KiB trim threshold
    x = Tensor(np.ones(16384, dtype=np.float32)) * w
    for _ in range(256):
        x = T.tanh(x)
    return T.tmean(x), {}

nn.fit([store], types.SimpleNamespace(steps=6, lr=1e-3, weight_decay=0.0,
                                      grad_clip=1.0, log_every=10), step_fn)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start["faults"])
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="heap trimming is glibc behaviour")
def test_fit_keeps_freed_tape_memory_between_steps():
    # without a heap top pad, glibc trims the freed tape after every step and
    # the next step faults its 4096 pages back in; a fresh interpreter starts
    # from glibc's default thresholds
    src = pathlib.Path(nn.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", _FIT_FAULTS],
                         env={"PYTHONPATH": str(src)}, capture_output=True,
                         text=True, check=True, timeout=120)
    faults = int(out.stdout.split()[-1])
    assert faults < 1000, f"{faults} minor faults over 4 steps"


def test_adamw_skips_frozen_params():
    store = nn.ParamStore(rng_seed=6)
    w = store.add("w", (3, 3))
    store.freeze()
    opt = nn.AdamW(store, lr=0.1)
    w.grad = np.ones_like(w.data)
    before = w.data.copy()
    opt.step()
    assert np.array_equal(w.data, before)


def test_clip_grad_norm_scales():
    store = nn.ParamStore(rng_seed=7)
    w = store.add("w", (4,))
    w.grad = np.full(4, 3.0, dtype=np.float32)
    norm = nn.clip_grad_norm(store, 1.0)
    assert norm == pytest.approx(6.0)
    assert np.linalg.norm(w.grad) == pytest.approx(1.0, rel=1e-5)


def test_layer_norm_module_normalizes():
    store = nn.ParamStore(rng_seed=8)
    ln = nn.LayerNorm(store, "ln", 16)
    x = Tensor(np.random.default_rng(0).standard_normal((4, 16)).astype(np.float32) * 5)
    y = ln(x)
    assert np.abs(y.data.mean(axis=-1)).max() < 1e-5
    assert np.abs(y.data.std(axis=-1) - 1.0).max() < 1e-3
