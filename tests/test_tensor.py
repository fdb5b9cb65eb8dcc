"""Substrate checks: op gradients vs central differences, log-softmax,
sampling."""

import numpy as np
import pytest

from draftflow import tensor as T
from draftflow.gradcheck import grad_check
from draftflow.tensor import Tensor, euler_step, gaussian_sample


def _p(arr):
    return Tensor(np.asarray(arr, dtype=np.float32), requires_grad=True)


def _rand(rng, *shape):
    return rng.standard_normal(shape).astype(np.float32)


def check_op(build_loss, arrays, tol=1e-4):
    params = {f"x{i}": Tensor(a, requires_grad=True) for i, a in enumerate(arrays)}

    def loss_fn(p):
        return build_loss([p[f"x{i}"] for i in range(len(arrays))])

    err = grad_check(loss_fn, params, eps=1e-3)
    assert err < tol, f"relative error {err:.3e} exceeds {tol}"


def test_gradcheck_quadratic_is_tight():
    params = {"a": _p([[1.0, -2.0], [0.5, 3.0]])}

    def loss_fn(p):
        return (p["a"] * p["a"]).sum()

    assert grad_check(loss_fn, params, eps=1e-3) < 1e-6


def test_gradcheck_constant_loss_zero_error():
    params = {"a": _p([1.0, 2.0])}

    def loss_fn(p):
        return Tensor(np.float32(3.0))

    assert grad_check(loss_fn, params, eps=1e-3) == 0.0


def test_gradcheck_rejects_bad_eps():
    params = {"a": _p([1.0])}
    with pytest.raises(ValueError):
        grad_check(lambda p: p["a"].sum(), params, eps=0.5)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_gradcheck_reports_nonfinite_parameter():
    params = {"bad": _p([1e-8])}

    def loss_fn(p):
        return (p["bad"] ** 0.5).sum()  # perturbing below zero goes non-finite

    with pytest.raises(FloatingPointError, match="bad"):
        grad_check(loss_fn, params, eps=1e-3)


def test_elementwise_op_gradients():
    rng = np.random.default_rng(101)
    for trial in range(5):
        a = _rand(rng, 3, 4)
        b = _rand(rng, 3, 4)
        check_op(lambda xs: (xs[0] + xs[1] * 2.0 - xs[0] * xs[1]).sum(), [a, b])
        check_op(lambda xs: (xs[0] / (xs[1] * xs[1] + 1.5)).sum(), [a, b])
        check_op(lambda xs: T.tanh(xs[0]).sum(), [a])
        check_op(lambda xs: T.exp(xs[0] * 0.5).sum(), [a])
        # probe the cubic on [1,2]: central differences carry an eps^2
        # truncation term that swamps gradients near the flat point at 0
        c = rng.uniform(1.0, 2.0, size=(3, 4)).astype(np.float32)
        check_op(lambda xs: (xs[0] ** 3.0).mean(), [c])


def test_broadcasting_gradients():
    rng = np.random.default_rng(102)
    a = _rand(rng, 4, 5)
    row = _rand(rng, 5)
    col = _rand(rng, 4, 1)
    check_op(lambda xs: (xs[0] + xs[1]).sum(), [a, row])
    check_op(lambda xs: (xs[0] * xs[1] + xs[2]).sum(), [a, row, col])
    check_op(lambda xs: (xs[0] / (T.exp(xs[1]) + 1.0)).sum(), [a, col])


def test_matmul_gradients_batched_and_plain():
    rng = np.random.default_rng(103)
    check_op(lambda xs: T.matmul(xs[0], xs[1]).sum(),
             [_rand(rng, 3, 4), _rand(rng, 4, 2)])
    # batched lhs against shared rhs exercises unbroadcast on leading dims
    check_op(lambda xs: T.matmul(xs[0], xs[1]).sum(),
             [_rand(rng, 2, 3, 4), _rand(rng, 4, 5)])
    check_op(lambda xs: (T.matmul(xs[0], xs[1]) ** 2.0).mean(),
             [_rand(rng, 2, 2, 3, 4), _rand(rng, 2, 2, 4, 3)])


def test_reduction_and_shape_gradients():
    rng = np.random.default_rng(104)
    a = _rand(rng, 3, 4, 2)
    check_op(lambda xs: xs[0].sum(axis=1).mean(), [a])
    check_op(lambda xs: xs[0].mean(axis=(0, 2)).sum(), [a])
    check_op(lambda xs: xs[0].reshape(6, 4).sum(axis=0).mean(), [a])
    check_op(lambda xs: T.transpose(xs[0], (2, 0, 1)).sum(), [a])
    check_op(lambda xs: xs[0][1].sum() + xs[0][0, 2].sum(), [a])
    check_op(lambda xs: T.concat([xs[0], xs[0] * 2.0], axis=1).mean(), [a])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(105)
    for scale in (1.0, 10.0, 100.0):
        x = Tensor(_rand(rng, 16, 512) * scale)
        s = np.exp(T.log_softmax(x, axis=-1).data)
        # positivity holds whenever the logit spread stays inside float32
        # exp range; the huge-scale row only needs the sum contract
        if scale <= 10.0:
            assert (s > 0).all()
        assert (s >= 0).all()
        sums = s.sum(axis=-1, dtype=np.float64)
        assert np.abs(sums - 1.0).max() < 1e-6


def test_softmax_family_gradients():
    rng = np.random.default_rng(106)
    a = _rand(rng, 3, 7)
    w = _rand(rng, 3, 7)
    check_op(lambda xs: (T.log_softmax(xs[0]) * xs[1]).sum(), [a, w])
    check_op(lambda xs: T.logsumexp(xs[0], axis=-1).sum(), [a])
    check_op(lambda xs: T.logsumexp(xs[0], axis=0, keepdims=True).mean(), [a])


def test_layer_norm_gradients_with_and_without_affine():
    rng = np.random.default_rng(107)
    x = _rand(rng, 4, 6)
    g = (1.0 + 0.1 * _rand(rng, 6)).astype(np.float32)
    b = _rand(rng, 6)
    check_op(lambda xs: (T.layer_norm(xs[0], xs[1], xs[2]) ** 2.0).sum(),
             [x, g, b])
    check_op(lambda xs: (T.layer_norm(xs[0]) * T.layer_norm(xs[0])).sum(), [x])


def _layer_norm_ref(x, gamma, beta, g, eps=1e-5):
    """layer_norm forward and input gradient written with np.mean."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * inv
    dxhat = g * gamma
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return xhat * gamma + beta, dx


def _dwconv_ref(x, kernel, bias):
    """dwconv1d forward written with np.pad."""
    K, S = kernel.shape[0], x.shape[-2]
    half = K // 2
    xp = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(half, K - 1 - half), (0, 0)])
    out = np.zeros_like(x)
    for k in range(K):
        out = out + xp[..., k:k + S, :] * kernel[k]
    return out + bias


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_and_dwconv_match_mean_and_pad_bitwise(dtype):
    rng = np.random.default_rng(12)
    for shape in [(3, 7, 16), (2, 5, 64), (4, 33)]:
        x = (3.0 * rng.standard_normal(shape) + 0.7).astype(dtype)
        gamma = rng.standard_normal(shape[-1]).astype(dtype)
        beta = rng.standard_normal(shape[-1]).astype(dtype)
        g = rng.standard_normal(shape).astype(dtype)
        xt = Tensor(x, requires_grad=True)
        out = T.layer_norm(xt, Tensor(gamma), Tensor(beta))
        T.tsum(out * Tensor(g)).backward()
        ref_out, ref_dx = _layer_norm_ref(x, gamma, beta, g)
        assert out.data.dtype == dtype
        assert out.data.tobytes() == ref_out.tobytes()
        assert xt.grad.tobytes() == ref_dx.tobytes()
    for K in (1, 4, 5):
        x = rng.standard_normal((2, 9, 6)).astype(dtype)
        kernel = rng.standard_normal((K, 6)).astype(dtype)
        bias = rng.standard_normal(6).astype(dtype)
        out = T.dwconv1d(Tensor(x), Tensor(kernel), Tensor(bias))
        assert out.data.dtype == dtype
        assert out.data.tobytes() == _dwconv_ref(x, kernel, bias).tobytes()


def test_embedding_and_gather_gradients():
    rng = np.random.default_rng(108)
    table = _rand(rng, 11, 5)
    ids = rng.integers(0, 11, size=(3, 4))
    check_op(lambda xs: (T.embedding(xs[0], ids) ** 2.0).sum(), [table])
    logits = _rand(rng, 3, 4, 9)
    pick = rng.integers(0, 9, size=(3, 4))
    check_op(lambda xs: T.gather_last(T.log_softmax(xs[0]), pick).sum(), [logits])


def test_dwconv_gradients():
    rng = np.random.default_rng(109)
    x = _rand(rng, 2, 8, 3)
    k = _rand(rng, 5, 3)
    b = _rand(rng, 3)
    check_op(lambda xs: (T.dwconv1d(xs[0], xs[1], xs[2]) ** 2.0).mean(), [x, k, b])


def test_clip_gradient_masks_outside():
    x = _p([-2.0, -0.5, 0.0, 0.5, 2.0])
    y = T.clip(x, -1.0, 1.0).sum()
    y.backward()
    assert np.array_equal(x.grad, np.array([0, 1, 1, 1, 0], dtype=np.float32))


def test_no_grad_suppresses_tape():
    x = _p([1.0, 2.0])
    with T.no_grad():
        y = (x * x).sum()
    assert y._backward is None and y._parents == ()


def test_gaussian_sample_deterministic():
    a = gaussian_sample((2, 2), seed=7)
    b = gaussian_sample((2, 2), seed=7)
    assert np.array_equal(a.data, b.data)
    assert a.data.dtype == np.float32
    c = gaussian_sample((2, 2), seed=8)
    assert not np.array_equal(a.data, c.data)


def test_gaussian_sample_statistics():
    # independent check with numpy's own estimators at n=100000
    for seed in (0, 1337, 2**63):
        x = gaussian_sample((100000,), seed=seed).data
        assert -0.02 < float(np.mean(x)) < 0.02
        assert 0.98 < float(np.std(x)) < 1.02


def test_gaussian_sample_rejects_zero_extent():
    with pytest.raises(ValueError):
        gaussian_sample((0,), seed=1)
    with pytest.raises(ValueError):
        gaussian_sample((3, 0, 2), seed=1)
    with pytest.raises(ValueError):
        gaussian_sample((), seed=1)


def test_euler_step_contract():
    z = Tensor(np.zeros((2, 3), dtype=np.float32))
    v = Tensor(np.ones((2, 3), dtype=np.float32))
    out = euler_step(z, v, gamma=0.01, dt=1.0)
    assert np.allclose(out.data, 0.01)
    same = euler_step(z, Tensor(np.zeros((2, 3), dtype=np.float32)), 0.01, 0.5)
    assert np.array_equal(same.data, z.data)


def test_euler_two_half_steps_match_full_step():
    rng = np.random.default_rng(110)
    z = Tensor(_rand := rng.standard_normal((4, 6)).astype(np.float32))
    v = Tensor(rng.standard_normal((4, 6)).astype(np.float32))
    full = euler_step(z, v, 0.01, 1.0)
    half = euler_step(euler_step(z, v, 0.01, 0.5), v, 0.01, 0.5)
    assert np.abs(full.data - half.data).max() < 1e-6


def test_euler_step_preconditions():
    z = Tensor(np.zeros((2, 2), dtype=np.float32))
    v = Tensor(np.zeros((2, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        euler_step(z, v, 0.01, 1.0)
    v = Tensor(np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        euler_step(z, v, -0.01, 1.0)
    with pytest.raises(ValueError):
        euler_step(z, v, 0.01, 0.0)


def test_ops_bit_identical_across_calls():
    rng = np.random.default_rng(111)
    x = _rand(rng, 8, 8)
    y = _rand(rng, 8, 8)
    first = T.matmul(T.log_softmax(Tensor(x)), Tensor(y)).data
    second = T.matmul(T.log_softmax(Tensor(x)), Tensor(y)).data
    assert np.array_equal(first, second)


def test_float32_preserved_through_ops():
    x = Tensor(np.ones((3, 3), dtype=np.float32))
    y = T.tanh(x * 0.5 + 1.0)
    assert y.data.dtype == np.float32
    z = T.layer_norm(y)
    assert z.data.dtype == np.float32


def _attention_query_major(q, k, v, scale, g):
    """softmax(q k^T * scale) v and its input gradients for upstream `g`,
    with the scores held query-major (..., S, T)."""
    sw = lambda a: np.swapaxes(a, -1, -2)  # noqa: E731
    scores = (q @ sw(k)) * np.float32(scale)
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    attn = e / e.sum(axis=-1, keepdims=True)
    g_attn = g @ sw(v)
    g_scores = attn * (g_attn - (g_attn * attn).sum(axis=-1, keepdims=True))
    g_scores *= np.float32(scale)
    return attn @ v, g_scores @ k, sw(g_scores) @ q, sw(attn) @ g


def _split_heads(a, n_heads):
    B, S, dim = a.shape
    return a.reshape(B, S, n_heads, dim // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(a):
    B, H, S, hd = a.shape
    return a.transpose(0, 2, 1, 3).reshape(B, S, H * hd)


@pytest.mark.parametrize("S,Tk", [(8, 16), (24, 32), (16, 32)])
def test_attention_core_matches_query_major_reference(S, Tk):
    rng = np.random.default_rng(120 + Tk)
    q, k, v = _rand(rng, 3, S, 32), _rand(rng, 3, Tk, 32), _rand(rng, 3, Tk, 32)
    g = _rand(rng, 3, S, 32)
    ts = [Tensor(a, requires_grad=True) for a in (q, k, v)]
    out = T.attention_core(*ts, 4)
    T.tsum(out * Tensor(g)).backward()
    ref = _attention_query_major(*(_split_heads(a, 4) for a in (q, k, v)),
                                 1.0 / np.sqrt(8), _split_heads(g, 4))
    for name, got, want in zip(("out", "gq", "gk", "gv"),
                               [out.data] + [t.grad for t in ts], ref):
        assert got.dtype == np.float32
        # float32 rounding only: the sum orders differ between layouts
        np.testing.assert_allclose(got, _merge_heads(want), rtol=1e-5,
                                   atol=1e-6, err_msg=name)


def _attention_key_major(q, k, v, n_heads, g):
    """Split heads, key-major softmax(q k^T * scale) v, merge heads, and the
    input gradients for upstream `g`: the split/attend/merge path as three
    separate steps, with numpy's own max and sum over the key axis."""
    sw = lambda a: np.swapaxes(a, -1, -2)  # noqa: E731
    q4, k4, v4, g4 = (_split_heads(a, n_heads) for a in (q, k, v, g))
    scale = 1.0 / np.sqrt(q.shape[-1] // n_heads)
    attn_t = k4 @ sw(q4)
    attn_t *= attn_t.dtype.type(scale)
    attn_t -= attn_t.max(axis=-2, keepdims=True)
    np.exp(attn_t, out=attn_t)
    attn_t /= attn_t.sum(axis=-2, keepdims=True)
    out = sw(attn_t) @ v4
    gv = attn_t @ g4
    g_st = v4 @ sw(g4)
    g_st -= (g_st * attn_t).sum(axis=-2, keepdims=True)
    g_st *= attn_t
    g_st *= g_st.dtype.type(scale)
    return [_merge_heads(a) for a in (out, sw(g_st) @ k4, g_st @ q4, gv)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("B", [1, 64])
@pytest.mark.parametrize("S,Tk,dim", [(32, 32, 64), (32, 32, 32), (32, 16, 64)],
                         ids=["encoder", "decoder", "cross"])
def test_attention_core_matches_split_path_bitwise(S, Tk, dim, B, dtype):
    rng = np.random.default_rng(140 + B + dim)
    q, k, v, g = (rng.standard_normal(shape).astype(dtype) for shape in
                  ((B, S, dim), (B, Tk, dim), (B, Tk, dim), (B, S, dim)))
    ts = [Tensor(a, requires_grad=True) for a in (q, k, v)]
    out = T.attention_core(*ts, 8)
    T.tsum(out * Tensor(g)).backward()
    ref = _attention_key_major(q, k, v, 8, g)
    for name, got, want in zip(("out", "gq", "gk", "gv"),
                               [out.data] + [t.grad for t in ts], ref):
        assert got.dtype == dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("Tk", [1, 2, 3, 5, 8, 16, 17, 31, 32, 33])
def test_key_axis_reductions_match_numpy_bitwise(Tk, dtype):
    rng = np.random.default_rng(150 + Tk)
    for lead in [(1,), (3, 4), (2, 8)]:
        for S in (1, 7, 32):
            a, b = (rng.standard_normal(lead + (Tk, S)).astype(dtype)
                    for _ in range(2))
            np.exp(a, out=a)
            got_max = T._max_keys(a)
            assert got_max.tobytes() == a.max(axis=-2, keepdims=True).tobytes()
            assert got_max.shape == lead + (1, S)
            assert T._sum_keys(a).tobytes() == a.sum(axis=-2).tobytes()
            assert T._sum_keys(a, b).tobytes() == (a * b).sum(axis=-2).tobytes()


def _node_out_and_grads(op, arrays, g, **kw):
    ts = [None if a is None else Tensor(a, requires_grad=True) for a in arrays]
    out = op(*ts, **kw)
    return [out.data] + list(out._backward(g))


def _ref_affine(x, w, b, g):
    g2 = g.reshape(-1, w.shape[-1])
    return [x @ w + b, (g2 @ w.T).reshape(x.shape),
            x.reshape(-1, x.shape[-1]).T @ g2, g2.sum(axis=0)]


def _ref_layer_norm(x, gamma, beta, g, eps=1e-5):
    n = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / n
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).sum(axis=-1, keepdims=True) / n + eps)
    xhat = xc * inv
    dxhat = g if gamma is None else g * gamma
    m1 = dxhat.sum(axis=-1, keepdims=True) / n
    m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / n
    dx = inv * (dxhat - m1 - xhat * m2)
    if gamma is None:
        return [xhat, dx]
    lead = tuple(range(x.ndim - 1))
    return [xhat * gamma + beta, dx, (g * xhat).sum(axis=lead),
            g.sum(axis=lead)]


def _ref_tanh(x, g):
    y = np.tanh(x)
    return [y, g * (1.0 - y * y)]


def _ref_logsumexp(x, g, axis, keepdims):
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=axis, keepdims=True)
    y = np.log(s) + m
    if not keepdims:
        y = np.squeeze(y, axis=axis)
        g = np.expand_dims(g, axis)
    return [y, g * (e / s)]


def _ref_dwconv(x, kernel, bias, g):
    K, S = kernel.shape[0], x.shape[-2]
    half = K // 2
    xp = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(half, K - 1 - half), (0, 0)])
    out = np.zeros_like(x)
    gxp = np.zeros_like(xp)
    gk = np.zeros_like(kernel)
    for k in range(K):
        out = out + xp[..., k:k + S, :] * kernel[k]
        gxp[..., k:k + S, :] += g * kernel[k]
        gk[k] = (xp[..., k:k + S, :] * g).reshape(-1, x.shape[-1]).sum(axis=0)
    return [out + bias, gxp[..., half:half + S, :], gk,
            g.reshape(-1, g.shape[-1]).sum(axis=0)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ops_match_unfused_formulas_bitwise(dtype):
    """Forward values and backward closures equal the formulas written with
    a fresh temporary per step."""
    rng = np.random.default_rng(160)
    r = lambda *shape: rng.standard_normal(shape).astype(dtype)  # noqa: E731
    for lead in [(1, 5), (4, 32), (7,)]:
        x, g = 3.0 * r(*lead, 64) + 0.5, r(*lead, 64)
        w, b, gw = r(64, 24), r(24), r(*lead, 24)
        gamma, beta = r(64), r(64)
        cases = [
            (T.affine, [x, w, b], gw, {}, _ref_affine(x, w, b, gw)),
            (T.layer_norm, [x, gamma, beta], g, {},
             _ref_layer_norm(x, gamma, beta, g)),
            (T.layer_norm, [x], g, {}, _ref_layer_norm(x, None, None, g)),
            (T.tanh, [x], g, {}, _ref_tanh(x, g)),
        ]
        for K in (1, 4, 5):
            kernel = r(K, 64)
            cases.append((T.dwconv1d, [x, kernel, beta], g, {},
                          _ref_dwconv(x, kernel, beta, g)))
        for axis in range(-1, -len(lead) - 2, -1):
            for keepdims in (False, True):
                y = _ref_logsumexp(x, g, axis, True)[0]
                gl = y if keepdims else np.squeeze(y, axis=axis)
                cases.append((T.logsumexp, [x], gl,
                              {"axis": axis, "keepdims": keepdims},
                              _ref_logsumexp(x, gl, axis, keepdims)))
        for op, arrays, gout, kw, want in cases:
            got = _node_out_and_grads(op, arrays, gout, **kw)
            assert len(got) == len(want), op.__name__
            for i, (a, e) in enumerate(zip(got, want)):
                label = f"{op.__name__} {kw} lead={lead} output {i}"
                assert a.dtype == dtype and a.shape == e.shape, label
                assert a.tobytes() == e.tobytes(), label


def test_affine_backward_skips_frozen_parents():
    rng = np.random.default_rng(130)
    x, w, b, g = (_rand(rng, 2, 5, 4), _rand(rng, 4, 3), _rand(rng, 3),
                  _rand(rng, 2, 5, 3))
    g2 = g.reshape(-1, 3)
    want_gx = (g2 @ w.T).reshape(x.shape)
    want_gw = x.reshape(-1, 4).T @ g2
    want_gb = g2.sum(axis=0)

    # frozen weight and bias: only the input takes a gradient
    gx, gw, gb = T.affine(_p(x), Tensor(w), Tensor(b))._backward(g)
    assert gw is None and gb is None
    assert gx.tobytes() == want_gx.tobytes()
    # constant input: only the weight and bias do
    gx, gw, gb = T.affine(Tensor(x), _p(w), _p(b))._backward(g)
    assert gx is None
    assert gw.tobytes() == want_gw.tobytes()
    assert gb.tobytes() == want_gb.tobytes()
    # an input computed on the tape takes one even when not a leaf
    xi = T.tanh(_p(x))
    gx, _, _ = T.affine(xi, Tensor(w), Tensor(b))._backward(g)
    assert gx.tobytes() == want_gx.tobytes()


def test_layer_norm_backward_skips_frozen_gain_and_offset():
    rng = np.random.default_rng(131)
    x, gamma, beta, g = (_rand(rng, 3, 6), _rand(rng, 6), _rand(rng, 6),
                         _rand(rng, 3, 6))
    dx, dgamma, dbeta = T.layer_norm(_p(x), _p(gamma), _p(beta))._backward(g)
    fx, fgamma, fbeta = T.layer_norm(_p(x), Tensor(gamma),
                                     Tensor(beta))._backward(g)
    assert fgamma is None and fbeta is None
    assert fx.tobytes() == dx.tobytes()
    cx, cgamma, cbeta = T.layer_norm(Tensor(x), _p(gamma),
                                     _p(beta))._backward(g)
    assert cx is None
    assert cgamma.tobytes() == dgamma.tobytes()
    assert cbeta.tobytes() == dbeta.tobytes()
