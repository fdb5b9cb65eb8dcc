"""Substrate checks: op gradients vs central differences, softmax, sampling."""

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
        return T.log(p["bad"]).sum()  # perturbing below zero goes non-finite

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
        check_op(lambda xs: T.log(xs[0] * xs[0] + 1.0).sum(), [a])
        check_op(lambda xs: T.sqrt(xs[0] * xs[0] + 0.5).sum(), [a])
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
        s = T.softmax(x, axis=-1)
        # positivity holds whenever the logit spread stays inside float32
        # exp range; the huge-scale row only needs the sum contract
        if scale <= 10.0:
            assert (s.data > 0).all()
        assert (s.data >= 0).all()
        sums = s.data.sum(axis=-1, dtype=np.float64)
        assert np.abs(sums - 1.0).max() < 1e-6


def test_softmax_family_gradients():
    rng = np.random.default_rng(106)
    a = _rand(rng, 3, 7)
    w = _rand(rng, 3, 7)
    check_op(lambda xs: (T.softmax(xs[0]) * xs[1]).sum(), [a, w])
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
    first = T.matmul(T.softmax(Tensor(x)), Tensor(y)).data
    second = T.matmul(T.softmax(Tensor(x)), Tensor(y)).data
    assert np.array_equal(first, second)


def test_float32_preserved_through_ops():
    x = Tensor(np.ones((3, 3), dtype=np.float32))
    y = T.tanh(x * 0.5 + 1.0)
    assert y.data.dtype == np.float32
    z = T.layer_norm(y)
    assert z.data.dtype == np.float32
