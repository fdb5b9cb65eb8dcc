"""Positive diagonal metric: identity init, bounds, normalization."""

import numpy as np
import pytest

from draftflow import metricnet as M
from draftflow import tensor as T
from draftflow.gradcheck import grad_check
from draftflow.tensor import Tensor


def _inputs(B=3, S=4, d=8, seed=0):
    z_t = T.gaussian_sample((B, S, d), seed)
    z_p = T.gaussian_sample((B, S, d), seed + 1)
    return z_t, z_p


def test_identity_at_init():
    net = M.MetricNet(M.MetricConfig(d=8))
    z_t, z_p = _inputs()
    g = net.metric_diag(z_t, 0.3, z_p).data
    assert np.array_equal(g, np.ones_like(g))


def test_positive_and_mean_one():
    net = M.MetricNet(M.MetricConfig(d=8, seed=1))
    # push the second layer off zero so the metric is non-trivial
    net.l2.w.data[:] = T.rng_for(2).normal(size=net.l2.w.shape).astype(np.float32)
    z_t, z_p = _inputs(seed=3)
    g = net.metric_diag(z_t, 0.5, z_p).data
    assert (g > 0).all()
    assert np.abs(g.mean(axis=-1) - 1.0).max() < 1e-6
    assert g.std() > 0.01


def test_entries_within_clamp_bounds():
    # each entry is exp(c)/mean(exp(c)) with c in [-0.5, 0.5], so the
    # rescaled value stays inside [e^-1, e^1] by interval arithmetic
    net = M.MetricNet(M.MetricConfig(d=8, seed=1))
    net.l2.w.data[:] = 50.0
    net.l2.b.data[:] = T.rng_for(5).normal(size=net.l2.b.shape).astype(np.float32) * 10
    z_t, z_p = _inputs(seed=4)
    g = net.metric_diag(z_t, 0.9, z_p).data
    assert g.min() >= np.exp(-1.0) - 1e-6
    assert g.max() <= np.exp(1.0) + 1e-6


def test_time_validation_and_determinism():
    net = M.MetricNet(M.MetricConfig(d=8))
    z_t, z_p = _inputs()
    for t in (-0.01, 1.01):
        with pytest.raises(ValueError):
            net.metric_diag(z_t, t, z_p)
    a = net.metric_diag(z_t, 0.0, z_p).data
    b = net.metric_diag(z_t, 0.0, z_p).data
    assert np.array_equal(a, b)


def test_shape_validation():
    net = M.MetricNet(M.MetricConfig(d=8))
    z_t, z_p = _inputs()
    with pytest.raises(ValueError):
        net.metric_diag(z_t[0], 0.5, z_p[0])
    with pytest.raises(ValueError):
        net.metric_diag(T.gaussian_sample((3, 4, 6), 0), 0.5, z_p)


def test_config_validation():
    # the hidden width is fixed at 4d
    assert M.MetricNet(M.MetricConfig(d=8)).l1.w.shape == (18, 32)


def test_metric_reg_values():
    assert float(M.metric_reg(Tensor(np.ones(4, dtype=np.float32))).data) == 0.0
    g = Tensor(np.array([1.1, 0.9], dtype=np.float32))
    assert float(M.metric_reg(g).data) == pytest.approx(0.02, abs=1e-7)
    # batched: mean over slots of per-slot sums
    gb = Tensor(np.full((5, 3, 2), 1.1, dtype=np.float32))
    assert float(M.metric_reg(gb).data) == pytest.approx(0.02, abs=1e-6)


def test_metric_reg_gradcheck():
    net = M.MetricNet(M.MetricConfig(d=8, seed=9))
    # keep raw logits clear of the clamp boundary: clipped entries have a
    # flat gradient and would fail finite differences for the wrong reason
    net.l2.w.data[:] = 0.03 * T.rng_for(6).normal(
        size=net.l2.w.shape).astype(np.float32)
    z_t, z_p = _inputs(seed=7)

    def loss_fn(params):
        g = net.metric_diag(z_t, 0.4, z_p)
        return M.metric_reg(g)

    # small eps: the reg sits near its quadratic minimum, so central
    # differences need a fine step to beat truncation error
    err = grad_check(loss_fn, net.store, eps=3e-4, max_entries_per_param=6)
    assert err < 1e-4, f"relative error {err:.3e}"


def test_metric_stats():
    with pytest.raises(ValueError):
        M.metric_stats(np.zeros((0,)))
    s = M.metric_stats(np.ones((3, 4)))
    assert s == {"std": 0.0, "min": 1.0, "max": 1.0}
    s = M.metric_stats(np.array([0.5, 1.5]))
    assert s["std"] == pytest.approx(0.5)
    assert s["min"] == 0.5 and s["max"] == 1.5
