"""Transport costs: Sinkhorn against a brute-force oracle, sliced fallback."""

import itertools

import numpy as np
import pytest

from draftflow import alignment as AL
from draftflow import nn
from draftflow import tensor as T
from draftflow.gradcheck import grad_check
from draftflow.tensor import Tensor


def _clouds(k=6, d=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(k, d)), rng.normal(size=(k, d))


def _brute_force_cost(A, B):
    # uniform k-point OT is attained at a permutation, so exhaustive
    # minimization over all matchings is an exact oracle for small k
    C = ((A[:, None, :] - B[None, :, :]) ** 2).sum(-1)
    k = len(A)
    return min(sum(C[i, p[i]] for i in range(k)) / k
               for p in itertools.permutations(range(k)))


def test_point_cloud_validation():
    with pytest.raises(ValueError):
        AL.PointCloud(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        AL.PointCloud(np.zeros(3))
    with pytest.raises(ValueError):
        AL.PointCloud(np.array([[np.nan, 0.0]]))


def test_sinkhorn_matches_permutation_oracle():
    # tiny epsilon can leave flat dual directions where marginals converge
    # sublinearly, so give the solver room; the cost locks on much earlier
    A, B = _clouds(k=3, seed=1)
    res = AL.sinkhorn_cost(A, B, epsilon=1e-3, max_iters=5000)
    exact = _brute_force_cost(A, B)
    assert abs(res.cost - exact) <= 0.02 * exact


def test_sinkhorn_self_transport():
    A, _ = _clouds(seed=2)
    res = AL.sinkhorn_cost(A, A, epsilon=1e-3)
    assert res.converged
    assert 0.0 <= res.cost < 1e-8
    assert np.abs(res.plan - np.eye(len(A)) / len(A)).max() < 1e-9


def test_sinkhorn_single_points_exact():
    for eps in (0.5, 5.0):
        res = AL.sinkhorn_cost(np.zeros((1, 3)), np.full((1, 3), 2.0),
                               epsilon=eps)
        assert res.cost == pytest.approx(12.0, abs=1e-9)
        assert res.plan.shape == (1, 1)
        assert res.plan[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_sinkhorn_nonconvergence_flagged_not_raised():
    A, B = _clouds(k=3, seed=1)
    res = AL.sinkhorn_cost(A, B, epsilon=1e-3, max_iters=50)
    assert not res.converged
    assert res.iters == 50
    assert np.isfinite(res.cost)


def test_sinkhorn_marginals_on_convergence():
    A, B = _clouds(seed=3)
    res = AL.sinkhorn_cost(A, B, epsilon=1.0, tol=1e-9, max_iters=500)
    assert res.converged
    k = len(A)
    assert np.abs(res.plan.sum(axis=1) - 1.0 / k).sum() < 1e-6
    assert np.abs(res.plan.sum(axis=0) - 1.0 / k).sum() < 1e-6


def test_sinkhorn_symmetry_and_translation():
    A, B = _clouds(seed=4)
    kw = dict(epsilon=1.0, tol=1e-9, max_iters=500)
    ab = AL.sinkhorn_cost(A, B, **kw).cost
    ba = AL.sinkhorn_cost(B, A, **kw).cost
    assert abs(ab - ba) < 1e-6
    shift = np.full((1, 4), 3.25)
    shifted = AL.sinkhorn_cost(A + shift, B + shift, **kw).cost
    assert abs(ab - shifted) < 1e-6


def test_sinkhorn_input_validation():
    A, B = _clouds(seed=5)
    with pytest.raises(ValueError):
        AL.sinkhorn_cost(A, B[:, :3])
    with pytest.raises(ValueError):
        AL.sinkhorn_cost(A, B, epsilon=0.0)
    with pytest.raises(ValueError):
        AL.sinkhorn_cost(np.zeros((0, 4)), B)


def test_sinkhorn_default_epsilon_converges_or_flags():
    A, B = _clouds(seed=6)
    res = AL.sinkhorn_cost(A, B)
    assert res.epsilon == pytest.approx(
        0.05 * ((A[:, None, :] - B[None, :, :]) ** 2).sum(-1).mean(), rel=1e-6)
    assert np.isfinite(res.cost) and res.cost >= 0.0


def test_sliced_identical_clouds_zero():
    A, _ = _clouds(seed=7)
    assert AL.sliced_wasserstein(A, A) == 0.0


def test_sliced_one_dimensional_exact():
    cost = AL.sliced_wasserstein(np.zeros((1, 1)), np.full((1, 1), 3.0),
                                 n_projections=7)
    assert cost == pytest.approx(9.0, abs=1e-12)


def test_sliced_gaussian_offset():
    # E[(mu . theta)^2] over uniform unit theta in d=2 is |mu|^2 / 2
    rng = np.random.default_rng(8)
    mu = np.array([2.0, 1.0])
    A = rng.normal(size=(2000, 2))
    B = rng.normal(size=(2000, 2)) + mu
    cost = AL.sliced_wasserstein(A, B, n_projections=1024, seed=3)
    expect = (mu ** 2).sum() / 2
    assert abs(cost - expect) <= 0.1 * expect


def test_sliced_symmetry_and_translation():
    A, B = _clouds(seed=9)
    ab = AL.sliced_wasserstein(A, B, seed=1)
    ba = AL.sliced_wasserstein(B, A, seed=1)
    assert abs(ab - ba) < 1e-6
    shift = np.full((1, 4), -2.5)
    shifted = AL.sliced_wasserstein(A + shift, B + shift, seed=1)
    assert abs(ab - shifted) < 1e-6


def test_sliced_unequal_sizes_and_determinism():
    rng = np.random.default_rng(10)
    A = rng.normal(size=(5, 3))
    B = rng.normal(size=(9, 3))
    c1 = AL.sliced_wasserstein(A, B, seed=4)
    c2 = AL.sliced_wasserstein(A, B, seed=4)
    c3 = AL.sliced_wasserstein(A, B, seed=5)
    assert c1 == c2
    assert c1 != c3
    assert c1 >= 0.0
    assert abs(c1 - AL.sliced_wasserstein(B, A, seed=4)) < 1e-9


def test_sliced_validation():
    A, B = _clouds(seed=11)
    with pytest.raises(ValueError):
        AL.sliced_wasserstein(A, B, n_projections=0)
    with pytest.raises(ValueError):
        AL.sliced_wasserstein(np.zeros((0, 4)), B)


def test_costs_nonnegative():
    for seed in range(5):
        A, B = _clouds(k=4, seed=100 + seed)
        assert AL.sinkhorn_cost(A, B, epsilon=0.5).cost >= 0.0
        assert AL.sliced_wasserstein(A, B, seed=seed) >= 0.0


def test_regularized_loss_weight_zero_is_base():
    A, B = _clouds(seed=12)
    base = Tensor(np.float32(1.5))
    out = AL.ot_regularized_loss(base, Tensor(A.astype(np.float32)),
                                 Tensor(B.astype(np.float32)), weight=0.0)
    assert out is base


def test_regularized_loss_validation():
    A, B = _clouds(seed=13)
    base = Tensor(np.float32(1.0))
    with pytest.raises(ValueError):
        AL.ot_regularized_loss(base, A, B, weight=-0.1)


def test_regularized_loss_identical_clouds_near_base():
    A, _ = _clouds(seed=14)
    a32 = A.astype(np.float32)
    base = Tensor(np.float32(2.0))
    out = AL.ot_regularized_loss(base, Tensor(a32), Tensor(a32.copy()),
                                 weight=1.0, epsilon=1e-3)
    assert float(out.data) == pytest.approx(2.0, abs=1e-5)


def test_gradcheck_through_sinkhorn():
    store = nn.ParamStore(rng_seed=1)
    cloud = store.add("cloud", (3, 4))
    target = np.random.default_rng(15).normal(size=(3, 4)).astype(np.float32)

    def loss_fn(params):
        base = T.tmean(cloud * cloud)
        return AL.ot_regularized_loss(base, cloud, Tensor(target), weight=0.5,
                                      epsilon=1e-3)

    err = grad_check(loss_fn, store, eps=1e-3, max_entries_per_param=12)
    assert err < 1e-3, f"relative error {err:.3e}"


def test_gradient_does_not_reach_target_cloud():
    a = Tensor(np.random.default_rng(17).normal(size=(4, 3)).astype(np.float32),
               requires_grad=True)
    b = Tensor(np.random.default_rng(18).normal(size=(4, 3)).astype(np.float32),
               requires_grad=True)
    base = T.tmean(a * a)
    out = AL.ot_regularized_loss(base, a, b, weight=1.0, epsilon=0.5)
    out.backward()
    assert a.grad is not None
    assert b.grad is None
