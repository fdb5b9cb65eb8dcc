"""Distribution-level latent alignment costs.

Two transport costs between point clouds of suffix-slot latents: entropic
Sinkhorn OT (log-domain, uniform marginals) and a sliced-Wasserstein cost
(random 1-D projections with quantile alignment). Both are plain evaluation
functions; Sinkhorn is also the tape-differentiable term of the stage-2
regularizer, where gradients flow into the generated cloud only and the
target cloud is held constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


@dataclass
class PointCloud:
    points: Tensor

    def __post_init__(self):
        if not isinstance(self.points, Tensor):
            self.points = Tensor(np.asarray(self.points, dtype=np.float32))
        if self.points.ndim != 2 or self.points.shape[0] < 1:
            raise ValueError("point cloud must be a non-empty (k, d) array")
        if not np.isfinite(self.points.data).all():
            raise ValueError("point cloud contains non-finite values")


@dataclass
class SinkhornResult:
    cost: float
    plan: np.ndarray
    converged: bool
    iters: int
    epsilon: float


def _points(cloud) -> Tensor:
    if isinstance(cloud, PointCloud):
        return cloud.points
    return PointCloud(cloud).points


def _sq_dists(a: Tensor, b_const: np.ndarray) -> Tensor:
    """Pairwise squared distances, tape on the first argument only."""
    dt = a.data.dtype
    bt = b_const.astype(dt, copy=False)
    a_sq = T.tsum(a * a, axis=1, keepdims=True)
    b_sq = (bt * bt).sum(axis=1)[None, :]
    cross = T.matmul(a, Tensor(bt.T.copy()))
    dists = a_sq + Tensor(b_sq) - Tensor(dt.type(2.0)) * cross
    # cancellation can leave tiny negatives on near-identical points
    return T.clip(dists, 0.0, np.inf)


def default_epsilon(cost: np.ndarray) -> float:
    # degenerate all-identical clouds give a zero mean distance; floor it
    return max(0.05 * float(cost.mean()), 1e-6)


def _sinkhorn_tensor(a: Tensor, b: np.ndarray, epsilon, max_iters: int,
                     tol: float):
    k, l = a.shape[0], b.shape[0]
    dt = a.data.dtype
    cost = _sq_dists(a, b)
    eps = default_epsilon(cost.data) if epsilon is None else float(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    inv = Tensor(dt.type(1.0 / eps))
    log_mu = dt.type(np.log(1.0 / k))
    log_nu = dt.type(np.log(1.0 / l))
    f = Tensor(np.zeros((k, 1), dtype=dt))
    g = Tensor(np.zeros((1, l), dtype=dt))
    scaled_c = cost * inv
    converged = False
    iters = 0
    eps_t = Tensor(dt.type(eps))
    for iters in range(1, max_iters + 1):
        f = eps_t * (Tensor(log_mu) - T.logsumexp(
            g * inv - scaled_c, axis=1, keepdims=True))
        g = eps_t * (Tensor(log_nu) - T.logsumexp(
            f * inv - scaled_c, axis=0, keepdims=True))
        with T.no_grad():
            log_plan = (f.data + g.data - cost.data) / eps
            plan = np.exp(log_plan, dtype=np.float64)
            err = max(np.abs(plan.sum(axis=1) - 1.0 / k).sum(),
                      np.abs(plan.sum(axis=0) - 1.0 / l).sum())
        if err < tol:
            converged = True
            break
    log_plan_t = (f + g - cost) * inv
    total = T.tsum(T.exp(log_plan_t) * cost)
    return total, plan, converged, iters, eps


def sinkhorn_cost(A, B, epsilon=None, max_iters: int = 200,
                  tol: float = 1e-6) -> SinkhornResult:
    """Entropic OT cost <plan, squared distances> with uniform marginals.

    Non-convergence is flagged in the result, never raised. epsilon=None
    picks 0.05 x mean pairwise squared distance.
    """
    a, b = _points(A), _points(B)
    if a.shape[1] != b.shape[1]:
        raise ValueError("clouds must share dimensionality")
    with T.no_grad():
        total, plan, converged, iters, eps = _sinkhorn_tensor(
            Tensor(a.data.astype(np.float64)), b.data.astype(np.float64),
            epsilon, max_iters, tol)
    return SinkhornResult(cost=float(total.data), plan=plan,
                          converged=converged, iters=iters, epsilon=eps)


def _quantile_rows(sorted_proj: Tensor, k: int, n: int) -> Tensor:
    """Evaluate the empirical quantile function at n midpoint levels."""
    if k == n:
        return sorted_proj
    q = (np.arange(n) + 0.5) / n
    idx = np.minimum(np.ceil(q * k).astype(int) - 1, k - 1)
    idx[idx < 0] = 0
    return sorted_proj[idx]


def _sliced_tensor(a: Tensor, b: np.ndarray, n_projections: int, seed: int):
    k, l = a.shape[0], b.shape[0]
    d = a.shape[1]
    dt = a.data.dtype
    theta = T.rng_for(seed).standard_normal((d, n_projections))
    theta /= np.linalg.norm(theta, axis=0, keepdims=True)
    theta = theta.astype(dt)
    pa = T.matmul(a, Tensor(theta))
    pb = b.astype(dt) @ theta
    order_a = np.argsort(pa.data, axis=0, kind="stable")
    sa = pa[order_a, np.arange(n_projections)]
    sb = np.sort(pb, axis=0)
    n = max(k, l)
    sa = _quantile_rows(sa, k, n)
    sb_rows = _quantile_rows(Tensor(sb), l, n).data
    diff = sa - Tensor(sb_rows)
    return T.tmean(diff * diff)


def sliced_wasserstein(A, B, n_projections: int = 128, seed: int = 0) -> float:
    """Mean 1-D squared-Wasserstein cost over random unit directions."""
    if n_projections < 1:
        raise ValueError("need at least one projection")
    a, b = _points(A), _points(B)
    if a.shape[1] != b.shape[1]:
        raise ValueError("clouds must share dimensionality")
    with T.no_grad():
        total = _sliced_tensor(Tensor(a.data.astype(np.float64)),
                               b.data.astype(np.float64), n_projections, seed)
    return float(total.data)


def ot_regularized_loss(base_loss: Tensor, A, B, weight: float,
                        epsilon=None, max_iters: int = 200,
                        tol: float = 1e-6) -> Tensor:
    """base_loss + weight * Sinkhorn cost, differentiable through A only."""
    if weight < 0:
        raise ValueError("weight must be non-negative")
    if weight == 0.0:
        return base_loss
    a, b = _points(A), _points(B)
    cost, _, _, _, _ = _sinkhorn_tensor(a, b.data, epsilon, max_iters, tol)
    return base_loss + Tensor(np.float32(weight)) * cost
