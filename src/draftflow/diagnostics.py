"""Decoder-recoverability diagnostics.

Everything here reads frozen models: recoverability metrics (CE, target-token
probability, top-1), the latent interpolation curve, the cosine-constrained
adversarial probe separating geometric similarity from decodability, surface
statistics of decoded text, and the steps-versus-latency sweep.

All recoverability metrics are computed only over mask-true suffix positions.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .corpus import EOS, PAD
from .tensor import Tensor, no_grad


@dataclass
class DiagnosticReport:
    """Flat metric bundle; latency fields stay 0.0 when not measured."""

    ce: float = 0.0
    p_target: float = 0.0
    top1: float = 0.0
    distinct1: float = 0.0
    distinct2: float = 0.0
    repetition: float = 0.0
    avg_length: float = 0.0
    latency_s: float = 0.0
    tokens_per_s: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class InterpolationCurve:
    alphas: list
    ce_values: list

    def __post_init__(self):
        if len(self.alphas) != len(self.ce_values):
            raise ValueError("alphas and ce_values must have equal length")
        if any(b <= a for a, b in zip(self.alphas, self.alphas[1:])):
            raise ValueError("alphas must be strictly increasing")


DEFAULT_INTERP_ALPHAS = [0.0, 0.01, 0.03, 0.05, 0.10, 0.20, 0.50, 1.0]


# -- core recoverability ----------------------------------------------------


def _suffix_stats(model, z_full, ids, mask):
    """Per-position true-token log-probs/probs/hits over suffix real slots."""
    ids = np.atleast_2d(np.asarray(ids))
    mask = np.atleast_2d(np.asarray(mask))
    m = model.config.m
    smask = mask[:, m:]
    if not smask.any():
        raise ValueError("no real suffix positions under the mask")
    with no_grad():
        logits = model.decode_array(z_full)
    logp = T.log_softmax(logits, axis=-1).data[:, m:, :]
    true_lp = np.take_along_axis(logp, ids[:, m:, None], axis=-1)[..., 0]
    hits = logp.argmax(axis=-1) == ids[:, m:]
    return true_lp, hits, smask, logp


def recoverability(model, z_full, ids, mask, per_example: bool = False):
    """CE, mean target-token probability, and top-1 over suffix real slots."""
    true_lp, hits, smask, _ = _suffix_stats(model, z_full, ids, mask)
    w = smask.astype(np.float64)
    n = w.sum()
    out = {
        "ce": float(-(true_lp * w).sum() / n),
        "p_target": float((np.exp(true_lp.astype(np.float64)) * w).sum() / n),
        "top1": float((hits * w).sum() / n),
    }
    if per_example:
        per_n = np.maximum(w.sum(axis=1), 1.0)
        out["ce_per_example"] = -(true_lp * w).sum(axis=1) / per_n
        out["p_target_per_example"] = (np.exp(true_lp.astype(np.float64)) * w).sum(axis=1) / per_n
    return out


# -- interpolation ----------------------------------------------------------


def interpolation_diagnostic(model, z_hat_suffix, z_s_suffix, z_p, ids, mask,
                             alphas=None) -> InterpolationCurve:
    """Decoder CE along the line from generated to real suffix latents."""
    alphas = list(DEFAULT_INTERP_ALPHAS if alphas is None else alphas)
    z_hat = np.asarray(z_hat_suffix, dtype=np.float32)
    z_s = np.asarray(z_s_suffix, dtype=np.float32)
    z_p = np.asarray(z_p, dtype=np.float32)
    ces = []
    for a in alphas:
        if a == 0.0:
            z_a = z_hat
        elif a == 1.0:
            z_a = z_s
        else:
            z_a = (1.0 - np.float32(a)) * z_hat + np.float32(a) * z_s
        z_full = np.concatenate([z_p, z_a], axis=1)
        ces.append(recoverability(model, z_full, ids, mask)["ce"])
    return InterpolationCurve(alphas, ces)


# -- dissociation probe -----------------------------------------------------


def _cosine_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    num = (a * b).sum(axis=1)
    return num / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1) + 1e-12)


def _project_to_cone(z: np.ndarray, ref_unit: np.ndarray, floor: float) -> np.ndarray:
    """Pull rows of z back inside the cone cos(z, ref) >= floor."""
    radial = (z * ref_unit).sum(axis=1, keepdims=True)
    ortho = z - radial * ref_unit
    onorm = np.linalg.norm(ortho, axis=1, keepdims=True)
    cos = radial / np.sqrt(radial ** 2 + onorm ** 2 + 1e-24)
    bad = (cos < floor).ravel()
    if not bad.any():
        return z
    max_tan = np.sqrt(1.0 - floor * floor) / floor
    # clamp the orthogonal component; negative radial collapses to the axis
    radial_c = np.maximum(radial, 1e-6)
    limit = radial_c * max_tan
    scale = np.where((onorm > limit) & bad[:, None] & (onorm > 0),
                     limit / np.maximum(onorm, 1e-24), 1.0)
    fixed = radial_c * ref_unit + ortho * scale
    return np.where(bad[:, None], fixed, z).astype(z.dtype)


def dissociation_probe(model, z_full_real, ids, mask, cosine_floor: float = 0.99,
                       step_budget: int = 200, step_scale: float = 0.05,
                       target_ratio: float = 0.5):
    """Adversarial suffix latents: high cosine to the real latent, low P_target.

    Gradient-ascends decoder CE with respect to the suffix latent, projecting
    back inside the cosine cone after every step; stops early per example
    once its P_target falls below target_ratio times the real-latent value.
    Returns per-example arrays plus a success summary; exhausted budgets are
    flagged, never raised.
    """
    if not 0.9 < cosine_floor < 1.0:
        raise ValueError("cosine_floor must lie in (0.9, 1)")
    z_real = np.asarray(z_full_real, dtype=np.float32)
    ids = np.atleast_2d(np.asarray(ids))
    mask = np.atleast_2d(np.asarray(mask))
    m = model.config.m
    B = z_real.shape[0]
    S, d = z_real.shape[1] - m, z_real.shape[2]
    z_p = z_real[:, :m, :]
    z_s = z_real[:, m:, :].reshape(B, S * d).astype(np.float64)
    ref_unit = z_s / np.linalg.norm(z_s, axis=1, keepdims=True)

    base = recoverability(model, z_real, ids, mask, per_example=True)
    base_pt = base["p_target_per_example"]
    goal = target_ratio * base_pt

    smask = mask[:, m:]
    w = smask.astype(np.float32)
    denom = np.maximum(w.sum(axis=1), 1.0)
    step_len = step_scale * np.linalg.norm(z_s, axis=1, keepdims=True)

    z_adv = z_s.copy()
    done = np.zeros(B, dtype=bool)
    steps_used = np.zeros(B, dtype=np.int64)
    for step in range(step_budget):
        if done.all():
            break
        zt = Tensor(z_adv.reshape(B, S, d).astype(np.float32), requires_grad=True)
        z_cat = T.concat([Tensor(z_p), zt], axis=1)
        logits = model.decode_array(z_cat)
        logp = T.log_softmax(logits, axis=-1)
        true_lp = T.gather_last(logp, ids)[:, m:]
        ce_per = T.tsum(true_lp * Tensor(-w), axis=1) / Tensor(denom)
        # ascend only unfinished rows
        T.tsum(ce_per * Tensor((~done).astype(np.float32))).backward()
        g = zt.grad.reshape(B, S * d).astype(np.float64)
        gn = np.linalg.norm(g, axis=1, keepdims=True)
        g = np.where(gn > 0, g / np.maximum(gn, 1e-24), 0.0)
        proposal = _project_to_cone(z_adv + step_len * g, ref_unit, cosine_floor)
        z_adv = np.where(done[:, None], z_adv, proposal)
        steps_used[~done] = step + 1
        with no_grad():
            z_cat_now = np.concatenate(
                [z_p, z_adv.reshape(B, S, d).astype(np.float32)], axis=1)
            now = recoverability(model, z_cat_now, ids, mask, per_example=True)
        done = done | (now["p_target_per_example"] <= goal)

    z_adv32 = z_adv.reshape(B, S, d).astype(np.float32)
    final = recoverability(
        model, np.concatenate([z_p, z_adv32], axis=1), ids, mask,
        per_example=True)
    cos = _cosine_rows(z_adv, z_s)
    succ = final["p_target_per_example"] <= goal
    return {
        "z_adv": z_adv32,
        "cosine": cos,
        "p_target": final["p_target_per_example"],
        "p_target_real": base_pt,
        "success": succ,
        "success_rate": float(succ.mean()),
        "steps_used": steps_used,
        "budget_exhausted": bool((~succ).any()),
    }


def matched_norm_random_probe(model, z_full_real, ids, mask, z_adv, seed: int):
    """Control for the probe: random perturbations of the same norms.

    Returns per-example P_target under a random direction whose perturbation
    norm matches ||z_adv - z_s|| for that example.
    """
    z_real = np.asarray(z_full_real, dtype=np.float32)
    m = model.config.m
    B = z_real.shape[0]
    S, d = z_real.shape[1] - m, z_real.shape[2]
    z_s = z_real[:, m:, :].reshape(B, S * d).astype(np.float64)
    delta = np.asarray(z_adv, dtype=np.float64).reshape(B, S * d) - z_s
    norms = np.linalg.norm(delta, axis=1, keepdims=True)
    rng = T.rng_for(seed)
    direction = rng.standard_normal((B, S * d))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    z_rand = (z_s + norms * direction).reshape(B, S, d).astype(np.float32)
    z_full = np.concatenate([z_real[:, :m, :], z_rand], axis=1)
    out = recoverability(model, z_full, ids, mask, per_example=True)
    return out["p_target_per_example"]


# -- surface metrics --------------------------------------------------------


def surface_metrics(token_lists) -> dict:
    """Distinct-1/2, adjacent-duplicate repetition, and pre-EOS length.

    `token_lists` holds decoded suffix token ids (or strings) per example;
    n-gram statistics run over tokens before the first EOS.
    """
    token_lists = list(token_lists)
    if not token_lists:
        raise ValueError("surface_metrics needs at least one decoded example")
    unigrams = set()
    bigrams = set()
    n_uni = 0
    n_bi = 0
    n_rep = 0
    n_rep_positions = 0
    lengths = []
    for toks in token_lists:
        toks = list(toks)
        cut = toks.index(EOS) if EOS in toks else len(toks)
        effective = [t for t in toks[:cut] if t != PAD]
        lengths.append(len(effective))
        unigrams.update(effective)
        n_uni += len(effective)
        for a, b in zip(effective, effective[1:]):
            bigrams.add((a, b))
            n_bi += 1
            n_rep_positions += 1
            if a == b:
                n_rep += 1
    return {
        "distinct1": len(unigrams) / n_uni if n_uni else 0.0,
        "distinct2": len(bigrams) / n_bi if n_bi else 0.0,
        "repetition": n_rep / n_rep_positions if n_rep_positions else 0.0,
        "avg_length": float(np.mean(lengths)),
    }


# -- quality-speed sweep ----------------------------------------------------


def quality_speed_sweep(infer_one, model, ids, mask, steps_list) -> list:
    """Per step count: recoverability, surface metrics, latency, tokens/s.

    `infer_one(i, steps)` runs the full pipeline for validation example `i`
    at the given step count and returns the final full-sequence latents
    (1, n, d). Latency is the median over examples of strictly serial
    batch-1 runs.
    """
    ids = np.atleast_2d(np.asarray(ids))
    mask = np.atleast_2d(np.asarray(mask))
    m = model.config.m
    B = ids.shape[0]
    rows = []
    for steps in steps_list:
        latents = []
        times = []
        for i in range(B):
            t0 = time.perf_counter()
            z_full = infer_one(i, steps)
            with no_grad():
                logits = model.decode_array(z_full)
                tokens = logits.data.argmax(axis=-1)
            times.append(time.perf_counter() - t0)
            latents.append(np.asarray(z_full.data if isinstance(z_full, Tensor)
                                      else z_full))
        z_all = np.concatenate(latents, axis=0)
        rec = recoverability(model, z_all, ids, mask)
        with no_grad():
            decoded = model.decode_array(z_all).data.argmax(axis=-1)[:, m:]
        surf = surface_metrics([list(row) for row in decoded])
        latency = float(np.median(times))
        report = DiagnosticReport(
            ce=rec["ce"], p_target=rec["p_target"], top1=rec["top1"],
            latency_s=latency,
            tokens_per_s=(ids.shape[1] - m) / latency if latency > 0 else 0.0,
            **surf)
        rows.append({"steps": steps, **report.as_dict()})
    return rows
