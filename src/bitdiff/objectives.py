"""Training objectives for reverse-process policies.

Three gradient estimators are provided:

- ``diffuco_loss_grad``: score-function estimator of the joint reverse-KL
  objective, tracing the whole path (memory grows with the step count). This
  is the baseline the step-minibatched objectives improve on.
- ``ppo_minibatch_grad``: clipped-surrogate policy gradient with a TD(lambda)
  critic over (path, timestep) minibatches.
- ``fkl_mc_grad``: importance-weighted forward-KL gradient with Monte Carlo
  subsampling of diffusion steps. The log-weights are computed once per
  rollout (``fkl_importance_weights``) and self-normalized per path group,
  so an update costs the same at any number of diffusion steps.

Conventions: the episode runs in reverse diffusion time, so step index
k = 0..T-1 corresponds to diffusion time t = T - k; all per-step buffer arrays
(rewards, returns, advantages) and the minibatch step indices of both step
objectives use episode order. The
temperature-scaled objective is ``temperature * KL(q || p_hat_target)``; the
annealing driver passes a target with beta = 1/temperature, which reproduces
the plain energy expectation at temperature zero.

The policy surrogate is scaled by T / (minibatch steps), which keeps the
estimator's expectation equal to the full objective gradient regardless of the
timestep-minibatch size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import minimum, tsum
from .config import RunConfig
from .diffusion import NoiseSchedule, PathBatch, forward_step_logp, path_log_p_hat
from .nets import bernoulli_entropy, bernoulli_log_q
from .energies import WeightSums
from .unbiased import self_normalize

__all__ = [
    "RewardNormalizer",
    "rl_rewards",
    "td_lambda_targets",
    "normalize_advantages",
    "TrajectoryBuffer",
    "build_buffer",
    "minibatch_plan",
    "ppo_minibatch_grad",
    "fkl_importance_weights",
    "fkl_mc_grad",
    "diffuco_loss_grad",
]


@dataclass
class RewardNormalizer:
    """Running mean/std of rewards with exponential update rate `rate`.

    The first batch initializes the statistics directly, so rescaling all
    rewards by a constant leaves normalized rewards unchanged from the start.
    """

    rate: float = 0.01
    mean: float = 0.0
    var: float = 1.0
    initialized: bool = False

    def update(self, rewards: np.ndarray) -> None:
        bm = float(rewards.mean())
        bv = float(rewards.var())
        if not self.initialized:
            self.mean, self.var, self.initialized = bm, bv, True
        else:
            self.mean += self.rate * (bm - self.mean)
            self.var += self.rate * (bv - self.var)

    def normalize(self, rewards: np.ndarray) -> np.ndarray:
        return (rewards - self.mean) / max(math.sqrt(max(self.var, 0.0)), 1e-8)


def rl_rewards(
    paths: PathBatch,
    energy: np.ndarray,
    target,
    schedule: NoiseSchedule,
    temperature: float,
) -> np.ndarray:
    """Per-step rewards in episode order (column k is diffusion step t = T - k).

    R = temperature * (log p(X_t | X_{t-1}) - log q(X_{t-1} | X_t)) for every
    step, with the extra terminal term -temperature*beta*H(X_0) that reproduces
    -H(X_0) under the annealing convention beta = 1/temperature. The
    undiscounted return of a path is then minus its contribution to the
    temperature-scaled joint reverse KL, up to parameter-free constants.
    `energy` holds the paths' H(X_0).
    """
    logp = forward_step_logp(paths, schedule)
    rewards = (temperature * (logp - paths.step_logq))[:, ::-1].copy()  # episode order
    rewards[:, -1] -= temperature * target.beta * energy
    return rewards


def td_lambda_targets(
    rewards: np.ndarray,
    values: np.ndarray,
    trace_decay: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Lambda-returns and raw advantages, both (M, T) in episode order.

    `values[:, k]` is V(X_{T-k}); the terminal value V(X_0) is zero. Computed
    undiscounted with the standard recursion A_k = delta_k + lambda*A_{k+1}, which
    equals the truncated lambda-return with the remaining weight on the full
    Monte Carlo return (so lambda=1 gives plain returns and lambda=0 the
    one-step bootstrap).
    """
    m, t_steps = rewards.shape
    if values.shape != rewards.shape:
        raise ValueError("values must align with rewards")
    adv = np.empty_like(rewards)
    last = np.zeros(m)
    for k in range(t_steps - 1, -1, -1):
        v_next = values[:, k + 1] if k + 1 < t_steps else np.zeros(m)
        delta = rewards[:, k] + v_next - values[:, k]
        last = delta + trace_decay * last
        adv[:, k] = last
    return adv + values, adv


def normalize_advantages(adv: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance advantages; only centered if nearly constant."""
    centered = adv - adv.mean()
    var = float(centered.var())
    if var < 1e-12:
        return centered
    return centered / math.sqrt(var)


@dataclass
class TrajectoryBuffer:
    """On-policy rollout data frozen at collection time (all arrays episode order)."""

    paths: PathBatch
    returns: np.ndarray  # lambda-returns under the sampling-time values (M, T)
    advantages: np.ndarray  # per-buffer-normalized advantages (M, T)
    path_weights: np.ndarray  # (M,), sums to 1


def build_buffer(
    policy,
    paths: PathBatch,
    energy: np.ndarray,
    target,
    schedule: NoiseSchedule,
    temperature: float,
    cfg: RunConfig,
    normalizer: RewardNormalizer,
) -> TrajectoryBuffer:
    """Assemble a PPO buffer from paths and their energies H(X_0): normalized
    rewards, frozen values (those `sample_reverse_path` recorded, zero without
    a value head), lambda-returns, advantages."""
    raw = rl_rewards(paths, energy, target, schedule, temperature)
    normalizer.update(raw)
    rewards = normalizer.normalize(raw)

    values = np.zeros_like(rewards)
    if policy.spec.value_head:
        if paths.values is None:
            raise ValueError("the paths of a policy with a value head must carry its values")
        values = paths.values[:, ::-1]  # episode order: column k is V(X_{T-k})
    returns, adv = td_lambda_targets(rewards, values, cfg.trace_decay)
    return TrajectoryBuffer(paths, returns, normalize_advantages(adv),
                            np.full(paths.n_paths, 1.0 / paths.n_paths))


def minibatch_plan(n_paths: int, t_steps: int, n_path_mb: int, n_t_mb: int, rng):
    """Partition all (path, timestep) pairs into minibatches, without
    replacement: paths are shuffled into groups, and each path gets its own
    shuffled timestep order split into chunks."""
    if n_t_mb > t_steps:
        raise ValueError("timestep minibatch exceeds the number of steps")
    path_perm = rng.permutation(n_paths)
    t_perm = np.array([rng.permutation(t_steps) for _ in range(n_paths)])
    n_chunks = (t_steps + n_t_mb - 1) // n_t_mb
    plan = []
    for gs in range(0, n_paths, n_path_mb):
        group = path_perm[gs: gs + n_path_mb]
        for c in range(n_chunks):
            t_idx = t_perm[group, c * n_t_mb: (c + 1) * n_t_mb]
            if t_idx.shape[1]:
                plan.append((group, t_idx))
    return plan


def _gather_rows(paths: PathBatch, path_idx, k_idx):
    """Rows of a (paths x episode steps) minibatch: path and step index, the
    diffusion time t = T - k, and the states X_t and X_{t-1}."""
    tau = k_idx.shape[1]
    rp = np.repeat(path_idx, tau)
    rk = k_idx.reshape(-1)
    rt = paths.n_steps - rk
    return rp, rk, rt, paths.states[rp, rt], paths.states[rp, rt - 1], tau


def ppo_minibatch_grad(
    policy,
    buffer: TrajectoryBuffer,
    cfg: RunConfig,
    path_idx: np.ndarray,
    k_idx: np.ndarray,
    condition=None,
) -> tuple[float, dict, dict]:
    """Clipped-surrogate loss and gradients for one (paths x timesteps) minibatch.

    Returns (loss, grads, stats). The descent objective is
    -(1-c1) * T * E_paths[mean_steps min(r*A, clip(r)*A)] + c1 * 0.5 * E[(V-G)^2];
    at a full batch with unnormalized advantages and fresh ratios its gradient
    equals the exact policy-gradient update of the joint reverse KL.
    """
    rp, rk, rt, x_t, x_prev, tau = _gather_rows(buffer.paths, path_idx, k_idx)
    adv = buffer.advantages[rp, rk]
    ret = buffer.returns[rp, rk]
    pw = buffer.path_weights[path_idx]
    pw = pw / pw.sum()
    wrow = np.repeat(pw, tau) / tau

    leaves = ad.leaves(policy.params)
    probs, value = policy.probs_and_value_from(leaves, x_t, rt, condition)
    logq = bernoulli_log_q(x_prev, probs)
    ratio = ad.exp(logq - buffer.paths.step_logq[rp, rt - 1])
    ratio_data = ad.as_array(ratio)
    if not np.isfinite(ratio_data).all():
        raise FloatingPointError("non-finite likelihood ratio; buffer is stale")
    surr = minimum(ratio * adv, ad.clip(ratio, 1.0 - cfg.clip, 1.0 + cfg.clip) * adv)
    l_pi = buffer.paths.n_steps * tsum(surr * wrow)
    dv = value - ret
    l_v = 0.5 * tsum(dv * dv * wrow)
    loss = (-(1.0 - cfg.value_weight)) * l_pi + cfg.value_weight * l_v
    loss.backward()
    grads = ad.collect_grads(leaves)
    clipped = (ratio_data < 1.0 - cfg.clip) | (ratio_data > 1.0 + cfg.clip)
    stats = {
        "loss": float(ad.as_array(loss)),
        "policy_loss": float(ad.as_array(l_pi)),
        "value_loss": float(ad.as_array(l_v)),
        "clip_fraction": float(clipped.mean()),
        "mean_ratio": float(ratio_data.mean()),
    }
    return stats["loss"], grads, stats


class ImportanceWeights(NamedTuple):
    log_w: np.ndarray  # raw log p_hat - log q of each path
    sums: WeightSums  # the rollout's weight sums, for its ESS


def fkl_importance_weights(
    paths: PathBatch, energy: np.ndarray, target, schedule: NoiseSchedule
) -> ImportanceWeights:
    """Log importance weights log p_hat - log q of sampled paths, whose
    energies H(X_0) are `energy`, and their weight sums."""
    log_w = path_log_p_hat(target, schedule, paths, energy) - paths.log_q
    return ImportanceWeights(log_w, WeightSums().add(energy, log_w))


def fkl_mc_grad(
    policy,
    paths: PathBatch,
    log_w: np.ndarray,
    path_idx: np.ndarray,
    k_idx: np.ndarray,
    condition=None,
) -> tuple[float, dict, np.ndarray]:
    """Importance-weighted forward-KL gradient over one (paths x steps) minibatch.

    `log_w` holds the raw log-weights of all of `paths`, computed once per
    rollout (`fkl_importance_weights(...).log_w`), and is self-normalized over
    the path group `path_idx`; `k_idx` holds one row of episode steps per
    path. The loss is -T * sum_i w_i * mean_k log q(X_{t-1} | X_t), t = T - k,
    with the weights treated as constants. Returns (loss, grads, weights).
    """
    weights = self_normalize(log_w[path_idx])
    _, _, rt, x_t, x_prev, tau = _gather_rows(paths, path_idx, k_idx)
    wrow = np.repeat(weights, tau) / tau

    leaves = ad.leaves(policy.params)
    logq = bernoulli_log_q(x_prev, policy.probs_from(leaves, x_t, rt, condition))
    loss = (-float(paths.n_steps)) * tsum(logq * wrow)
    loss.backward()
    return float(ad.as_array(loss)), ad.collect_grads(leaves), weights


def diffuco_loss_grad(
    policy,
    target,
    schedule: NoiseSchedule,
    paths: PathBatch,
    energy: np.ndarray,
    temperature: float,
    condition=None,
    path_weights: np.ndarray | None = None,
) -> tuple[float, dict, dict]:
    """Score-function gradient of the joint reverse-KL objective; `energy`
    holds the paths' H(X_0).

    Traces the policy through every diffusion step (memory grows linearly with
    T). The per-path cost uses exact per-step Bernoulli entropies; the score
    term weights each path's log-likelihood by its centered cost, with the
    batch mean as the variance-reduction baseline.
    """
    t_steps = paths.n_steps
    m = paths.n_paths
    if path_weights is None:
        pw = np.full(m, 1.0 / m)
    else:
        pw = np.asarray(path_weights, dtype=np.float64)
        pw = pw / pw.sum()

    logp = forward_step_logp(paths, schedule)
    leaves = ad.leaves(policy.params)
    logq_acc = None
    ent_acc = None
    logp_fwd = np.zeros(m)
    for t in range(t_steps, 0, -1):
        probs = policy.probs_from(leaves, paths.states[:, t], t, condition)
        logq_t = bernoulli_log_q(paths.states[:, t - 1], probs)
        ent_t = bernoulli_entropy(probs)
        logq_acc = logq_t if logq_acc is None else logq_acc + logq_t
        ent_acc = ent_t if ent_acc is None else ent_acc + ent_t
        logp_fwd += logp[:, t - 1]
    ent_data = ad.as_array(ent_acc)
    # entropy-form per-path cost of temperature * KL(q || p_hat_target)
    cost = (
        -temperature * ent_data
        + temperature * (paths.prior_logq - logp_fwd)
        + temperature * target.beta * energy
    )
    baseline = float(cost @ pw)
    surrogate = tsum(((-temperature) * ent_acc + (cost - baseline) * logq_acc) * pw)
    surrogate.backward()
    grads = ad.collect_grads(leaves)
    loss = baseline  # weighted-mean cost = objective estimate up to constants
    if not math.isfinite(loss):
        raise FloatingPointError("non-finite loss")
    stats = {"loss": loss, "mean_step_entropy": float(ent_data @ pw)}
    return loss, grads, stats
