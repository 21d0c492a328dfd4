"""Training objectives for reverse-process policies.

Three gradient estimators are provided:

- ``diffuco_loss_grad``: score-function estimator of the joint reverse-KL
  objective, tracing the whole path (memory grows with the step count). This
  is the baseline the step-minibatched objectives improve on.
- ``ppo_minibatch_grad``: clipped-surrogate policy gradient with a TD(lambda)
  critic over (path, timestep) minibatches.
- ``fkl_mc_grad``: self-normalized importance-weighted forward-KL gradient
  with Monte Carlo subsampling of diffusion steps.

Conventions: the episode runs in reverse diffusion time, so step index
k = 0..T-1 corresponds to diffusion time t = T - k; all per-step buffer arrays
(rewards, values, returns, advantages, old log-probs) use episode order. The
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

import numpy as np

from . import autodiff as ad
from .autodiff import minimum, tsum
from .diffusion import NoiseSchedule, PathBatch, forward_kernel_logprob, path_log_p_hat
from .nets import bernoulli_entropy, bernoulli_log_q, step_log_q_from
from .unbiased import WeightedSamples, snis_weights_from_logs

__all__ = [
    "AnnealSchedule",
    "PpoConfig",
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


@dataclass(frozen=True)
class AnnealSchedule:
    """Temperature as a function of the epoch.

    `linear_to_zero`: T_start * (1 - n / n_epochs), floored at zero.
    `ising_decay`: target_temperature / (1 - 0.998^(h * (n + 1))), which decays
    from above toward the target temperature.
    """

    kind: str
    n_epochs: int
    t_start: float = 1.0
    decay_rate: float = 1.0
    target_temperature: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear_to_zero", "ising_decay"):
            raise ValueError(f"unknown anneal kind {self.kind!r}")
        if self.n_epochs < 1:
            raise ValueError("n_epochs must be >= 1")

    def temperature(self, epoch: int) -> float:
        if epoch < 0:
            raise ValueError("epoch must be >= 0")
        if self.kind == "linear_to_zero":
            return self.t_start * max(0.0, 1.0 - epoch / self.n_epochs)
        return self.target_temperature / (1.0 - 0.998 ** (self.decay_rate * (epoch + 1)))


@dataclass(frozen=True)
class PpoConfig:
    clip: float = 0.2
    value_weight: float = 0.5
    trace_decay: float = 0.95
    reward_ma_rate: float = 0.01
    discount: float = 1.0
    n_path_minibatch: int = 64
    n_timestep_minibatch: int = 4
    epochs_per_buffer: int = 2

    def __post_init__(self):
        if not 0.0 < self.clip < 1.0:
            raise ValueError("clip must be in (0, 1)")
        if not 0.0 <= self.value_weight <= 1.0:
            raise ValueError("value_weight must be in [0, 1]")
        if not 0.0 <= self.trace_decay <= 1.0:
            raise ValueError("trace_decay must be in [0, 1]")
        if self.discount != 1.0:
            raise ValueError("discount is fixed at 1.0")


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

    def state(self) -> dict:
        return {"rate": self.rate, "mean": self.mean, "var": self.var,
                "initialized": self.initialized}

    @classmethod
    def from_state(cls, state: dict) -> "RewardNormalizer":
        return cls(**state)


def rl_rewards(
    paths: PathBatch,
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
    """
    t_steps = paths.n_steps
    rewards = np.empty((paths.n_paths, t_steps))
    for k in range(t_steps):
        t = t_steps - k
        logp = forward_kernel_logprob(
            paths.states[:, t], paths.states[:, t - 1], schedule.beta(t)
        )
        rewards[:, k] = temperature * (logp - paths.step_logq[:, t - 1])
    energy = np.asarray(target.model.energy(paths.x0), dtype=np.float64)
    rewards[:, t_steps - 1] -= temperature * target.beta * energy
    return rewards


def td_lambda_targets(
    rewards: np.ndarray,
    values: np.ndarray,
    trace_decay: float,
    discount: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Lambda-returns and raw advantages, both (M, T) in episode order.

    `values[:, k]` is V(X_{T-k}); the terminal value V(X_0) is zero. Computed
    with the standard recursion A_k = delta_k + discount*lambda*A_{k+1}, which
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
        delta = rewards[:, k] + discount * v_next - values[:, k]
        last = delta + discount * trace_decay * last
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
    rewards: np.ndarray  # normalized rewards (M, T)
    values: np.ndarray  # V under the sampling parameters (M, T)
    returns: np.ndarray  # lambda-returns (M, T)
    advantages: np.ndarray  # per-buffer-normalized advantages (M, T)
    logq_old: np.ndarray  # sampling-time step log-probs (M, T)
    path_weights: np.ndarray  # (M,), sums to 1

    @property
    def n_paths(self) -> int:
        return self.paths.n_paths

    @property
    def t_steps(self) -> int:
        return self.paths.n_steps


def build_buffer(
    policy,
    paths: PathBatch,
    target,
    schedule: NoiseSchedule,
    temperature: float,
    cfg: PpoConfig,
    normalizer: RewardNormalizer,
    condition=None,
    normalize: bool = True,
    path_weights: np.ndarray | None = None,
) -> TrajectoryBuffer:
    """Assemble a PPO buffer: rewards, frozen values, lambda-returns, advantages."""
    t_steps = paths.n_steps
    raw = rl_rewards(paths, target, schedule, temperature)
    normalizer.update(raw)
    rewards = normalizer.normalize(raw)

    values = np.zeros_like(rewards)
    if getattr(policy.spec, "value_head", False):
        for k in range(t_steps):
            t = t_steps - k
            values[:, k] = policy.value(paths.states[:, t], t, condition)
    returns, adv = td_lambda_targets(rewards, values, cfg.trace_decay, cfg.discount)
    if normalize:
        adv = normalize_advantages(adv)
    if path_weights is None:
        path_weights = np.full(paths.n_paths, 1.0 / paths.n_paths)
    else:
        path_weights = np.asarray(path_weights, dtype=np.float64)
        path_weights = path_weights / path_weights.sum()
    logq_old = paths.step_logq[:, ::-1].copy()  # episode order
    return TrajectoryBuffer(paths, rewards, values, returns, adv, logq_old, path_weights)


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


def _gather_rows(buffer: TrajectoryBuffer, path_idx, t_idx):
    t_steps = buffer.t_steps
    tau = t_idx.shape[1]
    rp = np.repeat(path_idx, tau)
    rk = t_idx.reshape(-1)
    rt = t_steps - rk  # diffusion time per row
    x_t = buffer.paths.states[rp, rt]
    x_prev = buffer.paths.states[rp, rt - 1]
    return rp, rk, rt, x_t, x_prev, tau


def ppo_minibatch_grad(
    policy,
    buffer: TrajectoryBuffer,
    cfg: PpoConfig,
    path_idx: np.ndarray,
    t_idx: np.ndarray,
    condition=None,
) -> tuple[float, dict, dict]:
    """Clipped-surrogate loss and gradients for one (paths x timesteps) minibatch.

    Returns (loss, grads, stats). The descent objective is
    -(1-c1) * T * E_paths[mean_steps min(r*A, clip(r)*A)] + c1 * 0.5 * E[(V-G)^2];
    at a full batch with unnormalized advantages and fresh ratios its gradient
    equals the exact policy-gradient update of the joint reverse KL.
    """
    rp, rk, rt, x_t, x_prev, tau = _gather_rows(buffer, path_idx, t_idx)
    adv = buffer.advantages[rp, rk]
    ret = buffer.returns[rp, rk]
    lqo = buffer.logq_old[rp, rk]
    pw = buffer.path_weights[path_idx]
    pw = pw / pw.sum()
    wrow = np.repeat(pw, tau) / tau

    leaves = ad.leaves(policy.params)
    probs, value = policy.probs_and_value_from(leaves, x_t, rt, condition)
    logq = bernoulli_log_q(x_prev, probs)
    ratio = ad.exp(logq - lqo)
    ratio_data = ad.as_array(ratio)
    if not np.isfinite(ratio_data).all():
        raise FloatingPointError("non-finite likelihood ratio; buffer is stale")
    surr = minimum(ratio * adv, ad.clip(ratio, 1.0 - cfg.clip, 1.0 + cfg.clip) * adv)
    l_pi = buffer.t_steps * tsum(surr * wrow)
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


def fkl_importance_weights(
    paths: PathBatch, logq_old: np.ndarray, target, schedule: NoiseSchedule
) -> WeightedSamples:
    """Self-normalized weights of stored paths: softmax of log p_hat - log q_old."""
    return snis_weights_from_logs(paths.x0, path_log_p_hat(target, schedule, paths), logq_old)


def fkl_mc_grad(
    policy,
    paths: PathBatch,
    logq_old: np.ndarray,
    target,
    schedule: NoiseSchedule,
    t_idx: np.ndarray | None = None,
    condition=None,
) -> tuple[float, dict, np.ndarray]:
    """Importance-weighted forward-KL gradient over a timestep minibatch.

    `t_idx` holds diffusion times in 1..T, one row per path (None = all steps).
    The loss is -T * sum_i w_i * mean_{t in t_idx[i]} log q(X_{t-1} | X_t)
    with the self-normalized weights treated as constants.
    """
    t_steps = paths.n_steps
    m = paths.n_paths
    weights = fkl_importance_weights(paths, logq_old, target, schedule).weights
    if t_idx is None:
        t_idx = np.tile(np.arange(1, t_steps + 1), (m, 1))
    t_idx = np.asarray(t_idx)
    tau = t_idx.shape[1]
    rp = np.repeat(np.arange(m), tau)
    rt = t_idx.reshape(-1)
    x_t = paths.states[rp, rt]
    x_prev = paths.states[rp, rt - 1]
    wrow = np.repeat(weights, tau) / tau

    leaves = ad.leaves(policy.params)
    logq = step_log_q_from(policy, leaves, x_prev, x_t, rt, condition)
    loss = (-float(t_steps)) * tsum(logq * wrow)
    loss.backward()
    return float(ad.as_array(loss)), ad.collect_grads(leaves), weights


def diffuco_loss_grad(
    policy,
    target,
    schedule: NoiseSchedule,
    paths: PathBatch,
    temperature: float,
    condition=None,
    path_weights: np.ndarray | None = None,
) -> tuple[float, dict, dict]:
    """Score-function gradient of the joint reverse-KL objective.

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
        logp_fwd += forward_kernel_logprob(
            paths.states[:, t], paths.states[:, t - 1], schedule.beta(t)
        )
    energy = np.asarray(target.model.energy(paths.x0), dtype=np.float64)
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
    stats = {
        "loss": loss,
        "mean_energy": float(energy @ pw),
        "mean_step_entropy": float(ent_data @ pw),
    }
    return loss, grads, stats
