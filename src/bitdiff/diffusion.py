"""Bernoulli forward noising, reverse-path sampling, and exact path likelihoods.

A path batch stores states for every diffusion time t = 0..T. Generation runs
in reverse time (t = T down to 0): the terminal state X_T is uniform and each
X_{t-1} is drawn from the factorized Bernoulli policy. `step_logq[:, t-1]`
holds log q(X_{t-1} | X_t), so the joint reverse log-likelihood is
`prior_logq + step_logq.sum(axis=1)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energies import BoltzmannTarget

__all__ = [
    "NoiseSchedule",
    "PathBatch",
    "exp_schedule",
    "forward_step_logp",
    "stationary_logprob",
    "sample_reverse_path",
    "path_log_q",
    "path_log_p_hat",
    "bernoulli_logpmf",
]

PROB_CLIP = 1e-7  # policy outputs are clipped to [PROB_CLIP, 1 - PROB_CLIP] before log


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step flip probabilities beta_1..beta_T of the forward process."""

    betas: np.ndarray

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=np.float64).reshape(-1)
        if len(betas) < 1:
            raise ValueError("schedule needs at least one step")
        if (betas <= 0).any() or (betas > 0.5).any():
            raise ValueError("flip probabilities must lie in (0, 0.5]")
        betas.setflags(write=False)
        object.__setattr__(self, "betas", betas)

    @property
    def n_steps(self) -> int:
        return len(self.betas)

    def beta(self, t: int) -> float:
        """beta_t for t in 1..T."""
        if not 1 <= t <= self.n_steps:
            raise ValueError(f"t must be in 1..{self.n_steps}")
        return float(self.betas[t - 1])


def exp_schedule(n_steps: int) -> NoiseSchedule:
    """Exponential schedule beta_t = 0.5 * exp(-k*(1 - t/T)) with k = 6*ln2,
    ending at 0.5. Written as 0.5 * 2^(-6*(1 - t/T)) so the dyadic values
    (t = T, T/2) come out exact."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    t = np.arange(1, n_steps + 1, dtype=np.float64)
    return NoiseSchedule(0.5 * np.exp2(-6.0 * (1.0 - t / n_steps)))


@dataclass
class PathBatch:
    """A batch of diffusion paths with their exact sampling log-probabilities."""

    states: np.ndarray  # (M, T+1, N) int8, axis 1 indexed by diffusion time t
    step_logq: np.ndarray  # (M, T), [:, t-1] = log q(X_{t-1} | X_t)
    prior_logq: np.ndarray  # (M,), log q(X_T)
    # (M, N) policy marginals of X_0 given X_1, kept by `sample_reverse_path`
    # for decoding; None where the paths were built another way
    x0_probs: np.ndarray | None = None
    values: np.ndarray | None = None  # (M, T) of a value-head policy, [:, t-1] = V(X_t, t)

    def __post_init__(self):
        m, t1, n = self.states.shape
        if self.step_logq.shape != (m, t1 - 1):
            raise ValueError("step_logq shape does not match states")
        if self.prior_logq.shape != (m,):
            raise ValueError("prior_logq shape does not match states")
        for name, shape in (("x0_probs", (m, n)), ("values", (m, t1 - 1))):
            if getattr(self, name) is not None and getattr(self, name).shape != shape:
                raise ValueError(f"{name} shape does not match states")
        if not (np.isfinite(self.step_logq).all() and np.isfinite(self.prior_logq).all()):
            raise ValueError("path log-probabilities must be finite")

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def n_steps(self) -> int:
        return self.states.shape[1] - 1

    @property
    def n_bits(self) -> int:
        return self.states.shape[2]

    @property
    def x0(self) -> np.ndarray:
        return self.states[:, 0, :]

    @property
    def log_q(self) -> np.ndarray:
        """Joint reverse log-likelihood log q(X_{0:T}) per path."""
        return self.prior_logq + self.step_logq.sum(axis=1)


def bernoulli_logpmf(bits, probs) -> np.ndarray:
    """Sum over the last axis of log Bernoulli(bits; probs): log p where a bit
    is 1 and log1p(-p) where it is 0."""
    probs = np.asarray(probs, dtype=np.float64)
    log_off = np.negative(probs)
    np.log1p(log_off, out=log_off)
    return np.where(np.asarray(bits, dtype=bool), np.log(probs), log_off).sum(axis=-1)


def stationary_logprob(x) -> np.ndarray:
    """log probability of x under the uniform stationary distribution."""
    x = np.asarray(x)
    n = x.shape[-1]
    return np.full(x.shape[:-1], n * math.log(0.5))


def _checked_probs(policy, x_t, t, condition, critic: bool):
    """Checked probabilities for the rows `x_t`; with `critic`, V(x_t, t) from the same forward."""
    probs, value = (policy.probs_and_value_from(policy.params, x_t, t, condition) if critic
                    else (policy.probs(x_t, t, condition), None))
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != x_t.shape:
        raise ValueError(f"policy returned shape {probs.shape}, expected {x_t.shape}")
    if (probs <= 0).any() or (probs >= 1).any():
        raise ValueError("policy emitted a probability outside (0, 1)")
    return probs, value


def sample_reverse_path(
    policy, schedule: NoiseSchedule, n_paths: int, rng, condition=None
) -> PathBatch:
    """Draw paths from the reverse process: X_T uniform, then X_{t-1} ~ policy.
    The batch keeps the last step's probabilities as `x0_probs`, and a critic's `values`."""
    n = policy.n_bits if condition is None else condition.n_bits
    t_steps = schedule.n_steps
    states = np.empty((n_paths, t_steps + 1, n), dtype=np.int8)
    step_logq = np.empty((n_paths, t_steps))
    values = np.empty((n_paths, t_steps)) if policy.spec.value_head else None
    states[:, t_steps] = rng.integers(0, 2, size=(n_paths, n), dtype=np.int8)
    for t in range(t_steps, 0, -1):
        probs, value = _checked_probs(policy, states[:, t], t, condition, values is not None)
        if value is not None:
            values[:, t - 1] = value
        bits = (rng.random((n_paths, n)) < probs).astype(np.int8)
        states[:, t - 1] = bits
        step_logq[:, t - 1] = bernoulli_logpmf(bits, probs)
    prior = stationary_logprob(states[:, t_steps])
    return PathBatch(states, step_logq, prior, probs, values)


def path_log_q(policy, path: PathBatch, condition=None) -> np.ndarray:
    """Teacher-forced joint reverse log-likelihood of stored paths under `policy`."""
    t_steps = path.n_steps
    total = stationary_logprob(path.states[:, t_steps])
    for t in range(t_steps, 0, -1):
        probs, _ = _checked_probs(policy, path.states[:, t], t, condition, False)
        total = total + bernoulli_logpmf(path.states[:, t - 1], probs)
    return total


def forward_step_logp(path: PathBatch, schedule: NoiseSchedule) -> np.ndarray:
    """(M, T) noising log-probabilities of stored paths, indexed like
    `step_logq`: column t-1 holds log p(X_t | X_{t-1}) of the factorized flip
    kernel with rate beta_t, flips * log(beta_t) + stays * log1p(-beta_t)."""
    if path.n_steps != schedule.n_steps:
        raise ValueError("path and schedule disagree on the number of steps")
    s = path.states
    flips = (s[:, 1:] != s[:, :-1]).sum(axis=-1).astype(np.float64)
    log_flip = np.array([math.log(b) for b in schedule.betas])
    log_stay = np.array([math.log1p(-b) for b in schedule.betas])
    return flips * log_flip + (path.n_bits - flips) * log_stay


def path_log_p_hat(target: BoltzmannTarget, schedule: NoiseSchedule, path: PathBatch,
                   energy: np.ndarray) -> np.ndarray:
    """log of the unnormalized forward path weight:
    -beta*H(X_0) + sum_t log p(X_t | X_{t-1}), where `energy` holds the
    paths' H(X_0) (`BoltzmannTarget.energy`). No term for X_T's stationary
    density: with that convention the importance ratio p_hat/q keeps the
    model's prior log-probability in the denominator."""
    total = -target.beta * energy
    for logp_t in forward_step_logp(path, schedule).T:
        total = total + logp_t
    return total
