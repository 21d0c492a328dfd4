"""Unbiased estimation over diffusion paths: self-normalized importance
sampling, independence-proposal Markov chains, and convergence diagnostics.

All weight and acceptance arithmetic happens in log space; the acceptance
test compares log(u) against the log ratio directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffusion import path_log_p_hat, sample_reverse_path
from .energies import WeightSums

__all__ = [
    "self_normalize",
    "snis_weights_from_logs",
    "snis_sample",
    "effective_sample_size",
    "ObservableEstimates",
    "observable_estimates",
    "nmcmc_run",
    "AutocorrResult",
    "autocorr_time",
    "NmcmcEstimate",
    "nmcmc_estimate",
    "estimate_from_series",
    "ConvergenceError",
]


class ConvergenceError(RuntimeError):
    """A Markov chain did not satisfy its convergence criterion in budget."""


def self_normalize(log_w: np.ndarray) -> np.ndarray:
    """exp(log_w) / sum(exp(log_w)), shifted by the largest log-weight so
    neither overflows."""
    w = np.exp(log_w - log_w.max())
    return w / w.sum()


def snis_weights_from_logs(energy, log_p_hat, log_q) -> WeightSums:
    log_w = np.asarray(log_p_hat, dtype=np.float64) - np.asarray(log_q, dtype=np.float64)
    return WeightSums().add(np.asarray(energy, dtype=np.float64), log_w)


# Proposal paths drawn per sampler call, by both `snis_sample` and
# `nmcmc_run`. Below a few hundred rows the policy forward is dominated by
# per-call overhead; far above, the block falls out of cache (4x4 MLP (64, 64),
# T = 20, one BLAS thread, malloc mmap threshold pinned at 128 KiB, median of
# three processes: about 8k paths/s at 16 rows, 29k at 256, 22k at 1,024, 19k
# at 20,000).
PROPOSAL_ROWS = 256


def _scored_paths(policy, target, schedule, n_paths: int, rng):
    """Draw `n_paths` paths and score each once: their energies H(X_0),
    log p_hat and log q, the three numbers both estimators keep of a path."""
    paths = sample_reverse_path(policy, schedule, n_paths, rng)
    energy = target.energy(paths.x0)
    return energy, path_log_p_hat(target, schedule, paths, energy), paths.log_q


def snis_sample(policy, target, schedule, n_samples: int, rng) -> WeightSums:
    """Draw paths from the model in blocks of PROPOSAL_ROWS and fold each block
    into running weight sums, so memory stays one block's at any sample count."""
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    sums = WeightSums()
    while sums.n_samples < n_samples:
        size = min(PROPOSAL_ROWS, n_samples - sums.n_samples)
        energy, log_p_hat, log_q = _scored_paths(policy, target, schedule, size, rng)
        sums.add(energy, log_p_hat - log_q)
    return sums


def effective_sample_size(sums: WeightSums) -> float:
    """Effective sample size per sample, (sum w)^2 / (M * sum w^2), in [1/M, 1]."""
    m = sums.n_samples
    ess = sums.sum_w * sums.sum_w / (m * sums.sum_w2)
    # the bounds hold exactly for exact sums; guard float roundoff only
    return min(1.0, max(1.0 / m, ess))


@dataclass(frozen=True)
class ObservableEstimates:
    free_energy: float
    internal_energy: float
    entropy: float
    ess_per_sample: float


def observable_estimates(sums: WeightSums, target) -> ObservableEstimates:
    """Free energy from log Z-hat = log(mean w), internal energy as the weighted
    mean of the samples' energies, entropy from the identity S = beta * (U - F)."""
    if target.beta <= 0:
        raise ValueError("observable estimates require beta > 0")
    f = -(sums.log_sum - math.log(sums.n_samples)) / target.beta
    u = sums.sum_wh / sums.sum_w
    s = target.beta * (u - f)
    return ObservableEstimates(f, u, s, effective_sample_size(sums))


def nmcmc_run(policy, target, schedule, n_chains: int, n_steps: int,
              rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run independence-proposal Metropolis-Hastings chains over diffusion
    paths; a step accepts when log u < (log p_hat' - log p_hat) + (log q - log q').

    A chain keeps only its current path's energy, log p_hat and log q.
    Proposals do not depend on the chain state, so each block of
    k = max(1, PROPOSAL_ROWS // C) steps draws its k*C proposals in one sampler
    call and runs the accept test as a scan over their scores.
    Returns (series, n_accepted, energy): the (C, n_steps) energy of X_0 after
    each step, the accepted moves per chain and each chain's final energy.
    Raises ValueError unless both counts are at least 1.
    """
    if n_chains < 1 or n_steps < 1:
        raise ValueError(f"need at least one chain and one step, got {n_chains} x {n_steps}")
    c = n_chains
    chain = _scored_paths(policy, target, schedule, c, rng)
    n_accepted = np.zeros(c, dtype=np.int64)
    series = np.empty((c, n_steps))
    block = max(1, PROPOSAL_ROWS // c)
    rows = np.arange(c)
    for start in range(0, n_steps, block):
        k = min(block, n_steps - start)
        # candidates are indexed into [current states; proposals of step 0..k-1]
        proposals = _scored_paths(policy, target, schedule, k * c, rng)
        energy, lp, lq = map(np.concatenate, zip(chain, proposals))
        log_u = np.log(rng.random((k, c)))
        picks = np.empty((k, c), dtype=np.intp)
        cur = rows
        for j in range(k):
            cand = rows + (j + 1) * c
            accept = log_u[j] < (lp[cand] - lp[cur]) + (lq[cur] - lq[cand])
            cur = np.where(accept, cand, cur)
            n_accepted += accept
            picks[j] = cur
        series[:, start : start + k] = energy[picks].T
        chain = energy[cur], lp[cur], lq[cur]
    return series, n_accepted, chain[0]


@dataclass(frozen=True)
class AutocorrResult:
    tau: float | None  # integrated autocorrelation time (None if degenerate)
    window: int  # truncation lag K satisfying K >= WINDOW_C * tau(K)
    rho: np.ndarray  # normalized autocorrelations rho(1..K)
    degenerate: bool = False


WINDOW_C = 5.0  # autocorrelation window constant
MIN_BURN_IN = 100  # steps


def autocorr_time(series) -> AutocorrResult:
    """Integrated autocorrelation time with a self-consistent truncation window.

    tau(K) = 1 + 2 * sum_{lag<=K} rho(lag) where rho is the biased-normalization
    autocorrelation estimate; K is the first lag with K >= WINDOW_C * tau(K). A chain with
    (numerically) zero variance is flagged degenerate. The raw value is
    reported even if below 1 (anticorrelated chains).
    """
    x = np.asarray(series, dtype=np.float64).reshape(-1)
    n = len(x)
    if n < 10 * WINDOW_C:
        raise ValueError(f"series too short for a window search (need >= {int(10 * WINDOW_C)})")
    mu = x.mean()
    d = x - mu
    c0 = float(d @ d) / n
    if c0 < 1e-14 * max(1.0, mu * mu):
        return AutocorrResult(None, 0, np.empty(0), degenerate=True)
    # all lag sums d[:-lag] @ d[lag:] at once; zero padding to >= 2n - 1
    # keeps the circular correlation from wrapping
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(d, size)
    lags = np.arange(1, n - 1)
    rho = np.fft.irfft(spec * spec.conj(), size)[1 : n - 1] / (n - lags) / c0
    tau = 1.0 + 2.0 * np.cumsum(rho)
    fits = np.flatnonzero(lags >= WINDOW_C * tau)
    if len(fits) == 0:
        raise ConvergenceError("no self-consistent autocorrelation window within the series")
    k = fits[0]
    return AutocorrResult(float(tau[k]), int(lags[k]), rho[: k + 1])


@dataclass(frozen=True)
class NmcmcEstimate:
    estimate: float
    stderr: float | None  # None when the energy series is degenerate
    tau: float | None
    burn_in: int
    acceptance_rate: float
    n_chains_used: int
    n_flagged: int  # chains that never accepted, excluded from the average


def estimate_from_series(series: np.ndarray, acceptance: np.ndarray) -> NmcmcEstimate:
    """Post-burn-in mean with an autocorrelation-corrected standard error.

    Burn-in discards max(10*tau, MIN_BURN_IN) leading steps; the standard error
    carries the sqrt(2*tau) effective-sample correction. Chains that never
    accepted are excluded from the average and reported in the flag count.
    """
    series = np.atleast_2d(series)
    n_chains, n_steps = series.shape
    live = np.asarray(acceptance) > 0
    n_flagged = int((~live).sum())
    if not live.any():
        raise ConvergenceError("no chain ever accepted a proposal")
    series = series[live]

    taus = [res.tau for res in map(autocorr_time, series) if not res.degenerate]
    if taus:
        tau = float(np.mean(taus))
        burn_in = int(max(10.0 * tau, MIN_BURN_IN))
        if burn_in >= n_steps:
            raise ConvergenceError(
                f"burn-in {burn_in} does not fit in a chain of length {n_steps}"
            )
        post = series[:, burn_in:]
        n_post = post.size
        est = float(post.mean())
        var = float(post.var(ddof=1)) if n_post > 1 else 0.0
        stderr = math.sqrt(var / n_post * 2.0 * tau)
    else:
        # constant series: the estimate is exact, the error bar undefined
        est, stderr, tau, burn_in = float(series.mean()), None, None, 0
    return NmcmcEstimate(estimate=est, stderr=stderr, tau=tau, burn_in=burn_in,
                         acceptance_rate=float(np.mean(np.asarray(acceptance)[live])),
                         n_chains_used=int(live.sum()), n_flagged=n_flagged)


def nmcmc_estimate(policy, target, schedule, *, n_chains: int, n_steps: int,
                   rng) -> NmcmcEstimate:
    """Run chains, check convergence via the autocorrelation window, and return
    the post-burn-in energy estimate with its corrected standard error."""
    series, n_accepted, _ = nmcmc_run(policy, target, schedule, n_chains, n_steps, rng)
    return estimate_from_series(series, n_accepted / n_steps)
