"""Unbiased estimation over diffusion paths: self-normalized importance
sampling, independence-proposal Markov chains, and convergence diagnostics.

All weight and acceptance arithmetic happens in log space; the acceptance
test compares log(u) against the log ratio directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffusion import NoiseSchedule, PathBatch, path_log_p_hat, path_log_q, sample_reverse_path

__all__ = [
    "WeightedSamples",
    "snis_weights",
    "snis_weights_from_logs",
    "snis_sample",
    "snis_expectation",
    "effective_sample_size",
    "ObservableEstimates",
    "observable_estimates",
    "ChainState",
    "nmcmc_init",
    "nmcmc_advance",
    "nmcmc_step",
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


@dataclass
class WeightedSamples:
    """Paths' terminal states with self-normalized importance weights."""

    x0: np.ndarray  # (M, N) int8
    log_w: np.ndarray  # raw log p_hat - log q, (M,)
    weights: np.ndarray  # normalized, sums to 1
    log_z_hat: float  # logsumexp(log_w) - log M

    @property
    def n_samples(self) -> int:
        return len(self.weights)


def snis_weights_from_logs(x0, log_p_hat, log_q) -> WeightedSamples:
    log_w = np.asarray(log_p_hat, dtype=np.float64) - np.asarray(log_q, dtype=np.float64)
    if not np.isfinite(log_w).all():
        raise FloatingPointError("non-finite importance log-weight")
    m = len(log_w)
    shift = log_w.max()
    w = np.exp(log_w - shift)
    total = w.sum()
    log_z_hat = shift + math.log(total) - math.log(m)
    return WeightedSamples(np.asarray(x0, dtype=np.int8), log_w, w / total, log_z_hat)


def snis_weights(paths: PathBatch, target, schedule: NoiseSchedule) -> WeightedSamples:
    """Weights of paths drawn from the model, using the exact sampling-time
    log-likelihoods stored in the batch (recompute via `path_log_q` to audit)."""
    log_p = path_log_p_hat(target, schedule, paths)
    return snis_weights_from_logs(paths.x0, log_p, paths.log_q)


def snis_sample(
    policy, target, schedule, n_samples: int, rng, condition=None, chunk: int = 20000
) -> WeightedSamples:
    """Draw paths from the model in chunks and keep only terminal states and
    log-weights, so large sample counts stay memory-bounded."""
    if n_samples < 1 or chunk < 1:
        raise ValueError(f"need at least one sample and chunk row, got {n_samples}, {chunk}")
    x0_parts, lp_parts, lq_parts = [], [], []
    remaining = n_samples
    while remaining > 0:
        take = min(chunk, remaining)
        paths = sample_reverse_path(policy, schedule, take, rng, condition)
        x0_parts.append(paths.x0.copy())
        lp_parts.append(path_log_p_hat(target, schedule, paths))
        lq_parts.append(paths.log_q)
        remaining -= take
    return snis_weights_from_logs(
        np.concatenate(x0_parts), np.concatenate(lp_parts), np.concatenate(lq_parts)
    )


def snis_expectation(ws: WeightedSamples, observable) -> float:
    """Weighted mean of an observable of the terminal states.

    `observable` is a callable over (M, N) states or a precomputed (M,) array.
    """
    values = observable(ws.x0) if callable(observable) else np.asarray(observable)
    return float(ws.weights @ values)


def effective_sample_size(ws: WeightedSamples) -> float:
    """Effective sample size per sample, (sum w)^2 / (M * sum w^2), in [1/M, 1]."""
    m = ws.n_samples
    ess = 1.0 / (m * float(ws.weights @ ws.weights))
    # the bounds hold exactly for normalized weights; guard float roundoff only
    return min(1.0, max(1.0 / m, ess))


@dataclass(frozen=True)
class ObservableEstimates:
    free_energy: float
    internal_energy: float
    entropy: float
    ess_per_sample: float
    n_sites: int

    def per_site(self) -> dict:
        n = self.n_sites
        return {
            "F": self.free_energy / n,
            "U": self.internal_energy / n,
            "S": self.entropy / n,
        }


def observable_estimates(ws: WeightedSamples, target) -> ObservableEstimates:
    """Free energy from log Z-hat, internal energy by reweighting, entropy from
    the identity S = beta * (U - F)."""
    if target.beta <= 0:
        raise ValueError("observable estimates require beta > 0")
    f = -ws.log_z_hat / target.beta
    u = snis_expectation(ws, lambda x: np.asarray(target.model.energy(x), dtype=np.float64))
    s = target.beta * (u - f)
    return ObservableEstimates(f, u, s, effective_sample_size(ws), target.n_sites)


@dataclass
class ChainState:
    """A batch of independence-proposal chains over diffusion paths."""

    paths: PathBatch
    log_p_hat: np.ndarray  # (C,)
    log_q: np.ndarray  # (C,)
    n_accepted: np.ndarray  # (C,) int64
    n_steps: int = 0

    @property
    def n_chains(self) -> int:
        return self.paths.n_paths

    def acceptance_rate(self) -> np.ndarray:
        if self.n_steps == 0:
            return np.zeros(self.n_chains)
        return self.n_accepted / self.n_steps

    def verify_cache(self, policy, target, schedule, condition=None, atol: float = 1e-10) -> None:
        """Recompute both cached log-probabilities from the chains' states, and
        check the stored per-step likelihoods still sum to the cached log q."""
        lq = path_log_q(policy, self.paths, condition)
        lp = path_log_p_hat(target, schedule, self.paths)
        if not (np.allclose(lq, self.log_q, atol=atol)
                and np.allclose(self.paths.log_q, self.log_q, atol=atol)
                and np.allclose(lp, self.log_p_hat, atol=atol)):
            raise RuntimeError("cached chain log-probabilities are inconsistent")


def nmcmc_init(policy, target, schedule, n_chains: int, rng, condition=None) -> ChainState:
    paths = sample_reverse_path(policy, schedule, n_chains, rng, condition)
    return ChainState(
        paths=paths,
        log_p_hat=path_log_p_hat(target, schedule, paths),
        log_q=paths.log_q.copy(),
        n_accepted=np.zeros(n_chains, dtype=np.int64),
    )


# Proposal paths drawn per sampler call. Below a few hundred rows the policy
# forward is dominated by per-call overhead; far above, the block falls out of
# cache (4x4 MLP (64, 64), T = 20, one BLAS thread: about 5.7k paths/s at 16
# rows, 21k at 256, 17k at 1,024).
PROPOSAL_ROWS = 256


def nmcmc_advance(
    chain: ChainState, policy, target, schedule, n_steps: int, rng, observable=None, condition=None
) -> np.ndarray | None:
    """Advance every chain `n_steps` Metropolis-Hastings steps with independent
    path proposals; a step accepts when
    log u < (log p_hat' - log p_hat) + (log q - log q').

    Proposals do not depend on the chain state, so each block of
    k = max(1, PROPOSAL_ROWS // C) steps draws its k*C proposals in one sampler
    call and runs the accept test as a scan over their cached log-weights.
    Returns the (C, n_steps) series of `observable` of X_0 after each step, or
    None without an observable; `observable` maps (M, N) states to (M,) values
    row by row and sees each block's current and proposed states in one call.
    """
    c = chain.n_chains
    block = max(1, PROPOSAL_ROWS // c)
    series = None if observable is None else np.empty((c, n_steps))
    rows = np.arange(c)
    for start in range(0, n_steps, block):
        k = min(block, n_steps - start)
        prop = sample_reverse_path(policy, schedule, k * c, rng, condition)
        # candidates are indexed into [current states; proposals of step 0..k-1]
        lp = np.concatenate([chain.log_p_hat, path_log_p_hat(target, schedule, prop)])
        lq = np.concatenate([chain.log_q, prop.log_q])
        if observable is not None:
            x0 = np.concatenate([chain.paths.x0, prop.x0])
            obs = np.asarray(observable(x0), dtype=np.float64)
        log_u = np.log(rng.random((k, c)))
        picks = np.empty((k, c), dtype=np.intp)
        cur = rows
        for j in range(k):
            cand = rows + (j + 1) * c
            accept = log_u[j] < (lp[cand] - lp[cur]) + (lq[cur] - lq[cand])
            cur = np.where(accept, cand, cur)
            chain.n_accepted += accept
            picks[j] = cur
        if series is not None:
            series[:, start : start + k] = obs[picks].T
        moved = cur >= c
        src = cur[moved] - c
        chain.paths.states[moved] = prop.states[src]
        chain.paths.step_logq[moved] = prop.step_logq[src]
        chain.paths.prior_logq[moved] = prop.prior_logq[src]
        chain.log_p_hat = lp[cur]
        chain.log_q = lq[cur]
        chain.n_steps += k
    return series


def nmcmc_step(chain: ChainState, policy, target, schedule, rng, condition=None) -> ChainState:
    """One Metropolis-Hastings step per chain: `nmcmc_advance` with one step."""
    nmcmc_advance(chain, policy, target, schedule, 1, rng, None, condition)
    return chain


def nmcmc_run(
    policy,
    target,
    schedule,
    n_chains: int,
    n_steps: int,
    rng,
    observable=None,
    condition=None,
) -> tuple[np.ndarray, ChainState]:
    """Advance chains and record an observable of X_0 (default: energy).

    Returns (series, chain) with series of shape (n_chains, n_steps). Raises
    ValueError unless both counts are at least 1.
    """
    if n_chains < 1 or n_steps < 1:
        raise ValueError(f"need at least one chain and one step, got {n_chains} x {n_steps}")
    if observable is None:
        observable = lambda x: np.asarray(target.model.energy(x), dtype=np.float64)
    chain = nmcmc_init(policy, target, schedule, n_chains, rng, condition)
    series = nmcmc_advance(chain, policy, target, schedule, n_steps, rng, observable, condition)
    return series, chain


@dataclass(frozen=True)
class AutocorrResult:
    tau: float | None  # integrated autocorrelation time (None if degenerate)
    window: int  # truncation lag K satisfying K >= c * tau(K)
    rho: np.ndarray  # normalized autocorrelations rho(1..K)
    degenerate: bool = False


def autocorr_time(series, c: float = 5.0) -> AutocorrResult:
    """Integrated autocorrelation time with a self-consistent truncation window.

    tau(K) = 1 + 2 * sum_{lag<=K} rho(lag) where rho is the biased-normalization
    autocorrelation estimate; K is the first lag with K >= c * tau(K). A chain with
    (numerically) zero variance is flagged degenerate. The raw value is
    reported even if below 1 (anticorrelated chains).
    """
    x = np.asarray(series, dtype=np.float64).reshape(-1)
    n = len(x)
    if n < 10 * c:
        raise ValueError(f"series too short for a window search (need >= {int(10 * c)})")
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
    fits = np.flatnonzero(lags >= c * tau)
    if len(fits) == 0:
        raise ConvergenceError("no self-consistent autocorrelation window within the series")
    k = fits[0]
    return AutocorrResult(float(tau[k]), int(lags[k]), rho[: k + 1])


@dataclass(frozen=True)
class NmcmcEstimate:
    estimate: float
    stderr: float | None  # None when the observable series is degenerate
    tau: float | None
    burn_in: int
    acceptance_rate: float
    n_chains_used: int
    n_flagged: int  # chains that never accepted, excluded from the average


def estimate_from_series(
    series: np.ndarray,
    acceptance: np.ndarray,
    c: float = 5.0,
    min_burn_in: int = 100,
) -> NmcmcEstimate:
    """Post-burn-in mean with an autocorrelation-corrected standard error.

    Burn-in discards max(10*tau, min_burn_in) leading steps; the standard error
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

    taus = []
    degenerate = False
    for row in series:
        res = autocorr_time(row, c)
        if res.degenerate:
            degenerate = True
        else:
            taus.append(res.tau)
    if degenerate and not taus:
        # constant observable: the estimate is exact, the error bar undefined
        return NmcmcEstimate(
            estimate=float(series.mean()),
            stderr=None,
            tau=None,
            burn_in=0,
            acceptance_rate=float(np.mean(np.asarray(acceptance)[live]) if live.any() else 0.0),
            n_chains_used=int(live.sum()),
            n_flagged=n_flagged,
        )
    tau = float(np.mean(taus))
    burn_in = int(max(10.0 * tau, min_burn_in))
    if burn_in >= n_steps:
        raise ConvergenceError(
            f"burn-in {burn_in} does not fit in a chain of length {n_steps}"
        )
    post = series[:, burn_in:]
    n_post = post.size
    est = float(post.mean())
    var = float(post.var(ddof=1)) if n_post > 1 else 0.0
    stderr = math.sqrt(var / n_post * 2.0 * tau)
    return NmcmcEstimate(
        estimate=est,
        stderr=stderr,
        tau=tau,
        burn_in=burn_in,
        acceptance_rate=float(np.mean(np.asarray(acceptance)[live])),
        n_chains_used=int(live.sum()),
        n_flagged=n_flagged,
    )


def nmcmc_estimate(
    policy,
    target,
    schedule,
    observable=None,
    *,
    n_chains: int = 8,
    n_steps: int = 2000,
    rng=None,
    condition=None,
    c: float = 5.0,
    min_burn_in: int = 100,
) -> NmcmcEstimate:
    """Run chains, check convergence via the autocorrelation window, and return
    the post-burn-in estimate with its corrected standard error."""
    if rng is None:
        rng = np.random.default_rng(0)
    series, chain = nmcmc_run(
        policy, target, schedule, n_chains, n_steps, rng, observable, condition
    )
    return estimate_from_series(series, chain.acceptance_rate(), c, min_burn_in)
