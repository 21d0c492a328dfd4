"""Shared test oracles: independent brute-force and enumeration references.

Everything here is deliberately written against the public math rather than
the library internals: finite differences for gradients, explicit path
enumeration for likelihoods and divergences, and the value-function recursion
for the exact policy gradient.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from bitdiff import autodiff as ad
from bitdiff.autodiff import tsum
from bitdiff.diffusion import PathBatch, bernoulli_logpmf, path_log_p_hat, stationary_logprob
from bitdiff.energies import int_to_bits, sweep_energies
from bitdiff.graphs import BruteForceResult, Graph
from bitdiff.unbiased import AutocorrResult, ConvergenceError


def rel_err(got, want) -> float:
    """Max absolute difference relative to the reference vector's scale."""
    got = np.asarray(got, dtype=np.float64).ravel()
    want = np.asarray(want, dtype=np.float64).ravel()
    scale = np.abs(want).max()
    return float(np.abs(got - want).max() / (scale + 1e-12))


def grads_to_vec(grads: dict) -> np.ndarray:
    return np.concatenate([np.asarray(grads[k]).ravel() for k in sorted(grads)])


def finite_diff_grads(f, params: dict, h: float = 1e-5, order: int = 2) -> dict:
    """Central-difference gradient of f() with respect to entries of `params`
    (mutated in place around each evaluation). order=4 uses the five-point
    stencil for tighter truncation error."""
    grads = {}
    for name, arr in params.items():
        flat = arr.ravel()
        g = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            if order == 2:
                flat[i] = orig + h
                fp = f()
                flat[i] = orig - h
                fm = f()
                g[i] = (fp - fm) / (2.0 * h)
            else:
                vals = []
                for offset in (2 * h, h, -h, -2 * h):
                    flat[i] = orig + offset
                    vals.append(f())
                g[i] = (-vals[0] + 8 * vals[1] - 8 * vals[2] + vals[3]) / (12.0 * h)
            flat[i] = orig
        grads[name] = g.reshape(arr.shape)
    return grads


def all_states(n_bits: int) -> np.ndarray:
    return int_to_bits(np.arange(1 << n_bits), n_bits)


def all_paths(n_bits: int, t_steps: int) -> np.ndarray:
    """Every diffusion path as a (paths, T+1, n) state array (axis 1 = time)."""
    n_states = 1 << n_bits
    combos = np.array(
        list(itertools.product(range(n_states), repeat=t_steps + 1)), dtype=np.int64
    )
    return int_to_bits(combos, n_bits)


def teacher_forced_batch(policy, states: np.ndarray, condition=None) -> PathBatch:
    """PathBatch over given states with exact step log-probs under `policy`,
    and for a policy with a value head its values V(X_t, t), as the sampler
    records them."""
    m, t1, n = states.shape
    t_steps = t1 - 1
    step_logq = np.empty((m, t_steps))
    values = np.empty((m, t_steps)) if policy.spec.value_head else None
    for t in range(t_steps, 0, -1):
        probs = policy.probs(states[:, t], t, condition)
        step_logq[:, t - 1] = bernoulli_logpmf(states[:, t - 1], probs)
        if values is not None:
            values[:, t - 1] = policy.value(states[:, t], t, condition)
    return PathBatch(states.astype(np.int8), step_logq, stationary_logprob(states[:, t_steps]),
                     values=values)


def exact_joint_kl(policy, target, schedule, temperature: float, condition=None) -> float:
    """temperature * KL(q || p_hat) by full path enumeration (constant offset
    from the normalized KL; irrelevant for parameter gradients)."""
    n_bits = target.n_sites
    states = all_paths(n_bits, schedule.n_steps)
    batch = teacher_forced_batch(policy, states, condition)
    log_q = batch.log_q
    log_p = path_log_p_hat(target, schedule, batch, target.energy(batch.x0))
    q = np.exp(log_q)
    return float(temperature * (q @ (log_q - log_p)))


def _hamming_matrix(states: np.ndarray) -> np.ndarray:
    return (states[:, None, :] != states[None, :, :]).sum(axis=2)


def exact_value_tables(policy, target, schedule, temperature: float, condition=None):
    """Exact V, Q and visitation marginals by the backward recursion.

    Returns (v_tables, q_tables, q_cond, marginals):
      v_tables[t][i]      = V(X_t = state i), with v_tables[0] = 0
      q_tables[t][i, j]   = Q(X_{t-1} = j, X_t = i)
      q_cond[t][i, j]     = q(X_{t-1} = j | X_t = i)
      marginals[t][i]     = probability of X_t = i on-policy
    """
    n_bits = target.n_sites
    t_steps = schedule.n_steps
    states = all_states(n_bits)
    n_states = len(states)
    flips = _hamming_matrix(states).astype(np.float64)
    energies = np.asarray(target.model.energy(states), dtype=np.float64)

    v_tables = {0: np.zeros(n_states)}
    q_tables = {}
    q_cond = {}
    for t in range(1, t_steps + 1):
        probs = policy.probs(states, t, condition)
        logq = np.log(probs) @ states.T.astype(np.float64) + np.log1p(-probs) @ (
            1.0 - states.T.astype(np.float64)
        )
        beta_t = schedule.beta(t)
        logp = flips * np.log(beta_t) + (n_bits - flips) * np.log1p(-beta_t)
        reward = temperature * (logp - logq)
        if t == 1:
            reward = reward - temperature * target.beta * energies[None, :]
        q_mat = reward + v_tables[t - 1][None, :]
        cond = np.exp(logq)
        v_tables[t] = (cond * q_mat).sum(axis=1)
        q_tables[t] = q_mat
        q_cond[t] = cond

    marginals = {t_steps: np.full(n_states, 1.0 / n_states)}
    for t in range(t_steps, 0, -1):
        marginals[t - 1] = marginals[t] @ q_cond[t]
    return v_tables, q_tables, q_cond, marginals


def exact_policy_gradient(policy, target, schedule, temperature: float, condition=None) -> dict:
    """Exact expectation of the policy-gradient update,
    -sum_t E_{X_t}[ E_{X_{t-1}|X_t}[ Q * grad log q ] ], via the recursion
    tables; equals the gradient of the temperature-scaled joint reverse KL."""
    n_bits = target.n_sites
    t_steps = schedule.n_steps
    states = all_states(n_bits)
    _, q_tables, q_cond, marginals = exact_value_tables(
        policy, target, schedule, temperature, condition
    )
    leaves = ad.leaves(policy.params)
    total = None
    s_f = states.astype(np.float64)
    for t in range(1, t_steps + 1):
        probs = policy.probs_from(leaves, states, t, condition)
        logq_mat = ad.matmul(ad.log(probs), s_f.T) + ad.matmul(ad.log(1.0 - probs), 1.0 - s_f.T)
        weight = marginals[t][:, None] * q_cond[t] * q_tables[t]
        term = tsum(logq_mat * weight)
        total = term if total is None else total + term
    total.backward()
    return {k: -g for k, g in ad.collect_grads(leaves).items()}


def autocorr_time_direct(series, c: float = 5.0) -> AutocorrResult:
    """`autocorr_time` by its definition, one lag at a time: rho(lag) is
    d[:-lag] @ d[lag:] / (n - lag) / c0 and the window is the first lag K with
    K >= c * (1 + 2 * sum_{lag<=K} rho(lag))."""
    x = np.asarray(series, dtype=np.float64).reshape(-1)
    n = len(x)
    if n < 10 * c:
        raise ValueError(f"series too short for a window search (need >= {int(10 * c)})")
    mu = x.mean()
    d = x - mu
    c0 = float(d @ d) / n
    if c0 < 1e-14 * max(1.0, mu * mu):
        return AutocorrResult(None, 0, np.empty(0), degenerate=True)
    rhos = []
    for lag in range(1, n - 1):
        rhos.append(float(d[:-lag] @ d[lag:]) / (n - lag) / c0)
        tau = 1.0 + 2.0 * float(np.sum(rhos))
        if lag >= c * tau:
            return AutocorrResult(tau, lag, np.array(rhos))
    raise ConvergenceError("no self-consistent autocorrelation window within the series")


def lattice_bonds_direct(side_length: int) -> np.ndarray:
    """`lattice_bonds` site by site: each row-major site (i, j) gives its
    right neighbor, then its down neighbor, with periodic wrap."""
    L = side_length
    bonds = []
    for i in range(L):
        for j in range(L):
            site = i * L + j
            bonds.append((site, i * L + (j + 1) % L))
            bonds.append((site, ((i + 1) % L) * L + j))
    return np.array(bonds, dtype=np.int64)


def neighbors_direct(n_nodes: int, edges) -> tuple:
    """Sorted neighbor array of every node, one edge at a time."""
    nbrs = [[] for _ in range(n_nodes)]
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    return tuple(np.array(sorted(v), dtype=np.int64) for v in nbrs)


def mds_energy_direct(co, x) -> np.ndarray:
    """The MDS energy A * |set| + B * sum_i (1-x_i) prod_{j in N(i)} (1-x_j),
    one node at a time, in node order."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    neighbors = neighbors_direct(co.n_sites, co.graph.edges)
    comp = 1.0 - x
    pen = np.zeros(x.shape[:-1])
    for i in range(co.n_sites):
        term = comp[..., i]
        if len(neighbors[i]):
            term = term * np.take(comp, neighbors[i], axis=-1).prod(axis=-1)
        pen = pen + term
    return co.penalty_a * x.sum(axis=-1) + co.penalty_b * pen


def is_independent_set(graph, x) -> bool:
    x = np.asarray(x)
    e = graph.edges
    return not len(e) or not bool((x[e[:, 0]] * x[e[:, 1]]).any())


def is_dominating_set(graph, x) -> bool:
    x = np.asarray(x).astype(bool)
    covered = x.copy()
    for a, b in graph.edges:
        if x[b]:
            covered[a] = True
        if x[a]:
            covered[b] = True
    return bool(covered.all())


def is_clique(graph, x) -> bool:
    members = [i for i in range(graph.n_nodes) if x[i]]
    es = {(int(a), int(b)) for a, b in graph.edges}
    return all(
        (min(a, b), max(a, b)) in es for ai, a in enumerate(members) for b in members[ai + 1:]
    )


def cut_size(graph, x) -> int:
    x = np.asarray(x)
    e = graph.edges
    if not len(e):
        return 0
    return int((x[e[:, 0]] != x[e[:, 1]]).sum())


def is_feasible_direct(problem: str, graph, x) -> bool:
    """The constraint of one state, checked edge by edge and pair by pair."""
    if problem == "mis":
        return is_independent_set(graph, x)
    if problem == "mds":
        return is_dominating_set(graph, x)
    if problem == "maxcl":
        return is_clique(graph, x)
    if problem == "maxcut":
        return True
    raise ValueError(f"unknown problem kind {problem!r}")


def solution_size_direct(problem: str, graph, x) -> int:
    """The set size of one state, or its cut size for maxcut."""
    return cut_size(graph, x) if problem == "maxcut" else int(np.asarray(x).sum())


def brute_force_co_direct(problem: str, graph, penalty_a: float = 1.0,
                          penalty_b: float = 1.1) -> BruteForceResult:
    """`brute_force_co` in two sweeps over all 2^N states: one for the
    minimum energy, one collecting every state within 1e-9 of it."""
    n = graph.n_nodes
    co = graph.co_problem(problem, penalty_a, penalty_b)
    chunk = 1 << min(16, n)
    best_e = math.inf
    for start in range(0, 1 << n, chunk):
        idx = np.arange(start, min(start + chunk, 1 << n))
        best_e = min(best_e, float(co.energy(int_to_bits(idx, n)).min()))
    collected = []
    for start in range(0, 1 << n, chunk):
        idx = np.arange(start, min(start + chunk, 1 << n))
        states = int_to_bits(idx, n)
        e = co.energy(states)
        collected.append(states[e <= best_e + 1e-9])
    best_states = np.vstack(collected)
    sizes = {solution_size_direct(problem, graph, s) for s in best_states}
    if len(sizes) != 1:
        raise RuntimeError(f"energy minimizers disagree on solution size: {sorted(sizes)}")
    return BruteForceResult(best_states, best_e, sizes.pop())


def undirected_edges_direct(edges) -> np.ndarray:
    """The simple-graph edge rule by `np.unique` over rows: each pair as
    (lo, hi), sorted and deduplicated (index and self-loop checks left out)."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if not edges.size:
        return edges
    return np.unique(np.column_stack([edges.min(axis=1), edges.max(axis=1)]), axis=0)


def gen_ba_direct(n_nodes: int, attachment: int, seed: int) -> Graph:
    """`graphs.gen_ba` with each attachment drawn by `Generator.choice`."""
    m, n = attachment, n_nodes
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(m + 1) for j in range(i + 1, m + 1)]
    degree = np.zeros(n, dtype=np.float64)
    degree[: m + 1] = m
    for v in range(m + 1, n):
        chosen: list[int] = []
        weights = degree[:v].copy()
        for _ in range(m):
            p = weights / weights.sum()
            u = int(rng.choice(v, p=p))
            chosen.append(u)
            weights[u] = 0.0
        for u in chosen:
            edges.append((u, v))
            degree[u] += 1
        degree[v] = m
    return Graph(n, np.array(edges, dtype=np.int64))


def non_edges_direct(n_nodes: int, edges) -> np.ndarray:
    """Every pair a < b that is not an edge, in (a, b) lexicographic order."""
    present = {(int(a), int(b)) for a, b in edges}
    non = [(a, b) for a in range(n_nodes) for b in range(a + 1, n_nodes)
           if (a, b) not in present]
    return np.array(non, dtype=np.int64).reshape(-1, 2)


# -- the tape's numerics as first written: exact references for the rewrites
# that compute the same floating-point operations with fewer arrays


def sigmoid_direct(z) -> np.ndarray:
    """Logistic with exp(-|z|) evaluated three times and both branches in full."""
    z = np.asarray(z, dtype=np.float64)
    return np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))),
                    np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))


def tanh_vjp_direct(g, out) -> np.ndarray:
    return g * (1.0 - out * out)


def sigmoid_vjp_direct(g, out) -> np.ndarray:
    return g * out * (1.0 - out)


def truediv_vjp_direct(g, a, b) -> tuple:
    """Gradients of a / b for the numerator and the denominator, before
    reduction to their shapes."""
    return g / b, -g * a / (b * b)


def forward_step_logp_direct(states, betas) -> np.ndarray:
    """(M, T) log p(X_t | X_{t-1}) of (M, T+1, n) paths, one step at a time:
    flips * log(beta_t) + stays * log1p(-beta_t)."""
    n = states.shape[-1]
    out = np.empty((states.shape[0], states.shape[1] - 1))
    for t in range(1, states.shape[1]):
        flips = (states[:, t] != states[:, t - 1]).sum(axis=-1).astype(np.float64)
        beta = float(betas[t - 1])
        out[:, t - 1] = flips * math.log(beta) + (n - flips) * math.log1p(-beta)
    return out


def bernoulli_logpmf_direct(bits, probs) -> np.ndarray:
    bits = np.asarray(bits, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    return (bits * np.log(probs) + (1.0 - bits) * np.log1p(-probs)).sum(axis=-1)


def backward_direct(root) -> None:
    """`Tensor.backward` with every contribution summed into a fresh array
    (same traversal, so the same summation order)."""
    topo, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    root.grad = np.asarray(1.0)
    for node in reversed(topo):
        if node._vjp is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._vjp(node.grad)):
            parent.grad = g if parent.grad is None else parent.grad + g


def conditional_expectation_direct(v, energy_fn) -> np.ndarray:
    """Conditional-expectation rounding of one marginal vector, two one-row
    energy calls per fractional coordinate: the reference for the batched
    `bitdiff.decode.conditional_expectation`."""
    work = np.array(v, dtype=np.float64).reshape(-1)
    if work.size == 0:
        raise ValueError("empty probability vector")
    if not np.isfinite(work).all() or (work < 0).any() or (work > 1).any():
        raise ValueError("marginals must lie in [0, 1]")
    order = np.argsort(-work, kind="stable")
    for i in order:
        if work[i] == 0.0 or work[i] == 1.0:
            continue
        work[i] = 0.0
        e0 = float(energy_fn(work))
        work[i] = 1.0
        e1 = float(energy_fn(work))
        if not (np.isfinite(e0) and np.isfinite(e1)):
            raise FloatingPointError("non-finite energy during rounding")
        work[i] = 1.0 if e1 <= e0 else 0.0
    return work.astype(np.int8)


def snis_one_shot_direct(energy, log_w) -> tuple[float, float, float]:
    """log Z-hat = log(mean w), the weighted mean energy U and the ESS per
    sample of w = exp(log_w), all M weights normalized in one pass: the
    reference for folding blocks into `bitdiff.energies.WeightSums`."""
    energy = np.asarray(energy, dtype=np.float64)
    log_w = np.asarray(log_w, dtype=np.float64)
    m = len(log_w)
    shift = log_w.max()
    w = np.exp(log_w - shift)
    total = w.sum()
    weights = w / total
    log_z_hat = shift + math.log(total) - math.log(m)
    ess = 1.0 / (m * float(weights @ weights))
    return log_z_hat, float(weights @ energy), min(1.0, max(1.0 / m, ess))


def enumeration_sums_direct(target) -> tuple[float, float]:
    """log Z and U of a Boltzmann target from a running log-sum-exp over the
    enumeration sweep's chunks, written out inline: the reference for
    `bitdiff.energies.enumerate_observables`."""
    shift = -np.inf
    acc_w = 0.0  # sum of exp(logw - shift)
    acc_wh = 0.0  # sum of H * exp(logw - shift)
    for _, e in sweep_energies(target.model):
        logw = -target.beta * e
        m = float(logw.max())
        if m > shift:
            scale = math.exp(shift - m) if math.isfinite(shift) else 0.0
            acc_w *= scale
            acc_wh *= scale
            shift = m
        w = np.exp(logw - shift)
        acc_w += float(w.sum())
        acc_wh += float((w * e).sum())
    return shift + math.log(acc_w), acc_wh / acc_w


def kaufman_log_z(side_length: int, coupling: float, beta: float) -> float:
    """log Z of the ferromagnet (coupling > 0, beta > 0) on a periodic LxL
    torus in closed form (Kaufman 1949; the finite-torus form of Beale 1996,
    PRL 76, 78): Z = 1/2 (2 sinh 2K)^(L^2/2) (Z_1 + Z_2 + Z_3 + Z_4), K = beta J,
    Z_1, Z_2 = prod over odd k of 2 cosh, 2 sinh (L gamma_k / 2), Z_3, Z_4 the
    same over even k, with cosh gamma_k = cosh 2K coth 2K - cos(pi k / L) and
    gamma_0 = 2K + log tanh K, whose sign makes Z_4 negative above T_c."""
    L, K = side_length, beta * coupling
    k = np.arange(2 * L)
    gamma = np.arccosh(math.cosh(2 * K) / math.tanh(2 * K) - np.cos(np.pi * k / L))
    gamma[0] = 2 * K + math.log(math.tanh(K))
    x = L * gamma / 2
    # each term as (sign, log |term|); log 2cosh x = logaddexp(x, -x), and
    # log |2 sinh x| = |x| + log1p(-exp(-2|x|))
    log_cosh = np.logaddexp(x, -x)
    log_sinh = np.abs(x) + np.log1p(-np.exp(-2 * np.abs(x)))
    terms = [(1.0, log_cosh[1::2].sum()), (1.0, log_sinh[1::2].sum()),
             (1.0, log_cosh[0::2].sum()), (float(np.sign(x[0])), log_sinh[0::2].sum())]
    top = max(log for _, log in terms)
    bracket = sum(sign * math.exp(log - top) for sign, log in terms)
    return -math.log(2) + L * L / 2 * math.log(2 * math.sinh(2 * K)) + top + math.log(bracket)
