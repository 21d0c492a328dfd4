"""Random graph generation and exhaustive combinatorial-optimization oracles.

Generators are pure functions of their seed. The brute-force solver sweeps all
2^N states, so it is capped at small node counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energies import CO_PROBLEMS, CoProblem, format_edge_list, int_to_bits, parse_edge_list

__all__ = [
    "Graph",
    "BaConfig",
    "RbConfig",
    "gen_ba",
    "gen_rb",
    "BruteForceResult",
    "brute_force_co",
    "is_independent_set",
    "is_dominating_set",
    "is_clique",
    "cut_size",
    "is_feasible",
    "solution_size",
]

RB_CROSS_DENSITY = 0.25  # cross-edge count per ordered clique pair = round(density*(1-p)*k^2)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: node count plus a deduplicated edge array."""

    n_nodes: int
    edges: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if edges.size:
            if edges.min() < 0 or edges.max() >= self.n_nodes:
                raise ValueError("edge index out of range")
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            if (lo == hi).any():
                raise ValueError("self-loops are not allowed")
            edges = np.unique(np.column_stack([lo, hi]), axis=0)
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_set(self) -> set:
        return {(int(a), int(b)) for a, b in self.edges}

    def neighbors(self) -> list:
        nbrs = [[] for _ in range(self.n_nodes)]
        for a, b in self.edges:
            nbrs[int(a)].append(int(b))
            nbrs[int(b)].append(int(a))
        return [sorted(v) for v in nbrs]

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_nodes, dtype=np.int64)
        if self.edges.size:
            np.add.at(deg, self.edges[:, 0], 1)
            np.add.at(deg, self.edges[:, 1], 1)
        return deg

    def permuted(self, perm) -> "Graph":
        """Relabel nodes: new index of old node i is perm[i]."""
        perm = np.asarray(perm, dtype=np.int64)
        return Graph(self.n_nodes, perm[self.edges])

    def to_text(self) -> str:
        return format_edge_list(self.n_nodes, [(int(a), int(b), 1.0) for a, b in self.edges])

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        n, triples = parse_edge_list(text)
        return cls(n, np.array([(i, j) for i, j, _ in triples], dtype=np.int64).reshape(-1, 2))

    def co_problem(self, kind: str, penalty_a: float = 1.0, penalty_b: float = 1.1) -> CoProblem:
        return CoProblem(kind, self.n_nodes, self.edges, penalty_a, penalty_b)


@dataclass(frozen=True)
class BaConfig:
    """Preferential-attachment generator config."""

    n_nodes: int
    attachment: int
    seed: int

    def __post_init__(self):
        if self.attachment < 1:
            raise ValueError("attachment must be >= 1")
        if self.n_nodes <= self.attachment:
            raise ValueError("n_nodes must exceed attachment")


@dataclass(frozen=True)
class RbConfig:
    """Clique-structured generator config: n_cliques disjoint k-cliques plus
    random cross edges whose count decreases in the interconnect p."""

    n_cliques: int
    clique_size: int
    interconnect: float
    seed: int

    def __post_init__(self):
        if self.n_cliques < 2:
            raise ValueError("n_cliques must be >= 2")
        if self.clique_size < 2:
            raise ValueError("clique_size must be >= 2")
        if not 0.0 < self.interconnect <= 1.0:
            raise ValueError("interconnect must be in (0, 1]")


def gen_ba(cfg: BaConfig) -> Graph:
    """Preferential attachment: seed clique on m+1 nodes, then each new node
    attaches to m distinct existing nodes with degree-proportional probability.

    Deterministic for a given seed. Edge count is C(m+1, 2) + m*(n - m - 1).
    """
    m, n = cfg.attachment, cfg.n_nodes
    rng = np.random.default_rng(cfg.seed)
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


def gen_rb(cfg: RbConfig) -> Graph:
    """n disjoint k-cliques plus round(0.25*(1-p)*k^2) random distinct cross
    edges per ordered clique pair; p = 1 yields no cross edges at all."""
    n, k, p = cfg.n_cliques, cfg.clique_size, cfg.interconnect
    rng = np.random.default_rng(cfg.seed)
    edges = []
    for c in range(n):
        base = c * k
        edges.extend((base + i, base + j) for i in range(k) for j in range(i + 1, k))
    n_cross = int(round(RB_CROSS_DENSITY * (1.0 - p) * k * k))
    if n_cross > 0:
        seen = set()
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                pairs = rng.choice(k * k, size=n_cross, replace=False)
                for q in pairs:
                    u = a * k + q // k
                    v = b * k + q % k
                    key = (min(u, v), max(u, v))
                    if key not in seen:
                        seen.add(key)
                        edges.append(key)
    return Graph(n * k, np.array(edges, dtype=np.int64))


# ---------------------------------------------------------------------------
# feasibility checkers (independent of the energy formulas)


def is_independent_set(graph: Graph, x) -> bool:
    x = np.asarray(x)
    e = graph.edges
    return not len(e) or not bool((x[e[:, 0]] * x[e[:, 1]]).any())


def is_dominating_set(graph: Graph, x) -> bool:
    x = np.asarray(x).astype(bool)
    covered = x.copy()
    for a, b in graph.edges:
        if x[b]:
            covered[a] = True
        if x[a]:
            covered[b] = True
    return bool(covered.all())


def is_clique(graph: Graph, x) -> bool:
    members = [i for i in range(graph.n_nodes) if x[i]]
    es = graph.edge_set()
    return all(
        (min(a, b), max(a, b)) in es for ai, a in enumerate(members) for b in members[ai + 1:]
    )


def cut_size(graph: Graph, x) -> int:
    x = np.asarray(x)
    e = graph.edges
    if not len(e):
        return 0
    return int((x[e[:, 0]] != x[e[:, 1]]).sum())


def is_feasible(problem: str, graph: Graph, x) -> bool:
    if problem == "mis":
        return is_independent_set(graph, x)
    if problem == "mds":
        return is_dominating_set(graph, x)
    if problem == "maxcl":
        return is_clique(graph, x)
    if problem == "maxcut":
        return True
    raise ValueError(f"unknown problem kind {problem!r}")


def solution_size(problem: str, graph: Graph, x) -> int:
    """The combinatorial quantity of a state: set size, or cut size for maxcut."""
    if problem == "maxcut":
        return cut_size(graph, x)
    if problem in CO_PROBLEMS:
        return int(np.asarray(x).sum())
    raise ValueError(f"unknown problem kind {problem!r}")


@dataclass(frozen=True)
class BruteForceResult:
    optimal_states: np.ndarray  # (n_opt, N) all energy minimizers
    optimal_energy: float
    optimal_size: int  # constraint-checked quantity of the minimizers


def brute_force_co(
    problem: str,
    graph: Graph,
    penalty_a: float = 1.0,
    penalty_b: float = 1.1,
    *,
    node_cap: int = 14,
    allow_large: bool = False,
) -> BruteForceResult:
    """Exhaustive optimum of the penalty energy over all 2^N states."""
    n = graph.n_nodes
    cap = 26 if allow_large else node_cap
    if n > cap:
        raise ValueError(f"brute force capped at {cap} nodes, got {n}")
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
    sizes = {solution_size(problem, graph, s) for s in best_states}
    if len(sizes) != 1:
        raise RuntimeError(f"energy minimizers disagree on solution size: {sorted(sizes)}")
    return BruteForceResult(best_states, best_e, sizes.pop())
