"""Random graph generation and exhaustive combinatorial-optimization oracles.

Generators are pure functions of their seed. The brute-force solver sweeps all
2^N states, so it is capped at small node counts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .energies import CO_PROBLEMS, MAX_ENUMERATION_BITS, CoProblem, checked_edges, sweep_energies

__all__ = ["Graph", "gen_ba", "gen_rb", "BruteForceResult", "brute_force_co", "is_feasible",
           "solution_size", "undirected_edges", "parse_edge_list", "format_edge_list"]

RB_CROSS_DENSITY = 0.25  # cross-edge count per ordered clique pair = round(density*(1-p)*k^2)


def undirected_edges(edges, n_nodes: int) -> np.ndarray:
    """The simple-graph edge rule: each pair as (lo, hi), sorted and
    deduplicated, read-only; self-loops are rejected."""
    edges = checked_edges(edges, n_nodes)
    if edges.size:
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        if (lo == hi).any():
            raise ValueError("self-loops are not allowed")
        order = np.lexsort((hi, lo))
        edges = np.column_stack([lo[order], hi[order]])
        edges = edges[np.concatenate([[True], (edges[1:] != edges[:-1]).any(axis=1)])]
    edges.setflags(write=False)
    return edges


def parse_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Parse the edge-list format: an `N M` header, then M lines `i j` or
    `i j 1` (0-indexed nodes). Graphs are unweighted, so a third column other
    than 1 is an error rather than a weight to drop."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty edge list")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("header must be 'N M'")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"header declares {m} edges, found {len(lines) - 1}")
    pairs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"bad edge line: {ln!r}")
        if len(parts) == 3 and float(parts[2]) != 1.0:
            raise ValueError(f"edge weights are not supported; the third column must be 1 "
                             f"in line {ln!r}")
        i, j = int(parts[0]), int(parts[1])
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge index out of range in line {ln!r}")
        pairs.append((i, j))
    return n, pairs


def format_edge_list(n: int, pairs) -> str:
    rows = [f"{n} {len(pairs)}"]
    for i, j in pairs:
        rows.append(f"{i} {j} 1")
    return "\n".join(rows) + "\n"


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: node count plus a deduplicated edge array.
    `CoProblem` and `is_feasible` read the edges and the adjacency from here."""

    n_nodes: int
    edges: np.ndarray

    def __post_init__(self):
        if not 0 <= self.n_nodes <= np.iinfo(np.int64).max:  # edges hold int64 indices
            raise ValueError(f"node count must be in 0..2^63-1, got {self.n_nodes}")
        object.__setattr__(self, "edges", undirected_edges(self.edges, self.n_nodes))

    @functools.cached_property
    def adjacency(self) -> np.ndarray:
        """Symmetric read-only boolean (N, N) matrix, built on first use."""
        adj = np.zeros((self.n_nodes, self.n_nodes), dtype=bool)
        adj[self.edges[:, 0], self.edges[:, 1]] = adj[self.edges[:, 1], self.edges[:, 0]] = True
        adj.setflags(write=False)
        return adj

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_nodes, dtype=np.int64)
        if self.edges.size:
            np.add.at(deg, self.edges[:, 0], 1)
            np.add.at(deg, self.edges[:, 1], 1)
        return deg

    def to_text(self) -> str:
        return format_edge_list(self.n_nodes, [(int(a), int(b)) for a, b in self.edges])

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        return cls(*parse_edge_list(text))

    def co_problem(self, kind: str, penalty_a: float, penalty_b: float) -> CoProblem:
        return CoProblem(kind, self, penalty_a, penalty_b)


def gen_ba(n_nodes: int, attachment: int, seed: int) -> Graph:
    """Preferential attachment: seed clique on m+1 nodes, then each new node
    attaches to m distinct existing nodes with degree-proportional probability.

    Deterministic for a given seed. Edge count is C(m+1, 2) + m*(n - m - 1).
    """
    m, n = attachment, n_nodes
    if m < 1:
        raise ValueError("attachment must be >= 1")
    if n <= m:
        raise ValueError("n_nodes must exceed attachment")
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(m + 1) for j in range(i + 1, m + 1)]
    degree = np.zeros(n, dtype=np.float64)
    degree[: m + 1] = m
    for v in range(m + 1, n):
        chosen: list[int] = []
        weights = degree[:v].copy()
        for _ in range(m):
            # the inverse CDF that `rng.choice(v, p=p)` draws by, one double
            # per draw, without that call's per-call checks
            p = weights / weights.sum()
            cdf = p.cumsum()
            cdf /= cdf[-1]
            u = int(cdf.searchsorted(rng.random(), side="right"))
            chosen.append(u)
            weights[u] = 0.0
        for u in chosen:
            edges.append((u, v))
            degree[u] += 1
        degree[v] = m
    return Graph(n, np.array(edges, dtype=np.int64))


def gen_rb(n_cliques: int, clique_size: int, interconnect: float, seed: int) -> Graph:
    """n disjoint k-cliques plus round(0.25*(1-p)*k^2) random distinct cross
    edges per ordered clique pair; p = 1 yields no cross edges at all."""
    n, k, p = n_cliques, clique_size, interconnect
    if n < 2:
        raise ValueError("n_cliques must be >= 2")
    if k < 2:
        raise ValueError("clique_size must be >= 2")
    if not 0.0 < p <= 1.0:
        raise ValueError("interconnect must be in (0, 1]")
    rng = np.random.default_rng(seed)
    edges = []
    for c in range(n):
        base = c * k
        edges.extend((base + i, base + j) for i in range(k) for j in range(i + 1, k))
    n_cross = int(round(RB_CROSS_DENSITY * (1.0 - p) * k * k))
    if n_cross > 0:
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                pairs = rng.choice(k * k, size=n_cross, replace=False)
                edges.extend((a * k + q // k, b * k + q % k) for q in pairs)
    return Graph(n * k, np.array(edges, dtype=np.int64))


# ---------------------------------------------------------------------------
# constraint checks on a state (N,) or a batch (..., N), one value per row,
# read from the graph's adjacency and never from the energy


def is_feasible(problem: str, graph: Graph, x):
    """Whether each row is an independent set (mis), a dominating set (mds)
    or a clique (maxcl); every row is feasible for maxcut."""
    x, adj = np.asarray(x, dtype=bool), graph.adjacency
    # mis, maxcl and maxcut forbid a chosen pair that `adj` links: an edge, a
    # non-adjacent pair, and no pair
    if problem == "maxcl":
        adj = ~adj ^ np.eye(graph.n_nodes, dtype=bool)
    elif problem == "maxcut":
        adj = np.zeros_like(adj)
    elif problem not in ("mis", "mds"):
        raise ValueError(f"unknown problem kind {problem!r}")
    # the nodes `adj` links to a chosen node, by a BLAS product: numpy's boolean
    # matmul has no BLAS kernel and took 14x as long at 300 nodes and 30 rows
    linked = x.astype(np.float32) @ adj.astype(np.float32) > 0
    if problem == "mds":
        return (x | linked).all(-1)
    return ~(x & linked).any(-1)


def solution_size(problem: str, graph: Graph, x):
    """The combinatorial quantity of each row: set size, or cut size for maxcut."""
    x = np.asarray(x, dtype=bool)
    if problem == "maxcut":
        a, b = graph.edges.T
        return (x[..., a] != x[..., b]).sum(-1)
    if problem in CO_PROBLEMS:
        return x.sum(-1)
    raise ValueError(f"unknown problem kind {problem!r}")


@dataclass(frozen=True)
class BruteForceResult:
    optimal_states: np.ndarray  # (n_opt, N) all energy minimizers
    optimal_energy: float
    optimal_size: int  # constraint-checked quantity of the minimizers


BRUTE_FORCE_NODES = 14  # node cap without `allow_large`


def brute_force_co(
    problem: str,
    graph: Graph,
    penalty_a: float = 1.0,
    penalty_b: float = 1.1,
    *,
    allow_large: bool = False,
) -> BruteForceResult:
    """Exhaustive optimum of the penalty energy over all 2^N states.

    One sweep: each chunk keeps its states within 1e-9 of the running
    minimum, and the kept states are filtered by the final minimum."""
    n = graph.n_nodes
    cap = MAX_ENUMERATION_BITS if allow_large else BRUTE_FORCE_NODES
    if n > cap:
        raise ValueError(f"brute force capped at {cap} nodes, got {n}")
    co = graph.co_problem(problem, penalty_a, penalty_b)
    best_e = math.inf
    kept = []
    for states, e in sweep_energies(co):
        if not np.isfinite(e).all():
            raise FloatingPointError("energy is not finite")
        best_e = min(best_e, float(e.min()))
        near = e <= best_e + 1e-9
        kept.append((states[near], e[near]))
    best_states = np.vstack([states[e <= best_e + 1e-9] for states, e in kept])
    sizes = np.unique(solution_size(problem, graph, best_states))
    if len(sizes) != 1:
        raise FloatingPointError(f"energy minimizers disagree on solution size: {sizes.tolist()}")
    return BruteForceResult(best_states, best_e, int(sizes[0]))
