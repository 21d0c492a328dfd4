"""Binary states, energy models, Boltzmann targets, and exact enumeration.

States are plain numpy arrays with values in {0, 1}; the last axis indexes
sites, leading axes are batch dimensions. The spin view is sigma = 2*x - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "as_bits",
    "spins",
    "all_states",
    "int_to_bits",
    "IsingLattice2D",
    "SpinCouplingModel",
    "EAInstance",
    "CoProblem",
    "CO_PROBLEMS",
    "BoltzmannTarget",
    "ExactObservables",
    "enumerate_observables",
    "lattice_bonds",
    "write_instance_text",
    "read_instance_text",
    "build_lattice",
    "parse_edge_list",
    "format_edge_list",
]


def as_bits(x, n_sites: int) -> np.ndarray:
    """Validate a binary state (or batch) and return it as an int8 array."""
    arr = np.asarray(x)
    if arr.shape[-1] != n_sites:
        raise ValueError(f"state has {arr.shape[-1]} bits, expected {n_sites}")
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise ValueError("state entries must be 0 or 1")
    return arr.astype(np.int8, copy=False)


def spins(x) -> np.ndarray:
    """Map bits {0,1} to spins {-1,+1} via sigma = 2*x - 1."""
    return 2.0 * np.asarray(x, dtype=np.float64) - 1.0


def int_to_bits(idx, n: int) -> np.ndarray:
    """Decode integer state labels into (..., n) bit arrays (LSB = site 0)."""
    idx = np.asarray(idx, dtype=np.int64)
    return ((idx[..., None] >> np.arange(n)) & 1).astype(np.int8)


def all_states(n: int) -> np.ndarray:
    """All 2^n binary states as a (2^n, n) int8 array. Intended for n <= 20."""
    if n > 20:
        raise ValueError(f"all_states materializes 2^{n} rows; use chunked enumeration")
    return int_to_bits(np.arange(1 << n), n)


def lattice_bonds(side_length: int) -> np.ndarray:
    """Undirected nearest-neighbor bonds of a periodic LxL grid, each once.

    Sites are row-major (site = i*L + j); every site contributes its right
    and down neighbor, giving 2*L^2 bonds total.
    """
    L = side_length
    bonds = []
    for i in range(L):
        for j in range(L):
            site = i * L + j
            bonds.append((site, i * L + (j + 1) % L))
            bonds.append((site, ((i + 1) % L) * L + j))
    return np.array(bonds, dtype=np.int64)


@dataclass(frozen=True)
class SpinCouplingModel:
    """Generic pairwise spin model H(x) = -sum_b J_b * sigma_i(b) * sigma_j(b).

    `edges` holds each undirected pair exactly once; `couplings` is aligned
    with `edges`.
    """

    n_sites: int
    edges: np.ndarray
    couplings: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        couplings = np.asarray(self.couplings, dtype=np.float64).reshape(-1)
        if len(edges) != len(couplings):
            raise ValueError("edges and couplings must have equal length")
        if edges.size and (edges.min() < 0 or edges.max() >= self.n_sites):
            raise ValueError("edge index out of range")
        if not np.isfinite(couplings).all():
            raise ValueError("couplings must be finite")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "couplings", couplings)

    def energy(self, x) -> np.ndarray:
        x = as_bits(x, self.n_sites)
        s = spins(x)
        e = -(self.couplings * s[..., self.edges[:, 0]] * s[..., self.edges[:, 1]]).sum(axis=-1)
        return e


@dataclass(frozen=True)
class IsingLattice2D:
    """Ferromagnet on a periodic LxL grid: H = -J sum_<ij> sigma_i sigma_j."""

    side_length: int
    coupling: float = 1.0
    periodic: bool = True

    def __post_init__(self):
        if not self.periodic:
            raise ValueError("only periodic lattices are supported")
        if self.side_length < 3:
            # L=2 periodic wrap duplicates every bond; reject rather than double-count.
            raise ValueError("side_length must be >= 3")

    @property
    def n_sites(self) -> int:
        return self.side_length ** 2

    def bonds(self) -> np.ndarray:
        return lattice_bonds(self.side_length)

    def energy(self, x) -> np.ndarray:
        x = as_bits(x, self.n_sites)
        s = spins(x)
        b = self.bonds()
        return -self.coupling * (s[..., b[:, 0]] * s[..., b[:, 1]]).sum(axis=-1)


@dataclass(frozen=True)
class EAInstance:
    """Edwards-Anderson spin glass: periodic LxL grid with random bond couplings."""

    side_length: int
    couplings: np.ndarray
    rng_seed: int

    def __post_init__(self):
        if self.side_length < 3:
            raise ValueError("side_length must be >= 3")
        couplings = np.asarray(self.couplings, dtype=np.float64).reshape(-1)
        n_bonds = 2 * self.side_length ** 2
        if len(couplings) != n_bonds:
            raise ValueError(f"expected {n_bonds} couplings, got {len(couplings)}")
        couplings.setflags(write=False)
        object.__setattr__(self, "couplings", couplings)

    @classmethod
    def normal(cls, side_length: int, seed: int) -> "EAInstance":
        """Couplings drawn from a standard normal (unbiased-sampling setting)."""
        rng = np.random.default_rng(seed)
        n_bonds = 2 * side_length ** 2
        return cls(side_length, rng.standard_normal(n_bonds), seed)

    @classmethod
    def uniform(cls, side_length: int, seed: int) -> "EAInstance":
        """Couplings drawn uniformly from [-1, 1) (ground-state setting)."""
        rng = np.random.default_rng(seed)
        n_bonds = 2 * side_length ** 2
        return cls(side_length, rng.uniform(-1.0, 1.0, n_bonds), seed)

    @property
    def n_sites(self) -> int:
        return self.side_length ** 2

    def bonds(self) -> np.ndarray:
        return lattice_bonds(self.side_length)

    def energy(self, x) -> np.ndarray:
        return SpinCouplingModel(self.n_sites, self.bonds(), self.couplings).energy(x)


CO_PROBLEMS = ("mis", "mds", "maxcl", "maxcut")


@dataclass(frozen=True)
class CoProblem:
    """Penalty-form energy of a combinatorial problem on a graph.

    `kind` is one of 'mis', 'mds', 'maxcl', 'maxcut'. The energy functions are
    multilinear in x, so `energy` accepts relaxed states in [0, 1]^N and then
    returns the exact expectation under the product distribution with those
    marginals. Edge sums count each undirected pair once; MaxCl penalizes
    non-adjacent pairs excluding self-pairs.
    """

    kind: str
    n_nodes: int
    edges: np.ndarray
    penalty_a: float = 1.0
    penalty_b: float = 1.1
    _neighbors: tuple = field(init=False, repr=False)
    _non_edges: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in CO_PROBLEMS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if edges.size:
            if edges.min() < 0 or edges.max() >= self.n_nodes:
                raise ValueError("edge index out of range")
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            if (lo == hi).any():
                raise ValueError("self-loops are not allowed")
            edges = np.unique(np.column_stack([lo, hi]), axis=0)
        if self.kind in ("mis", "mds", "maxcl") and not self.penalty_a < self.penalty_b:
            raise ValueError("penalty_a must be < penalty_b")
        object.__setattr__(self, "edges", edges)

        nbrs = [[] for _ in range(self.n_nodes)]
        present = set()
        for a, b in edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
            present.add((int(a), int(b)))
        object.__setattr__(
            self, "_neighbors", tuple(np.array(sorted(v), dtype=np.int64) for v in nbrs)
        )
        if self.kind == "maxcl":
            non = [
                (a, b)
                for a in range(self.n_nodes)
                for b in range(a + 1, self.n_nodes)
                if (a, b) not in present
            ]
            non_edges = np.array(non, dtype=np.int64).reshape(-1, 2)
        else:
            non_edges = np.empty((0, 2), dtype=np.int64)
        object.__setattr__(self, "_non_edges", non_edges)

    @property
    def n_sites(self) -> int:
        return self.n_nodes

    def energy(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.n_nodes:
            raise ValueError(f"state has {x.shape[-1]} bits, expected {self.n_nodes}")
        A, B = self.penalty_a, self.penalty_b
        total = x.sum(axis=-1)
        if self.kind == "mis":
            e = self.edges
            pen = (x[..., e[:, 0]] * x[..., e[:, 1]]).sum(axis=-1) if len(e) else 0.0
            return -A * total + B * pen
        if self.kind == "maxcl":
            e = self._non_edges
            pen = (x[..., e[:, 0]] * x[..., e[:, 1]]).sum(axis=-1) if len(e) else 0.0
            return -A * total + B * pen
        if self.kind == "maxcut":
            e = self.edges
            if not len(e):
                return np.zeros(x.shape[:-1])
            xi, xj = x[..., e[:, 0]], x[..., e[:, 1]]
            # cut indicator (1 - sigma_i sigma_j)/2 expanded in bits
            return -(xi + xj - 2.0 * xi * xj).sum(axis=-1)
        # mds: A * |set| + B * sum_i (1-x_i) prod_{j in N(i)} (1-x_j)
        comp = 1.0 - x
        pen = np.zeros(x.shape[:-1])
        for i in range(self.n_nodes):
            nb = self._neighbors[i]
            term = comp[..., i]
            if len(nb):
                term = term * comp[..., nb].prod(axis=-1)
            pen = pen + term
        return A * total + B * pen


@dataclass(frozen=True)
class BoltzmannTarget:
    """Unnormalized Boltzmann distribution exp(-beta * H(x)) over an energy model."""

    model: object  # anything with .energy(x) and .n_sites
    beta: float

    def __post_init__(self):
        if not math.isfinite(self.beta) or self.beta < 0:
            raise ValueError("beta must be finite and >= 0")

    @property
    def n_sites(self) -> int:
        return self.model.n_sites

    def log_unnormalized(self, x) -> np.ndarray:
        e = np.asarray(self.model.energy(x), dtype=np.float64)
        if not np.isfinite(e).all():
            raise ValueError("energy is not finite")
        return -self.beta * e


@dataclass(frozen=True)
class ExactObservables:
    """Exact partition function and thermodynamic observables from enumeration.

    `free_energy` is None at beta = 0, where F diverges; entropy and internal
    energy are still defined (uniform distribution over states).
    """

    beta: float
    n_sites: int
    log_z: float
    z: float
    internal_energy: float
    entropy: float
    free_energy: float | None
    probabilities: np.ndarray | None

    def per_site(self) -> dict:
        out = {"U": self.internal_energy / self.n_sites, "S": self.entropy / self.n_sites}
        out["F"] = None if self.free_energy is None else self.free_energy / self.n_sites
        return out


def enumerate_observables(
    target: BoltzmannTarget,
    *,
    max_bits: int = 26,
    chunk_bits: int = 16,
    with_probabilities: bool = True,
) -> ExactObservables:
    """Exact observables of a Boltzmann target by sweeping all 2^N states.

    Uses a streaming log-sum-exp over fixed-size chunks processed in ascending
    state order, so the result is deterministic regardless of how callers might
    shard the work. N is hard-capped (2^N sweep).
    """
    n = target.n_sites
    if n > max_bits:
        raise ValueError(f"enumeration capped at {max_bits} bits, got {n}")
    total = 1 << n
    chunk = 1 << min(chunk_bits, n)
    beta = target.beta

    probs = np.empty(total, dtype=np.float64) if with_probabilities else None

    # running log-sum-exp state: logsumexp so far = shift + log(acc_w)
    shift = -np.inf
    acc_w = 0.0  # sum of exp(logw - shift)
    acc_wh = 0.0  # sum of H * exp(logw - shift)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        states = int_to_bits(idx, n)
        e = np.asarray(target.model.energy(states), dtype=np.float64)
        logw = -beta * e
        m = float(logw.max())
        if m > shift:
            scale = math.exp(shift - m) if math.isfinite(shift) else 0.0
            acc_w *= scale
            acc_wh *= scale
            shift = m
        w = np.exp(logw - shift)
        acc_w += float(w.sum())
        acc_wh += float((w * e).sum())
        if probs is not None:
            probs[idx] = logw  # normalized after the sweep

    log_z = shift + math.log(acc_w)
    u = acc_wh / acc_w
    if probs is not None:
        np.exp(probs - log_z, out=probs)

    z = math.exp(log_z) if log_z < 700 else math.inf
    if beta == 0.0:
        return ExactObservables(
            beta=beta,
            n_sites=n,
            log_z=log_z,
            z=z,
            internal_energy=u,
            entropy=n * math.log(2),
            free_energy=None,
            probabilities=probs,
        )
    f = -log_z / beta
    s = beta * (u - f)
    return ExactObservables(
        beta=beta,
        n_sites=n,
        log_z=log_z,
        z=z,
        internal_energy=u,
        entropy=s,
        free_energy=f,
        probabilities=probs,
    )


# ---------------------------------------------------------------------------
# text formats


def parse_edge_list(text: str) -> tuple[int, list[tuple[int, int, float]]]:
    """Parse the `N M` / `i j w` edge-list format (0-indexed nodes)."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty edge list")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("header must be 'N M'")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"header declares {m} edges, found {len(lines) - 1}")
    triples = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) == 2:
            i, j, w = int(parts[0]), int(parts[1]), 1.0
        elif len(parts) == 3:
            i, j, w = int(parts[0]), int(parts[1]), float(parts[2])
        else:
            raise ValueError(f"bad edge line: {ln!r}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge index out of range in line {ln!r}")
        triples.append((i, j, w))
    return n, triples


def format_edge_list(n: int, triples) -> str:
    rows = [f"{n} {len(triples)}"]
    for i, j, w in triples:
        rows.append(f"{i} {j} {w:.17g}")
    return "\n".join(rows) + "\n"


def write_instance_text(model) -> str:
    """Serialize an Ising lattice or EA instance to structured text."""
    if isinstance(model, IsingLattice2D):
        return f"kind ising\nL {model.side_length}\nJ {model.coupling:.17g}\n"
    if isinstance(model, EAInstance):
        rows = ["kind ea", f"L {model.side_length}", f"seed {model.rng_seed}",
                f"bonds {len(model.couplings)}"]
        bonds = model.bonds()
        for (i, j), cij in zip(bonds, model.couplings):
            rows.append(f"{i} {j} {cij:.17g}")
        return "\n".join(rows) + "\n"
    raise TypeError(f"cannot serialize {type(model).__name__}")


def read_instance_text(text: str):
    """Inverse of write_instance_text."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    fields = {}
    body = []
    for ln in lines:
        parts = ln.split()
        if parts[0] in ("kind", "L", "J", "seed", "bonds"):
            fields[parts[0]] = parts[1]
        else:
            body.append(parts)
    kind = fields.get("kind")
    if kind == "ising":
        return IsingLattice2D(int(fields["L"]), float(fields.get("J", 1.0)))
    if kind == "ea":
        L = int(fields["L"])
        n_bonds = int(fields["bonds"])
        if len(body) != n_bonds:
            raise ValueError(f"expected {n_bonds} bond lines, found {len(body)}")
        expected = lattice_bonds(L)
        couplings = np.empty(n_bonds)
        for k, parts in enumerate(body):
            i, j, w = int(parts[0]), int(parts[1]), float(parts[2])
            if (i, j) != tuple(expected[k]):
                raise ValueError(f"bond {k} is ({i},{j}), expected {tuple(expected[k])}")
            couplings[k] = w
        return EAInstance(L, couplings, int(fields.get("seed", 0)))
    raise ValueError(f"unknown instance kind {kind!r}")


def build_lattice(kind: str, side_length: int, coupling: float = 1.0, ea_dist: str = "normal",
                  ea_seed: int = 0, instance_text: str = ""):
    """The lattice model a run or command names: the ferromagnet for `ising`;
    for `ea`, the instance in `instance_text` if given, else couplings drawn
    from `ea_dist` ("normal" or "uniform") with `ea_seed`."""
    if kind == "ising":
        return IsingLattice2D(side_length, coupling)
    if kind != "ea":
        raise ValueError(f"expected a lattice problem (ising or ea), got {kind!r}")
    if not instance_text:
        maker = EAInstance.normal if ea_dist == "normal" else EAInstance.uniform
        return maker(side_length, ea_seed)
    model = read_instance_text(instance_text)
    if not isinstance(model, EAInstance):
        raise ValueError(f"instance text holds a {type(model).__name__}, not an EA instance")
    return model
