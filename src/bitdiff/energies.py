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
    "WeightSums",
    "sweep_energies",
    "enumerate_observables",
    "lattice_bonds",
    "write_instance_text",
    "read_instance_text",
    "build_lattice",
]


def as_bits(x, n_sites: int) -> np.ndarray:
    """Validate a binary state (or batch) and return it as an int8 array."""
    arr = np.asarray(x)
    if arr.shape[-1] != n_sites:
        raise ValueError(f"state has {arr.shape[-1]} bits, expected {n_sites}")
    if arr.size:
        # for integer and bool states a range check is exact and far cheaper than isin
        if arr.dtype.kind in "biu":
            binary = arr.min() >= 0 and arr.max() <= 1
        else:
            binary = np.isin(arr, (0, 1)).all()
        if not binary:
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
    if L < 3:
        # L=2 periodic wrap duplicates every bond; reject rather than double-count.
        raise ValueError("side_length must be >= 3")
    site = np.arange(L * L, dtype=np.int64)
    i, j = np.divmod(site, L)
    right = i * L + (j + 1) % L
    down = (i + 1) % L * L + j
    return np.stack([np.repeat(site, 2), np.column_stack([right, down]).ravel()], axis=1)


def checked_edges(edges, n_nodes: int) -> np.ndarray:
    """Edges as an (M, 2) int64 array, every index in 0..n_nodes-1."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= n_nodes):
        raise ValueError("edge index out of range")
    return edges


@dataclass(frozen=True, eq=False)
class SpinCouplingModel:
    """Pairwise spin model H(x) = -sum_b J_b * sigma_i(b) * sigma_j(b).

    `edges` holds each undirected pair exactly once; `couplings` is aligned
    with `edges`. Both are checked and made read-only at construction.
    """

    n_sites: int
    edges: np.ndarray
    couplings: np.ndarray

    def __post_init__(self):
        edges = checked_edges(self.edges, self.n_sites)
        couplings = np.asarray(self.couplings, dtype=np.float64).reshape(-1)
        if len(edges) != len(couplings):
            raise ValueError(f"expected {len(edges)} couplings, got {len(couplings)}")
        if not np.isfinite(couplings).all():
            raise ValueError("couplings must be finite")
        edges.setflags(write=False)
        couplings.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "couplings", couplings)

    def energy(self, x) -> np.ndarray:
        """Energy of one state (N,) or a batch (..., N); as in
        `CoProblem.energy`, a row's energy is bit-equal to that row's alone."""
        x = as_bits(x, self.n_sites)
        s = np.ascontiguousarray(spins(x))
        # spins are exactly +-1, so a bond term is exactly +-J_b in any product order
        terms = np.take(s, self.edges[:, 0], axis=-1)
        terms *= np.take(s, self.edges[:, 1], axis=-1)
        terms *= self.couplings
        return -terms.sum(axis=-1)


class IsingLattice2D(SpinCouplingModel):
    """Ferromagnet on a periodic LxL grid: H = -J sum_<ij> sigma_i sigma_j."""

    def __init__(self, side_length: int, coupling: float = 1.0):
        bonds = lattice_bonds(side_length)
        object.__setattr__(self, "side_length", side_length)
        object.__setattr__(self, "coupling", coupling)
        super().__init__(side_length ** 2, bonds, np.full(len(bonds), coupling, dtype=np.float64))

    # perfbench/spans.py wraps `energy` separately on each class
    energy = SpinCouplingModel.energy


class EAInstance(SpinCouplingModel):
    """Edwards-Anderson spin glass: periodic LxL grid with random bond couplings."""

    def __init__(self, side_length: int, couplings, rng_seed: int):
        bonds = lattice_bonds(side_length)
        object.__setattr__(self, "side_length", side_length)
        object.__setattr__(self, "rng_seed", rng_seed)
        super().__init__(side_length ** 2, bonds, couplings)

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

    # perfbench/spans.py wraps `energy` separately on each class
    energy = SpinCouplingModel.energy


CO_PROBLEMS = ("mis", "mds", "maxcl", "maxcut")


@dataclass(frozen=True)
class CoProblem:
    """Penalty-form energy of a combinatorial problem on a graph.

    `kind` is one of 'mis', 'mds', 'maxcl', 'maxcut', on a `graphs.Graph`
    whose edges and adjacency are read as they are. The energy functions are
    multilinear in x, so `energy` accepts relaxed states in [0, 1]^N and then
    returns the exact expectation under the product distribution with those
    marginals. Edge sums count each undirected pair once; MaxCl penalizes
    non-adjacent pairs excluding self-pairs.

    `energy` takes one state (N,) or a batch (..., N), and a row's energy does
    not depend on its batch: it is bit-equal to the energy of that row alone.
    Conditional-expectation decoding relies on this when it compares the
    energies of many rows at once.
    """

    kind: str
    graph: object
    penalty_a: float = 1.0
    penalty_b: float = 1.1
    _neighbor_idx: np.ndarray = field(init=False, repr=False)
    _non_edges: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in CO_PROBLEMS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.kind in ("mis", "mds", "maxcl") and not 0 < self.penalty_a < self.penalty_b:
            raise ValueError("penalties must satisfy 0 < penalty_a < penalty_b")
        n, adj = self.graph.n_nodes, self.graph.adjacency
        # row i: node i's neighbours, ascending, padded with n (energy's column of ones)
        degree = adj.sum(axis=1)
        neighbor_idx = np.full((n, degree.max(initial=0)), n, dtype=np.int64)
        neighbor_idx[np.arange(neighbor_idx.shape[1]) < degree[:, None]] = np.nonzero(adj)[1]
        object.__setattr__(self, "_neighbor_idx", neighbor_idx)
        if self.kind == "maxcl":
            a, b = np.triu_indices(n, 1)
            keep = ~adj[a, b]
            non_edges = np.column_stack([a[keep], b[keep]])
        else:
            non_edges = np.empty((0, 2), dtype=np.int64)
        object.__setattr__(self, "_non_edges", non_edges)

    @property
    def n_sites(self) -> int:
        return self.graph.n_nodes

    def energy(self, x) -> np.ndarray:
        # Rows stay C-contiguous (gathers use np.take), so each row sums
        # pairwise as a lone row does: `x[..., idx]` on a matrix returns an
        # F-ordered array whose rows add sequentially, and a fractional row's
        # energy would then depend on the batch it came in.
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape[-1] != self.n_sites:
            raise ValueError(f"state has {x.shape[-1]} bits, expected {self.n_sites}")
        A, B = self.penalty_a, self.penalty_b
        total = x.sum(axis=-1)
        if self.kind in ("mis", "maxcl"):
            # MIS penalizes chosen pairs that are edges, MaxCl pairs that are not
            e = self.graph.edges if self.kind == "mis" else self._non_edges
            pen = 0.0
            if len(e):
                pen = (np.take(x, e[:, 0], axis=-1) * np.take(x, e[:, 1], axis=-1)).sum(axis=-1)
            return -A * total + B * pen
        if self.kind == "maxcut":
            e = self.graph.edges
            if not len(e):
                return np.zeros(x.shape[:-1])
            xi, xj = np.take(x, e[:, 0], axis=-1), np.take(x, e[:, 1], axis=-1)
            # cut indicator (1 - sigma_i sigma_j)/2 expanded in bits
            return -(xi + xj - 2.0 * xi * xj).sum(axis=-1)
        # mds: A * |set| + B * sum_i (1-x_i) prod_{j in N(i)} (1-x_j). The products take
        # one neighbour column at a time (memory stays one (..., N) array); cumsum adds
        # the terms in node order, where a pairwise sum moves the last bit of some rows
        comp = np.concatenate([1.0 - x, np.ones(x.shape[:-1] + (1,))], axis=-1)
        prod = np.ones(x.shape)
        for column in self._neighbor_idx.T:
            prod *= np.take(comp, column, axis=-1)
        pen = np.cumsum(comp[..., :-1] * prod, axis=-1)[..., -1] if self.n_sites else 0.0
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

    def energy(self, x) -> np.ndarray:
        """H(x) as float64, checked finite: samplers score each batch they
        draw here once and pass the array to everything that reads it."""
        e = np.asarray(self.model.energy(x), dtype=np.float64)
        if not np.isfinite(e).all():
            raise ValueError("energy is not finite")
        return e


@dataclass(frozen=True)
class ExactObservables:
    """Exact partition function and thermodynamic observables from enumeration.

    `free_energy` is None at beta = 0, where F diverges; entropy and internal
    energy are still defined (uniform distribution over states).
    """

    beta: float
    log_z: float
    z: float
    internal_energy: float
    entropy: float
    free_energy: float | None
    probabilities: np.ndarray | None


@dataclass
class WeightSums:
    """Running sums over weighted samples, folded in block by block: the count,
    the largest log-weight so far (`shift`), and sum w, sum w * H and sum w^2
    with w = exp(log_w - shift). Memory does not grow with the sample count."""

    n_samples: int = 0
    shift: float = -math.inf
    sum_w: float = 0.0
    sum_wh: float = 0.0
    sum_w2: float = 0.0

    def add(self, energy: np.ndarray, log_w: np.ndarray) -> WeightSums:
        """Fold in one block of energies H and their log-weights; returns self."""
        if not np.isfinite(log_w).all():
            raise FloatingPointError("non-finite log-weight")
        m = float(log_w.max())
        if m > self.shift:
            scale = math.exp(self.shift - m)
            self.sum_w *= scale
            self.sum_wh *= scale
            self.sum_w2 *= scale * scale
            self.shift = m
        w = np.exp(log_w - self.shift)
        self.sum_w += float(w.sum())
        self.sum_wh += float((w * energy).sum())
        self.sum_w2 += float(w @ w)
        self.n_samples += len(w)
        return self

    @property
    def log_sum(self) -> float:
        """log(sum exp(log_w)), the log of the unshifted weight sum."""
        return self.shift + math.log(self.sum_w)


MAX_ENUMERATION_BITS = 26  # a sweep visits all 2^N states
SWEEP_CHUNK_BITS = 16  # log2 of the states a sweep passes to one energy call


def sweep_energies(model):
    """Yield (states, energies) over all 2^N states of `model` in ascending
    state order, 2^SWEEP_CHUNK_BITS states at a time (fewer in the last chunk)."""
    n = model.n_sites
    total = 1 << n
    chunk = 1 << min(SWEEP_CHUNK_BITS, n)
    for start in range(0, total, chunk):
        states = int_to_bits(np.arange(start, min(start + chunk, total)), n)
        yield states, np.asarray(model.energy(states), dtype=np.float64)


def enumerate_observables(target: BoltzmannTarget, *,
                          with_probabilities: bool = True) -> ExactObservables:
    """Exact observables of a Boltzmann target by sweeping all 2^N states.

    Folds fixed-size chunks, in ascending state order, into one `WeightSums`
    (a streaming log-sum-exp), so the result is deterministic regardless of
    how callers might shard the work. N is capped at MAX_ENUMERATION_BITS.
    """
    n = target.n_sites
    if n > MAX_ENUMERATION_BITS:
        raise ValueError(f"enumeration capped at {MAX_ENUMERATION_BITS} bits, got {n}")
    beta = target.beta

    probs = np.empty(1 << n, dtype=np.float64) if with_probabilities else None
    sums = WeightSums()
    for _, e in sweep_energies(target.model):
        logw = -beta * e
        if probs is not None:
            probs[sums.n_samples: sums.n_samples + len(e)] = logw  # normalized after the sweep
        sums.add(e, logw)

    log_z = sums.log_sum
    u = sums.sum_wh / sums.sum_w
    if probs is not None:
        np.exp(probs - log_z, out=probs)

    z = math.exp(log_z) if log_z < 700 else math.inf
    # at beta = 0 F diverges and the distribution is uniform over all 2^n states
    f = None if beta == 0.0 else -log_z / beta
    s = n * math.log(2) if f is None else beta * (u - f)
    return ExactObservables(beta=beta, log_z=log_z, z=z, internal_energy=u, entropy=s,
                            free_energy=f, probabilities=probs)


# ---------------------------------------------------------------------------
# EA instance text


def write_instance_text(model: EAInstance) -> str:
    """Serialize an EA instance to structured text (instance files hold EA
    instances only)."""
    if not isinstance(model, EAInstance):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    rows = ["kind ea", f"L {model.side_length}", f"seed {model.rng_seed}",
            f"bonds {len(model.couplings)}"]
    for (i, j), cij in zip(model.edges, model.couplings):
        rows.append(f"{i} {j} {cij:.17g}")
    return "\n".join(rows) + "\n"


def read_instance_text(text: str) -> EAInstance:
    """Inverse of write_instance_text. Raises ValueError on malformed text,
    and on any `kind` but `ea` before building anything."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    fields = {}
    body = []
    for ln in lines:
        parts = ln.split()
        if parts[0] in ("kind", "L", "seed", "bonds"):
            if len(parts) != 2:
                raise ValueError(f"header line {ln!r} must be '<field> <value>'")
            fields[parts[0]] = parts[1]
        else:
            body.append(parts)
    if fields.get("kind") != "ea":
        raise ValueError(f"instance kind {fields.get('kind')!r} is not an EA instance")
    missing = {"L", "bonds"} - set(fields)
    if missing:
        raise ValueError(f"ea instance text lacks the {sorted(missing)} field(s)")
    L = int(fields["L"])
    n_bonds = int(fields["bonds"])
    if n_bonds != 2 * L * L:
        raise ValueError(f"an L={L} lattice has {2 * L * L} bonds, not {n_bonds}")
    if len(body) != n_bonds:
        raise ValueError(f"expected {n_bonds} bond lines, found {len(body)}")
    expected = lattice_bonds(L)
    couplings = np.empty(n_bonds)
    for k, parts in enumerate(body):
        if len(parts) != 3:
            raise ValueError(f"bond line {' '.join(parts)!r} must be 'i j J'")
        i, j, w = int(parts[0]), int(parts[1]), float(parts[2])
        if (i, j) != tuple(expected[k]):
            raise ValueError(f"bond {k} is ({i},{j}), expected {tuple(expected[k])}")
        couplings[k] = w
    return EAInstance(L, couplings, int(fields.get("seed", 0)))


def build_lattice(kind: str, side_length: int | None, coupling: float, ea_dist: str,
                  ea_seed: int, instance_text: str):
    """The lattice model a run or command names: the ferromagnet for `ising`;
    for `ea`, the instance in `instance_text` if given, else couplings drawn
    from `ea_dist` ("normal" or "uniform") with `ea_seed`. An instance must
    hold a `side_length` lattice unless `side_length` is None."""
    if kind == "ising":
        return IsingLattice2D(side_length, coupling)
    if kind != "ea":
        raise ValueError(f"expected a lattice problem (ising or ea), got {kind!r}")
    if not instance_text:
        maker = EAInstance.normal if ea_dist == "normal" else EAInstance.uniform
        return maker(side_length, ea_seed)
    model = read_instance_text(instance_text)
    if side_length is not None and model.side_length != side_length:
        raise ValueError(f"instance holds an L = {model.side_length} lattice, "
                         f"but lattice_size = {side_length}")
    return model
