"""Time-conditioned policy networks with factorized Bernoulli outputs.

Two architectures: a plain MLP for lattice targets and a message-passing GNN
for graph-conditioned combinatorial problems. Both expose the same surface:

- ``probs(x_t, t, condition)``: per-bit probabilities, plain numpy (fast path).
- ``probs_from(P, ...)``: the same forward over a parameter mapping, so that
  passing leaf tensors from :mod:`bitdiff.autodiff` yields a traced graph.
- ``value`` / ``value_from``: scalar state value from a three-layer head on the
  shared trunk (GNN: on a variance-preserving global aggregation).

Diffusion time enters the network as the scalar t / n_steps; `t` may be a
single int or a per-row array. Outputs are clipped to
[PROB_CLIP, 1 - PROB_CLIP] so downstream logs never see 0 or 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import clip, matmul, sigmoid, spmm, sqrt, tanh, tmean, tsum
from .diffusion import PROB_CLIP, exp_schedule
from .graphs import Graph

__all__ = [
    "MlpSpec",
    "GnnSpec",
    "MlpPolicy",
    "GnnPolicy",
    "GraphCondition",
    "param_shapes",
    "param_count",
    "init_params",
    "make_policy",
    "bernoulli_log_q",
    "bernoulli_entropy",
    "flatten_params",
    "unflatten_params",
]


@dataclass(frozen=True)
class MlpSpec:
    kind: str = field(default="mlp", init=False)
    n_bits: int = 16
    hidden: tuple = (64, 64)
    value_head: bool = False
    kernel_start: bool = False


@dataclass(frozen=True)
class GnnSpec:
    kind: str = field(default="gnn", init=False)
    n_hidden: int = 64
    n_message_passing: int = 3
    value_head: bool = False
    kernel_start: bool = False


def param_shapes(spec) -> dict:
    """Canonical name -> shape map; parameter count is a pure function of the spec."""
    shapes = {}
    if spec.kind == "mlp":
        d = spec.n_bits + 1
        for k, h in enumerate(spec.hidden):
            shapes[f"w{k}"] = (d, h)
            shapes[f"b{k}"] = (h,)
            d = h
        shapes["w_out"] = (d, spec.n_bits)
        shapes["b_out"] = (spec.n_bits,)
    elif spec.kind == "gnn":
        nh = spec.n_hidden
        shapes["w_embed"] = (2, nh)
        shapes["b_embed"] = (nh,)
        for s in range(spec.n_message_passing):
            shapes[f"mp{s}_wm"] = (nh, nh)
            shapes[f"mp{s}_bm"] = (nh,)
            shapes[f"mp{s}_wn0"] = (nh, nh)
            shapes[f"mp{s}_bn0"] = (nh,)
            shapes[f"mp{s}_wn1"] = (nh, nh)
            shapes[f"mp{s}_bn1"] = (nh,)
        shapes["wh0"] = (nh, nh)
        shapes["bh0"] = (nh,)
        shapes["wh1"] = (nh, nh)
        shapes["bh1"] = (nh,)
        shapes["w_out"] = (nh, 1)
        shapes["b_out"] = (1,)
    else:
        raise ValueError(f"unknown architecture {spec.kind!r}")
    if spec.value_head:
        width = spec.hidden[-1] if spec.kind == "mlp" else spec.n_hidden
        shapes["wv0"] = (width, width)
        shapes["bv0"] = (width,)
        shapes["wv1"] = (width, width)
        shapes["bv1"] = (width,)
        shapes["wv2"] = (width, 1)
        shapes["bv2"] = (1,)
    return shapes


def param_count(spec) -> int:
    return sum(int(np.prod(s)) for s in param_shapes(spec).values())


def init_params(spec, seed: int) -> dict:
    """Fan-in-scaled random weights; output layers start at zero so the policy
    begins at the uniform distribution and the value head at zero."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_shapes(spec).items():
        if name in ("w_out", "b_out", "wv2", "bv2") or name.startswith("b"):
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.standard_normal(shape) / np.sqrt(shape[0])
    return params


def flatten_params(params: dict) -> np.ndarray:
    return np.concatenate([np.asarray(params[k]).ravel() for k in sorted(params)])


def unflatten_params(flat: np.ndarray, shapes: dict) -> dict:
    out = {}
    pos = 0
    for name in sorted(shapes):
        size = int(np.prod(shapes[name]))
        out[name] = np.asarray(flat[pos: pos + size]).reshape(shapes[name]).copy()
        pos += size
    if pos != len(flat):
        raise ValueError(f"flat vector has {len(flat)} entries, expected {pos}")
    return out


def _standardize(h, eps: float = 1e-5):
    """Per-node feature standardization (stand-in for a graph norm layer)."""
    m = tmean(h, axis=1, keepdims=True)
    c = h - m
    v = tmean(c * c, axis=1, keepdims=True)
    return c / sqrt(v + eps)


def _kernel_logits(betas: np.ndarray, x_flat: np.ndarray, t, n_steps: int) -> np.ndarray:
    """Logits of the exact reverse of the flip kernel: each bit keeps its value
    with probability 1 - beta_t. This is the optimal reverse policy of the
    infinite-temperature target, so a network predicting a residual on top of
    it starts as a perfect proposal for the beginning of an annealing run."""
    t_arr = np.asarray(t, dtype=np.int64)
    beta = betas[t_arr - 1]
    ell = np.log(beta) - np.log1p(-beta)
    if np.ndim(ell):
        ell = ell.reshape(-1, *([1] * (x_flat.ndim - 1)))
    return ell * (1.0 - 2.0 * x_flat.astype(np.float64))


def _tfrac_column(t, n_rows: int, n_steps: int) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    if t.ndim == 0:
        col = np.full((n_rows, 1), float(t) / n_steps)
    else:
        if len(t) != n_rows:
            raise ValueError(f"got {len(t)} time entries for {n_rows} rows")
        col = (t / n_steps).reshape(n_rows, 1)
    return col


@dataclass
class GraphCondition:
    """A problem graph prepared for the GNN: normalized aggregation operator
    plus a variance-preserving pooling row, with per-batch-size replication."""

    graph: Graph

    def __post_init__(self):
        n = self.graph.n_nodes
        deg = self.graph.degrees().astype(np.float64)
        scale = np.zeros(n)
        nz = deg > 0
        scale[nz] = 1.0 / np.sqrt(deg[nz])
        rows, cols, vals = [], [], []
        for a, b in self.graph.edges:
            rows.extend((a, b))
            cols.extend((b, a))
            vals.extend((scale[a], scale[b]))
        self._agg = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        self._pool = sp.csr_matrix(np.full((1, n), 1.0 / np.sqrt(n)))
        self._agg_cache: dict = {}
        self._pool_cache: dict = {}

    @property
    def n_bits(self) -> int:
        return self.graph.n_nodes

    def agg(self, n_copies: int):
        if n_copies not in self._agg_cache:
            self._agg_cache[n_copies] = sp.kron(
                sp.identity(n_copies, format="csr"), self._agg, format="csr"
            )
        return self._agg_cache[n_copies]

    def pool(self, n_copies: int):
        if n_copies not in self._pool_cache:
            self._pool_cache[n_copies] = sp.kron(
                sp.identity(n_copies, format="csr"), self._pool, format="csr"
            )
        return self._pool_cache[n_copies]


def _check_probs_shape(x_t, n_bits):
    x_t = np.asarray(x_t)
    if x_t.ndim != 2:
        raise ValueError("x_t must be a (batch, n_bits) array")
    if n_bits is not None and x_t.shape[1] != n_bits:
        raise ValueError(f"x_t has {x_t.shape[1]} bits, expected {n_bits}")
    return x_t


@dataclass
class _Policy:
    """What both architectures share: construction, parameter views, and the
    forward passes around each architecture's `_trunk` (per-bit features),
    `_head` (per-bit logits) and `_pool` (the value head's input rows).

    With `spec.kernel_start` the output logits ride on the exact reverse of
    the exponential-schedule flip kernel, so a zero-initialized head starts at
    the infinite-temperature optimum instead of the uniform policy.
    """

    spec: object
    n_steps: int
    params: dict

    def __post_init__(self):
        self.kernel_betas = (
            exp_schedule(self.n_steps).betas if self.spec.kernel_start else None
        )

    @classmethod
    def init(cls, spec, n_steps: int, seed: int):
        return cls(spec, n_steps, init_params(spec, seed))

    def with_steps(self, n_steps: int):
        return replace(self, n_steps=n_steps)

    def clone_params(self) -> dict:
        return {k: v.copy() for k, v in self.params.items()}

    @property
    def flat(self) -> np.ndarray:
        return flatten_params(self.params)

    def set_flat(self, flat: np.ndarray) -> None:
        self.params = unflatten_params(flat, param_shapes(self.spec))

    def _logits(self, P, h, x_t, t):
        logits = self._head(P, h, x_t)
        if self.kernel_betas is not None:
            logits = logits + _kernel_logits(self.kernel_betas, x_t, t, self.n_steps)
        return logits

    def _probs(self, P, h, x_t, t):
        """Per-bit probabilities: the sigmoid of the logits, refused if
        non-finite, then clipped to [PROB_CLIP, 1 - PROB_CLIP]."""
        # one expression, so the logits are freed before the check and the
        # clip allocate: each large array is its own mapping (perfbench/README.md),
        # and holding the logits longer shifts the page faults of what follows
        out = sigmoid(self._logits(P, h, x_t, t))
        if not np.isfinite(ad.as_array(out)).all():
            raise FloatingPointError("policy forward produced non-finite activations")
        return clip(out, PROB_CLIP, 1.0 - PROB_CLIP)

    def _value(self, P, h, condition, n_rows):
        g = self._pool(h, condition, n_rows)
        v = tanh(matmul(g, P["wv0"]) + P["bv0"])
        v = tanh(matmul(v, P["wv1"]) + P["bv1"])
        v = matmul(v, P["wv2"]) + P["bv2"]
        return v.reshape((-1,)) if isinstance(v, ad.Tensor) else np.asarray(v).reshape(-1)

    def probs_from(self, P, x_t, t, condition=None):
        x_t = np.asarray(x_t)
        return self._probs(P, self._trunk(P, x_t, t, condition), x_t, t)

    def probs(self, x_t, t, condition=None) -> np.ndarray:
        return self.probs_from(self.params, x_t, t, condition)

    def value_from(self, P, x_t, t, condition=None):
        if not self.spec.value_head:
            raise ValueError("policy has no value head")
        x_t = np.asarray(x_t)
        return self._value(P, self._trunk(P, x_t, t, condition), condition, x_t.shape[0])

    def value(self, x_t, t, condition=None) -> np.ndarray:
        return self.value_from(self.params, x_t, t, condition)

    def probs_and_value_from(self, P, x_t, t, condition=None):
        if not self.spec.value_head:
            raise ValueError("policy has no value head")
        x_t = np.asarray(x_t)
        h = self._trunk(P, x_t, t, condition)
        return self._probs(P, h, x_t, t), self._value(P, h, condition, x_t.shape[0])


class MlpPolicy(_Policy):
    """Fully-connected reverse-step network for fixed-size binary states."""

    # Each policy class holds its own forward entries, so a wrapper set on one
    # class (perfbench/spans.py times them per class) leaves the other alone.
    probs_from, probs = _Policy.probs_from, _Policy.probs
    value, probs_and_value_from = _Policy.value, _Policy.probs_and_value_from

    @property
    def n_bits(self) -> int:
        return self.spec.n_bits

    def _trunk(self, P, x_t, t, condition):
        x_t = _check_probs_shape(x_t, self.spec.n_bits)
        inp = np.concatenate(
            [x_t.astype(np.float64), _tfrac_column(t, x_t.shape[0], self.n_steps)], axis=1
        )
        h = inp
        for k in range(len(self.spec.hidden)):
            h = tanh(matmul(h, P[f"w{k}"]) + P[f"b{k}"])
        return h

    def _head(self, P, h, x_t):
        return matmul(h, P["w_out"]) + P["b_out"]

    def _pool(self, h, condition, n_rows):
        return h


class GnnPolicy(_Policy):
    """Message-passing reverse-step network conditioned on a problem graph.

    Node features are [x_i, t/T]; each round transforms node embeddings,
    aggregates them over neighbors with degree^(-1/2) scaling, standardizes,
    and adds a residual update. Outputs are equivariant to joint relabelings
    of (graph, x_t); the value head pools nodes per sample, so it is invariant.
    """

    probs_from, probs = _Policy.probs_from, _Policy.probs
    value, probs_and_value_from = _Policy.value, _Policy.probs_and_value_from

    @property
    def n_bits(self):
        raise ValueError("GnnPolicy is graph-conditioned; state size comes from the condition")

    def _trunk(self, P, x_t, t, condition):
        if condition is None:
            raise ValueError("GnnPolicy requires a GraphCondition")
        x_t = _check_probs_shape(x_t, condition.n_bits)
        m, n = x_t.shape
        flat_x = x_t.astype(np.float64).reshape(m * n, 1)
        t = np.asarray(t, dtype=np.float64)
        tcol = _tfrac_column(np.repeat(t, n) if t.ndim else t, m * n, self.n_steps)
        inp = np.concatenate([flat_x, tcol], axis=1)
        agg_op = condition.agg(m)
        h = tanh(matmul(inp, P["w_embed"]) + P["b_embed"])
        for s in range(self.spec.n_message_passing):
            msg = matmul(h, P[f"mp{s}_wm"]) + P[f"mp{s}_bm"]
            agg = _standardize(spmm(agg_op, msg))
            u = tanh(matmul(agg, P[f"mp{s}_wn0"]) + P[f"mp{s}_bn0"])
            u = tanh(matmul(u, P[f"mp{s}_wn1"]) + P[f"mp{s}_bn1"])
            h = h + u
        return h

    def _head(self, P, h, x_t):
        m, n = x_t.shape
        z = tanh(matmul(h, P["wh0"]) + P["bh0"])
        z = tanh(matmul(z, P["wh1"]) + P["bh1"])
        return (matmul(z, P["w_out"]) + P["b_out"]).reshape((m, n))

    def _pool(self, h, condition, n_rows):
        return spmm(condition.pool(n_rows), h)


def make_policy(spec, n_steps: int, seed: int = 0, params: dict | None = None):
    """The one policy constructor: the class `spec.kind` names, with fresh
    parameters from `seed`, or with `params` when given."""
    classes = {"mlp": MlpPolicy, "gnn": GnnPolicy}
    if spec.kind not in classes:
        raise ValueError(f"unknown architecture {spec.kind!r}")
    if params is None:
        return classes[spec.kind].init(spec, n_steps, seed)
    return classes[spec.kind](spec, n_steps, params)


def bernoulli_log_q(x_prev, q):
    """Tape log q(x_prev | q) per row of factorized Bernoulli probabilities
    `q` (traced when `q` is a tensor)."""
    bits = np.asarray(x_prev, dtype=np.float64)
    return tsum(bits * ad.log(q) + (1.0 - bits) * ad.log(1.0 - q), axis=-1)


def bernoulli_entropy(q):
    """Tape Shannon entropy per row of factorized Bernoulli probabilities `q`."""
    return tsum(-(q * ad.log(q)) - (1.0 - q) * ad.log(1.0 - q), axis=-1)


def step_log_q_from(policy, P, x_prev, x_t, t, condition=None):
    """log q(x_prev | x_t) per row; traced when P holds leaf tensors."""
    return bernoulli_log_q(x_prev, policy.probs_from(P, x_t, t, condition))


def step_entropy_from(policy, P, x_t, t, condition=None):
    """Shannon entropy of the factorized Bernoulli step distribution, per row."""
    return bernoulli_entropy(policy.probs_from(P, x_t, t, condition))
