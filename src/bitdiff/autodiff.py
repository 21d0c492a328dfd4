"""Minimal reverse-mode automatic differentiation over numpy arrays.

A `Tensor` wraps a float64 ndarray and records its parents plus a
vector-Jacobian closure; `backward()` on a scalar output accumulates exact
gradients into the leaves. The op set is what the networks and losses use:
`+ - * @` and `minimum` with a constant or Tensor on either side, `/` of a
Tensor, pointwise `exp log tanh sigmoid sqrt clip`, `tsum tmean`, `reshape`, and
`spmm` by a fixed sparse matrix; no `**` and no division of a constant by a
Tensor. Every binary op builds its node through `_node`.

The pointwise ops and reductions are module functions (`tanh`, `tsum`, ...)
that dispatch on their argument, so the same forward code runs traced (Tensor
inputs) or untraced (ndarray inputs).

Every non-leaf Tensor counts as one stored activation record; the running
count (`activation_records`) is the measure behind the training-memory
contract: objectives that minibatch over diffusion steps must trace
proportionally fewer records than backpropagation through the full path.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "leaves",
    "collect_grads",
    "activation_records",
    "reset_activation_records",
    "affine",
    "tanh",
    "sigmoid",
    "exp",
    "log",
    "sqrt",
    "clip",
    "minimum",
    "matmul",
    "spmm",
    "tsum",
    "tmean",
    "as_array",
]

_N_RECORDS = 0


def activation_records() -> int:
    """Number of non-leaf tensors recorded since the last reset."""
    return _N_RECORDS


def reset_activation_records() -> None:
    global _N_RECORDS
    _N_RECORDS = 0


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to `shape`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def as_array(x) -> np.ndarray:
    """The underlying ndarray of a Tensor, or the input coerced to float64."""
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _node(out, operands, grad_fns) -> Tensor:
    """The tape node of a binary op. Only the operands that are Tensors become
    parents; the gradient of each is its `grad_fns` entry applied to the
    output gradient, summed back to the operand's shape."""
    tracked = [(x, grad_fn) for x, grad_fn in zip(operands, grad_fns) if isinstance(x, Tensor)]

    def vjp(g):
        return [_unbroadcast(grad_fn(g), x.data.shape) for x, grad_fn in tracked]

    return Tensor(out, tuple(x for x, _ in tracked), vjp)


def matmul(a, b):
    if not isinstance(a, Tensor) and not isinstance(b, Tensor):
        return a @ b
    da, db = as_array(a), as_array(b)
    return _node(da @ db, (a, b), (lambda g: g @ db.T, lambda g: da.T @ g))


def minimum(a, b):
    """Elementwise minimum; the gradient follows the smaller branch (ties -> a)."""
    if not isinstance(a, Tensor) and not isinstance(b, Tensor):
        return np.minimum(a, b)
    da, db = as_array(a), as_array(b)
    take_a = da <= db
    return _node(np.where(take_a, da, db), (a, b), (lambda g: g * take_a, lambda g: g * ~take_a))


def _identity(g):
    return g


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_vjp")

    # keep numpy from consuming Tensor operands; binary ops fall back to the
    # reflected Tensor methods instead
    __array_ufunc__ = None

    def __init__(self, data, parents=(), vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._vjp = vjp
        if parents:
            global _N_RECORDS
            _N_RECORDS += 1

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, leaf={not self._parents})"

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        return _node(self.data + as_array(other), (self, other), (_identity, _identity))

    __radd__ = __add__

    def __mul__(self, other):
        a, b = self.data, as_array(other)
        return _node(a * b, (self, other), (lambda g: g * b, lambda g: g * a))

    __rmul__ = __mul__

    def __neg__(self):
        return Tensor(-self.data, (self,), lambda g: [-g])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Tensor) else -as_array(other))

    def __rsub__(self, other):
        return (-self) + other

    def __truediv__(self, other):
        a, b = self.data, as_array(other)

        def grad_b(g):
            # -g*a/(b*b) with one array of g's size: IEEE negation is exact,
            # so moving it onto b*b gives the same bits
            gb = g * a
            gb /= -(b * b)
            return gb

        return _node(a / b, (self, other), (lambda g: g / b, grad_b))

    __matmul__ = matmul

    def __rmatmul__(self, other):
        return matmul(other, self)

    # -- shape ------------------------------------------------------------

    def reshape(self, shape):
        old = self.data.shape
        return Tensor(self.data.reshape(shape), (self,), lambda g: [g.reshape(old)])

    # -- backward ---------------------------------------------------------

    def backward(self):
        if self.data.shape != ():
            raise ValueError("backward requires a scalar output")
        topo: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
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
        self.grad = np.asarray(1.0)
        # A node's first gradient may be an array another node still holds
        # (the add VJP hands `g` to both operands, a reshape VJP a view of
        # it), so it is never written. The second contribution allocates the
        # sum, which the node then owns and adds later contributions into.
        owned = set()
        for node in reversed(topo):
            if node._vjp is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._vjp(node.grad)):
                if parent.grad is None:
                    parent.grad = g
                elif id(parent) in owned:
                    parent.grad += g
                else:
                    parent.grad = parent.grad + g
                    owned.add(id(parent))


def spmm(sparse, x):
    """Fixed sparse matrix times a dense (traced) matrix: sparse @ x."""
    if not isinstance(x, Tensor):
        return sparse @ x
    sparse_t = sparse.T.tocsr()
    return Tensor(sparse @ x.data, (x,), lambda g: [sparse_t @ g])


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: 1/(1+e) for z >= 0 and e/(1+e) below, with
    e = exp(-|z|) computed once."""
    e = np.abs(z, out=np.empty_like(z))
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(z >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


# -- ops on a Tensor or an ndarray ------------------------------------------


def affine(x, w, b, squash: bool = False, out=None):
    """x @ w + b, through tanh when `squash`. Traced, it records the same
    matmul, add and tanh nodes as writing the expression out; untraced, it
    does the same arithmetic in one array: `out` when given (C-contiguous, of
    the result's shape), else a fresh one. A traced call ignores `out`."""
    if not any(isinstance(v, Tensor) for v in (x, w, b)):
        out = np.matmul(x, w, out=out)
        out += b
        return np.tanh(out, out=out) if squash else out
    out = matmul(x, w) + b
    return tanh(out) if squash else out


def exp(x):
    if not isinstance(x, Tensor):
        return np.exp(x)
    out = np.exp(x.data)
    return Tensor(out, (x,), lambda g: [g * out])


def log(x):
    if not isinstance(x, Tensor):
        return np.log(x)
    return Tensor(np.log(x.data), (x,), lambda g: [g / x.data])


def tanh(x):
    if not isinstance(x, Tensor):
        return np.tanh(x)
    out = np.tanh(x.data)

    def vjp(g):
        # g * (1 - out*out) in one array
        d = np.multiply(out, out, out=np.empty_like(out))
        np.subtract(1.0, d, out=d)
        return [np.multiply(g, d, out=d)]

    return Tensor(out, (x,), vjp)


def sigmoid(x):
    if not isinstance(x, Tensor):
        return _sigmoid(np.asarray(x, dtype=np.float64))
    out = _sigmoid(x.data)

    def vjp(g):
        # (g*out) * (1 - out) in two arrays
        d = g * out
        d *= 1.0 - out
        return [d]

    return Tensor(out, (x,), vjp)


def sqrt(x):
    if not isinstance(x, Tensor):
        return np.sqrt(x)
    out = np.sqrt(x.data)
    return Tensor(out, (x,), lambda g: [g * 0.5 / out])


def clip(x, lo: float, hi: float):
    """Clamp values; gradient is identity inside [lo, hi], zero outside."""
    if not isinstance(x, Tensor):
        return np.clip(x, lo, hi)
    out = np.clip(x.data, lo, hi)
    inside = ((x.data >= lo) & (x.data <= hi)).astype(np.float64)
    return Tensor(out, (x,), lambda g: [g * inside])


def tsum(x, axis=None, keepdims=False):
    if not isinstance(x, Tensor):
        return np.sum(x, axis=axis, keepdims=keepdims)
    shape = x.data.shape

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(a % len(shape) for a in axes):
                g = np.expand_dims(g, ax)
        return [np.broadcast_to(g, shape).copy()]

    return Tensor(x.data.sum(axis=axis, keepdims=keepdims), (x,), vjp)


def tmean(x, axis=None, keepdims=False):
    if not isinstance(x, Tensor):
        return np.mean(x, axis=axis, keepdims=keepdims)
    count = x.data.size if axis is None else (
        np.prod([x.data.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))])
    )
    return tsum(x, axis=axis, keepdims=keepdims) * (1.0 / float(count))


def leaves(params: dict) -> dict:
    """Fresh leaf tensors for one loss evaluation."""
    return {k: Tensor(v) for k, v in params.items()}

def collect_grads(leaf_map: dict) -> dict:
    """Gradients accumulated in leaves, as plain arrays (zeros where unused)."""
    return {
        k: (np.zeros_like(t.data) if t.grad is None else np.asarray(t.grad))
        for k, t in leaf_map.items()
    }
