"""Minimal reverse-mode automatic differentiation over numpy arrays.

A `Tensor` wraps a float64 ndarray and records its parents plus a
vector-Jacobian closure; `backward()` on a scalar output accumulates exact
gradients into the leaves. The op set is what the networks and losses use:
`+ - * @` and `minimum` with a constant or Tensor on either side, `/` of a
Tensor, pointwise `exp log tanh sigmoid sqrt clip`, `tsum tmean`, `reshape`,
`spmm` by a fixed sparse matrix, and `node_mix` by a fixed dense matrix per
stacked block of rows; no `**` and no division of a constant by a Tensor.
Every binary op builds its node through `_node`.

The pointwise ops and reductions are module functions (`tanh`, `tsum`, ...)
that dispatch on their argument, so the same forward code runs traced (Tensor
inputs) or untraced (ndarray inputs).

Every non-leaf Tensor counts as one stored activation record; the running
count (`activation_records`) is the measure behind the training-memory
contract: objectives that minibatch over diffusion steps must trace
proportionally fewer records than backpropagation through the full path.
`activation_bytes` counts the same records in bytes: each record's output
plus the masks that the `clip` and `minimum` closures keep.

`Arena` is the one scratch allocator. Inside `with arena:`, each tape (from
entering the arena or a `leaves()` call to the next `leaves()` call) writes the
arrays its ops and VJPs make (all but the sigmoid's and `spmm`'s own), and the
untraced `affine` and `node_mix` their results, into one reused block instead
of fresh arrays, so a loop of gradient calls or of policy forwards stops
mapping and faulting new pages per call. Such arrays are valid only until the
arena's next tape starts; `collect_grads` returns copies, which stay valid.
Outside any arena every op allocates fresh arrays.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tensor",
    "leaves",
    "collect_grads",
    "Arena",
    "scratch",
    "activation_records",
    "activation_bytes",
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
    "node_mix",
    "tsum",
    "tmean",
    "as_array",
]

_N_RECORDS = 0
_N_BYTES = 0


def activation_records() -> int:
    """Number of non-leaf tensors recorded since the last reset."""
    return _N_RECORDS


def activation_bytes() -> int:
    """Bytes of the non-leaf tensors' outputs and of the masks their VJP
    closures hold, recorded since the last reset."""
    return _N_BYTES


def reset_activation_records() -> None:
    """Zero both the record and the byte count."""
    global _N_RECORDS, _N_BYTES
    _N_RECORDS = _N_BYTES = 0


def _held(mask: np.ndarray) -> np.ndarray:
    """`mask`, counted in `activation_bytes` as kept by a VJP closure."""
    global _N_BYTES
    _N_BYTES += mask.nbytes
    return mask


class Arena:
    """Bump allocator of one tape at a time, and the context that makes it
    active: `__enter__` starts a tape, `__exit__` restores the outer arena.
    Arrays are cut from one float64 block at 64-byte aligned offsets; a tape
    that outgrows the block gets fresh arrays for the rest, and the next tape
    gets a block of the size the last one needed at its fullest. `rewind`
    gives back what a tape took since a `mark`. `blocks` counts the blocks
    allocated so far."""

    ALIGN = 8  # float64 items in 64 bytes

    def __init__(self):
        self._block = np.empty(0)  # starts 64-byte aligned
        self._used = 0  # items the current tape holds, aligned
        self._peak = 0  # the most items it held before a rewind
        self._outer = None
        self.blocks = 0

    def __enter__(self):
        global _ARENA
        self._outer, _ARENA = _ARENA, self
        self.new_tape()
        return self

    def __exit__(self, *exc):
        global _ARENA
        _ARENA, self._outer = self._outer, None

    def new_tape(self) -> None:
        need = max(self._used, self._peak)
        if need > self._block.size:
            raw = np.empty(need + self.ALIGN)
            self._block = raw[-raw.ctypes.data // 8 % self.ALIGN:]
            self.blocks += 1
        self._used = self._peak = 0

    def mark(self) -> int:
        """The current tape's fill, for `rewind`."""
        return self._used

    def rewind(self, mark: int) -> None:
        """Give back every array taken since `mark`; none may be used again."""
        self._peak = max(self._peak, self._used)
        self._used = mark

    def take(self, shape: tuple) -> np.ndarray:
        """An uninitialized float64 array of `shape`."""
        n = math.prod(shape)
        start = self._used
        self._used = start + -(-n // self.ALIGN) * self.ALIGN
        if self._used > self._block.size:
            return np.empty(shape)
        return self._block[start:start + n].reshape(shape)


_ARENA: Arena | None = None


def scratch(shape: tuple) -> np.ndarray:
    """An uninitialized float64 array: from the active arena, else fresh."""
    return np.empty(shape) if _ARENA is None else _ARENA.take(shape)


def _out(a, b) -> np.ndarray:
    """A tape array of the broadcast shape of `a` and `b`."""
    sa, sb = np.shape(a), np.shape(b)
    return scratch(sa if sa == sb else np.broadcast_shapes(sa, sb))


def _mul(a, b):
    return np.multiply(a, b, out=_out(a, b))


def _div(a, b):
    return np.divide(a, b, out=_out(a, b))


def _neg(a):
    return np.negative(a, out=scratch(np.shape(a)))


def _mm(a, b):
    """a @ b, into a tape array when both are matrices."""
    if a.ndim == b.ndim == 2:
        return np.matmul(a, b, out=scratch((a.shape[0], b.shape[1])))
    return a @ b


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
    return _node(_mm(da, db), (a, b), (lambda g: _mm(g, db.T), lambda g: _mm(da.T, g)))


def minimum(a, b):
    """Elementwise minimum; the gradient follows the smaller branch (ties -> a)."""
    if not isinstance(a, Tensor) and not isinstance(b, Tensor):
        return np.minimum(a, b)
    da, db = as_array(a), as_array(b)
    take_a = _held(da <= db)
    return _node(np.where(take_a, da, db), (a, b),
                 (lambda g: _mul(g, take_a), lambda g: _mul(g, ~take_a)))


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
            global _N_RECORDS, _N_BYTES
            _N_RECORDS += 1
            _N_BYTES += self.data.nbytes

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, leaf={not self._parents})"

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        b = as_array(other)
        return _node(np.add(self.data, b, out=_out(self.data, b)), (self, other),
                     (_identity, _identity))

    __radd__ = __add__

    def __mul__(self, other):
        a, b = self.data, as_array(other)
        return _node(_mul(a, b), (self, other), (lambda g: _mul(g, b), lambda g: _mul(g, a)))

    __rmul__ = __mul__

    def __neg__(self):
        return Tensor(_neg(self.data), (self,), lambda g: [_neg(g)])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Tensor) else -as_array(other))

    def __rsub__(self, other):
        return (-self) + other

    def __truediv__(self, other):
        a, b = self.data, as_array(other)

        def grad_b(g):
            # -g*a/(b*b) with one array of g's size: IEEE negation is exact,
            # so moving it onto b*b gives the same bits
            gb = _mul(g, a)
            gb /= -(b * b)
            return gb

        return _node(_div(a, b), (self, other), (lambda g: _div(g, b), grad_b))

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
        # (the add VJP hands `g` to both operands, a reshape or tsum VJP a
        # view of it), and is then never written: the second contribution
        # allocates the sum. Any other VJP output is a new array made for
        # that one parent, which owns it and adds later contributions into it.
        owned = set()
        for node in reversed(topo):
            if node._vjp is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._vjp(node.grad)):
                if parent.grad is None:
                    parent.grad = g
                    if g.flags.writeable and not np.may_share_memory(g, node.grad):
                        owned.add(id(parent))
                elif id(parent) in owned:
                    parent.grad += g
                else:
                    parent.grad = np.add(parent.grad, g, out=_out(parent.grad, g))
                    owned.add(id(parent))


def spmm(sparse, x):
    """Fixed sparse matrix times a dense (traced) matrix: sparse @ x."""
    if not isinstance(x, Tensor):
        return sparse @ x
    return Tensor(sparse @ x.data, (x,), lambda g: [sparse.T @ g])


def node_mix(op, x, n_copies: int):
    """Fixed dense (k, n) matrix times each of the `n_copies` blocks of n rows
    stacked in `x`: block c of the result is op @ block c of `x`. The product
    and its VJP, by `op.T`, are each one batched matmul into `scratch`."""
    k, n = op.shape
    data = as_array(x)
    width = data.shape[1]
    out = scratch((n_copies * k, width))
    np.matmul(op, data.reshape(n_copies, n, width), out=out.reshape(n_copies, k, width))
    if not isinstance(x, Tensor):
        return out

    def vjp(g):
        gx = scratch(data.shape)
        np.matmul(op.T, g.reshape(n_copies, k, width), out=gx.reshape(n_copies, n, width))
        return [gx]

    return Tensor(out, (x,), vjp)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: 1/(1+e) for z >= 0 and e/(1+e) below, with
    e = exp(-|z|) computed once. Its arrays are fresh, also on a tape: they
    are rows x bits, small beside the hidden layers, and writing the `where`
    into a given array is slower."""
    e = np.abs(z, out=np.empty_like(z))
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(z >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


# -- ops on a Tensor or an ndarray ------------------------------------------


def affine(x, w, b, squash: bool = False):
    """x @ w + b, through tanh when `squash`. Traced, it records the same
    matmul, add and tanh nodes as writing the expression out; untraced, it
    does the same arithmetic in one `scratch` array."""
    if not any(isinstance(v, Tensor) for v in (x, w, b)):
        out = np.matmul(x, w, out=scratch((x.shape[0], w.shape[1])))
        out += b
        return np.tanh(out, out=out) if squash else out
    out = matmul(x, w) + b
    return tanh(out) if squash else out


def exp(x):
    if not isinstance(x, Tensor):
        return np.exp(x)
    out = np.exp(x.data, out=scratch(x.data.shape))
    return Tensor(out, (x,), lambda g: [_mul(g, out)])


def log(x):
    if not isinstance(x, Tensor):
        return np.log(x)
    return Tensor(np.log(x.data, out=scratch(x.data.shape)), (x,),
                  lambda g: [_div(g, x.data)])


def tanh(x):
    if not isinstance(x, Tensor):
        return np.tanh(x)
    out = np.tanh(x.data, out=scratch(x.data.shape))

    def vjp(g):
        # g * (1 - out*out) in one array
        d = np.multiply(out, out, out=scratch(out.shape))
        np.subtract(1.0, d, out=d)
        return [np.multiply(g, d, out=d)]

    return Tensor(out, (x,), vjp)


def sigmoid(x):
    if not isinstance(x, Tensor):
        return _sigmoid(np.asarray(x, dtype=np.float64))
    out = _sigmoid(x.data)

    def vjp(g):
        # (g*out) * (1 - out) in two arrays
        d = _mul(g, out)
        d *= np.subtract(1.0, out, out=scratch(out.shape))
        return [d]

    return Tensor(out, (x,), vjp)


def sqrt(x):
    if not isinstance(x, Tensor):
        return np.sqrt(x)
    out = np.sqrt(x.data, out=scratch(x.data.shape))
    return Tensor(out, (x,), lambda g: [_div(_mul(g, 0.5), out)])


def clip(x, lo: float, hi: float):
    """Clamp values; gradient is identity inside [lo, hi], zero outside."""
    if not isinstance(x, Tensor):
        return np.clip(x, lo, hi)
    out = np.clip(x.data, lo, hi, out=scratch(x.data.shape))
    inside = _held((x.data >= lo) & (x.data <= hi))
    return Tensor(out, (x,), lambda g: [_mul(g, inside)])


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
        # a read-only view: backward never writes a node's first gradient
        return [np.broadcast_to(g, shape)]

    return Tensor(x.data.sum(axis=axis, keepdims=keepdims), (x,), vjp)


def tmean(x, axis=None, keepdims=False):
    if not isinstance(x, Tensor):
        return np.mean(x, axis=axis, keepdims=keepdims)
    count = x.data.size if axis is None else (
        np.prod([x.data.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))])
    )
    return tsum(x, axis=axis, keepdims=keepdims) * (1.0 / float(count))


def leaves(params: dict) -> dict:
    """Fresh leaf tensors for one loss evaluation: the start of a new tape,
    which inside an `Arena` reuses the previous tape's arrays."""
    if _ARENA is not None:
        _ARENA.new_tape()
    return {k: Tensor(v) for k, v in params.items()}


def collect_grads(leaf_map: dict) -> dict:
    """Copies of the gradients accumulated in leaves (zeros where unused),
    valid after the tape's arrays are reused."""
    return {
        k: (np.zeros_like(t.data) if t.grad is None else np.array(t.grad))
        for k, t in leaf_map.items()
    }
