"""Span recording around calls into bitdiff, installed from outside the package.

A `Tracer` replaces module attributes and class methods with thin timing
wrappers, so a span measures a call exactly as its caller sees it (for example
`bitdiff.train.sample_reverse_path` is the name `train.py` calls, and
`Tensor.backward` is patched on the class). Spans nest through a stack:
one process, one thread. Each span keeps (name, start, end, parent, run id)
plus an optional count; self time is the span's duration minus the
durations of its direct children, which is exact for properly nested spans.

`UnitClock` is the one hook a plain (untraced) run installs: a timestamp when
one function returns, at the boundary between two units of a stage's work.
For example `train` writes a checkpoint before its first epoch and after
every epoch, so the returns of `bitdiff.train.save_checkpoint` split one
`bitdiff train` call into epochs. At a boundary the clock may pause the
operation to time the host's speed.
"""

from __future__ import annotations

import functools
import gc
import math
import os
import time
from array import array

import bitdiff.cli
import bitdiff.energies
import bitdiff.graphs
import bitdiff.objectives
import bitdiff.train
import bitdiff.unbiased
from bitdiff import autodiff as ad
from bitdiff.autodiff import Tensor
from bitdiff.energies import CoProblem, EAInstance, IsingLattice2D
from bitdiff.nets import GnnPolicy, MlpPolicy

_now = time.perf_counter
_cpu = time.process_time


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    rows = 1
    for d in shape[:-1]:
        rows *= int(d)
    return rows


def _is_traced(params) -> bool:
    return any(isinstance(v, Tensor) for v in params.values())


class _Patcher:
    """Swaps attributes and restores them in reverse order."""

    def __init__(self):
        self._saved = []

    def patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class UnitClock:
    """Timestamps each return of one function: the boundary between two
    units of a stage's work (an epoch, a chain step, a graph). At each
    boundary `pause(now)` may run, returning whether it paused; `ticks`
    holds, for every boundary, the wall clock and the process CPU clock at
    the return and at the resume, so the pause can be taken out of the
    operation."""

    def __init__(self):
        self.ticks: list[tuple[float, float, float, float]] = []
        self.pause = None
        self._patcher = _Patcher()

    def install(self, owner, attr: str):
        inner = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(inner)
        def marked(*args, **kwargs):
            out = inner(*args, **kwargs)
            now, cpu = _now(), _cpu()
            if self.pause is not None and self.pause(now):
                self.ticks.append((now, _now(), cpu, _cpu()))
            else:
                self.ticks.append((now, now, cpu, cpu))
            return out

        self._patcher.patch(owner, attr, marked)

    def uninstall(self):
        self._patcher.restore()


class Tracer:
    """Records nested spans for every wrapped call while installed.

    Span i is (names[name_id[i]], start[i], end[i], parent[i], run[i],
    count[i]); parent is -1 for a root and count NaN when the call carries
    none. The columns are flat arrays, so a few hundred thousand spans add
    no objects for the garbage collector to scan during the traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child_s = array("d")
        self.parent = array("q")
        self.run_id = array("q")
        self.count = array("d")
        self._stack: list[int] = []
        self._patcher = _Patcher()
        self.run = 0

    # -- span primitives --------------------------------------------------

    def open(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(self._name_ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run_id.append(self.run)
        self.count.append(math.nan)
        self.child_s.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(_now())
        return i

    def close(self, i: int) -> None:
        end = _now()
        self.end[i] = end
        if self._stack.pop() != i:
            raise RuntimeError(f"span {self.names[self.name_id[i]]} closed out of order")
        parent = self.parent[i]
        if parent >= 0:
            self.child_s[parent] += end - self.start[i]

    def roots(self) -> array:
        """Root span of every span (parents are recorded before children)."""
        root = array("q", range(len(self.start)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                root[i] = root[p]
        return root

    def timed(self, name: str, fn, count=None):
        """Wrap `fn` so each call is one span; `count(args, kwargs, result)`
        returns the span's count payload."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                self.count[span] = count(args, kwargs, out)
            return out

        return wrapper

    # -- installation -----------------------------------------------------

    def _module(self, module, attr, name, count=None):
        self._patcher.patch(module, attr, self.timed(name, getattr(module, attr), count))

    def _method(self, cls, attr, name, count=None, only_traced=False):
        original = cls.__dict__[attr]
        timed = self.timed(name, original, count)
        if only_traced:
            # probs()/value() call these with the policy's own arrays; only a
            # call with tape leaves is a traced forward pass
            @functools.wraps(original)
            def method(obj, params, *args, **kwargs):
                if params is obj.params or not _is_traced(params):
                    return original(obj, params, *args, **kwargs)
                return timed(obj, params, *args, **kwargs)
        else:
            method = timed
        self._patcher.patch(cls, attr, method)

    def _grad(self, attr):
        """Gradient calls carry the activation records their tape stored."""
        original = getattr(bitdiff.train, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            before = ad.activation_records()
            span = self.open("objectives.grad")
            try:
                out = original(*args, **kwargs)
            finally:
                self.close(span)
            self.count[span] = ad.activation_records() - before
            return out

        self._patcher.patch(bitdiff.train, attr, wrapper)

    def _gc(self, phase, info):
        # the cyclic collector runs synchronously inside whatever call
        # allocated; freeing the tape's reference cycles shows up here
        if phase == "start":
            self._gc_span = self.open("python.gc")
        else:
            self.close(self._gc_span)

    def install(self):
        """Wrap every traced call, and time cyclic garbage collections."""
        gc.callbacks.append(self._gc)
        rows_arg1 = lambda a, k, out: _rows(a[1])  # noqa: E731  (self, x, ...)
        for attr in ("fkl_mc_grad", "ppo_minibatch_grad", "diffuco_loss_grad"):
            self._grad(attr)
        self._module(bitdiff.train, "build_buffer", "objectives.buffer")
        self._module(bitdiff.train, "fkl_importance_weights", "objectives.weights")
        self._module(bitdiff.train, "minibatch_plan", "objectives.plan")
        self._module(bitdiff.train, "adam_step", "optim.adam")
        self._module(bitdiff.train, "build_instances", "train.build_instances")
        # the per-objective epoch bodies: their self time is the bookkeeping
        # between the calls above, and freeing an epoch's buffers on return
        for attr in ("_epoch_fkl", "_epoch_ppo", "_epoch_diffuco"):
            self._module(bitdiff.train, attr, "train.epoch")
        self._method(Tensor, "backward", "autodiff.backward")
        for cls in (MlpPolicy, GnnPolicy):
            self._method(cls, "probs", "nets.forward", rows_arg1)
            self._method(cls, "value", "nets.value", rows_arg1)
            self._method(cls, "probs_from", "nets.forward_traced", only_traced=True)
            self._method(cls, "probs_and_value_from", "nets.forward_traced",
                         only_traced=True)
        for module in (bitdiff.train, bitdiff.unbiased, bitdiff.cli):
            self._module(module, "sample_reverse_path", "diffusion.sample")
        for module in (bitdiff.unbiased, bitdiff.objectives):
            self._module(module, "path_log_p_hat", "diffusion.log_p_hat")
        self._module(bitdiff.unbiased, "nmcmc_run", "unbiased.chain")
        self._module(bitdiff.unbiased, "estimate_from_series", "unbiased.diag")
        self._module(bitdiff.cli, "snis_sample", "unbiased.snis")
        self._module(bitdiff.cli, "observable_estimates", "unbiased.observables")
        for cls in (IsingLattice2D, EAInstance, CoProblem):
            self._method(cls, "energy", "energies.energy", rows_arg1)
        for module in (bitdiff.cli, bitdiff.energies):
            self._module(module, "enumerate_observables", "energies.enumerate")
        self._module(bitdiff.cli, "conditional_expectation", "decode.ce")
        self._module(bitdiff.cli, "is_feasible", "graphs.feasible")
        self._module(bitdiff.cli, "load_checkpoint", "cli.load_checkpoint")
        for module in (bitdiff.cli, bitdiff.train):
            self._module(module, "load_dataset", "train.load_dataset")
        self._module(bitdiff.cli, "gen_ba", "graphs.gen")
        self._module(bitdiff.graphs, "brute_force_co", "graphs.brute_force")
        self._module(bitdiff.train, "save_checkpoint", "train.checkpoint",
                     lambda a, k, out: os.path.getsize(a[0]))

    def uninstall(self):
        gc.callbacks.remove(self._gc)
        self._patcher.restore()
