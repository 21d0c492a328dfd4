"""Tiny frozen/parameterized policies used as fixtures across tests."""

from __future__ import annotations

import numpy as np

from bitdiff import autodiff as ad
from bitdiff.autodiff import sigmoid


class _NoValueSpec:
    value_head = False


class ConstantPolicy:
    """Frozen factorized policy with the same probability for every bit/step."""

    def __init__(self, n_bits: int, n_steps: int, value: float = 0.5):
        self.spec = _NoValueSpec()
        self.n_bits = n_bits
        self.n_steps = n_steps
        self.value = value
        self.params = {}

    def probs(self, x_t, t, condition=None):
        x_t = np.asarray(x_t)
        return np.full(x_t.shape, self.value)

    def probs_from(self, P, x_t, t, condition=None):
        return self.probs(x_t, t, condition)


class KernelPolicy:
    """The exact reverse of the beta=0 forward process, plus two bias
    parameters that vanish at the perfect-proposal point.

    At params == 0 each bit keeps its value with probability 1 - beta_t, which
    reproduces the forward flip kernel; the reverse path distribution then
    equals the forward path measure of a beta=0 target exactly.
    """

    def __init__(self, n_bits: int, schedule):
        self.spec = _NoValueSpec()
        self.n_bits = n_bits
        self.n_steps = schedule.n_steps
        self.betas = schedule.betas
        self.params = {"b_off": np.zeros(1), "b_on": np.zeros(1)}

    def _base_logits(self, x_t, t):
        x = np.asarray(x_t, dtype=np.float64)
        t = np.asarray(t)
        beta = self.betas[np.asarray(t, dtype=np.int64) - 1]
        ell = np.log(beta) - np.log1p(-beta)
        if np.ndim(ell):
            ell = ell[:, None]
        return ell * (1.0 - 2.0 * x), x

    def probs_from(self, P, x_t, t, condition=None):
        base, x = self._base_logits(x_t, t)
        logits = base + (1.0 - x) * P["b_off"] + x * P["b_on"]
        return sigmoid(logits)

    def probs(self, x_t, t, condition=None):
        return self.probs_from(self.params, x_t, t, condition)


class LogitTablePolicy:
    """Fully parameterized tiny policy: one logit per (step, input state, bit).

    The most expressive policy possible at enumeration scale; useful when a
    test needs gradients with respect to every conditional probability.
    """

    def __init__(self, n_bits: int, n_steps: int, seed: int = 0, scale: float = 0.5):
        self.spec = _NoValueSpec()
        self.n_bits = n_bits
        self.n_steps = n_steps
        rng = np.random.default_rng(seed)
        self.params = {
            f"logits{t}": scale * rng.standard_normal((1 << n_bits, n_bits))
            for t in range(1, n_steps + 1)
        }

    @staticmethod
    def _state_index(x_t):
        x = np.asarray(x_t, dtype=np.int64)
        return (x << np.arange(x.shape[-1])).sum(axis=-1)

    def probs_from(self, P, x_t, t, condition=None):
        idx = self._state_index(x_t)
        t_arr = np.broadcast_to(np.asarray(t, dtype=np.int64), idx.shape)
        logits = None
        for step in range(1, self.n_steps + 1):
            rows = t_arr == step
            if not rows.any():
                continue
            sel = np.zeros((len(idx), 1 << self.n_bits))
            sel[rows, idx[rows]] = 1.0
            term = ad.matmul(sel, P[f"logits{step}"])
            logits = term if logits is None else logits + term
        return sigmoid(logits)

    def probs(self, x_t, t, condition=None):
        return self.probs_from(self.params, x_t, t, condition)
