"""Adaptive-moment optimizer with linear warmup and cosine learning-rate decay.

The schedule ramps linearly from a tiny initial rate to the peak over the
first 2.5% of steps, then follows a cosine from the peak down to peak/10.
The warmup stands in for the variance rectification of rectified Adam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["LrSchedule", "AdamState", "adam_step"]

WARMUP_FRAC = 0.025
FLOOR_RATIO = 0.1
INIT_LR = 1e-10
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class LrSchedule:
    peak: float
    total_steps: int

    def warmup_steps(self) -> int:
        return max(1, int(round(self.total_steps * WARMUP_FRAC)))

    def lr(self, step: int) -> float:
        """Learning rate for 0-indexed optimizer step; hits `peak` at warmup end."""
        w = self.warmup_steps()
        if step < w:
            return INIT_LR + (self.peak - INIT_LR) * (step + 1) / w
        span = max(1, self.total_steps - w)
        frac = min(1.0, (step - w) / span)
        floor = self.peak * FLOOR_RATIO
        return floor + (self.peak - floor) * 0.5 * (1.0 + math.cos(math.pi * frac))


@dataclass
class AdamState:
    m: dict
    v: dict
    step: int = 0

    @classmethod
    def for_params(cls, params: dict) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )

    def state_arrays(self) -> dict:
        out = {f"m::{k}": v for k, v in self.m.items()}
        out.update({f"v::{k}": v for k, v in self.v.items()})
        return out

    @classmethod
    def from_arrays(cls, arrays: dict, step: int) -> "AdamState":
        m = {k[3:]: arrays[k] for k in arrays if k.startswith("m::")}
        v = {k[3:]: arrays[k] for k in arrays if k.startswith("v::")}
        return cls(m=m, v=v, step=step)


def adam_step(params: dict, grads: dict, state: AdamState, lr: float) -> None:
    """One adaptive-moment descent step; mutates `params` and `state` in place."""
    for g in grads.values():
        if not np.isfinite(g).all():
            raise FloatingPointError("non-finite gradient")
    state.step += 1
    t = state.step
    corr1 = 1.0 - BETA1 ** t
    corr2 = 1.0 - BETA2 ** t
    for k in params:
        g = grads[k]
        state.m[k] = BETA1 * state.m[k] + (1.0 - BETA1) * g
        state.v[k] = BETA2 * state.v[k] + (1.0 - BETA2) * g * g
        m_hat = state.m[k] / corr1
        v_hat = state.v[k] / corr2
        params[k] = params[k] - lr * m_hat / (np.sqrt(v_hat) + EPS)
