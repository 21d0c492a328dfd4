"""Derandomized rounding of a product distribution by conditional expectation.

The energy functions here are multilinear, so evaluating one on a fractional
vector gives the exact expected energy under the product distribution with
those marginals. Fixing coordinates one at a time to the better endpoint can
therefore never increase the (expected) energy, which yields the
better-than-average guarantee and, for the penalty-form problems with 0 < A < B,
a constraint-feasible output.

Decoding takes one marginal vector (N,) or a matrix (M, N) of M independent
rows, and rounds all rows in one pass: the k-th step fixes every row's k-th
coordinate with two energy calls over the rows still fractional there. Each
row is rounded exactly as it would be alone, because a row's energy does not
depend on its batch (see `CoProblem`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["conditional_expectation"]


def conditional_expectation(v, energy_fn) -> np.ndarray:
    """Round marginals `v` to bits, greedily minimizing the multilinear energy.

    `v` is a vector (N,) or a matrix (M, N) whose rows are rounded
    independently; the result has the same shape, as int8. `energy_fn` maps
    an (L, N) matrix to its L row energies. In each row, coordinates are
    visited in descending order of v (ties toward the lower index, via a
    stable sort); each is fixed to the endpoint with lower energy (ties toward
    1). Coordinates already exactly 0 or 1 are left as they are, so a binary
    input is returned unchanged.
    """
    work = np.array(v, dtype=np.float64)
    single = work.ndim <= 1
    if single:
        work = work.reshape(1, -1)
    elif work.ndim != 2:
        raise ValueError(f"marginals must be a vector or a matrix, got shape {work.shape}")
    if work.size == 0:
        raise ValueError("empty probability vector")
    if not np.isfinite(work).all() or (work < 0).any() or (work > 1).any():
        raise ValueError("marginals must lie in [0, 1]")
    order = np.argsort(-work, axis=1, kind="stable")
    rows = np.arange(work.shape[0])
    for col in order.T:
        val = work[rows, col]
        live = (val != 0.0) & (val != 1.0)
        if not live.any():
            continue
        r, c = rows[live], col[live]
        trial = work[r]
        at = (np.arange(len(r)), c)
        trial[at] = 0.0
        e0 = energy_fn(trial)
        trial[at] = 1.0
        e1 = energy_fn(trial)
        if not (np.isfinite(e0).all() and np.isfinite(e1).all()):
            raise FloatingPointError("non-finite energy during rounding")
        work[r, c] = np.where(e1 <= e0, 1.0, 0.0)
    out = work.astype(np.int8)
    return out[0] if single else out
