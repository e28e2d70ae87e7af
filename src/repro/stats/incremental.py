"""Incremental (streaming) change-detection primitives.

The offline detector (:mod:`repro.stats.cusum` + :mod:`repro.stats.em`)
re-processes a whole analysis window on every scan — O(W) per scan even
when only a handful of points arrived since the last one.  This module
provides the primitives that let the pipeline's incremental scan cache
(:mod:`repro.core.incremental`) amortize that cost to O(n) for n new
points:

- :func:`cusum_screen_batch` — the production screen: one (k, n) array
  op advances k anchored two-sided Page CUSUM tests by n points each,
  which is how a shard screens thousands of series per advance without
  a per-series Python loop.
- :class:`StreamingCusum` — the same test one point at a time, written
  as the textbook recursion.  Nothing in the pipeline calls it: it is
  the independent reference the batch kernel is tested against.

Page's recursion ``S_t = max(0, S_{t-1} + a_t)`` vectorizes exactly via
the running-minimum identity: with ``P_t = S_0 + (a_1 + ... + a_t)``,

    ``S_t = P_t - min(0, min_{j<=t} P_j)``

so one ``cumsum`` plus one ``minimum.accumulate`` replaces the per-point
loop.  Every row of the kernel is computed independently of the others,
so folding a series alone or inside a (k, n) matrix produces
bit-identical state.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["StreamingCusum", "cusum_screen_batch"]

#: :class:`StreamingCusum`'s allowance ``k`` and decision interval ``h``,
#: in reference standard deviations: the incremental screen's
#: ``SCREEN_DRIFT`` and ``SCREEN_THRESHOLD`` (:mod:`repro.core.incremental`).
DRIFT = 0.75
THRESHOLD = 6.0


def cusum_screen_batch(
    values: np.ndarray,
    means: np.ndarray,
    stds: np.ndarray,
    pos: np.ndarray,
    neg: np.ndarray,
    drift: float,
    threshold: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance ``k`` anchored two-sided CUSUM screens by ``n`` points each.

    Args:
        values: ``(k, n)`` matrix — row ``i`` holds the new points for
            screen ``i`` in arrival order.
        means: ``(k,)`` reference means (anchors).
        stds: ``(k,)`` reference standard deviations; a row with
            ``std <= 0`` is degenerate — it fires on any value different
            from its mean and its evidence sums stay untouched.
        pos: ``(k,)`` current positive evidence (``S+``).
        neg: ``(k,)`` current negative evidence (``S-``).
        drift: Allowance ``k`` in reference standard deviations.
        threshold: Decision interval ``h`` in reference standard
            deviations.

    Returns:
        ``(pos_out, neg_out, fired_at)`` — the evidence sums after the
        fold and, per row, the index of the first point at which the
        screen crossed ``threshold`` (``-1`` when it never did).  On a
        firing row the sums freeze at the crossing point, matching the
        scalar fold's early exit.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"values must be (k, n), got shape {x.shape}")
    k, n = x.shape
    means = np.asarray(means, dtype=float)
    stds = np.asarray(stds, dtype=float)
    pos = np.asarray(pos, dtype=float)
    neg = np.asarray(neg, dtype=float)

    degenerate = stds <= 0.0
    safe_stds = np.where(degenerate, 1.0, stds)
    # The fold below is the same math as the readable form
    #
    #     z = (x - means) / stds
    #     up = pos + cumsum(z - drift);   pos_path = up - min(0, runmin(up))
    #     down = neg + cumsum(-z - drift); neg_path = down - min(0, runmin(down))
    #
    # but reuses two (k, n) scratch buffers per side instead of
    # allocating ~10 of them: on the hot batch-screen path the matrices
    # are tens of MB and first-touch page faults would otherwise rival
    # the arithmetic itself.  Every operation (and its order) is
    # unchanged, so results stay bit-identical.
    z = x - means[:, None]
    z /= safe_stds[:, None]
    mz = -z
    mz -= drift
    z -= drift

    np.cumsum(z, axis=1, out=z)
    z += pos[:, None]
    run = np.minimum.accumulate(z, axis=1)
    np.minimum(run, 0.0, out=run)
    np.subtract(z, run, out=run)
    pos_path = run

    np.cumsum(mz, axis=1, out=mz)
    mz += neg[:, None]
    run = np.minimum.accumulate(mz, axis=1)
    np.minimum(run, 0.0, out=run)
    np.subtract(mz, run, out=run)
    neg_path = run

    crossed = pos_path >= threshold
    crossed |= neg_path >= threshold
    if degenerate.any():
        crossed[degenerate] = x[degenerate] != means[degenerate][:, None]

    fired_rows = crossed.any(axis=1)
    fired_at = np.where(fired_rows, np.argmax(crossed, axis=1), -1)
    stop = np.where(fired_at >= 0, fired_at, n - 1)
    rows = np.arange(k)
    pos_out = np.where(degenerate, pos, pos_path[rows, stop])
    neg_out = np.where(degenerate, neg, neg_path[rows, stop])
    return pos_out, neg_out, fired_at


class StreamingCusum:
    """Page's two-sided CUSUM test with an anchored reference.

    Tracks the classic recursions over standardized deviations
    ``z = (x - mean) / std``::

        S+ = max(0, S+ + (z - drift))
        S- = max(0, S- + (-z - drift))

    and fires when either side reaches :data:`THRESHOLD`.  The drift
    (:data:`DRIFT`, the allowance ``k``) absorbs noise around the
    reference mean.  Its contract: a sustained shift of ``d`` standard
    deviations with ``d > drift`` adds ``d - drift`` to one side per
    point, so a noiseless one fires after ``ceil(threshold / (d -
    drift))`` points; a shift of at most ``drift`` never fires it (see
    :mod:`repro.core.incremental` for what the scan cache does about
    that).

    A zero/degenerate reference std means the anchored window was
    constant: any deviation from the reference mean fires immediately.

    Args:
        mean: Reference mean (anchor).
        std: Reference standard deviation (anchor); may be 0.
    """

    def __init__(self, mean: float, std: float) -> None:
        self.mean = float(mean)
        self.std = float(std)
        self.drift = DRIFT
        self.threshold = THRESHOLD
        self.pos = 0.0
        self.neg = 0.0
        self.fired = False
        self.n = 0

    def update(self, value: float) -> bool:
        """Fold one observation in (O(1)); returns :attr:`fired`."""
        self.n += 1
        if self.fired:
            return True
        if self.std <= 0.0:
            if value != self.mean:
                self.fired = True
            return self.fired
        z = (value - self.mean) / self.std
        # Same association as the vectorized kernel (z - drift first),
        # so scalar and batched folds stay bit-identical.
        self.pos = max(0.0, self.pos + (z - self.drift))
        self.neg = max(0.0, self.neg + (-z - self.drift))
        if self.pos >= self.threshold or self.neg >= self.threshold:
            self.fired = True
        return self.fired

    def reanchor(self, mean: float, std: float) -> None:
        """Reset the accumulated evidence around a new reference."""
        self.mean = float(mean)
        self.std = float(std)
        self.pos = 0.0
        self.neg = 0.0
        self.fired = False
        self.n = 0
