"""Row-independence and reference tests for the batch CUSUM screen.

The columnar scan path replaces per-series Python loops with one
whole-matrix array op (:func:`cusum_screen_batch`).  The
incremental-scan correctness argument — and the shadow-mode /
chaos-drill byte-identical-reports oracle built on it — requires a
k-row fold to be *bit-identical* to k independent single-row folds, and
the vectorized fold to agree with the scalar recursion
(:meth:`StreamingCusum.update`) on every decision.  Hypothesis hunts for
rows where the op order diverges.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.incremental import StreamingCusum, cusum_screen_batch

_val = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
_reference = st.lists(_val, min_size=2, max_size=20)


def _assert_rows_fold_alone(values, means, stds, pos0, neg0, drift, threshold):
    """The k-row fold equals k one-row folds, bit for bit."""
    pos, neg, fired_at = cusum_screen_batch(
        values, means, stds, pos0, neg0, drift, threshold
    )
    for i in range(len(values)):
        one = slice(i, i + 1)
        pos1, neg1, at1 = cusum_screen_batch(
            values[one], means[one], stds[one], pos0[one], neg0[one], drift, threshold
        )
        # Bit-identical, not approx: same kernel, same op order.
        assert pos[i] == pos1[0], f"row {i} pos"
        assert neg[i] == neg1[0], f"row {i} neg"
        assert fired_at[i] == at1[0], f"row {i} fired_at"


class TestCusumScreenBatch:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(_reference, st.lists(_val, min_size=1, max_size=12)),
            min_size=1,
            max_size=5,
        ),
        width=st.integers(min_value=1, max_value=12),
        drift=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        threshold=st.floats(min_value=0.5, max_value=8.0, allow_nan=False),
    )
    def test_rows_match_single_row_fold(self, rows, width, drift, threshold):
        """A k-row fold is bit-identical to k independent 1-row folds.

        This is the guarantee the incremental-scan cache leans on: it
        groups series into (k, n) matrices by batch width, so every
        row's outcome must be exactly what screening that one series
        alone would produce — regardless of which other series share
        the matrix.
        """
        k = len(rows)
        means = np.empty(k)
        stds = np.empty(k)
        values = np.empty((k, width))
        for i, (reference, new) in enumerate(rows):
            x = np.asarray(reference, dtype=float)
            means[i] = x.mean()
            stds[i] = x.std()
            # Cycle the drawn points out to the common batch width.
            values[i] = [new[j % len(new)] for j in range(width)]
        _assert_rows_fold_alone(
            values, means, stds, np.zeros(k), np.zeros(k), drift, threshold
        )

    @settings(max_examples=100, deadline=None)
    @given(
        carried=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            ),
            min_size=1,
            max_size=4,
        ),
        new=st.lists(_val, min_size=1, max_size=10),
    )
    def test_carried_evidence_matches_single_row_fold(self, carried, new):
        """Non-zero carried-in S+/S- (the checkpointed-anchor path)."""
        k = len(carried)
        values = np.tile(np.asarray(new, dtype=float), (k, 1))
        values += np.arange(k)[:, None]  # rows differ, so a mix-up shows
        pos0 = np.array([p for p, _ in carried])
        neg0 = np.array([n for _, n in carried])
        means, stds = np.full(k, 1.0), np.full(k, 2.0)
        _assert_rows_fold_alone(values, means, stds, pos0, neg0, 0.75, 6.0)

    def test_scalar_and_batch_folds_agree(self):
        """update() loop vs the batch kernel: same decisions, ~same sums.

        The vectorized fold reassociates the running sums (cumsum minus
        running minimum instead of an iterated clamp), so sums agree to
        rounding — and decisions agree outright at any realistic margin.
        """
        rng = np.random.default_rng(7)
        cases = [
            rng.normal(0.0, 1.0, 50),                      # quiet
            np.concatenate([rng.normal(0.0, 1.0, 20),
                            rng.normal(4.0, 1.0, 30)]),    # upward shift
            np.concatenate([rng.normal(0.0, 1.0, 20),
                            rng.normal(-4.0, 1.0, 30)]),   # downward shift
        ]
        for values in cases:
            one = StreamingCusum(0.0, 1.0)
            for value in values:
                # The kernel freezes its sums at the firing point (the
                # pipeline reanchors there), so the scalar mirror stops too.
                if one.update(value):
                    break
            pos, neg, fired_at = cusum_screen_batch(
                values[None, :], np.array([one.mean]), np.array([one.std]),
                np.zeros(1), np.zeros(1), one.drift, one.threshold,
            )
            assert fired_at[0] == (one.n - 1 if one.fired else -1)
            assert pos[0] == pytest.approx(one.pos, rel=1e-9, abs=1e-9)
            assert neg[0] == pytest.approx(one.neg, rel=1e-9, abs=1e-9)

    def test_degenerate_std_rows(self):
        """std == 0: fire on any value != mean, sums left untouched."""
        values = np.array([[5.0, 5.0, 5.0], [5.0, 6.0, 5.0]])
        pos, neg, fired_at = cusum_screen_batch(
            values, np.array([5.0, 5.0]), np.array([0.0, 0.0]),
            np.array([0.3, 0.4]), np.array([0.1, 0.2]), 0.75, 6.0,
        )
        assert fired_at[0] == -1
        assert fired_at[1] == 1
        assert list(pos) == [0.3, 0.4]
        assert list(neg) == [0.1, 0.2]
