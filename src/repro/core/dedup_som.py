"""SOMDedup: fast first-pass regression deduplication (§5.5.1).

A single change often regresses many metrics at once (every upstream
caller of a regressed subroutine, for instance).  SOMDedup clusters
same-typed metrics within one analysis window using a Self-Organizing
Map — O(n) versus pairwise O(n^2) — on features combining classic
time-series descriptors (Fourier frequencies, variance, change point)
with FBDetect's domain-specific ones:

- *candidate root causes*: a bitmap over recent changes that modify the
  regressed subroutine right before the regression starts;
- *metric ID*: subroutine+metric name, converted to a number via
  2-/3-gram TF-IDF.

Within each cluster, the regression with the highest ImportanceScore is
presented as the representative.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Sequence

import numpy as np

from repro.core.importance import importance_score
from repro.core.types import (
    DetectionVerdict,
    FilterReason,
    MonitorState,
    Regression,
    RegressionGroup,
    ScanContext,
)
from repro.fleet.changes import ChangeLog
from repro.som import som_cluster
from repro.text.tfidf import NgramTfidfVectorizer

__all__ = ["SOMDedup"]

#: Number of leading Fourier magnitudes used as features.
_N_FOURIER = 3
#: Width of the root-cause bitmap projection.
_BITMAP_BUCKETS = 4
#: How far before the change point (seconds) to search for candidate
#: root-cause changes.
LOOKBACK = 6 * 3600.0
#: SOM training seed.
SOM_SEED = 0


class SOMDedup:
    """SOM-based deduplication of same-window, same-type regressions;
    group ids continue from the monitor's state."""

    def deduplicate(
        self, regressions: Sequence[Regression], context: ScanContext, state: MonitorState
    ) -> List[RegressionGroup]:
        """Cluster ``regressions`` and elect representatives.

        Non-representative members receive a SOM_DUPLICATE verdict;
        representatives a keep verdict.  Clustering runs separately per
        metric type ("metrics of the same type ... within the same
        analysis window").

        Returns:
            One :class:`RegressionGroup` per cluster.
        """
        groups: List[RegressionGroup] = []
        by_type: Dict[str, List[Regression]] = {}
        for regression in regressions:
            by_type.setdefault(regression.context.metric_name, []).append(regression)

        for metric_type in sorted(by_type):
            groups.extend(self._dedup_one_type(by_type[metric_type], context, state))
        return groups

    def _dedup_one_type(
        self, regressions: List[Regression], context: ScanContext, state: MonitorState
    ) -> List[RegressionGroup]:
        if not regressions:
            return []
        features = self._feature_matrix(regressions, context.change_log)
        clusters = som_cluster(features, seed=SOM_SEED)

        groups = []
        for member_indices in clusters:
            group = RegressionGroup(group_id=state.som_groups)
            state.som_groups += 1
            members = [regressions[i] for i in member_indices]
            scored = [
                (importance_score(m, context.samples), i, m)
                for i, m in enumerate(members)
            ]
            scored.sort(key=lambda item: (-item[0], item[1]))
            for rank, (_, _, member) in enumerate(scored):
                group.add(member)
                member.representative = rank == 0
                if rank == 0:
                    group.representative = member
                    member.record(DetectionVerdict.keep(detail="SOMDedup representative"))
                else:
                    member.record(
                        DetectionVerdict.drop(
                            FilterReason.SOM_DUPLICATE,
                            detail=f"duplicate of {group.representative.context.metric_id}",
                        )
                    )
            groups.append(group)
        return groups

    # ------------------------------------------------------------------
    # Features
    # ------------------------------------------------------------------

    def _feature_matrix(self, regressions: List[Regression], change_log: ChangeLog) -> np.ndarray:
        vectorizer = NgramTfidfVectorizer().fit(
            [r.context.metric_id for r in regressions]
        )
        rows = [self._features_for(r, vectorizer, change_log) for r in regressions]
        return np.asarray(rows, dtype=float)

    def _features_for(
        self, regression: Regression, vectorizer: NgramTfidfVectorizer, change_log: ChangeLog
    ) -> List[float]:
        series = regression.window.analysis
        fourier = self._fourier_features(series)
        variance = float(series.var()) if series.size else 0.0
        change_position = (
            regression.change_index / series.size if series.size else 0.0
        )
        bitmap = self._root_cause_bitmap(regression, change_log)
        metric_feature = vectorizer.metric_id_feature(regression.context.metric_id)

        features = list(fourier)
        features.append(np.log1p(variance * 1e6))
        features.append(change_position)
        features.append(np.log1p(abs(regression.magnitude) * 1e4))
        features.extend(bitmap)
        features.append(metric_feature)
        regression.features.update(
            {
                "variance": variance,
                "change_position": change_position,
                "metric_id_feature": metric_feature,
            }
        )
        return features

    @staticmethod
    def _fourier_features(series: np.ndarray) -> List[float]:
        """Normalized magnitudes of the leading non-DC Fourier bins."""
        if series.size < 4:
            return [0.0] * _N_FOURIER
        spectrum = np.abs(np.fft.rfft(series - series.mean()))
        spectrum = spectrum[1:]  # drop DC
        if spectrum.size == 0 or spectrum.max() == 0:
            return [0.0] * _N_FOURIER
        spectrum = spectrum / spectrum.max()
        top = np.sort(spectrum)[::-1][:_N_FOURIER]
        padded = np.zeros(_N_FOURIER)
        padded[: top.size] = top
        return list(map(float, padded))

    @staticmethod
    def _root_cause_bitmap(regression: Regression, change_log: ChangeLog) -> List[float]:
        """Candidate-root-cause bitmap projected into a few buckets.

        Each recent change that modifies the regressed subroutine sets
        the bit ``hash(change_id) % _BITMAP_BUCKETS`` — regressions that
        share candidates land near each other in feature space.
        """
        buckets = [0.0] * _BITMAP_BUCKETS
        if regression.context.subroutine is None:
            return buckets
        window_start = regression.change_time - LOOKBACK
        for change in change_log.deployed_between(
            window_start, regression.change_time + 1.0
        ):
            if regression.context.subroutine in change.modified_subroutines:
                stable = zlib.crc32(change.change_id.encode("utf-8"))
                buckets[stable % _BITMAP_BUCKETS] = 1.0
        return buckets
