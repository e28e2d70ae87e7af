"""Tests for SOMDedup, PairwiseDedup, SameRegressionMerger, importance."""

import copy
import io
import pickle

import numpy as np
import pytest

import _reference_kernels as ref
from repro.core import dedup_pairwise
from repro.core.dedup_pairwise import MergeRule, PairwiseDedup
from repro.core.dedup_som import SOMDedup
from repro.core import importance
from repro.core.importance import importance_score, popularity_score
from repro.core.same_regression import SameRegressionMerger
from repro.core.types import (
    FilterReason,
    MetricContext,
    MonitorState,
    Regression,
    RegressionKind,
    ScanContext,
)
from repro.fleet.changes import ChangeEffect, ChangeLog, CodeChange
from repro.profiling.stacktrace import StackTrace
from repro.stats.correlation import aligned_pearson
from repro.tsdb import TimeSeries, WindowSpec
from repro.tsdb.windows import WindowedView


def make_regression(
    metric_id,
    values,
    change_index=100,
    subroutine=None,
    metric_name="gcpu",
    change_time=None,
    magnitude=0.0002,
):
    series = TimeSeries(metric_id)
    for i, value in enumerate(values):
        series.append(float(i), float(value))
    view = WindowSpec(600, 200, 100).view(series, now=float(len(values)))
    return Regression(
        context=MetricContext(
            metric_id=metric_id,
            service="svc",
            metric_name=metric_name,
            subroutine=subroutine,
        ),
        kind=RegressionKind.SHORT_TERM,
        change_index=change_index,
        change_time=change_time if change_time is not None else 600.0 + change_index,
        mean_before=0.001,
        mean_after=0.001 + magnitude,
        window=view,
    )


def correlated_family(rng, n, shift_at=700, base=0.001):
    """n regressions whose series share the same shape (same root cause)."""
    shared_noise = rng.normal(0, 0.00002, 900)
    out = []
    for i in range(n):
        values = base + shared_noise + rng.normal(0, 0.000002, 900)
        values[shift_at:] += 0.0002
        out.append(
            make_regression(
                f"svc.ns::K::callers_{i}.gcpu", values, subroutine=f"ns::K::callers_{i}"
            )
        )
    return out


class TestPopularityScore:
    def test_fraction_of_samples(self):
        samples = [
            StackTrace.from_names(["a", "b"], weight=3.0),
            StackTrace.from_names(["a"], weight=1.0),
        ]
        assert popularity_score("b", samples) == pytest.approx(0.75)

    def test_none_subroutine(self):
        assert popularity_score(None, []) == 0.0


class TestImportanceScore:
    def test_bigger_magnitude_scores_higher(self, rng):
        values = rng.normal(0.001, 0.00002, 900)
        small = make_regression("m1", values, magnitude=0.00005)
        big = make_regression("m2", values, magnitude=0.005)
        assert importance_score(big) > importance_score(small)

    def test_root_cause_bonus(self, rng):
        values = rng.normal(0.001, 0.00002, 900)
        plain = make_regression("m1", values)
        with_cause = make_regression("m2", values)
        from repro.core.types import RootCauseScore

        with_cause.root_cause_candidates = [RootCauseScore("c1", 0.9)]
        assert importance_score(with_cause) > importance_score(plain)

    def test_popular_subroutine_penalized(self, rng):
        values = rng.normal(0.001, 0.00002, 900)
        popular = make_regression("m1", values, subroutine="hot")
        obscure = make_regression("m2", values, subroutine="cold")
        samples = [StackTrace.from_names(["hot"], weight=99.0),
                   StackTrace.from_names(["cold"], weight=1.0)]
        assert importance_score(obscure, samples) > importance_score(popular, samples)

    def test_paper_default_weights(self):
        assert (importance.RELATIVE_COST_WEIGHT, importance.ABSOLUTE_COST_WEIGHT,
                importance.UNPOPULARITY_WEIGHT, importance.ROOT_CAUSE_FOUND_WEIGHT) == (
            0.2, 0.6, 0.1, 0.1
        )


class TestSOMDedup:
    def test_correlated_family_merged(self, rng):
        family = correlated_family(rng, 8)
        groups = SOMDedup().deduplicate(family, ScanContext(), MonitorState())
        assert len(groups) < len(family)
        representatives = [g.representative for g in groups]
        assert all(r is not None for r in representatives)
        # Every regression assigned to exactly one group.
        members = [m for g in groups for m in g.members]
        assert len(members) == len(family)

    def test_duplicates_get_verdict(self, rng):
        family = correlated_family(rng, 8)
        groups = SOMDedup().deduplicate(family, ScanContext(), MonitorState())
        for group in groups:
            for member in group.members:
                if member is group.representative:
                    assert member.verdicts[-1].passed
                else:
                    assert member.verdicts[-1].reason is FilterReason.SOM_DUPLICATE

    def test_different_metric_types_not_merged(self, rng):
        values = rng.normal(0.001, 0.00002, 900)
        values[700:] += 0.0002
        r1 = make_regression("m.gcpu", values, metric_name="gcpu")
        r2 = make_regression("m.throughput", values, metric_name="throughput")
        groups = SOMDedup().deduplicate([r1, r2], ScanContext(), MonitorState())
        assert len(groups) == 2

    def test_empty_input(self):
        assert SOMDedup().deduplicate([], ScanContext(), MonitorState()) == []

    def test_single_regression(self, rng):
        values = rng.normal(0.001, 0.00002, 900)
        groups = SOMDedup().deduplicate(
            [make_regression("m", values)], ScanContext(), MonitorState()
        )
        assert len(groups) == 1
        assert groups[0].representative.representative

    def test_root_cause_bitmap_feature(self, rng):
        log = ChangeLog(
            [CodeChange("c1", deploy_time=690.0, effects=(ChangeEffect("sub", 1.5),))]
        )
        values = rng.normal(0.001, 0.00002, 900)
        regression = make_regression("m", values, subroutine="sub", change_time=700.0)
        bitmap = SOMDedup._root_cause_bitmap(regression, log)
        assert sum(bitmap) == 1.0


class TestPairwiseDedup:
    def test_correlated_cross_metric_merge(self, rng):
        shared = rng.normal(0, 0.00002, 900)
        v1 = 0.001 + shared
        v1[700:] += 0.0002
        v2 = 0.002 + shared * 1.01
        v2[700:] += 0.0002
        r1 = make_regression("svc.sub.gcpu", v1, metric_name="gcpu")
        r2 = make_regression("svc.sub.throughput", v2, metric_name="throughput")
        dedup, context, state = PairwiseDedup(), ScanContext(), MonitorState()
        dedup.process([r1], context, state)
        dedup.process([r2], context, state)
        assert len(state.pairwise_groups) == 1
        assert r2.verdicts[-1].reason is FilterReason.PAIRWISE_DUPLICATE

    def test_unrelated_opens_new_group(self, rng):
        r1 = make_regression("aaa.gcpu", rng.normal(0.001, 0.0001, 900))
        r2 = make_regression("zzz.qps", rng.normal(5.0, 0.5, 900), metric_name="qps")
        dedup, context, state = PairwiseDedup(), ScanContext(), MonitorState()
        dedup.process([r1, r2], context, state)
        assert len(state.pairwise_groups) == 2
        assert r1.verdicts[-1].passed and r2.verdicts[-1].passed

    def test_stack_overlap_merges(self, rng):
        samples = [
            StackTrace.from_names(["_start", "caller", "callee"], weight=10.0),
        ]
        r1 = make_regression(
            "svc.caller.gcpu", rng.normal(0.001, 0.0001, 900), subroutine="caller"
        )
        r2 = make_regression(
            "x.callee.gcpu", 5.0 + rng.normal(0, 0.5, 900), subroutine="callee",
            metric_name="other",
        )
        dedup, context, state = PairwiseDedup(), ScanContext(tuple(samples)), MonitorState()
        dedup.process([r1], context, state)
        dedup.process([r2], context, state)
        assert len(state.pairwise_groups) == 1

    def test_merge_rule_semantics(self):
        any_rule = MergeRule({"a": 0.5, "b": 0.5}, require_all=False)
        all_rule = MergeRule({"a": 0.5, "b": 0.5}, require_all=True)
        scores = {"a": 0.9, "b": 0.1}
        assert any_rule.matches(scores)
        assert not all_rule.matches(scores)
        assert not MergeRule({}).matches(scores)

    def test_text_similarity_merges_same_subroutine_names(self, rng):
        r1 = make_regression("svc.feed::Ranker::score.gcpu", rng.normal(0.001, 0.0001, 900))
        r2 = make_regression(
            "svc.feed::Ranker::score.latency", 20 + rng.normal(0, 1, 900),
            metric_name="latency",
        )
        dedup, context, state = PairwiseDedup(), ScanContext(), MonitorState()
        dedup.process([r1], context, state)
        dedup.process([r2], context, state)
        assert len(state.pairwise_groups) == 1


    def test_process_builds_no_mapping_and_matches_the_dict_alignment(self, rng, monkeypatch):
        """Time correlation intersects the members' sorted time arrays: a
        ``process()`` call hands the kernel arrays, builds no ``{time:
        value}`` mapping, and its verdicts and group ids are those of the
        dict alignment it replaced."""
        family = correlated_family(rng, 3)
        others = [
            make_regression(f"{name}.qps", rng.normal(5.0, 0.5, 900), metric_name="qps")
            for name in ("zzz", "yyy")
        ]
        batch = [family[0], others[0], family[1], others[1], family[2]]

        def outcome(batch):
            dedup, context, state = PairwiseDedup(), ScanContext(), MonitorState()
            dedup.process(batch[:3], context, state)
            dedup.process(batch[3:], context, state)
            verdicts = [(one.group_id, one.representative, one.verdicts) for one in batch]
            return verdicts, [len(members) for members in state.pairwise_groups]

        seen = []

        def spy(*series):
            seen.append({type(one) for one in series})
            return aligned_pearson(*series)

        with monkeypatch.context() as patched:
            patched.setattr(dedup_pairwise, "aligned_pearson", spy)
            arrays = outcome(copy.deepcopy(batch))
        assert seen and all(types == {np.ndarray} for types in seen)

        monkeypatch.setattr(dedup_pairwise, "aligned_pearson", ref.aligned_pearson_of_arrays)
        assert arrays == outcome(batch)
        assert arrays[1] == [3, 1, 1]

    def test_a_group_keeps_only_the_members_it_compares(self, rng):
        """The bug: every member merged was kept, each a whole regression
        with its window, though scoring reads only the first
        ``MAX_MEMBERS_COMPARED`` and only their context and samples —
        and the groups ride every shard pickle."""
        family = correlated_family(rng, 51)
        dedup, context, state = PairwiseDedup(), ScanContext(), MonitorState()
        for regression in family:
            dedup.process([regression], context, state)
        (members,) = state.pairwise_groups
        assert [r.group_id for r in family] == [1_000_000] * 51
        assert family[0].verdicts[-1].passed
        assert all(
            r.verdicts[-1].reason is FilterReason.PAIRWISE_DUPLICATE
            and r.verdicts[-1].detail == "merged into group 1000000"
            for r in family[1:]
        )
        assert len(members) == dedup_pairwise.MAX_MEMBERS_COMPARED
        assert [m.context.metric_id for m in members] == [
            r.context.metric_id for r in family[: dedup_pairwise.MAX_MEMBERS_COMPARED]
        ]
        windows = []

        class Counting(pickle.Pickler):
            def reducer_override(self, obj):
                if isinstance(obj, WindowedView):
                    windows.append(obj)
                return NotImplemented

        Counting(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL).dump(state)
        assert windows == []

    def test_group_ids_and_verdicts_on_the_fixtures(self, rng):
        """Openers are kept and numbered from 1,000,000 in order; a merge
        names the group it joined."""
        shared = rng.normal(0, 0.00002, 900)
        r1 = make_regression("svc.sub.gcpu", 0.001 + shared, metric_name="gcpu")
        r2 = make_regression("svc.sub.throughput", 0.002 + shared * 1.01,
                             metric_name="throughput")
        r3 = make_regression("zzz.qps", rng.normal(5.0, 0.5, 900), metric_name="qps")
        dedup, context, state = PairwiseDedup(), ScanContext(), MonitorState()
        dedup.process([r1, r2, r3], context, state)
        assert [r.group_id for r in (r1, r2, r3)] == [1_000_000, 1_000_000, 1_000_001]
        assert [v.passed for v in (r1.verdicts[-1], r2.verdicts[-1], r3.verdicts[-1])] == [
            True, False, True
        ]
        assert r2.verdicts[-1].detail == "merged into group 1000000"
        assert [len(members) for members in state.pairwise_groups] == [2, 1]


class TestSameRegressionMerger:
    def _regression(self, rng, change_time, magnitude=0.0002, metric="svc.sub.gcpu"):
        values = rng.normal(0.001, 0.00002, 900)
        return make_regression(
            metric, values, change_time=change_time, magnitude=magnitude
        )

    def test_duplicate_across_runs_dropped(self, rng):
        merger, state = SameRegressionMerger(time_tolerance=3600.0), MonitorState()
        first = self._regression(rng, change_time=1000.0)
        again = self._regression(rng, change_time=1500.0)
        assert merger.check(first, state).passed
        verdict = merger.check(again, state)
        assert not verdict.passed
        assert verdict.reason is FilterReason.SAME_REGRESSION

    def test_different_time_not_merged(self, rng):
        merger, state = SameRegressionMerger(time_tolerance=600.0), MonitorState()
        assert merger.check(self._regression(rng, change_time=1000.0), state).passed
        assert merger.check(self._regression(rng, change_time=50_000.0), state).passed

    def test_different_magnitude_not_merged(self, rng):
        merger, state = SameRegressionMerger(), MonitorState()
        assert merger.check(self._regression(rng, 1000.0, magnitude=0.0002), state).passed
        assert merger.check(self._regression(rng, 1200.0, magnitude=0.002), state).passed

    def test_different_metric_not_merged(self, rng):
        merger, state = SameRegressionMerger(), MonitorState()
        assert merger.check(self._regression(rng, 1000.0, metric="a.gcpu"), state).passed
        assert merger.check(self._regression(rng, 1000.0, metric="b.gcpu"), state).passed

    def test_a_fresh_state_remembers_nothing(self, rng):
        merger, state = SameRegressionMerger(), MonitorState()
        assert merger.check(self._regression(rng, 1000.0), state).passed
        assert not merger.check(self._regression(rng, 1000.0), state).passed
        assert merger.check(self._regression(rng, 1000.0), MonitorState()).passed
