"""Cost-shift detector (§5.4).

Subroutine-level metrics reduce variance but invite a false-positive
class of their own: refactoring that moves code from subroutine A to
subroutine B makes B *look* regressed while total cost is unchanged
(Figure 1(b); 34% of subroutine-level regressions in the paper's
evaluation).  The detector examines higher-level *cost domains* — groups
of subroutines within which a cost shift is likely — and filters the
regression when the domain's total cost barely moved.

Domains: upstream callers, the enclosing class, shared metadata
prefixes, endpoint name prefixes, and subroutines modified by the same
code commit.

Decision rules per (regression, domain):

1. Domain did not exist before the regression (e.g. a brand-new
   subroutine) -> not a cost shift within this domain.
2. Domain cost >> regression's cost change (ratio above the exclusion
   bound) -> domain excluded as inconclusive; its seasonal wobble alone
   could hide the regression.
3. Domain cost change negligible vs the regression's cost change ->
   cost shift; filter the regression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

from repro.core.types import DetectionVerdict, FilterReason, Regression
from repro.fleet.changes import ChangeLog
from repro.profiling.stacktrace import StackTrace
from repro.tsdb.database import TimeSeriesDatabase

__all__ = ["CostDomain", "CostShiftDetector"]


@dataclass(frozen=True)
class CostDomain:
    """A group of subroutines within which cost shifts are likely.

    Attributes:
        name: Human-readable domain label (shows up in verdict details).
        kind: Provider that produced it (``"caller"``, ``"class"``,
            ``"metadata"``, ``"endpoint"``, ``"commit"``).
        members: Subroutine names composing the domain.
    """

    name: str
    kind: str
    members: frozenset

    def __post_init__(self) -> None:
        if not isinstance(self.members, frozenset):
            object.__setattr__(self, "members", frozenset(self.members))


#: Rule 2 bound: domains whose absolute cost exceeds ``EXCLUSION_RATIO *
#: |regression cost change|`` are inconclusive.  The bound also guards
#: against a subtlety of relative metrics: a domain covering (almost) the
#: whole process has a gCPU share that stays flat under *any* regression,
#: so large domains must never be treated as cost-shift evidence.  The
#: paper's 20%-domain vs 0.005%-regression example corresponds to a ratio
#: of 4000; we use 20.
EXCLUSION_RATIO = 20.0
#: Rule 3 bound: the domain's cost change is negligible when below this
#: fraction of the regression's.
NEGLIGIBLE_FRACTION = 0.25


class CostShiftDetector:
    """Filters regressions explained by cost shifts within a domain.

    Args:
        database: TSDB holding gCPU series (domain cost lookups).
        samples: Stack-trace history for caller-domain derivation.
        change_log: Change log for commit domains.
    """

    def __init__(
        self,
        database: TimeSeriesDatabase,
        samples: Optional[Sequence[StackTrace]] = None,
        change_log: Optional[ChangeLog] = None,
    ) -> None:
        self.database = database
        self.samples = list(samples or [])
        self.change_log = change_log

    # ------------------------------------------------------------------
    # Verdict
    # ------------------------------------------------------------------

    def check(self, regression: Regression) -> DetectionVerdict:
        """Drop the regression if any domain reveals a pure cost shift."""
        if regression.context.subroutine is None:
            return DetectionVerdict.keep(detail="not a subroutine-level metric")
        regression_delta = abs(regression.magnitude)
        if regression_delta == 0:
            return DetectionVerdict.keep(detail="zero-magnitude regression")

        domains: List[CostDomain] = []
        for provider in (
            self._caller_domains,
            self._class_domains,
            self._metadata_domains,
            self._endpoint_domains,
            self._commit_domains,
        ):
            domains.extend(provider(regression))

        for domain in domains:
            outcome = self._evaluate_domain(regression, domain, regression_delta)
            if outcome is not None:
                return outcome
        return DetectionVerdict.keep(
            detail=f"no cost shift across {len(domains)} domains"
        )

    def _evaluate_domain(
        self,
        regression: Regression,
        domain: CostDomain,
        regression_delta: float,
    ) -> Optional[DetectionVerdict]:
        """Apply the three rules; a verdict means 'filter as cost shift'."""
        before, after = self._domain_cost(domain, regression)
        if before is None:
            return None  # Rule 1: domain has no pre-regression existence.
        if after is None:
            return None
        if before > EXCLUSION_RATIO * regression_delta:
            return None  # Rule 2: domain too large to be conclusive.
        domain_delta = abs(after - before)
        if domain_delta < NEGLIGIBLE_FRACTION * regression_delta:
            return DetectionVerdict.drop(
                FilterReason.COST_SHIFT,
                detail=(
                    f"domain {domain.kind}:{domain.name} cost moved "
                    f"{domain_delta:.3g} vs regression {regression_delta:.3g}"
                ),
            )
        return None

    def _domain_cost(
        self, domain: CostDomain, regression: Regression
    ) -> tuple:
        """(pre, post) mean cost of the domain around the change time.

        Sums member gCPU series; pre covers the historic window up to the
        regression's change time, post covers the rest of the window.
        """
        view = regression.window
        change_time = regression.change_time

        pre_total = post_total = 0.0
        pre_seen = post_seen = False
        for member in sorted(domain.members):
            series = self._series_for(regression.context.service, member)
            if series is None:
                continue
            pre_values = series.values_between(view.historic_start, change_time)
            post_values = series.values_between(change_time, view.now)
            if pre_values.size:
                pre_total += float(pre_values.mean())
                pre_seen = True
            if post_values.size:
                post_total += float(post_values.mean())
                post_seen = True
        return (pre_total if pre_seen else None, post_total if post_seen else None)

    def _series_for(self, service: str, member: str):
        """Resolve a domain member (subroutine or endpoint) to its series."""
        name = f"{service}.{member}.gcpu" if service else f"{member}.gcpu"
        series = self.database.get(name)
        if series is not None:
            return series
        matches = self.database.query(subroutine=member)
        if matches:
            return matches[0]
        matches = self.database.query(endpoint=member)
        return matches[0] if matches else None

    # ------------------------------------------------------------------
    # Default domain providers
    # ------------------------------------------------------------------

    def _caller_domains(self, regression: Regression) -> List[CostDomain]:
        """Each direct upstream caller is a domain of its own.

        A caller's gCPU covers the regressed subroutine *and* its
        siblings, so cost moving between siblings leaves the caller flat.
        """
        target = regression.context.subroutine
        callers: Set[str] = set()
        for trace in self.samples:
            callers.update(trace.callers_of(target))
        callers.discard("_start")
        return [
            CostDomain(name=caller, kind="caller", members=frozenset({caller}))
            for caller in sorted(callers)
        ]

    def _class_domains(self, regression: Regression) -> List[CostDomain]:
        """All subroutines sharing the regressed subroutine's class."""
        target = regression.context.subroutine
        parts = target.rsplit("::", 1)
        if len(parts) != 2:
            return []
        prefix = parts[0] + "::"
        members = {
            s.tags["subroutine"]
            for s in self.database.query(metric="gcpu")
            if s.tags.get("subroutine", "").startswith(prefix)
        }
        if len(members) < 2:
            return []
        return [CostDomain(name=parts[0], kind="class", members=frozenset(members))]

    def _metadata_domains(self, regression: Regression) -> List[CostDomain]:
        """Subroutines sharing the regression's metadata prefix."""
        metadata = regression.context.metadata
        if not metadata:
            return []
        prefix = metadata.split(":", 1)[0]
        members = {
            s.tags["subroutine"]
            for s in self.database.query(metric="gcpu")
            if s.tags.get("metadata", "").split(":", 1)[0] == prefix
            and "subroutine" in s.tags
        }
        if len(members) < 2:
            return []
        return [CostDomain(name=f"metadata:{prefix}", kind="metadata", members=frozenset(members))]

    def _endpoint_domains(self, regression: Regression) -> List[CostDomain]:
        """Endpoints whose names share the regressed endpoint's prefix."""
        endpoint = regression.context.endpoint
        if not endpoint:
            return []
        prefix = endpoint.rsplit("/", 1)[0] or "/"
        members = {
            s.tags["endpoint"]
            for s in self.database.query(metric="endpoint_gcpu")
            if s.tags.get("endpoint", "").startswith(prefix)
        }
        if len(members) < 2:
            return []
        return [CostDomain(name=f"endpoint:{prefix}", kind="endpoint", members=frozenset(members))]

    def _commit_domains(self, regression: Regression) -> List[CostDomain]:
        """All subroutines modified by one commit near the change time."""
        if self.change_log is None or regression.context.subroutine is None:
            return []
        view = regression.window
        candidates = self.change_log.deployed_between(
            view.analysis_start - (view.now - view.analysis_start),
            view.now,
        )
        domains = []
        for change in candidates:
            touched = set(change.modified_subroutines)
            if regression.context.subroutine in touched and len(touched) >= 2:
                domains.append(
                    CostDomain(
                        name=f"commit:{change.change_id}",
                        kind="commit",
                        members=frozenset(touched),
                    )
                )
        return domains
