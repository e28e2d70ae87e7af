"""The fleet simulation engine.

Advances simulated time in collection intervals.  At each tick it:

1. applies any code/configuration changes whose deploy time has arrived
   (scaling subroutine costs, performing refactor cost shifts);
2. computes the call graph's subroutine inclusion probabilities and emits
   one gCPU point per non-trivial subroutine, drawn from the exact
   binomial sampling distribution for the configured effective fleet-wide
   sample count;
3. draws a batch of explicit stack traces for structure analyses and
   ingests them through the :class:`FleetProfileCollector`;
4. emits service-level metrics (CPU, throughput, latency, error rate)
   with server-generation mixing, seasonality, and any active transient
   events applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.fleet.changes import ChangeLog, CodeChange
from repro.fleet.events import TransientEvent
from repro.fleet.service import ServiceSpec
from repro.profiling.collector import MIN_GCPU, FleetProfileCollector
from repro.tsdb.database import TimeSeriesDatabase

__all__ = ["FleetSimulator", "SimulationResult"]


@dataclass
class SimulationResult:
    """Artifacts of a simulation run.

    Attributes:
        database: TSDB holding every emitted series.
        collector: Profile collector (exposes raw sample history).
        change_log: The change log the run consumed.
        ticks: Number of collection intervals simulated.
        end_time: Simulation time after the final tick.
    """

    database: TimeSeriesDatabase
    collector: FleetProfileCollector
    change_log: ChangeLog
    ticks: int
    end_time: float


class FleetSimulator:
    """Simulates one service's fleet over time.

    Args:
        spec: Service specification.
        change_log: Changes to apply as time passes.
        events: Transient events to overlay on service metrics.
        interval: Collection interval in seconds (one tick).
        seed: RNG seed — runs are fully reproducible.
        database: Optional existing TSDB to write into.

    Example::

        sim = FleetSimulator(spec, change_log=log, interval=60.0, seed=7)
        result = sim.run(n_ticks=2000)
        series = result.database.query(metric="gcpu", subroutine="svc::C::m")
    """

    def __init__(
        self,
        spec: ServiceSpec,
        change_log: Optional[ChangeLog] = None,
        events: Optional[Sequence[TransientEvent]] = None,
        interval: float = 60.0,
        seed: int = 0,
        database: Optional[TimeSeriesDatabase] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.spec = spec
        self.change_log = change_log if change_log is not None else ChangeLog()
        self.events = list(events or [])
        self.interval = interval
        self.rng = np.random.default_rng(seed)
        # Explicit None check: an empty TimeSeriesDatabase is falsy.
        self.database = database if database is not None else TimeSeriesDatabase()
        self.collector = FleetProfileCollector(self.database, service=spec.name)
        self.time = 0.0
        self.servers = spec.build_servers()
        self._applied_changes: set = set()
        self._ticks = 0

    # ------------------------------------------------------------------
    # Change application
    # ------------------------------------------------------------------

    def _apply_due_changes(self) -> List[CodeChange]:
        """Apply changes whose deploy time has arrived; returns them."""
        due = [
            c
            for c in self.change_log.all_between(-np.inf, self.time + self.interval)
            if c.change_id not in self._applied_changes
        ]
        graph = self.spec.call_graph
        for change in due:
            for effect in change.effects:
                if effect.subroutine in graph:
                    graph.scale_cost(effect.subroutine, effect.factor)
            for shift in change.cost_shifts:
                if shift.source in graph and shift.target not in graph:
                    # Refactors may introduce the target subroutine.
                    source_spec = graph.get(shift.source)
                    from repro.fleet.subroutine import SubroutineSpec

                    graph.add(
                        SubroutineSpec(
                            name=shift.target,
                            self_cost=0.0,
                            parent=source_spec.parent,
                            endpoint=source_spec.endpoint,
                        )
                    )
                if shift.source in graph and shift.target in graph:
                    graph.move_cost(shift.source, shift.target, shift.fraction)
            self._applied_changes.add(change.change_id)
        return due

    # ------------------------------------------------------------------
    # Metric emission
    # ------------------------------------------------------------------

    def _event_multiplier(self, metric: str) -> float:
        multiplier = 1.0
        for event in self.events:
            multiplier *= event.multiplier(metric, self.time)
        return multiplier

    def _emit_gcpu(self) -> None:
        """Write per-subroutine gCPU points with exact binomial noise."""
        probabilities = self.spec.call_graph.inclusion_probabilities()
        n = self.spec.effective_samples
        for subroutine, p in probabilities.items():
            if subroutine == self.spec.call_graph.root:
                continue
            if p < MIN_GCPU:
                continue
            observed = self.rng.binomial(n, min(1.0, p)) / n
            self.database.write(
                f"{self.spec.name}.{subroutine}.gcpu",
                self.time,
                observed,
                tags={
                    "service": self.spec.name,
                    "subroutine": subroutine,
                    "metric": "gcpu",
                },
            )

    def _emit_endpoint_gcpu(self) -> None:
        """Aggregate subtree costs per endpoint (endpoint-level detection)."""
        graph = self.spec.call_graph
        probabilities = graph.inclusion_probabilities()
        per_endpoint: Dict[str, float] = {}
        for name in graph.names():
            spec = graph.get(name)
            if spec.endpoint is not None:
                per_endpoint[spec.endpoint] = per_endpoint.get(spec.endpoint, 0.0) + (
                    probabilities.get(name, 0.0)
                )
        n = self.spec.effective_samples
        for endpoint, p in per_endpoint.items():
            observed = self.rng.binomial(n, min(1.0, p)) / n
            suffix = endpoint.replace("/", ".")
            tags = {"service": self.spec.name, "endpoint": endpoint}
            self.database.write(
                f"{self.spec.name}.endpoint{suffix}.gcpu",
                self.time,
                observed,
                tags={**tags, "metric": "endpoint_gcpu"},
            )
            # Per-RPC-endpoint latency and error rate (§2: FBDetect also
            # supports "latency, throughput, and error rate per RPC
            # endpoint").  Latency tracks the endpoint's cost share —
            # heavier endpoints respond slower — plus event effects.
            latency = self.spec.base_latency_ms * (0.5 + 5.0 * observed)
            latency *= 1.0 + abs(self.rng.normal(0.0, 0.03))
            latency *= self._event_multiplier("latency")
            self.database.write(
                f"{self.spec.name}.endpoint{suffix}.latency_ms",
                self.time,
                latency,
                tags={**tags, "metric": "endpoint_latency"},
            )
            errors = self.spec.base_error_rate * self._event_multiplier("error_rate")
            errors *= 1.0 + abs(self.rng.normal(0.0, 0.1))
            self.database.write(
                f"{self.spec.name}.endpoint{suffix}.error_rate",
                self.time,
                errors,
                tags={**tags, "metric": "endpoint_error_rate"},
            )

    def _emit_service_metrics(self) -> None:
        """Service-level CPU / throughput / latency / error-rate points."""
        spec = self.spec
        season = spec.seasonal_multiplier(self.time)
        healthy = [s for s in self.servers if s.healthy]
        if not healthy:
            return

        # CPU: average across servers of generation-specific normals.
        # Sampling one normal per generation bucket scaled by bucket size
        # is equivalent to averaging per-server draws.
        total_cost_factor = self._current_cost_factor()
        cpu_values = []
        for server in healthy:
            gen = server.generation
            mean = gen.cpu_mean * total_cost_factor * season
            cpu_values.append(mean)
        base_cpu = float(np.mean(cpu_values))
        cpu_noise_std = float(
            np.sqrt(np.mean([s.generation.cpu_variance for s in healthy]) / len(healthy))
        )
        cpu = base_cpu + self.rng.normal(0.0, cpu_noise_std)
        cpu *= self._event_multiplier("cpu")
        cpu = float(np.clip(cpu, 0.0, 1.0))

        throughput = spec.base_throughput * len(healthy) * season
        throughput *= 1.0 + self.rng.normal(0.0, spec.throughput_noise)
        throughput *= self._event_multiplier("throughput")
        throughput = max(0.0, throughput)

        latency = spec.base_latency_ms * (1.0 + 0.5 * max(0.0, cpu - 0.7))
        latency *= 1.0 + abs(self.rng.normal(0.0, 0.05))
        latency *= self._event_multiplier("latency")

        error_rate = spec.base_error_rate * self._event_multiplier("error_rate")
        error_rate *= 1.0 + abs(self.rng.normal(0.0, 0.1))

        # Coredump count (§3 lists it among monitored metrics): rare
        # Poisson events whose rate scales with the error rate — crashes
        # cluster around the same production problems errors do.
        coredump_rate = len(healthy) * error_rate * 0.5
        coredumps = float(self.rng.poisson(max(coredump_rate, 0.0)))

        tags = {"service": spec.name}
        self.database.write(f"{spec.name}.cpu", self.time, cpu, {**tags, "metric": "cpu"})
        self.database.write(
            f"{spec.name}.throughput", self.time, throughput, {**tags, "metric": "throughput"}
        )
        self.database.write(
            f"{spec.name}.latency_ms", self.time, latency, {**tags, "metric": "latency"}
        )
        self.database.write(
            f"{spec.name}.error_rate", self.time, error_rate, {**tags, "metric": "error_rate"}
        )
        self.database.write(
            f"{spec.name}.coredumps", self.time, coredumps, {**tags, "metric": "coredumps"}
        )

    def _current_cost_factor(self) -> float:
        """Total call-graph cost relative to its initial value."""
        if not hasattr(self, "_initial_total_cost"):
            self._initial_total_cost = self.spec.call_graph.total_cost() or 1.0
        current = self.spec.call_graph.total_cost()
        return current / self._initial_total_cost

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def tick(self) -> None:
        """Advance one collection interval."""
        self._apply_due_changes()
        self._emit_gcpu()
        self._emit_endpoint_gcpu()
        self._emit_service_metrics()
        if self.spec.samples_per_interval > 0:
            samples = self.spec.call_graph.sample_traces(
                self.spec.samples_per_interval, self.rng
            )
            self.collector.sample_history.extend(samples)
        self.time += self.interval
        self._ticks += 1

    def run(self, n_ticks: int) -> SimulationResult:
        """Run ``n_ticks`` collection intervals and return the artifacts."""
        # Prime the cost baseline before any change applies.
        self._current_cost_factor()
        for _ in range(n_ticks):
            self.tick()
        return SimulationResult(
            database=self.database,
            collector=self.collector,
            change_log=self.change_log,
            ticks=self._ticks,
            end_time=self.time,
        )
