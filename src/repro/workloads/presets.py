"""Laptop-scale versions of the Table 1 production workloads.

Each preset builds a :class:`~repro.fleet.service.ServiceSpec` (call
graph, fleet size, sampling rates) plus its matching
:class:`~repro.config.DetectionConfig`, scaled so a simulation run
finishes in seconds while preserving the workload's character: FrontFaaS
is huge with thousands of subroutines and massive effective sample
counts; Invoicer is 16 servers with aggressive per-server sampling; CT
workloads are throughput-only with no stack traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.config import DetectionConfig, table1_config
from repro.fleet.service import ServiceSpec
from repro.fleet.subroutine import CallGraph, build_random_call_graph

__all__ = ["WorkloadPreset", "build_preset", "preset_names"]


@dataclass
class WorkloadPreset:
    """A runnable workload: service spec + detection config.

    Attributes:
        key: Preset key (matches the Table 1 config key).
        service: Fleet-simulator service specification.
        config: Detection configuration.
        description: What this workload models.
    """

    key: str
    service: ServiceSpec
    config: DetectionConfig
    description: str


def _graph(n_subroutines: int, seed: int) -> CallGraph:
    return build_random_call_graph(n_subroutines, np.random.default_rng(seed))


def _presets() -> Dict[str, dict]:
    return {
        "frontfaas_small": dict(
            n_subroutines=400,
            n_servers=500,
            effective_samples=5_000_000,
            samples_per_interval=2_000,
            language="PHP",
            description=(
                "Meta's PHP serverless platform: >500k servers in the paper, "
                "tiny 0.005% detection threshold over long windows."
            ),
        ),
        "pythonfaas_small": dict(
            n_subroutines=250,
            n_servers=300,
            effective_samples=2_000_000,
            samples_per_interval=1_500,
            language="Python",
            description="Meta's Python serverless platform (PyPerf-sampled).",
        ),
        "tao_frontfaas": dict(
            n_subroutines=150,
            n_servers=200,
            effective_samples=1_000_000,
            samples_per_interval=1_000,
            language="C++",
            description="TAO graph database, FrontFaaS traffic slice.",
        ),
        "adserving_short": dict(
            n_subroutines=300,
            n_servers=400,
            effective_samples=2_000_000,
            samples_per_interval=1_500,
            language="C++",
            description="Ultra-large ads-serving services.",
        ),
        "invoicer_short": dict(
            n_subroutines=40,
            n_servers=16,
            effective_samples=80_000,
            samples_per_interval=800,
            language="C++",
            description=(
                "16-server billing service; eBPF samples ~1/server/second "
                "and long windows compensate for the tiny fleet."
            ),
        ),
        "ct_supply_short": dict(
            n_subroutines=30,
            n_servers=100,
            effective_samples=100_000,
            samples_per_interval=0,
            language="Diverse",
            description=(
                "Capacity Triage supply side: Kraken-measured per-server "
                "max throughput; no stack traces."
            ),
        ),
    }


def preset_names() -> List[str]:
    """Keys accepted by :func:`build_preset`."""
    return sorted(_presets())


def build_preset(key: str, seed: int = 0) -> WorkloadPreset:
    """Build a laptop-scale Table 1 workload.

    Args:
        key: One of :func:`preset_names`.
        seed: Call-graph generation seed.

    Raises:
        KeyError: Listing valid keys, when unknown.
    """
    presets = _presets()
    if key not in presets:
        raise KeyError(f"unknown preset {key!r}; valid: {sorted(presets)}")
    params = presets[key]
    graph = _graph(params["n_subroutines"], seed)
    service = ServiceSpec(
        name=key,
        call_graph=graph,
        n_servers=params["n_servers"],
        effective_samples=params["effective_samples"],
        samples_per_interval=params["samples_per_interval"],
        seasonality_amplitude=0.1,
    )
    return WorkloadPreset(
        key=key,
        service=service,
        config=table1_config(key),
        description=params["description"],
    )
