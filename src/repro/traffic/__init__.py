"""Unified traffic layer: closed- and open-loop drive loops.

See :mod:`repro.traffic.engine` for the :class:`TrafficEngine`
lifecycle (the extraction of every E-series drive loop) and
:mod:`repro.traffic.open_loop` for the sustained-arrival-rate service
mode with admission control, tail-latency digests, and throughput
ceiling discovery, and :mod:`repro.traffic.scenario` for the
:class:`Scenario` every macro driver declares and the one
:func:`run_scenario` behind them; ``README.md`` in this package
documents the semantics and comparability rules.
"""

from repro.traffic.engine import RetryPolicy, TrafficEngine, WorkloadResult, tally_stream
from repro.traffic.open_loop import (
    DEFAULT_BINS,
    DEFAULT_WINDOW,
    AdaptiveWindow,
    OpenLoopResult,
    RampResult,
    latency_summary,
    ramp,
    run_open_loop,
)
from repro.traffic.scenario import Scenario, ScenarioRun, run_scenario

__all__ = [
    "DEFAULT_BINS",
    "DEFAULT_WINDOW",
    "AdaptiveWindow",
    "OpenLoopResult",
    "RampResult",
    "RetryPolicy",
    "Scenario",
    "ScenarioRun",
    "TrafficEngine",
    "WorkloadResult",
    "latency_summary",
    "ramp",
    "run_open_loop",
    "run_scenario",
    "tally_stream",
]
