"""Trace-record → replay "what-if" engine.

Record the full op + failure stream of a scenario run into a compact,
schema-versioned artifact (:mod:`repro.replay.artifact`), replay it as
just another workload source (:mod:`repro.replay.workload`), and run
one recorded trace against a matrix of alternative configurations
(:mod:`repro.replay.tournament`).  ``python -m repro.replay`` exposes
the record / replay / diff workflow on the command line; see
``src/repro/replay/README.md`` for the artifact schema and the
record→replay fixed-point contract.
"""

from repro.replay.artifact import (
    TRACE_DRIVERS,
    TRACE_KIND,
    TRACE_SCHEMA,
    RecordedTrace,
    decode_action,
    decode_catalog,
    encode_action,
    encode_catalog,
)
from repro.replay.recorder import (
    RecordingSpec,
    cluster_counters,
    record,
    record_heavy_workload,
    record_open_loop_service,
    record_wan_storm,
)
from repro.replay.tournament import (
    DEFAULT_CONFIGS,
    DIFF_METRICS,
    QUORUM_POLICIES,
    TournamentConfig,
    derive_catalog,
    diff_rows,
    fixed_point_ok,
    format_diff_table,
    replay_trace,
    run_tournament,
    tournament_run,
)
from repro.replay.workload import RecordedWorkload

__all__ = [
    "DEFAULT_CONFIGS",
    "DIFF_METRICS",
    "QUORUM_POLICIES",
    "RecordedTrace",
    "RecordedWorkload",
    "RecordingSpec",
    "TRACE_DRIVERS",
    "TRACE_KIND",
    "TRACE_SCHEMA",
    "TournamentConfig",
    "cluster_counters",
    "decode_action",
    "decode_catalog",
    "derive_catalog",
    "diff_rows",
    "encode_action",
    "encode_catalog",
    "fixed_point_ok",
    "format_diff_table",
    "record",
    "record_heavy_workload",
    "record_open_loop_service",
    "record_wan_storm",
    "replay_trace",
    "run_tournament",
    "tournament_run",
]
