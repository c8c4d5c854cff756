"""What-if tournaments: one recorded trace, many configurations.

The tournament replays a single harvested trace against a matrix of
configurations — commit protocol, quorum policy, a shrunk installation
— and emits a per-configuration diff table over commits / aborts /
messages / latency.  Because every cell consumes the *same* ops at the
*same* arrival times under the *same* fault schedule, the differences
are pure configuration effects: the what-if question experiment
sweeps can only approximate statistically, answered exactly.

Cells fan out through the sweep engine
(:func:`~repro.engine.run_sweep`) like any other study, one pool per
tournament when ``workers > 1``, and are byte-identical at every worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.common.errors import StoreError
from repro.engine import SweepSpec, run_sweep
from repro.experiments import SCENARIOS
from repro.replication.catalog import ItemConfig, ReplicaCatalog
from repro.replay.artifact import RecordedTrace
from repro.replay.recorder import cluster_counters
from repro.sim.failures import FailurePlan, JoinSite
from repro.traffic import run_scenario

#: quorum policies :func:`derive_catalog` can impose.
QUORUM_POLICIES = ("recorded", "majority", "read-one-write-all")

#: the diff table's integer-valued metrics.
DIFF_METRICS = (
    "submitted",
    "committed",
    "client_aborted",
    "protocol_aborted",
    "blocked",
    "reads_committed",
    "skipped_ops",
    "messages_sent",
    "messages_delivered",
    "messages_dropped",
    "wal_forced",
    "events_run",
)


@dataclass(frozen=True)
class TournamentConfig:
    """One what-if configuration.

    Attributes:
        name: row label in the diff table.
        protocol: commit protocol override (``None`` = as recorded).
        quorum: quorum policy for :func:`derive_catalog`.
        drop_sites: shrink the installation by removing the ``n``
            highest-numbered hosting sites; recorded ops the smaller
            cluster cannot host are skipped and tallied.
        crash_origin_at: extra fault — crash the recorded run's first
            transaction origin (its coordinator) at this virtual time.
    """

    name: str
    protocol: str | None = None
    quorum: str = "recorded"
    drop_sites: int = 0
    crash_origin_at: float | None = None

    def __post_init__(self) -> None:
        if self.quorum not in QUORUM_POLICIES:
            raise StoreError(
                f"quorum policy must be one of {QUORUM_POLICIES}, got {self.quorum!r}"
            )
        if self.drop_sites < 0:
            raise StoreError(f"drop_sites must be >= 0, got {self.drop_sites}")


#: the standard protocol face-off, plus one alternative quorum policy.
DEFAULT_CONFIGS = (
    TournamentConfig("recorded"),
    TournamentConfig("2pc", protocol="2pc"),
    TournamentConfig("3pc", protocol="3pc"),
    TournamentConfig("rowa", quorum="read-one-write-all"),
)


def _policy_quorums(v: int, r: int, w: int, policy: str) -> tuple[int, int]:
    """(r, w) for ``v`` total votes under ``policy``, always valid.

    The recorded quorums survive verbatim when they still satisfy
    Gifford's constraints against the (possibly shrunk) vote total;
    otherwise — and for the explicit policies — they are recomputed.
    """
    if policy == "recorded" and r + w > v and 2 * w > v and 1 <= r <= v and 1 <= w <= v:
        return r, w
    if policy == "read-one-write-all":
        return 1, v
    # majority, and the fallback for recorded quorums a shrunk vote
    # total has invalidated
    w = v // 2 + 1
    return v - w + 1, w


def derive_catalog(
    catalog: ReplicaCatalog,
    quorum: str = "recorded",
    drop_sites: int = 0,
) -> ReplicaCatalog:
    """A what-if variant of a recorded catalog.

    ``drop_sites`` removes the highest-numbered hosting sites from the
    installation; items that lose every copy are omitted entirely (the
    replay projection then skips their ops).  ``quorum`` re-derives
    r/w per the policy; shrunk items whose recorded quorums no longer
    satisfy the vote constraints fall back to majority.  A primary
    keeps its site while that site keeps its copy; otherwise the lowest
    remaining host takes over.
    """
    sites = sorted(catalog.all_sites())
    if drop_sites >= len(sites):
        raise StoreError("derived catalog is empty: drop_sites removed every copy")
    dropped = set(sites[len(sites) - drop_sites :])
    items = []
    for name in catalog.item_names:
        config = catalog.item(name)
        copies = {s: v for s, v in config.copies.items() if s not in dropped}
        if not copies:
            continue
        total = sum(copies.values())
        r, w = _policy_quorums(total, config.read_quorum, config.write_quorum, quorum)
        primary = config.primary if config.primary in copies else None
        items.append(ItemConfig(name, copies, r, w, primary))
    if not items:
        raise StoreError("derived catalog is empty: drop_sites removed every copy")
    return ReplicaCatalog(items)


def project_plan(actions, sites: set[int]):
    """The recorded fault schedule restricted to a site universe.

    A shrunk what-if installation no longer has every site the recorded
    plan manipulates: crashes/recoveries/link losses of removed sites
    are dropped, partition groups lose their removed members (a group
    emptied entirely is dropped, and a partition event with no groups
    left is skipped — every survivor would be an implicit singleton,
    which the recorded event never meant).  Heals and joins of new
    sites survive; a join whose ``near`` anchor was removed re-anchors
    to ``None``.  Gray actions project like their fail-stop cousins:
    degrade/restore/leave of a removed site are dropped, and a flap of
    a removed endpoint is dropped whole (its link never exists).  Each
    rule is its action class's
    :meth:`~repro.sim.failures.FailureAction.within`.
    """
    kept = (action.within(sites) for action in actions)
    return FailurePlan([action for action in kept if action is not None])


def _mean_commit_latency(cluster, committed: Sequence[str]) -> float:
    """Mean (first commit decision − ``coord-begin``) over committed
    transactions, in virtual time; 0.0 when none decided.

    One pass over each of the two categories (no
    :class:`~repro.sim.trace.TraceRecord` is built).  A committed
    transaction's decision rows all say commit — no participant
    aborted, and a site decides once — so its first is its first
    commit.
    """
    tracer = cluster.tracer
    begun: dict[str, float] = {}
    for time, _site, txn in tracer.since(0, "coord-begin")[1]:
        begun.setdefault(txn, time)
    first: dict[str, float] = {}
    for time, _site, txn in tracer.since(0, "decision")[1]:
        first.setdefault(txn, time)
    latencies = [first[txn] - begun[txn] for txn in committed if txn in first and txn in begun]
    return sum(latencies) / len(latencies) if latencies else 0.0


def replay_trace(
    trace: RecordedTrace, config: TournamentConfig | None = None
) -> dict[str, Any]:
    """Replay one trace under one configuration; returns the row.

    With the default (``recorded``) configuration the replay is the
    fixed point: the row's counters equal the trace's recorded
    counters byte-for-byte.  The trace's ``driver`` + ``params`` rebuild
    its scenario; stream, placement and fault schedule are pinned from
    the recording, so every scenario replays through this one body.
    """
    cfg = config if config is not None else TournamentConfig("recorded")
    protocol = cfg.protocol if cfg.protocol is not None else trace.protocol
    scenario = SCENARIOS[trace.driver](**trace.params)
    catalog = (
        derive_catalog(trace.catalog, cfg.quorum, cfg.drop_sites)
        if (cfg.quorum != "recorded" or cfg.drop_sites)
        else trace.catalog
    )
    # every site an op can originate at: the hosts, a WAN layout's pure
    # coordinators, and the sites the recorded plan joins mid-run
    universe = set(catalog.all_sites())
    universe.update(site for region in scenario.regions or () for site in region)
    universe.update(a.site for a in trace.actions if isinstance(a, JoinSite))
    plan = project_plan(trace.actions, universe) if cfg.drop_sites else trace.plan()
    if cfg.crash_origin_at is not None:
        origin = _first_origin(trace)
        if origin is not None:
            plan.crash(cfg.crash_origin_at, origin)
    workload = trace.workload().project(catalog, sites=universe)
    if scenario.drive == "single" and not len(workload):
        raise StoreError(
            "the recorded update cannot run on the derived catalog "
            "(origin or every written item was dropped)"
        )

    run = run_scenario(
        scenario, protocol, trace.seed, workload=workload, catalog=catalog, failures=plan
    )
    result = run.result
    open_loop = scenario.drive == "open"
    row = {
        "config": cfg.name,
        "protocol": protocol,
        "submitted": result.admitted if open_loop else result.submitted,
        "committed": result.committed,
        "client_aborted": result.client_aborted,
        "protocol_aborted": result.protocol_aborted,
        "blocked": result.unresolved if open_loop else result.blocked,
        "reads_committed": result.reads_committed,
        "skipped_ops": workload.skipped_ops,
        "serializable": result.serializable,
    }
    if open_loop:
        # the open-loop drive measures its own latency stream; reuse
        # the digest's p50 as the comparable latency column
        row["mean_commit_latency"] = result.latency.get("p50", 0.0)
        row["offered"] = result.offered
        row["shed_backpressure"] = result.shed_backpressure
        row["shed_unreachable"] = result.shed_unreachable
        row["latency_p99"] = result.latency.get("p99", 0.0)
        row["latency_p999"] = result.latency.get("p999", 0.0)
    else:
        committed = [t for t, o in result.txn_outcomes.items() if o == "commit"]
        row["mean_commit_latency"] = _mean_commit_latency(run.cluster, committed)
    row.update(cluster_counters(run.cluster))
    return row


def _first_origin(trace: RecordedTrace) -> int | None:
    """The recorded run's first transaction origin (its coordinator)."""
    if trace.updates:
        return trace.updates[0][0]
    for op in trace.ops:
        if op.kind == "update":
            return op.origin
    return None


def fixed_point_ok(trace: RecordedTrace, row: dict[str, Any]) -> bool:
    """Does a ``recorded``-config replay row reproduce the trace's
    counters exactly?  (The record→replay contract.)"""
    return all(row.get(key) == value for key, value in trace.counters.items())


# ----------------------------------------------------------------------
# the tournament proper
# ----------------------------------------------------------------------

def tournament_run(
    seed: int,
    index: int,
    trace_lines: list[dict[str, Any]],
    configs: tuple[TournamentConfig, ...],
) -> dict[str, Any]:
    """One tournament cell (module-level so the sweep engine can pickle
    it to pool workers).  The trace travels as its JSONL records, and
    ``seed`` is the engine's derived seed; the replay is pinned to the
    trace's own recorded seed regardless."""
    return replay_trace(RecordedTrace.from_lines(trace_lines), configs[index])


def run_tournament(
    trace: RecordedTrace,
    configs: Sequence[TournamentConfig] = DEFAULT_CONFIGS,
    workers: int = 1,
) -> list[dict[str, Any]]:
    """Replay ``trace`` under every configuration; rows in config order.

    Fans out through :func:`~repro.engine.run_sweep`, so results are
    byte-identical at every worker count.  The trace's JSONL records
    ride the spec's ``fixed``, so they cross the pool once per chunk,
    not once per cell.
    """
    configs = tuple(configs)
    if not configs:
        raise StoreError("tournament needs at least one configuration")
    spec = SweepSpec(
        name="replay-tournament",
        task=tournament_run,
        grid={"index": list(range(len(configs)))},
        runs=1,
        base_seed=trace.seed,
        seeding="offset",
        fixed={"trace_lines": trace.to_lines(), "configs": configs},
    )
    return run_sweep(spec, workers=workers).values()


def diff_rows(
    rows: Sequence[dict[str, Any]], baseline: str | None = None
) -> list[dict[str, Any]]:
    """Per-configuration deltas against the baseline row.

    ``baseline`` names the reference config (default: the first row,
    conventionally ``recorded``).  Each returned row carries the raw
    metrics plus ``d_<metric>`` deltas; the baseline's deltas are all
    zero.
    """
    if not rows:
        return []
    base = rows[0]
    if baseline is not None:
        base = next((r for r in rows if r["config"] == baseline), rows[0])
    out = []
    for row in rows:
        diffed = dict(row)
        for metric in DIFF_METRICS:
            diffed[f"d_{metric}"] = row[metric] - base[metric]
        diffed["d_mean_commit_latency"] = (
            row["mean_commit_latency"] - base["mean_commit_latency"]
        )
        out.append(diffed)
    return out


def format_diff_table(rows: Sequence[dict[str, Any]]) -> str:
    """The tournament's human-readable diff table, one line per config."""
    diffed = diff_rows(rows)
    columns = (
        ("config", "config"),
        ("proto", "protocol"),
        ("commit", "committed"),
        ("abort", "protocol_aborted"),
        ("client", "client_aborted"),
        ("blocked", "blocked"),
        ("skipped", "skipped_ops"),
        ("msgs", "messages_sent"),
        ("latency", "mean_commit_latency"),
    )
    lines = ["  ".join(f"{title:>8}" for title, _ in columns)]
    for row in diffed:
        cells = []
        for title, key in columns:
            value = row[key]
            if key == "mean_commit_latency":
                cells.append(f"{value:8.2f}")
            elif isinstance(value, str):
                cells.append(f"{value:>8}")
            else:
                delta = row.get(f"d_{key}", 0)
                text = f"{value}{f'({delta:+d})' if delta else ''}"
                cells.append(f"{text:>8}")
        lines.append("  ".join(cells))
    return "\n".join(lines)
