"""Message sequence charts from traces — Figs. 1, 2 and 9 as output.

The paper's protocol figures are message diagrams; this module renders
the same diagrams from an actual run's trace, one line per event:

::

    t=2.00            1 ----------prepare---------> 3
    t=3.00            3 [W -> PC]
    t=3.00            3 -----------ack------------> 1

Used by the flow benchmarks (printing the executable counterpart of
each figure) and by ``examples/termination_walkthrough.py``.
"""

from __future__ import annotations

from repro.common.errors import MessageRowsOffError
from repro.sim.trace import TraceRecord, Tracer


def _short(mtype: str) -> str:
    """Strip the family prefix: ``qtp1.t.state-req`` -> ``t.state-req``."""
    __, __, rest = mtype.partition(".")
    return rest or mtype


def _arrow(src: int, dst: int, label: str, width: int = 28) -> str:
    pad = max(2, width - len(label))
    left = pad // 2
    right = pad - left
    return f"{src:>3} {'-' * left}{label}{'-' * right}> {dst}"


def format_event(rec: TraceRecord) -> str | None:
    """One chart line for a record, or None for uncharted categories."""
    t = f"t={rec.time:7.2f}  "
    if rec.category == "send":
        return t + _arrow(rec.site, rec.detail["dst"], _short(rec.detail["mtype"]))
    if rec.category == "drop":
        reason = rec.detail.get("reason", "lost")
        return (
            t
            + _arrow(rec.site, rec.detail["dst"], _short(rec.detail["mtype"]))
            + f"   ✗ {reason}"
        )
    if rec.category == "state":
        return t + f"{rec.site:>3} [{rec.detail['src']} -> {rec.detail['dst']}]"
    if rec.category == "decision":
        return t + f"{rec.site:>3} ** {rec.detail['outcome'].upper()} **"
    if rec.category == "coord-decision":
        return t + f"{rec.site:>3} == coordinator decides {rec.detail['outcome'].upper()} =="
    if rec.category in ("crash", "recover"):
        return t + f"{rec.site:>3} !! {rec.category.upper()} !!"
    if rec.category == "partition":
        groups = rec.detail.get("groups", [])
        return t + f"    ~~ PARTITION {groups} ~~"
    if rec.category == "heal":
        return t + "    ~~ HEAL ~~"
    if rec.category == "blocked":
        return t + f"{rec.site:>3} .. blocked ({rec.detail.get('reason', '')}) .."
    if rec.category == "coordinator":
        return t + f"{rec.site:>3} >> elected termination coordinator <<"
    return None


def message_sequence_chart(
    tracer: Tracer,
    txn: str | None = None,
    include_drops: bool = True,
    max_lines: int | None = None,
) -> str:
    """Render a run (optionally one transaction) as an ASCII chart.

    Args:
        tracer: the run's trace; it must keep message rows (a cluster
            built with ``message_rows=True``), or the chart raises
            :class:`~repro.common.errors.MessageRowsOffError`.
        txn: restrict to one transaction's records plus global events.
        include_drops: chart dropped messages (with their reason).
        max_lines: truncate long charts (an ellipsis line is added).
    """
    if not tracer.messages:
        raise MessageRowsOffError("send")
    # txn_scope merges the per-txn row indexes (O(k)); a full chart
    # materializes every record anyway.
    records = list(tracer) if txn is None else tracer.txn_scope(txn)
    lines: list[str] = []
    for i, rec in enumerate(records):
        if rec.category == "drop" and not include_drops:
            continue
        if rec.category == "send":
            # a send immediately followed by its own drop record is
            # charted once, as the (annotated) drop line
            nxt = records[i + 1] if i + 1 < len(records) else None
            if (
                nxt is not None
                and nxt.category == "drop"
                and nxt.time == rec.time
                and nxt.detail.get("mtype") == rec.detail.get("mtype")
                and nxt.detail.get("dst") == rec.detail.get("dst")
                and nxt.site == rec.site
            ):
                continue
        line = format_event(rec)
        if line is not None:
            lines.append(line)
    if max_lines is not None and len(lines) > max_lines:
        omitted = len(lines) - max_lines
        lines = lines[:max_lines] + [f"... ({omitted} more events)"]
    return "\n".join(lines)
