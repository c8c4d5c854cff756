"""Open-loop service mode: sustained arrival rates, admission, SLOs.

The closed-loop drivers ask "what happened to these N transactions";
a service asks "what does a client population experience at λ requests
per second, sustained".  :func:`run_open_loop` drives a cluster that
way on the virtual clock:

* **duration-bounded arrivals** — a self-scheduling chain of arrival
  events; each draws the next exponential gap
  (:meth:`~repro.workload.spec.CompiledWorkload.next_gap`) and
  re-arms itself via the scheduler's deadline hook
  (:meth:`~repro.sim.scheduler.Scheduler.call_fixed_until`), so the
  stream stops at ``start + duration`` rather than at an op count.
* **per-site admission control** — each origin site carries a bounded
  in-flight window; an arrival whose origin is saturated is *shed*
  (``shed_backpressure``) and one whose origin is down or unknown is
  refused (``shed_unreachable``).  Shed ops still consume their
  generator draws, so the offered stream is a pure function of the
  seed regardless of admission outcomes.
* **streaming latency percentiles** — commit/abort latency (first
  protocol decision minus submit time) folds into a fixed-size
  :class:`~repro.engine.aggregate.QuantileDigest`; no per-op lists,
  so memory is constant in the offered load and the p50/p99/p999
  estimates are a pure function of the folded multiset.  Decisions
  are read at each arrival from a cursor over the trace
  (:meth:`Tracer.since <repro.sim.trace.Tracer.since>`): the cost is
  the records appended since the previous arrival, whatever the number
  of transactions in flight.  Read-only
  fast-path commits and client-side aborts complete synchronously on
  the virtual clock (zero latency) and are tallied, not folded.
* **throughput-ceiling discovery** — :func:`ramp` steps the arrival
  rate across a schedule until the p99 knee or the abort-rate
  threshold trips, and reports the last sustainable rate.
* **adaptive admission** (:class:`AdaptiveWindow`, default off) — the
  graceful-degradation arm: a periodic retuning event compares the
  streaming p99 against a target SLO and widens or narrows the
  per-site window one step at a time, with a hysteresis dead band so
  the controller does not chatter around the target.  Off (``None``),
  the admission path is byte-identical to the fixed-window service.

Everything runs on the deterministic virtual clock with draws from the
caller's RNG, so open-loop results are byte-identical across repeated
runs and across sweep worker counts — the same fixed-point contract
the closed-loop baselines pin.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.common.errors import ConfigurationError
from repro.engine.aggregate import QuantileDigest
from repro.traffic.engine import TrafficEngine

#: default per-site in-flight window (admission control).
DEFAULT_WINDOW = 4

#: default latency digest layout: [0, hi) split into this many bins.
DEFAULT_BINS = 64


@dataclass(frozen=True)
class AdaptiveWindow:
    """Adaptive admission-window policy (graceful degradation).

    Every ``interval`` virtual seconds the controller reads the p99 of
    the latencies folded *since its last reading* (a windowed tail, so
    a past surge cannot pin the controller forever) and moves the
    per-site window one step: above ``target_p99 * (1 + hysteresis)``
    it narrows (shed earlier, protect the tail), below
    ``target_p99 * (1 - hysteresis)`` it widens (admit more, use the
    headroom).  Inside the dead band — or over an interval with no
    decided latencies — it holds; the hysteresis is what keeps the
    controller from oscillating when p99 sits near the target.  The
    window is clamped to ``[low, high]``.
    """

    target_p99: float
    low: int = 1
    high: int = 16
    interval: float = 10.0
    hysteresis: float = 0.25

    def __post_init__(self) -> None:
        if self.target_p99 <= 0:
            raise ValueError(f"target_p99 must be positive, got {self.target_p99}")
        if not 1 <= self.low <= self.high:
            raise ValueError(
                f"need 1 <= low <= high, got low={self.low} high={self.high}"
            )
        if self.interval <= 0:
            raise ValueError(f"interval must be positive, got {self.interval}")
        if not 0.0 <= self.hysteresis < 1.0:
            raise ValueError(f"hysteresis {self.hysteresis} outside [0, 1)")


@dataclass
class OpenLoopResult:
    """One open-loop service run, summarized.

    ``offered = admitted + shed_backpressure + shed_unreachable`` always
    holds; ``admitted`` splits into protocol-bound updates (eventually
    ``committed`` / ``protocol_aborted`` / ``unresolved``), client-side
    ``client_aborted``, and fast-path ``reads_committed``.
    """

    protocol: str
    rate: float
    duration: float
    offered: int
    admitted: int
    shed_backpressure: int
    shed_unreachable: int
    committed: int
    reads_committed: int
    client_aborted: int
    protocol_aborted: int
    unresolved: int
    serializable: bool
    readable_fraction: float
    #: streaming latency summary: n / min / max / p50 / p99 / p999.
    latency: dict[str, float] = field(default_factory=dict)
    #: adaptive-admission trajectory (``None`` unless an
    #: :class:`AdaptiveWindow` drove the run; counters stay conditional
    #: so fixed-window payloads are byte-stable).
    window_final: int | None = None
    window_widened: int = 0
    window_narrowed: int = 0

    @property
    def sustained_throughput(self) -> float:
        """Committed transactions per virtual second."""
        return self.committed / self.duration if self.duration else 0.0

    @property
    def abort_rate(self) -> float:
        """Aborts (client + protocol) per admitted operation."""
        aborted = self.client_aborted + self.protocol_aborted
        return aborted / self.admitted if self.admitted else 0.0

    def counters(self) -> dict[str, Any]:
        """Flat deterministic tallies (the bench-baseline fingerprint)."""
        out = {
            "offered": self.offered,
            "admitted": self.admitted,
            "shed_backpressure": self.shed_backpressure,
            "shed_unreachable": self.shed_unreachable,
            "committed": self.committed,
            "reads_committed": self.reads_committed,
            "client_aborted": self.client_aborted,
            "protocol_aborted": self.protocol_aborted,
            "unresolved": self.unresolved,
            "serializable": self.serializable,
            "latency_n": self.latency.get("n", 0),
            "latency_p50": self.latency.get("p50", 0.0),
            "latency_p99": self.latency.get("p99", 0.0),
            "latency_p999": self.latency.get("p999", 0.0),
        }
        if self.window_final is not None:
            # adaptive runs only: fixed-window fingerprints never carry
            # these keys, so historical payloads stay byte-stable.
            out["window_final"] = self.window_final
            out["window_widened"] = self.window_widened
            out["window_narrowed"] = self.window_narrowed
        return out

    def format_row(self) -> str:
        """One aligned summary line for service tables."""
        return (
            f"{self.protocol:<6} rate={self.rate:<6g} offered={self.offered:<4} "
            f"shed={self.shed_backpressure:<3} committed={self.committed:<4} "
            f"aborted={self.client_aborted + self.protocol_aborted:<3} "
            f"p99={self.latency.get('p99', 0.0):6.2f} "
            f"p999={self.latency.get('p999', 0.0):6.2f} "
            f"thru={self.sustained_throughput:.3f}/s"
        )


def latency_summary(digest: QuantileDigest) -> dict[str, float]:
    """The digest's tail-latency summary, p999 included.

    Kept separate from :meth:`QuantileDigest.summary` (which commits
    p50/p90/p99 inside existing sweep baselines) so widening the SLO
    surface never shifts committed bytes.
    """
    return {
        "n": digest.n,
        "min": digest.min if digest.min is not None else 0.0,
        "max": digest.max if digest.max is not None else 0.0,
        "p50": digest.quantile(0.50),
        "p99": digest.quantile(0.99),
        "p999": digest.quantile(0.999),
    }


class _OpenLoopRun:
    """The live state of one open-loop service run.

    The arrival chain and the adaptive controller re-arm themselves, so
    they are methods, not closures: a function that schedules itself
    holds itself through its own closure cell, and that cycle would keep
    the whole cluster for the cyclic collector after the run.
    """

    def __init__(
        self,
        engine: TrafficEngine,
        window: int,
        digest: QuantileDigest,
        deadline: float,
        adapt: AdaptiveWindow | None,
    ) -> None:
        self.engine = engine
        self.digest = digest
        self.deadline = deadline
        self.adapt = adapt
        #: the live admission window; only the adaptive controller ever
        #: writes it, so the fixed-window behavior is unchanged.
        self.window = min(max(window, adapt.low), adapt.high) if adapt else window
        self.widened = self.narrowed = 0
        #: in-flight txn -> (origin, submit time), and per origin how
        #: many of them it holds (what the admission window bounds)
        self.submitted: dict[str, tuple[int, float]] = {}
        self.in_flight: Counter[int] = Counter()
        #: trace position the decisions have been read up to
        self._cursor = 0
        self.offered = self.admitted = 0
        self.shed_backpressure = self.shed_unreachable = 0
        #: digest snapshot at the last retune, so each reading sees only
        #: the latencies folded during its own interval
        self._seen_n = 0
        self._seen_counts = [0] * digest.bins

    def retire_decided(self) -> None:
        """Fold the latency of every in-flight txn that has decided.

        Reads only the decision records appended since the last call
        (:meth:`Tracer.since <repro.sim.trace.Tracer.since>`).  Records
        append in clock order, so the first decision seen for a
        transaction is its earliest; its later ones find it retired.
        """
        self._cursor, decisions = self.engine.cluster.tracer.since(self._cursor, "decision")
        submitted = self.submitted
        for decided_at, _site, txn in decisions:
            if txn in submitted:
                origin, submitted_at = submitted.pop(txn)
                self.in_flight[origin] -= 1
                self.digest.add(decided_at - submitted_at)

    def arrive(self) -> None:
        """One arrival: admit or shed it, then arm the next."""
        engine = self.engine
        cluster = engine.cluster
        scheduler = cluster.scheduler
        self.offered += 1
        self.retire_decided()
        op = engine.placed().next_op(engine.rng)
        if op.origin not in cluster.sites or not cluster.sites[op.origin].alive:
            self.shed_unreachable += 1
        elif self.in_flight[op.origin] >= self.window:
            self.shed_backpressure += 1
        else:
            self.admitted += 1
            handle = engine._submit_op(op)
            if handle is not None:
                self.submitted[handle.txn] = (op.origin, scheduler.now)
                self.in_flight[op.origin] += 1
        gap = engine.compiled.next_gap(engine.rng, scheduler.now)
        scheduler.call_fixed_until(scheduler.now + gap, self.deadline, self.arrive)

    def retune(self) -> None:
        """One reading of the adaptive controller, then arm the next."""
        adapt = self.adapt
        digest = self.digest
        recent_n = digest.n - self._seen_n
        if recent_n:
            recent = QuantileDigest(digest.lo, digest.hi, digest.bins)
            recent.n = recent_n
            recent.counts = [
                count - prior for count, prior in zip(digest.counts, self._seen_counts)
            ]
            self._seen_n = digest.n
            self._seen_counts = list(digest.counts)
            p99 = recent.quantile(0.99)
            cur = self.window
            if p99 > adapt.target_p99 * (1.0 + adapt.hysteresis) and cur > adapt.low:
                self.window = cur - 1
                self.narrowed += 1
            elif p99 < adapt.target_p99 * (1.0 - adapt.hysteresis) and cur < adapt.high:
                self.window = cur + 1
                self.widened += 1
        scheduler = self.engine.cluster.scheduler
        scheduler.call_fixed_until(scheduler.now + adapt.interval, self.deadline, self.retune)


def run_open_loop(
    engine: TrafficEngine,
    protocol: str,
    *,
    window: int = DEFAULT_WINDOW,
    latency_hi: float = 60.0,
    bins: int = DEFAULT_BINS,
    adapt: AdaptiveWindow | None = None,
) -> OpenLoopResult:
    """Drive the engine's stream as an open-loop service.

    The compiled workload must be an open-arrival spec (or a recorded
    open-loop stream): ``spec.rate`` / ``spec.duration`` bound the
    arrival chain, ``next_op`` / ``next_gap`` feed it; any other
    ``arrival`` raises :class:`~repro.common.errors.ConfigurationError`
    before anything is scheduled.  The cluster's failure plan, if any,
    must already be armed.

    Args:
        engine: the traffic engine (cluster + compiled stream + rng).
        protocol: protocol name for the result row.
        window: per-site in-flight admission window (>= 1; the
            *starting* window under an adaptive policy).
        latency_hi: latency digest upper bound (virtual seconds).
        bins: latency digest bin count.
        adapt: optional :class:`AdaptiveWindow` policy — retunes the
            window against the streaming p99 every ``adapt.interval``
            seconds.  ``None`` (default) keeps the fixed window and a
            byte-identical event sequence.
    """
    if window < 1:
        raise ValueError(f"admission window must be >= 1, got {window}")
    spec = engine.compiled.spec
    if spec.arrival != "open":
        raise ConfigurationError(
            f"the open-loop service needs arrival='open' (a rate and a duration), "
            f"got arrival={spec.arrival!r}: drive closed workloads with run_closed"
        )
    duration = float(spec.duration)
    cluster = engine.cluster
    scheduler = cluster.scheduler
    deadline = spec.start + duration
    digest = QuantileDigest(0.0, latency_hi, bins)
    run = _OpenLoopRun(engine, window, digest, deadline, adapt)

    if adapt is not None:
        scheduler.call_fixed_until(spec.start + adapt.interval, deadline, run.retune)
    scheduler.call_fixed_until(spec.start, deadline, run.arrive)
    cluster.run()
    run.retire_decided()
    unresolved = len(run.submitted)

    base = engine.tally(protocol)
    return OpenLoopResult(
        protocol=protocol,
        rate=float(spec.rate),
        duration=duration,
        offered=run.offered,
        admitted=run.admitted,
        shed_backpressure=run.shed_backpressure,
        shed_unreachable=run.shed_unreachable,
        committed=base.committed,
        reads_committed=base.reads_committed,
        client_aborted=base.client_aborted,
        protocol_aborted=base.protocol_aborted,
        unresolved=unresolved,
        serializable=base.serializable,
        readable_fraction=base.readable_fraction,
        latency=latency_summary(digest),
        window_final=run.window if adapt is not None else None,
        window_widened=run.widened,
        window_narrowed=run.narrowed,
    )


# ----------------------------------------------------------------------
# throughput-ceiling discovery
# ----------------------------------------------------------------------


@dataclass
class RampResult:
    """The outcome of one :func:`ramp` discovery sweep.

    ``ceiling`` is the last arrival rate that met the SLO (``None`` if
    even the first step tripped); ``tripped`` names what ended the ramp
    (``"latency_knee"`` / ``"abort_rate"``, or ``None`` when the rate
    schedule was exhausted without tripping).
    """

    ceiling: float | None
    tripped: str | None
    steps: list[OpenLoopResult] = field(default_factory=list)

    def counters(self) -> dict[str, Any]:
        """Flat deterministic tallies (the bench-baseline fingerprint)."""
        return {
            "steps": len(self.steps),
            "ceiling": self.ceiling if self.ceiling is not None else -1.0,
            "tripped": self.tripped or "none",
            "p99_by_step": [step.latency.get("p99", 0.0) for step in self.steps],
            "committed_by_step": [step.committed for step in self.steps],
            "shed_by_step": [step.shed_backpressure for step in self.steps],
        }


def ramp(
    step_fn: Callable[[float], OpenLoopResult],
    rates: Iterable[float] | Sequence[float],
    *,
    knee_factor: float = 4.0,
    abort_threshold: float = 0.25,
) -> RampResult:
    """Step the arrival rate until the p99 knee or abort threshold trips.

    ``step_fn(rate)`` runs one fresh open-loop service at ``rate`` (a
    new cluster per step — steps are independent measurements, not one
    long run).  The first step with a non-empty latency sample anchors
    the baseline p99; a later step whose p99 exceeds ``knee_factor``
    times that baseline trips ``"latency_knee"``, and a step whose
    abort rate exceeds ``abort_threshold`` trips ``"abort_rate"``.
    The ramp stops at the first trip; rates before it are sustainable.
    """
    steps: list[OpenLoopResult] = []
    baseline_p99: float | None = None
    ceiling: float | None = None
    tripped: str | None = None
    for rate in rates:
        result = step_fn(rate)
        steps.append(result)
        p99 = result.latency.get("p99", 0.0)
        if baseline_p99 is None and result.latency.get("n", 0):
            baseline_p99 = p99
        if (
            baseline_p99 is not None
            and baseline_p99 > 0.0
            and p99 > knee_factor * baseline_p99
        ):
            tripped = "latency_knee"
            break
        if result.abort_rate > abort_threshold:
            tripped = "abort_rate"
            break
        ceiling = rate
    return RampResult(ceiling=ceiling, tripped=tripped, steps=steps)
