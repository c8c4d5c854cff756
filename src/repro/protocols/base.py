"""Shared commit/termination machinery (system S8).

Every protocol family in this library — 2PC, 3PC, Skeen's site-quorum
protocol [16], and the paper's quorum protocols QTP1/QTP2 — shares the
same skeleton:

* a **coordinator** at the origin site distributes the update values
  (vote-req), collects votes, possibly runs a prepare round, and
  broadcasts the decision;
* **participants** (the sites hosting copies of the writeset items) run
  the six-state machine Q/W/PA/PC/A/C of Fig. 6;
* when the normal procedure is interrupted, a **termination protocol**
  elects a coordinator per partition (:class:`ElectionMixin`) and runs
  the three-phase poll / prepare / command structure of Fig. 5 and
  Fig. 8.

What actually *differs* between the families is captured by two small
strategy objects:

* the engine subclass's ``_all_voted_yes`` (one method: what the
  coordinator does after a unanimous yes), and
* a :class:`TerminationRule` — the pure decision logic of the
  termination protocol (the tables in Fig. 5 / Fig. 8, Skeen's
  site-vote rule, 3PC's committable-present rule, 2PC's cooperative
  rule).  Rules are pure functions over the polled states, which makes
  them directly unit- and property-testable.

Message handlers are declared, not installed.
:attr:`CommitProtocolEngine.HANDLERS` maps a message kind (the part
after ``family.``) to the name of the method that handles it; when a
subclass is defined, ``__init_subclass__`` expands it once with the
subclass's ``family`` (plus the family-independent election types) into
the class's ``handler_table``.  An engine hands that shared table to
its node (:meth:`Node.bind_on_delivery
<repro.net.node.Node.bind_on_delivery>`), which registers a handler the
first time a message of its type is delivered — building an engine
creates no bound methods.  A subclass that handles a new kind overrides
``HANDLERS = {**CommitProtocolEngine.HANDLERS, "my-kind": "_on_my_kind"}``.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Iterable, Mapping

from repro.election.bully import ElectionMixin
from repro.net.message import Message
from repro.protocols.states import TxnState, can_transition
from repro.storage.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.node import Node
    from repro.replication.catalog import ReplicaCatalog
    from repro.sim.scheduler import EventHandle


# ----------------------------------------------------------------------
# termination rules
# ----------------------------------------------------------------------


class Decision(enum.Enum):
    """Outcome of evaluating a termination rule over polled states."""

    COMMIT = "commit"  # decide commit immediately
    ABORT = "abort"  # decide abort immediately
    TRY_COMMIT = "try-commit"  # run a PREPARE-TO-COMMIT round
    TRY_ABORT = "try-abort"  # run a PREPARE-TO-ABORT round
    BLOCK = "block"  # cannot terminate; wait for recovery


class TerminationRule(ABC):
    """The pure decision core of one termination protocol.

    ``states`` maps each *reachable, active* participant to the local
    state it reported in phase 1; ``items`` is the transaction's
    writeset W(TR); ``participants`` is the transaction's full
    participant set (site-quorum rules size their quorums against it —
    the data-item rules get their totals from the catalog and ignore
    it).  Implementations must be side-effect free.
    """

    #: short name used in traces and experiment tables.
    name: str = "abstract"

    @abstractmethod
    def evaluate(
        self,
        items: list[str],
        states: Mapping[int, TxnState],
        participants: Iterable[int] | None = None,
    ) -> Decision:
        """Phase-2 decision given phase-1 state reports."""

    def commit_round_ok(
        self,
        items: list[str],
        supporters: Iterable[int],
        participants: Iterable[int] | None = None,
    ) -> bool:
        """Phase 3a: may COMMIT be sent given PC-repliers + PC-ACKers?"""
        return True

    def abort_round_ok(
        self,
        items: list[str],
        supporters: Iterable[int],
        participants: Iterable[int] | None = None,
    ) -> bool:
        """Phase 3b: may ABORT be sent given PA-repliers + PA-ACKers?"""
        return True


# ----------------------------------------------------------------------
# hooks into the database layer
# ----------------------------------------------------------------------


class ProtocolHooks:
    """Callbacks the protocol engine makes into its host site.

    The default implementation votes yes and does nothing, which is
    what the protocol-level tests use; the database layer overrides it
    to take locks, apply committed writes, and release locks.
    """

    def vote(self, txn: str, writes: Mapping[str, tuple[Any, int]]) -> bool:
        """Return this site's vote on the transaction (True = yes)."""
        return True

    def apply_commit(self, txn: str, writes: Mapping[str, tuple[Any, int]]) -> None:
        """The transaction committed here: install writes, release locks."""

    def apply_abort(self, txn: str) -> None:
        """The transaction aborted here: discard effects, release locks."""


# ----------------------------------------------------------------------
# per-transaction participant record
# ----------------------------------------------------------------------


#: the terminal states, as one constant: ``decided`` is read on every
#: protocol step, and an enum member lookup costs more than the test
_DECIDED = (TxnState.C, TxnState.A)


@dataclass
class TxnRecord:
    """Everything one site knows about one in-flight transaction.

    Volatile except where noted; the durable subset lives in the WAL
    (begin payload, vote, pc/pa entry, decision) and is reconstructed
    by :func:`repro.storage.recovery.recover_protocol_states`.
    """

    txn: str
    coordinator: int
    participants: list[int]
    writes: dict[str, tuple[Any, int]]
    state: TxnState = TxnState.Q
    blocked: bool = False

    # election bookkeeping (ElectionMixin)
    electing: bool = False
    heard_higher: bool = False
    election_rounds: int = 0

    # termination-coordinator bookkeeping
    terminating: bool = False
    term_attempt: int = 0
    term_states: dict[int, TxnState] = field(default_factory=dict)
    term_supporters: set[int] = field(default_factory=set)
    term_mode: str = ""

    _timers: dict[str, "EventHandle"] = field(default_factory=dict)

    @property
    def decided(self) -> bool:
        """True once the local state is terminal (C or A)."""
        return self.state in _DECIDED

    @property
    def items(self) -> list[str]:
        """The writeset item names W(TR), sorted."""
        return sorted(self.writes)

    def set_timer(
        self,
        node: "Node",
        delay: float,
        fn: Callable[..., None],
        *args: Any,
        label: str,
    ) -> None:
        """(Re)arm a named timer; the previous timer of that label dies."""
        self.cancel_timer(label)
        if delay <= 0:
            # fires on the very next tick and is never cancelled (nothing
            # holds a handle to it), so it can skip the EventHandle
            # allocation entirely.
            node.network.scheduler.call_fixed_after(0, fn, *args)
            return
        self._timers[label] = node.set_timer(delay, fn, *args, label=label)

    def cancel_timer(self, label: str) -> None:
        """Cancel one named timer if armed."""
        handle = self._timers.pop(label, None)
        if handle is not None:
            handle.cancel()

    def cancel_all_timers(self) -> None:
        """Cancel every timer (on decision or crash)."""
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()


@dataclass
class _CoordinationRound:
    """Coordinator-side volatile state for the original commit attempt."""

    txn: str
    writes: dict[str, tuple[Any, int]]
    participants: list[int]
    phase: str = "voting"  # voting -> preparing -> done
    votes: dict[int, bool] = field(default_factory=dict)
    ackers: set[int] = field(default_factory=set)


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------


class CommitProtocolEngine(ElectionMixin, ABC):
    """One site's commit + termination protocol instance.

    Subclasses set :attr:`family` (the message-type namespace) and
    implement :meth:`_all_voted_yes`; everything else — participant
    state machine, decision handling, termination, election — is
    shared and driven by the :class:`TerminationRule`.
    """

    #: message-type namespace, e.g. ``"qtp1"``; set by subclasses.
    family: str = "abstract"

    #: message kind -> name of the method handling ``<family>.<kind>``
    HANDLERS: ClassVar[Mapping[str, str]] = {
        "vote-req": "_on_vote_req",
        "vote": "_on_vote",
        "prepare": "_on_prepare",
        "ack": "_on_prepare_ack",
        "commit": "_on_commit_cmd",
        "abort": "_on_abort_cmd",
        "t.state-req": "_on_term_state_req",
        "t.state": "_on_term_state",
        "t.ptc": "_on_term_prepare_commit",
        "t.pta": "_on_term_prepare_abort",
        "t.pc-ack": "_on_term_pc_ack",
        "t.pa-ack": "_on_term_pa_ack",
        "t.blocked": "_on_term_blocked",
    }
    #: full message type -> handler method name, built per subclass
    handler_table: ClassVar[Mapping[str, str]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.handler_table = {
            **{f"{cls.family}.{kind}": name for kind, name in cls.HANDLERS.items()},
            **cls.ELECTION_HANDLERS,
        }

    def __init__(
        self,
        node: "Node",
        wal: WriteAheadLog,
        catalog: "ReplicaCatalog",
        rule: TerminationRule,
        hooks: ProtocolHooks | None = None,
        enforce_ignore_rules: bool = True,
    ) -> None:
        """Create the engine; its handlers bind on first delivery.

        Args:
            node: the site's network actor.
            wal: the site's write-ahead log.
            catalog: the replica catalog (vote oracle).
            rule: termination decision logic for this protocol family.
            hooks: database-layer callbacks (default: vote yes, no-op).
            enforce_ignore_rules: when False, participants respond to
                PREPARE-TO-COMMIT in PA and PREPARE-TO-ABORT in PC —
                the deliberately broken variant of Example 3.  Never
                disable outside that experiment.
        """
        self.node = node
        self.wal = wal
        self.catalog = catalog
        self.rule = rule
        self.hooks = hooks or ProtocolHooks()
        self.enforce_ignore_rules = enforce_ignore_rules
        self._records: dict[str, TxnRecord] = {}
        self._rounds: dict[str, _CoordinationRound] = {}
        self._term_attempt_counter = 0
        self._T = node.network.T
        self._tracer = node.network.tracer
        self._scheduler = node.network.scheduler
        self._eps = 1e-6 * self._T
        node.bind_on_delivery(self, self.handler_table)

    # -- small helpers ---------------------------------------------------------

    def _m(self, kind: str) -> str:
        return f"{self.family}.{kind}"

    def record(self, txn: str) -> TxnRecord | None:
        """The participant record for ``txn`` at this site, if any."""
        return self._records.get(txn)

    def records(self) -> dict[str, TxnRecord]:
        """All participant records at this site (live view)."""
        return self._records

    @property
    def site(self) -> int:
        """This engine's site id."""
        return self.node.node_id

    def _transition(self, record: TxnRecord, dst: TxnState, via: str) -> None:
        src = record.state
        if src == dst:
            return
        if not can_transition(src, dst):
            self.node.trace(
                "illegal-transition", record.txn, src=src.name, dst=dst.name, via=via
            )
        record.state = dst
        # one call: the tracer shares a (src, dst, via) tuple per triple
        self._tracer.record_state(
            self._scheduler.now, self.node.node_id, record.txn, src._name_, dst._name_, via
        )

    def _arm_watchdog(self, record: TxnRecord, factor: float = 3.0) -> None:
        """Expect coordinator contact within ``factor * T`` or elect."""
        if record.decided or record.blocked:
            return
        record.set_timer(
            self.node,
            factor * self._T + self._eps,
            self.start_election,
            record.txn,
            label="watchdog",
        )

    # ==========================================================================
    # coordinator side: the original commit attempt
    # ==========================================================================

    def begin_commit(
        self,
        txn: str,
        writes: Mapping[str, tuple[Any, int]],
        participants: Iterable[int] | None = None,
    ) -> None:
        """Start the commit procedure for a transaction at this site.

        Args:
            txn: transaction id.
            writes: item -> (new value, new version).
            participants: the sites to involve; defaults to every site
                holding a copy of a writeset item (the paper's "all
                sites which contain data items to be updated").
        """
        writes = dict(writes)
        if participants is None:
            participants = self.catalog.sites_of_any(writes)
        participants = sorted(participants)
        round_ = _CoordinationRound(txn, writes, participants)
        self._rounds[txn] = round_
        # the coordinator's begin record makes the commit attempt itself
        # durable, so a recovered coordinator knows which transactions it
        # left in flight (classical 2PC recovery depends on this).
        self.wal.begin(txn, writes, participants, self.site, role="coordinator")
        self.node.trace("coord-begin", txn, participants=participants, items=sorted(writes))
        self.node.multicast(
            participants,
            self._m("vote-req"),
            txn,
            writes={k: list(v) for k, v in writes.items()},
            participants=participants,
            coordinator=self.site,
        )
        self.node.set_timer(
            2 * self._T + self._eps, self._vote_window_closed, txn, label="vote-window"
        )

    def _vote_window_closed(self, txn: str) -> None:
        round_ = self._rounds.get(txn)
        if round_ is None or round_.phase != "voting":
            return
        missing = [s for s in round_.participants if s not in round_.votes]
        self.node.trace("coord-vote-timeout", txn, missing=missing)
        self._coord_decide(round_, "abort")

    def _on_vote(self, msg: Message) -> None:
        round_ = self._rounds.get(msg.txn)
        if round_ is None or round_.phase != "voting":
            return
        round_.votes[msg.src] = bool(msg.payload["yes"])
        if not msg.payload["yes"]:
            self._coord_decide(round_, "abort")
            return
        if all(round_.votes.get(s) for s in round_.participants):
            round_.phase = "preparing"
            self._all_voted_yes(round_)

    @abstractmethod
    def _all_voted_yes(self, round_: _CoordinationRound) -> None:
        """Family-specific continuation after a unanimous yes vote."""

    def _send_prepare(self, round_: _CoordinationRound, window_factor: float = 2.0) -> None:
        """Broadcast PREPARE(-TO-COMMIT) and open the ack window."""
        self.node.multicast(round_.participants, self._m("prepare"), round_.txn)
        self.node.set_timer(
            window_factor * self._T + self._eps,
            self._ack_window_closed,
            round_.txn,
            label="ack-window",
        )

    def _on_prepare_ack(self, msg: Message) -> None:
        round_ = self._rounds.get(msg.txn)
        if round_ is None or round_.phase != "preparing":
            return
        round_.ackers.add(msg.src)
        self._on_ack_progress(round_)

    def _on_ack_progress(self, round_: _CoordinationRound) -> None:
        """Family hook: called after each PC-ACK (quorum protocols commit early)."""

    def _ack_window_closed(self, txn: str) -> None:
        round_ = self._rounds.get(txn)
        if round_ is None or round_.phase != "preparing":
            return
        self._on_ack_timeout(round_)

    def _on_ack_timeout(self, round_: _CoordinationRound) -> None:
        """Family hook: ack window expired without the family's condition."""

    def _coord_decide(self, round_: _CoordinationRound, outcome: str) -> None:
        """Coordinator reaches a decision and broadcasts the command."""
        if round_.phase == "done":
            return
        round_.phase = "done"
        prior = self.wal.decision(round_.txn)
        if prior is not None and prior != outcome:
            # A termination attempt on this site already decided the
            # other way while the original round was still collecting
            # replies (e.g. late PC-acks crossing a partition after the
            # watchdog aborted).  Decisions are irrevocable and the
            # terminator has already informed the participants — the
            # original round stands down.
            self.node.trace("coord-stale-round", round_.txn, outcome=outcome, decided=prior)
            return
        self.wal.decide(round_.txn, outcome, role="coordinator")
        self.node.trace("coord-decision", round_.txn, outcome=outcome)
        self.node.multicast(round_.participants, self._m(outcome), round_.txn)

    # ==========================================================================
    # participant side: the Fig. 6 state machine
    # ==========================================================================

    def _on_vote_req(self, msg: Message) -> None:
        if msg.txn in self._records:
            return  # duplicate vote-req
        record = self._record_from_payload(msg.txn, msg.payload)
        self.wal.begin(msg.txn, record.writes, record.participants, record.coordinator)
        yes = self.hooks.vote(msg.txn, record.writes)
        self.wal.vote(msg.txn, yes)
        if yes:
            self._transition(record, TxnState.W, via="vote-yes")
            self.node.send(record.coordinator, self._m("vote"), msg.txn, yes=True)
            self._arm_watchdog(record)
        else:
            self.node.send(record.coordinator, self._m("vote"), msg.txn, yes=False)
            self._decide(record, "abort", via="vote-no")

    def _record_from_payload(self, txn: str, payload: Mapping[str, Any]) -> TxnRecord:
        writes = {k: (v[0], v[1]) for k, v in payload["writes"].items()}
        record = TxnRecord(
            txn=txn,
            coordinator=payload["coordinator"],
            participants=list(payload["participants"]),
            writes=writes,
        )
        self._records[txn] = record
        return record

    def _on_prepare(self, msg: Message) -> None:
        record = self._records.get(msg.txn)
        if record is None:
            return
        if record.state is TxnState.W:
            self.wal.pc(msg.txn)
            self._transition(record, TxnState.PC, via="prepare")
            self.node.send(msg.src, self._m("ack"), msg.txn)
            self._arm_watchdog(record)
        elif record.state is TxnState.PC:
            self.node.send(msg.src, self._m("ack"), msg.txn)  # idempotent re-ack
        # PA / decided: ignore (the Fig. 6 no-PC<->PA rule)

    def _on_commit_cmd(self, msg: Message) -> None:
        record = self._records.get(msg.txn)
        if record is None:
            return
        self._decide(record, "commit", via=f"command-from-{msg.src}")

    def _on_abort_cmd(self, msg: Message) -> None:
        record = self._records.get(msg.txn)
        if record is None:
            return
        self._decide(record, "abort", via=f"command-from-{msg.src}")

    def _decide(self, record: TxnRecord, outcome: str, via: str) -> None:
        """Terminate the transaction locally (idempotent, irrevocable).

        A *conflicting* command (COMMIT after a local ABORT or vice
        versa) is recorded as a ``decision-conflict`` trace event and
        otherwise ignored: the first decision stands.  Correct
        protocols never produce conflicts; the deliberately broken
        variants of Examples 2 and 3 do, and the analysis layer counts
        these events as atomicity violations.
        """
        wanted = TxnState.C if outcome == "commit" else TxnState.A
        if record.decided:
            if record.state is not wanted:
                self.node.trace(
                    "decision-conflict",
                    record.txn,
                    have=record.state.name,
                    wanted=wanted.name,
                    via=via,
                )
            return
        self.wal.decide(record.txn, outcome)
        self._transition(record, wanted, via=via)
        record.cancel_all_timers()
        record.blocked = False
        record.terminating = False
        if outcome == "commit":
            self.hooks.apply_commit(record.txn, record.writes)
        else:
            self.hooks.apply_abort(record.txn)
        self.node.trace("decision", record.txn, outcome=outcome, via=via)

    # ==========================================================================
    # termination protocol (Figs. 5 and 8; rule-driven)
    # ==========================================================================

    def _run_termination(self, txn: str) -> None:
        """Phase 1: poll every reachable participant for its local state."""
        record = self._records.get(txn)
        if record is None or record.decided:
            return
        record.terminating = True
        self._term_attempt_counter += 1
        record.term_attempt = self._term_attempt_counter
        record.term_states = {}
        record.term_supporters = set()
        record.term_mode = ""
        reachable = self.node.network.reachable_from(self.site, record.participants)
        self.node.trace(
            "term-phase1", txn, attempt=record.term_attempt, polled=reachable
        )
        self.node.multicast(
            reachable,
            self._m("t.state-req"),
            txn,
            attempt=record.term_attempt,
            coordinator=self.site,
            writes={k: list(v) for k, v in record.writes.items()},
            participants=record.participants,
        )
        record.set_timer(
            self.node,
            2 * self._T + self._eps,
            self._term_phase2,
            txn,
            record.term_attempt,
            label="term-phase1",
        )

    def _on_term_state_req(self, msg: Message) -> None:
        record = self._records.get(msg.txn)
        if record is None:
            # A site with no record *and no durable trace* of the
            # transaction never received the vote-req: it is in the
            # initial state Q — exactly the case the termination rules
            # treat as an immediate abort.  Materialize the record so a
            # later ABORT command has something to act on.  (A durable
            # participant decision in the WAL means the record was merely
            # not yet rebuilt; answer with the decision, never with Q.  A
            # coordinator-role decision is not this participant's: its
            # half never joined, so it answers Q and takes the command.)
            record = self._record_from_payload(msg.txn, msg.payload)
            decision = self.wal.participant_decision(msg.txn)
            if decision is not None:
                record.state = TxnState.C if decision == "commit" else TxnState.A
            else:
                self.wal.begin(msg.txn, record.writes, record.participants, record.coordinator)
        self.node.send(
            msg.src,
            self._m("t.state"),
            msg.txn,
            attempt=msg.payload["attempt"],
            state=record.state.name,
        )
        if not record.decided:
            self._arm_watchdog(record)

    def _on_term_state(self, msg: Message) -> None:
        record = self._records.get(msg.txn)
        if record is None or not record.terminating:
            return
        if msg.payload["attempt"] != record.term_attempt:
            return  # stale attempt
        record.term_states[msg.src] = TxnState[msg.payload["state"]]

    def _term_phase2(self, txn: str, attempt: int) -> None:
        record = self._records.get(txn)
        if record is None or record.decided or record.term_attempt != attempt:
            return
        states = dict(record.term_states)
        decision = self.rule.evaluate(
            record.items, states, participants=record.participants
        )
        self.node.trace(
            "term-phase2",
            txn,
            attempt=attempt,
            decision=decision.value,
            states={s: st.name for s, st in sorted(states.items())},
        )
        if decision is Decision.COMMIT:
            self._term_command(record, "commit")
        elif decision is Decision.ABORT:
            self._term_command(record, "abort")
        elif decision is Decision.TRY_COMMIT:
            record.term_mode = "commit-round"
            record.term_supporters = {
                s for s, st in states.items() if st is TxnState.PC
            }
            self._term_prepare_round(record, "t.ptc", states)
        elif decision is Decision.TRY_ABORT:
            record.term_mode = "abort-round"
            record.term_supporters = {
                s for s, st in states.items() if st is TxnState.PA
            }
            self._term_prepare_round(record, "t.pta", states)
        else:
            self._term_block(record)

    def _term_prepare_round(
        self, record: TxnRecord, mtype: str, states: Mapping[int, TxnState]
    ) -> None:
        wait_sites = [s for s, st in states.items() if st is TxnState.W]
        self.node.multicast(wait_sites, self._m(mtype), record.txn, attempt=record.term_attempt)
        record.set_timer(
            self.node,
            2 * self._T + self._eps,
            self._term_round_closed,
            record.txn,
            record.term_attempt,
            label="term-round",
        )

    def _on_term_prepare_commit(self, msg: Message) -> None:
        record = self._records.get(msg.txn)
        if record is None or record.decided:
            return
        if record.state is TxnState.PA and self.enforce_ignore_rules:
            # "A participant should ignore PREPARE-TO-COMMIT messages if
            # it is in PA state" — the rule Example 3 shows is essential.
            self.node.trace("ignored", msg.txn, mtype="t.ptc", state=record.state.name)
            return
        if record.state not in (TxnState.W, TxnState.PC, TxnState.PA):
            return  # Q never voted; it must not enter a committable state
        if record.state is not TxnState.PC:
            self.wal.pc(msg.txn)
            self._transition(record, TxnState.PC, via=f"t.ptc-from-{msg.src}")
        self.node.send(
            msg.src, self._m("t.pc-ack"), msg.txn, attempt=msg.payload["attempt"]
        )
        self._arm_watchdog(record)

    def _on_term_prepare_abort(self, msg: Message) -> None:
        record = self._records.get(msg.txn)
        if record is None or record.decided:
            return
        if record.state is TxnState.PC and self.enforce_ignore_rules:
            # "...and ignore PREPARE-TO-ABORT messages if it is in PC state."
            self.node.trace("ignored", msg.txn, mtype="t.pta", state=record.state.name)
            return
        if record.state not in (TxnState.W, TxnState.PA, TxnState.PC):
            return
        if record.state is not TxnState.PA:
            self.wal.pa(msg.txn)
            self._transition(record, TxnState.PA, via=f"t.pta-from-{msg.src}")
        self.node.send(
            msg.src, self._m("t.pa-ack"), msg.txn, attempt=msg.payload["attempt"]
        )
        self._arm_watchdog(record)

    def _on_term_pc_ack(self, msg: Message) -> None:
        self._collect_term_ack(msg, "commit-round")

    def _on_term_pa_ack(self, msg: Message) -> None:
        self._collect_term_ack(msg, "abort-round")

    def _collect_term_ack(self, msg: Message, mode: str) -> None:
        record = self._records.get(msg.txn)
        if record is None or not record.terminating:
            return
        if record.term_mode != mode or msg.payload["attempt"] != record.term_attempt:
            return
        record.term_supporters.add(msg.src)

    def _term_round_closed(self, txn: str, attempt: int) -> None:
        record = self._records.get(txn)
        if record is None or record.decided or record.term_attempt != attempt:
            return
        supporters = set(record.term_supporters)
        if record.term_mode == "commit-round":
            ok = self.rule.commit_round_ok(
                record.items, supporters, participants=record.participants
            )
            outcome = "commit"
        else:
            ok = self.rule.abort_round_ok(
                record.items, supporters, participants=record.participants
            )
            outcome = "abort"
        self.node.trace(
            "term-phase3",
            txn,
            attempt=attempt,
            mode=record.term_mode,
            supporters=sorted(supporters),
            quorum=ok,
        )
        if ok:
            self._term_command(record, outcome)
        else:
            # "else start the election protocol" (Fig. 5) — additional
            # failures happened during the round; re-enter.
            record.terminating = False
            self.start_election(txn)

    def _term_command(self, record: TxnRecord, outcome: str) -> None:
        """Send the final command to every reachable participant."""
        reachable = self.node.network.reachable_from(self.site, record.participants)
        self.node.trace("term-decision", record.txn, outcome=outcome, informed=reachable)
        self.node.multicast(reachable, self._m(outcome), record.txn)
        record.terminating = False

    def _term_block(self, record: TxnRecord) -> None:
        """No quorum is possible in this partition: block the transaction."""
        record.blocked = True
        record.terminating = False
        record.cancel_timer("watchdog")
        record.cancel_timer("elect-defer-watchdog")
        self.node.trace("blocked", record.txn, reason="no-quorum")
        reachable = self.node.network.reachable_from(self.site, record.participants)
        self.node.broadcast(reachable, self._m("t.blocked"), record.txn)

    def _on_term_blocked(self, msg: Message) -> None:
        record = self._records.get(msg.txn)
        if record is None or record.decided:
            return
        record.blocked = True
        record.cancel_timer("watchdog")
        record.cancel_timer("elect-defer-watchdog")
        self.node.trace("blocked", msg.txn, reason=f"notice-from-{msg.src}")

    # ==========================================================================
    # crash recovery and re-kick
    # ==========================================================================

    def on_crash(self) -> None:
        """Volatile protocol state is lost (records, rounds, timers)."""
        for record in self._records.values():
            record.cancel_all_timers()
        self._records.clear()
        self._rounds.clear()

    def rebuild_from_wal(self) -> list[str]:
        """Reconstruct participant and coordinator roles after recovery.

        Participant records are rebuilt from their durable state (Q, W,
        PC, PA) and armed with a watchdog so the site rejoins
        termination.  Only a *participant-role* decision makes the
        record terminal: a coordinator that forced its decision but
        crashed before its own command reached its participant half
        rebuilds that half undecided, and the re-broadcast command then
        decides it (and applies its writes) through :meth:`_decide`.
        Coordinator roles recover by re-broadcasting a logged decision,
        or — for undecided attempts — through the family hook
        :meth:`_recover_undecided_coordinator`.

        Returns the transactions recovered into an undecided
        participant state.
        """
        from repro.storage.recovery import recover_protocol_states

        recovered = []
        undecided = recover_protocol_states(self.wal)
        coordinated = {}  # txn -> (writes, participants) of its first coordinator begin
        for txn, role, writes, participants, coordinator in self.wal.begins():
            if role == "coordinator":
                coordinated.setdefault(txn, (writes, participants))
                continue
            if txn in self._records:
                continue
            decision = self.wal.participant_decision(txn)
            if decision is not None:
                # decided before the crash: rebuild the terminal record
                # so termination polls are answered with C / A, never Q
                # — a recovered committed site reporting "initial" would
                # let a new coordinator abort a committed transaction.
                state = TxnState.C if decision == "commit" else TxnState.A
            else:
                state = undecided.get(txn, TxnState.Q)
            record = TxnRecord(
                txn=txn,
                coordinator=coordinator,
                participants=list(participants),
                writes=dict(writes),
                state=state,
            )
            self._records[txn] = record
            if not record.decided:
                recovered.append(txn)
                self._arm_watchdog(record)
        for txn, (writes, participants) in coordinated.items():
            decision = self.wal.decision(txn)
            if decision is not None:
                # the decision may not have reached everyone; re-announce
                # (participants absorb duplicates idempotently)
                self.node.trace("coord-recovery", txn, rebroadcast=decision)
                self.node.multicast(participants, self._m(decision), txn)
            else:
                self._recover_undecided_coordinator(txn, dict(writes), list(participants))
        return recovered

    def _recover_undecided_coordinator(
        self,
        txn: str,
        writes: Mapping[str, tuple[Any, int]],
        participants: list[int],
    ) -> None:
        """Family hook: the coordinator crashed before deciding.

        Default: nothing — the three-phase families leave the outcome
        to the termination protocol, which the recovered site rejoins
        as an ordinary participant.  2PC overrides this with the
        classical unilateral abort (safe there because the commit
        point is the coordinator's log record, which is absent).
        """

    def kick(self) -> None:
        """Connectivity changed: retry termination for unresolved txns.

        Clears ``blocked`` and the election-round budget, *invalidates
        any in-flight termination attempt* (its phase-1 poll predates
        the connectivity change, so acting on it could re-block the
        transaction on stale information), then re-arms the watchdog;
        the usual watchdog -> election -> termination chain does the
        rest in the new connectivity epoch.
        """
        for record in self._records.values():
            if record.decided:
                continue
            record.blocked = False
            record.election_rounds = 0
            record.terminating = False
            # orphan the pending phase timers of a stale attempt: they
            # compare against term_attempt and will no-op
            self._term_attempt_counter += 1
            record.term_attempt = self._term_attempt_counter
            record.term_mode = ""
            self._arm_watchdog(record, factor=1.0)
