"""Shared commit/termination machinery (system S8).

Every protocol family in this library — 2PC, 3PC, Skeen's site-quorum
protocol [16], the paper's quorum protocols QTP1/QTP2 and their §5
primary-copy variant — shares the same skeleton:

* a **coordinator** at the origin site distributes the update values
  (vote-req), collects votes, possibly runs a prepare round, and
  broadcasts the decision;
* **participants** (the sites hosting copies of the writeset items) run
  the six-state machine Q/W/PA/PC/A/C of Fig. 6;
* when the normal procedure is interrupted, a **termination protocol**
  elects a coordinator per partition (:class:`ElectionMixin`) and runs
  the three-phase poll / prepare / command structure of Fig. 5 and
  Fig. 8.

The protocols differ in two places only:

* the coordinator's commit point.  :class:`CommitProtocolEngine` is
  the three-phase flow of 3PC and of Skeen's protocol, used as it
  stands for ``skq``: PREPARE after a unanimous yes, COMMIT once every
  participant has acked, and an election when the ack window closes
  short.  Three subclasses are the other behaviours — 2PC commits on
  the votes (:class:`~repro.protocols.twopc.TwoPCEngine`), 3PC also
  commits when the ack window closes short
  (:class:`~repro.protocols.threepc.ThreePCEngine`), and the quorum
  protocols commit as soon as the PC-ACKs satisfy their rule's commit
  predicate (:class:`~repro.protocols.qtp.commit.QuorumCommitEngine`,
  one class for ``qtp1``, ``qtp2`` and ``qtpp``);
* a :class:`TerminationRule` — the pure decision logic of the
  termination protocol (the tables in Fig. 5 / Fig. 8, Skeen's
  site-vote rule, 3PC's committable-present rule, 2PC's cooperative
  rule).  Rules are pure functions over the polled states, which makes
  them directly unit- and property-testable.

Everything else is written once.  The termination protocol's phase 3
is one round in one of two mirrored directions, and each of its steps
(prepare, ack, close, command) is one handler for both; a two-entry
table (``_COMMIT_ROUND`` / ``_ABORT_ROUND``) holds what differs.

Message handlers are declared, not installed.
:attr:`CommitProtocolEngine.HANDLERS` maps a message kind (the part
after ``family.``) to the name of the method that handles it.  The
family is the protocol's name (``"qtp1"``, ``"skq"``, ...), which the
engine is built with; :func:`message_tables` expands the kinds once
per name into the ``kind -> "family.kind"`` table every send reads
(no message type is formatted per send) and into the handler table —
the family's types plus the family-independent election types.  An
engine hands the handler table to its node
(:meth:`Node.bind_on_delivery <repro.net.node.Node.bind_on_delivery>`),
which registers a handler the first time a message of its type is
delivered — building an engine creates no bound methods.  A database
site goes one step further and builds its engine only when a message
first reaches it or it first coordinates (:mod:`repro.db.site`).

What a protocol step costs does not grow with the transaction's
history:

* **The engine owns its timers.**  A record's timers (watchdog,
  election and termination-phase windows) live in that record's label
  table, and a coordination round's vote and ack windows on the round;
  each is one :meth:`Scheduler.call_at
  <repro.sim.scheduler.Scheduler.call_at>` registered nowhere else.
  None goes through :meth:`Node.set_timer <repro.net.node.Node.set_timer>`,
  so a crash (:meth:`CommitProtocolEngine.on_crash`) and a forced leave
  cancel them here, through :meth:`CommitProtocolEngine.cancel_timers`.
* **Write sets travel by reference.**  vote-req and t.state-req carry
  the coordinator's (or terminator's) ``writes`` mapping and
  participant list themselves — the coordinator's are the ones the
  client submitted — and a participant's record keeps both as they
  came; messages are immutable by contract, and nothing writes to a
  write set or a participant list once it is sent.
* **Tallies fold one reply at a time.**  A round keeps the
  participants whose vote, then whose ack, it still awaits; the quorum
  engine keeps what each part of its rule's commit predicate still
  lacks (:class:`~repro.protocols.qtp.quorums.QuorumTally`).  A
  repeated reply changes nothing.
* **A decision keeps only what the paper's state needs.**  After its
  decision a participant record holds its state and the write set and
  participant list it shares with the vote-req, and no timer table; a
  done coordination round holds its phase and its two window handles,
  and no tally.  The log and the decision are the transaction's record
  from then on, so a long run leaves the cyclic collector no
  per-transaction volatile state to walk.
* **Kicks visit only undecided records.**  :attr:`CommitProtocolEngine.undecided`
  holds the undecided records, kept up to date wherever a record is
  created, decided, rebuilt or dropped.
"""

from __future__ import annotations

import enum
import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Iterable, Mapping, NamedTuple, Sequence

from repro.election.bully import ElectionMixin
from repro.net.message import Message
from repro.protocols.states import LEGAL_TRANSITIONS, OUTCOME_STATE, TxnState
from repro.storage.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.node import Node
    from repro.replication.catalog import ReplicaCatalog
    from repro.sim.scheduler import EventHandle, Scheduler


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
    participant set and ``catalog`` the catalog of the epoch the
    transaction started in — its placement, votes and primaries.  A
    rule reads whichever of them its quorums are made of (see
    :class:`~repro.protocols.qtp.quorums.QuorumTerminationRule`).
    Implementations must be side-effect free and hold no state that
    changes during a run.

    :meth:`evaluate` is phase 2; a phase-3 round holds its quorum when
    :meth:`commits` (or, for an abort round, :meth:`aborts`) holds of
    its supporters.  A rule without quorums keeps the defaults, which
    always hold (3PC's TRY_COMMIT round cannot fail).
    """

    #: short name used in traces and experiment tables.
    name: str = "abstract"

    @abstractmethod
    def evaluate(
        self,
        items: list[str],
        states: Mapping[int, TxnState],
        participants: Iterable[int] | None = None,
        catalog: "ReplicaCatalog | None" = None,
    ) -> Decision:
        """Phase-2 decision given phase-1 state reports."""

    def check_total(self, sites: int) -> None:
        """May the installation grow to ``sites`` sites?  Called on
        every join; a rule whose quorums are counted over a fixed site
        total raises :class:`~repro.common.errors.ConfigurationError`
        here.  The default accepts any total."""

    def admits(self, items: list[str], participants: Sequence[int], catalog: "ReplicaCatalog") -> bool:
        """May a transaction writing ``items`` over ``participants`` be
        submitted?  The cluster asks at submission and refuses it
        otherwise.  Always, here."""
        return True

    def commits(
        self,
        items: list[str],
        sites: set[int],
        participants: Iterable[int] | None,
        catalog: "ReplicaCatalog | None",
    ) -> bool:
        """Do ``sites`` hold the commit access right?  Always, here."""
        return True

    def aborts(
        self,
        items: list[str],
        sites: set[int],
        participants: Iterable[int] | None,
        catalog: "ReplicaCatalog | None",
    ) -> bool:
        """Do ``sites`` hold the abort access right?  Always, here."""
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

#: state name -> state, the table ``TxnState[name]`` reads through a
#: Python-level ``EnumType.__getitem__``; the termination path reads it
#: (and a member's ``_name_``, not the ``name`` property) directly
_STATE_BY_NAME: Mapping[str, TxnState] = TxnState._member_map_


class _Round(NamedTuple):
    """One direction of a termination round (phase 3 of Fig. 5 / Fig. 8):
    the ``term-phase3`` row's ``mode``, the ``prepare`` and ``ack``
    kinds, the ``state`` a prepare enters (also the supporters' state),
    the state that ignores the prepare (Fig. 6 has no PC <-> PA move)
    and the ``outcome`` a round that holds its quorum sends."""

    mode: str
    prepare: str
    ack: str
    state: TxnState
    ignored_in: TxnState
    outcome: str


_COMMIT_ROUND = _Round("commit-round", "t.ptc", "t.pc-ack", TxnState.PC, TxnState.PA, "commit")
_ABORT_ROUND = _Round("abort-round", "t.pta", "t.pa-ack", TxnState.PA, TxnState.PC, "abort")


@dataclass(slots=True)
class TxnRecord:
    """Everything one site knows about one in-flight transaction.

    Volatile except where noted; the durable subset lives in the WAL
    (begin payload, vote, pc/pa entry, decision) and is reconstructed
    by :func:`repro.storage.recovery.recover_protocol_states`.

    ``participants`` and ``writes`` are the vote-req's (or the
    termination poll's) own list and mapping, shared and never written
    to.  The timer table exists only from a record's first armed timer
    to its decision (or a crash, or a forced leave): a decided record
    keeps its state, those two shared references and — only if it
    coordinated a termination — that attempt's poll tables.
    """

    txn: str
    coordinator: int
    participants: list[int]
    writes: dict[str, tuple[Any, int]]
    #: the membership epoch the transaction started in (its quorums)
    epoch: int = 0
    state: TxnState = TxnState.Q
    blocked: bool = False

    # election bookkeeping (ElectionMixin)
    electing: bool = False
    heard_higher: bool = False
    election_rounds: int = 0

    # termination-coordinator bookkeeping; a record that never
    # coordinates a termination never allocates the two tables:
    # ``_run_termination`` sets both before anything reads them
    terminating: bool = False
    term_attempt: int = 0
    term_states: dict[int, TxnState] = field(init=False, repr=False, compare=False)
    term_supporters: set[int] = field(init=False, repr=False, compare=False)
    #: the attempt's phase-3 round, once phase 2 has chosen one
    term_round: _Round | None = None

    #: label -> armed timer; None before the first timer and after
    #: :meth:`cancel_all_timers`
    _timers: dict[str, "EventHandle"] | None = None

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
        scheduler: "Scheduler",
        delay: float,
        fn: Callable[..., None],
        *args: Any,
        label: str,
    ) -> None:
        """(Re)arm a named timer; the previous timer of that label dies.

        The record's label table is the timer's one registry: the timer
        is a single :meth:`Scheduler.call_at
        <repro.sim.scheduler.Scheduler.call_at>`, and only
        :meth:`cancel_timer` / :meth:`cancel_all_timers` (a decision,
        a crash, a forced leave) cancel it — the node never sees it.
        """
        timers = self._timers
        if timers is not None:
            handle = timers.pop(label, None)
            if handle is not None:
                handle.cancel()
        if delay <= 0:
            # fires on the very next tick and is never cancelled (nothing
            # holds a handle to it), so it can skip the EventHandle
            # allocation entirely.
            scheduler.call_fixed_after(0, fn, *args)
            return
        handle = scheduler.call_at(scheduler.now + delay, fn, *args, label=label)
        if timers is None:
            self._timers = {label: handle}
        else:
            timers[label] = handle

    def cancel_timer(self, label: str) -> None:
        """Cancel one named timer if armed."""
        if self._timers is not None:
            handle = self._timers.pop(label, None)
            if handle is not None:
                handle.cancel()

    def cancel_all_timers(self) -> None:
        """Cancel every timer and drop the table (on decision, crash or
        forced leave)."""
        if self._timers is not None:
            for handle in self._timers.values():
                handle.cancel()
            self._timers = None


@dataclass
class _CoordinationRound:
    """Coordinator-side volatile state for the original commit attempt.

    ``writes`` and ``participants`` are the submitted transaction's
    own mapping and sorted list, shared with its handle, its log row
    and its vote-req.  A done round keeps its phase and its two window
    handles (so a crash still cancels a pending window): its decision
    releases the tallies, which nothing reads after it.
    """

    txn: str
    writes: dict[str, tuple[Any, int]]
    participants: list[int]
    catalog: "ReplicaCatalog"
    phase: str = "voting"  # voting -> preparing -> done
    #: participants whose PC-ACK arrived (None once done)
    ackers: set[int] | None = field(default_factory=set)
    #: participants whose yes vote (voting), then whose ack (preparing,
    #: for the families that wait for every ack) is still awaited
    #: (None once done)
    waiting: set[int] | None = field(default_factory=set)
    #: the vote window's timer, then the ack window's (each fires the
    #: round's next step); registered here and nowhere else
    vote_window: "EventHandle | None" = None
    ack_window: "EventHandle | None" = None
    #: the running ack tally of the quorum engine: what each part of
    #: its rule's commit predicate still lacks (None once done)
    tally: Any = None

    def armed(self) -> bool:
        """Is the round open with its current window still pending?"""
        window = self.ack_window if self.ack_window is not None else self.vote_window
        return self.phase != "done" and window is not None and window.active

    def cancel_windows(self) -> None:
        """Cancel both windows (a crash or a forced leave)."""
        for window in (self.vote_window, self.ack_window):
            if window is not None:
                window.cancel()


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------


class CommitProtocolEngine(ElectionMixin):
    """One site's commit + termination protocol instance.

    As it stands, Skeen's quorum commit protocol [16] (``skq``): the
    3PC flow, committing once every participant has acked and electing
    a terminator when the ack window closes short.  A subclass changes
    the commit point through :meth:`_all_voted_yes`,
    :meth:`_on_ack_progress` and :meth:`_on_ack_timeout`; everything
    else — participant state machine, decision handling, termination,
    election — is shared and driven by the :class:`TerminationRule`.
    """

    #: message kind -> name of the method handling ``<family>.<kind>``
    HANDLERS: ClassVar[Mapping[str, str]] = {
        "vote-req": "_on_vote_req",
        "vote": "_on_vote",
        "prepare": "_on_prepare",
        "ack": "_on_prepare_ack",
        "commit": "_on_command",
        "abort": "_on_command",
        "t.state-req": "_on_term_state_req",
        "t.state": "_on_term_state",
        "t.ptc": "_on_term_prepare",
        "t.pta": "_on_term_prepare",
        "t.pc-ack": "_on_term_ack",
        "t.pa-ack": "_on_term_ack",
        "t.blocked": "_on_term_blocked",
    }

    def __init__(
        self,
        node: "Node",
        wal: WriteAheadLog,
        catalog: "ReplicaCatalog",
        epochs: Mapping[int, "ReplicaCatalog"],
        rule: TerminationRule,
        family: str,
        hooks: ProtocolHooks | None = None,
        enforce_ignore_rules: bool = True,
    ) -> None:
        """Create the engine; its handlers bind on first delivery.

        Args:
            node: the site's network actor.
            wal: the site's write-ahead log.
            catalog: the current replica catalog: new transactions
                start in its epoch.  The owner swaps in the next one.
            epochs: every catalog a transaction here may have started
                in, by epoch (the vote oracle); the owner adds to it.
            rule: termination decision logic for this protocol family.
            family: the message-type namespace: the protocol's name.
            hooks: database-layer callbacks (default: vote yes, no-op).
            enforce_ignore_rules: when False, participants respond to
                PREPARE-TO-COMMIT in PA and PREPARE-TO-ABORT in PC —
                the deliberately broken variant of Example 3.  Never
                disable outside that experiment.
        """
        self.node = node
        self.wal = wal
        self.catalog = catalog
        self.epochs = epochs
        self.rule = rule
        #: message kind -> full message type ``"<family>.<kind>"``:
        #: what every send reads
        self.mtypes, handler_table = message_tables(family)
        self.hooks = hooks or ProtocolHooks()
        self.enforce_ignore_rules = enforce_ignore_rules
        self._records: dict[str, TxnRecord] = {}
        #: the records not yet decided, in creation order (live view;
        #: the engine keeps it, everyone else only reads it)
        self.undecided: dict[str, TxnRecord] = {}
        self._rounds: dict[str, _CoordinationRound] = {}
        self._term_attempt_counter = 0
        #: the connectivity epoch of this engine's last :meth:`kick`
        self._kicked_in = 0
        self._T = node.network.T
        self._tracer = node.network.tracer
        self._scheduler = node.network.scheduler
        self._eps = 1e-6 * self._T
        node.bind_on_delivery(self, handler_table)

    # -- small helpers ---------------------------------------------------------

    def record(self, txn: str) -> TxnRecord | None:
        """The participant record for ``txn`` at this site, if any."""
        return self._records.get(txn)

    def records(self) -> dict[str, TxnRecord]:
        """All participant records at this site (live view)."""
        return self._records

    def open_rounds(self) -> list[str]:
        """Transactions this site coordinates whose vote or ack window
        is still armed."""
        return [txn for txn, round_ in self._rounds.items() if round_.armed()]

    def _add_record(self, record: TxnRecord) -> TxnRecord:
        """Register a record built in its starting state."""
        self._records[record.txn] = record
        if not record.decided:
            self.undecided[record.txn] = record
        return record

    @property
    def site(self) -> int:
        """This engine's site id."""
        return self.node.node_id

    def _transition(self, record: TxnRecord, dst: TxnState, via: str) -> None:
        src = record.state
        if src is dst:
            return
        if (src, dst) not in LEGAL_TRANSITIONS:
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
            self._scheduler,
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
        writes: dict[str, tuple[Any, int]],
        participants: list[int],
    ) -> None:
        """Start the commit procedure for a transaction at this site.

        Both arguments are taken as they are, not copied: the round,
        the begin row, the vote-req and every participant's record
        share them, so the caller hands over a mapping and a list that
        nothing writes to afterwards (:meth:`InteractiveTransaction.submit
        <repro.db.transactions.InteractiveTransaction.submit>` builds
        both per transaction).  The round keeps them, its phase and its
        windows once it is done.

        Args:
            txn: transaction id.
            writes: item -> (new value, new version).
            participants: the sites to involve, sorted: the hosts of
                the writeset copies the transaction writes (the paper's
                "all sites which contain data items to be updated") and
                the sites it holds read locks at.
        """
        catalog = self.catalog
        round_ = _CoordinationRound(txn, writes, participants, catalog, waiting=set(participants))
        self._rounds[txn] = round_
        # the coordinator's begin record makes the commit attempt itself
        # durable, so a recovered coordinator knows which transactions it
        # left in flight (classical 2PC recovery depends on this).
        self.wal.begin(txn, writes, participants, self.site, catalog.epoch, role="coordinator")
        self.node.trace("coord-begin", txn, participants=participants, items=sorted(writes))
        self.node.multicast(
            participants,
            self.mtypes["vote-req"],
            txn,
            writes=writes,
            participants=participants,
            coordinator=self.site,
            epoch=catalog.epoch,
        )
        sched = self._scheduler
        round_.vote_window = sched.call_at(
            sched.now + 2 * self._T + self._eps, self._vote_window_closed, txn, label="vote-window"
        )

    def _vote_window_closed(self, txn: str) -> None:
        round_ = self._rounds.get(txn)
        if round_ is None or round_.phase != "voting":
            return
        # a no vote decides at once, so the voters not yet heard from
        # are exactly the ones still awaited
        waiting = round_.waiting
        missing = [s for s in round_.participants if s in waiting]
        self.node.trace("coord-vote-timeout", txn, missing=missing)
        self._coord_decide(round_, "abort")

    def _on_vote(self, msg: Message) -> None:
        round_ = self._rounds.get(msg.txn)
        if round_ is None or round_.phase != "voting":
            return
        if not msg.payload["yes"]:
            self._coord_decide(round_, "abort")
            return
        waiting = round_.waiting
        waiting.discard(msg.src)
        if not waiting:
            round_.phase = "preparing"
            self._all_voted_yes(round_)

    def _all_voted_yes(self, round_: _CoordinationRound) -> None:
        """Continue after a unanimous yes vote: run the prepare round,
        awaiting every participant's ack."""
        round_.waiting = set(round_.participants)
        self._send_prepare(round_)

    def _send_prepare(self, round_: _CoordinationRound) -> None:
        """Broadcast PREPARE(-TO-COMMIT) and open the ack window."""
        self.node.multicast(round_.participants, self.mtypes["prepare"], round_.txn)
        sched = self._scheduler
        round_.ack_window = sched.call_at(
            sched.now + 2 * self._T + self._eps,
            self._ack_window_closed,
            round_.txn,
            label="ack-window",
        )

    def _on_prepare_ack(self, msg: Message) -> None:
        round_ = self._rounds.get(msg.txn)
        if round_ is None or round_.phase != "preparing":
            return
        ackers = round_.ackers
        if msg.src in ackers:
            return  # a repeated ack changes nothing
        ackers.add(msg.src)
        self._on_ack_progress(round_, msg.src)

    def _on_ack_progress(self, round_: _CoordinationRound, acker: int) -> None:
        """``acker``'s first PC-ACK was just added to ``round_.ackers``:
        commit once every participant has acked."""
        waiting = round_.waiting
        waiting.discard(acker)
        if not waiting:
            self._coord_decide(round_, "commit")

    def _ack_window_closed(self, txn: str) -> None:
        round_ = self._rounds.get(txn)
        if round_ is None or round_.phase != "preparing":
            return
        self.node.trace(
            "coord-ack-timeout",
            round_.txn,
            missing=[s for s in round_.participants if s not in round_.ackers],
        )
        self._on_ack_timeout(round_)

    def _on_ack_timeout(self, round_: _CoordinationRound) -> None:
        """The ack window closed short of the commit point: fall to the
        termination protocol (its quorums decide)."""
        self.start_election(round_.txn)

    def _coord_decide(self, round_: _CoordinationRound, outcome: str) -> None:
        """Coordinator reaches a decision and broadcasts the command."""
        if round_.phase == "done":
            return
        round_.phase = "done"
        # nothing reads a done round's tallies
        round_.ackers = round_.waiting = round_.tally = None
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
        self.node.multicast(round_.participants, self.mtypes[outcome], round_.txn)

    # ==========================================================================
    # participant side: the Fig. 6 state machine
    # ==========================================================================

    def _on_vote_req(self, msg: Message) -> None:
        if msg.txn in self._records:
            return  # duplicate vote-req
        record = self._record_from_payload(msg.txn, msg.payload)
        self.wal.begin(msg.txn, record.writes, record.participants, record.coordinator, record.epoch)
        yes = self.hooks.vote(msg.txn, record.writes)
        self.wal.vote(msg.txn, yes)
        if yes:
            self._transition(record, TxnState.W, via="vote-yes")
            self.node.send(record.coordinator, self.mtypes["vote"], msg.txn, yes=True)
            self._arm_watchdog(record)
        else:
            self.node.send(record.coordinator, self.mtypes["vote"], msg.txn, yes=False)
            self._decide(record, "abort", via="vote-no")

    def _record_from_payload(
        self, txn: str, payload: Mapping[str, Any], state: TxnState = TxnState.Q
    ) -> TxnRecord:
        # the write set and participant list as sent: the sender's,
        # shared, not copied
        return self._add_record(
            TxnRecord(
                txn=txn,
                coordinator=payload["coordinator"],
                participants=payload["participants"],
                writes=payload["writes"],
                epoch=payload["epoch"],
                state=state,
            )
        )

    def _on_prepare(self, msg: Message) -> None:
        record = self._records.get(msg.txn)
        if record is None:
            return
        if record.state is TxnState.W:
            self.wal.pc(msg.txn)
            self._transition(record, TxnState.PC, via="prepare")
            self.node.send(msg.src, self.mtypes["ack"], msg.txn)
            self._arm_watchdog(record)
        elif record.state is TxnState.PC:
            self.node.send(msg.src, self.mtypes["ack"], msg.txn)  # idempotent re-ack
        # PA / decided: ignore (the Fig. 6 no-PC<->PA rule)

    def _on_command(self, msg: Message) -> None:
        """COMMIT or ABORT, from a coordinator or a terminator."""
        record = self._records.get(msg.txn)
        if record is None:
            return
        outcome = "commit" if msg.mtype == self.mtypes["commit"] else "abort"
        self._decide(record, outcome, via=f"command-from-{msg.src}")

    def _decide(self, record: TxnRecord, outcome: str, via: str) -> None:
        """Terminate the transaction locally (idempotent, irrevocable).

        A *conflicting* command (COMMIT after a local ABORT or vice
        versa) is recorded as a ``decision-conflict`` trace event and
        otherwise ignored: the first decision stands.  Correct
        protocols never produce conflicts; the deliberately broken
        variants of Examples 2 and 3 do, and the analysis layer counts
        these events as atomicity violations.
        """
        wanted = OUTCOME_STATE[outcome]
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
        self.undecided.pop(record.txn, None)
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
        """Phase 1: poll every reachable participant for its local state.

        A coordinator that holds no copy is polled too: it may have
        logged the decision whose commands never arrived.
        """
        record = self._records.get(txn)
        if record is None or record.decided:
            return
        record.terminating = True
        self._term_attempt_counter += 1
        record.term_attempt = self._term_attempt_counter
        record.term_states = {}
        record.term_supporters = set()
        record.term_round = None
        polled = record.participants
        if record.coordinator not in polled:
            polled = [*polled, record.coordinator]
        reachable = self.node.network.reachable_from(self.site, polled)
        self.node.trace(
            "term-phase1", txn, attempt=record.term_attempt, polled=reachable
        )
        self.node.multicast(
            reachable,
            self.mtypes["t.state-req"],
            txn,
            attempt=record.term_attempt,
            coordinator=self.site,
            writes=record.writes,
            participants=record.participants,
            epoch=record.epoch,
        )
        record.set_timer(
            self._scheduler,
            2 * self._T + self._eps,
            self._term_phase2,
            txn,
            record.term_attempt,
            label="term-phase1",
        )

    def _on_term_state_req(self, msg: Message) -> None:
        record = self._records.get(msg.txn)
        if record is None and self.site not in msg.payload["participants"]:
            # the transaction's coordinator, holding no copy: it answers
            # with the decision it logged, and stays silent until then
            decision = self.wal.decision(msg.txn)
            if decision is not None:
                self.node.send(
                    msg.src,
                    self.mtypes["t.state"],
                    msg.txn,
                    attempt=msg.payload["attempt"],
                    state=OUTCOME_STATE[decision]._name_,
                )
            return
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
            decision = self.wal.participant_decision(msg.txn)
            if decision is not None:
                record = self._record_from_payload(msg.txn, msg.payload, OUTCOME_STATE[decision])
            else:
                record = self._record_from_payload(msg.txn, msg.payload)
                self.wal.begin(
                    msg.txn, record.writes, record.participants, record.coordinator, record.epoch
                )
        self.node.send(
            msg.src,
            self.mtypes["t.state"],
            msg.txn,
            attempt=msg.payload["attempt"],
            state=record.state._name_,
        )
        if not record.decided:
            self._arm_watchdog(record)

    def _on_term_state(self, msg: Message) -> None:
        record = self._records.get(msg.txn)
        if record is None or not record.terminating:
            return
        if msg.payload["attempt"] != record.term_attempt:
            return  # stale attempt
        record.term_states[msg.src] = _STATE_BY_NAME[msg.payload["state"]]

    def _term_phase2(self, txn: str, attempt: int) -> None:
        record = self._records.get(txn)
        if record is None or record.decided or record.term_attempt != attempt:
            return
        states = dict(record.term_states)
        decision = self.rule.evaluate(
            record.items, states, participants=record.participants, catalog=self.epochs[record.epoch]
        )
        self.node.trace(
            "term-phase2",
            txn,
            attempt=attempt,
            decision=decision.value,
            states={s: st._name_ for s, st in sorted(states.items())},
        )
        if decision is Decision.COMMIT:
            self._term_command(record, "commit")
        elif decision is Decision.ABORT:
            self._term_command(record, "abort")
        elif decision is Decision.BLOCK:
            self._term_block(record)
        else:
            # phase 3: one round, in the direction the rule chose
            round_ = _COMMIT_ROUND if decision is Decision.TRY_COMMIT else _ABORT_ROUND
            record.term_round = round_
            record.term_supporters = {s for s, st in states.items() if st is round_.state}
            wait_sites = [s for s, st in states.items() if st is TxnState.W]
            self.node.multicast(wait_sites, self.mtypes[round_.prepare], txn, attempt=record.term_attempt)
            record.set_timer(
                self._scheduler,
                2 * self._T + self._eps,
                self._term_round_closed,
                txn,
                record.term_attempt,
                label="term-round",
            )

    def _on_term_prepare(self, msg: Message) -> None:
        """PREPARE-TO-COMMIT or PREPARE-TO-ABORT from a terminator."""
        record = self._records.get(msg.txn)
        if record is None or record.decided:
            return
        round_ = _COMMIT_ROUND if msg.mtype == self.mtypes["t.ptc"] else _ABORT_ROUND
        state = record.state
        if state is round_.ignored_in and self.enforce_ignore_rules:
            # "A participant should ignore PREPARE-TO-COMMIT messages if
            # it is in PA state and PREPARE-TO-ABORT messages if it is in
            # PC state" — the rule Example 3 shows is essential.
            self.node.trace("ignored", msg.txn, mtype=round_.prepare, state=state._name_)
            return
        if state not in (TxnState.W, TxnState.PC, TxnState.PA):
            return  # Q never voted; it must not enter a committable state
        if state is not round_.state:
            if round_ is _COMMIT_ROUND:
                self.wal.pc(msg.txn)
            else:
                self.wal.pa(msg.txn)
            self._transition(record, round_.state, via=f"{round_.prepare}-from-{msg.src}")
        self.node.send(msg.src, self.mtypes[round_.ack], msg.txn, attempt=msg.payload["attempt"])
        self._arm_watchdog(record)

    def _on_term_ack(self, msg: Message) -> None:
        """A PC-ACK or PA-ACK: a supporter of this attempt's round, if
        it is of the round's kind."""
        record = self._records.get(msg.txn)
        if record is None or not record.terminating:
            return
        round_ = record.term_round
        if (
            round_ is None
            or msg.mtype != self.mtypes[round_.ack]
            or msg.payload["attempt"] != record.term_attempt
        ):
            return
        record.term_supporters.add(msg.src)

    def _term_round_closed(self, txn: str, attempt: int) -> None:
        record = self._records.get(txn)
        if record is None or record.decided or record.term_attempt != attempt:
            return
        supporters = set(record.term_supporters)
        round_ = record.term_round
        holds = self.rule.commits if round_ is _COMMIT_ROUND else self.rule.aborts
        ok = holds(record.items, supporters, record.participants, self.epochs[record.epoch])
        self.node.trace(
            "term-phase3",
            txn,
            attempt=attempt,
            mode=round_.mode,
            supporters=sorted(supporters),
            quorum=ok,
        )
        if ok:
            self._term_command(record, round_.outcome)
        else:
            # "else start the election protocol" (Fig. 5) — additional
            # failures happened during the round; re-enter.
            record.terminating = False
            self.start_election(txn)

    def _term_command(self, record: TxnRecord, outcome: str) -> None:
        """Send the final command to every reachable participant."""
        reachable = self.node.network.reachable_from(self.site, record.participants)
        self.node.trace("term-decision", record.txn, outcome=outcome, informed=reachable)
        self.node.multicast(reachable, self.mtypes[outcome], record.txn)
        record.terminating = False

    def _term_block(self, record: TxnRecord) -> None:
        """No quorum is possible in this partition: block the transaction."""
        record.blocked = True
        record.terminating = False
        record.cancel_timer("watchdog")
        record.cancel_timer("elect-defer-watchdog")
        self.node.trace("blocked", record.txn, reason="no-quorum")
        network = self.node.network
        reachable = network.reachable_from(self.site, record.participants)
        self.node.broadcast(reachable, self.mtypes["t.blocked"], record.txn, epoch=network.epoch)

    def _on_term_blocked(self, msg: Message) -> None:
        record = self._records.get(msg.txn)
        if record is None or record.decided:
            return
        if msg.payload["epoch"] < self._kicked_in:
            # the notice judged a connectivity that changed before it
            # arrived: that change's kick re-armed this record, and no
            # later kick would undo a block taken on the stale verdict
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
        self.cancel_timers()
        self._records.clear()
        self.undecided.clear()
        self._rounds.clear()

    def cancel_timers(self) -> None:
        """Cancel every timer this engine armed: each record's and each
        coordination round's windows.  The engine is their only
        registry, so a crash and a forced leave cancel them here."""
        for record in self._records.values():
            record.cancel_all_timers()
        for round_ in self._rounds.values():
            round_.cancel_windows()

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
        for txn, role, writes, participants, coordinator, epoch in self.wal.begins():
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
                state = OUTCOME_STATE[decision]
            else:
                state = undecided.get(txn, TxnState.Q)
            record = self._add_record(
                TxnRecord(
                    txn=txn,
                    coordinator=coordinator,
                    participants=list(participants),
                    writes=dict(writes),
                    epoch=epoch,
                    state=state,
                )
            )
            if not record.decided:
                recovered.append(txn)
                self._arm_watchdog(record)
        for txn, (writes, participants) in coordinated.items():
            decision = self.wal.decision(txn)
            if decision is not None:
                # the decision may not have reached everyone; re-announce
                # (participants absorb duplicates idempotently)
                self.node.trace("coord-recovery", txn, rebroadcast=decision)
                self.node.multicast(participants, self.mtypes[decision], txn)
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
        rest in the new connectivity epoch.  Visits only the undecided
        records: a kick costs what is in doubt here, not the history.
        """
        self._kicked_in = self.node.network.epoch
        for record in self.undecided.values():
            record.blocked = False
            record.election_rounds = 0
            record.terminating = False
            # orphan the pending phase timers of a stale attempt: they
            # compare against term_attempt and will no-op
            self._term_attempt_counter += 1
            record.term_attempt = self._term_attempt_counter
            self._arm_watchdog(record, factor=1.0)

    def retry_blocked(self) -> None:
        """A slow site was restored: retry termination for the blocked
        transactions only.

        A termination attempt that heard the slow site's state too late
        blocks as if that site were cut off; restoring its latency is
        the repair the block waits for, as a heal is for a partition.
        Nothing else changed, so nothing else is re-armed.
        """
        for record in self.undecided.values():
            if record.blocked:
                record.blocked = False
                record.election_rounds = 0
                self._arm_watchdog(record, factor=1.0)


@functools.cache
def message_tables(family: str) -> tuple[Mapping[str, str], Mapping[str, str]]:
    """The message tables of the protocol named ``family``, built on
    the name's first use and shared by every engine of that name:
    ``kind -> "family.kind"`` for each :attr:`CommitProtocolEngine.HANDLERS`
    kind, and the handler table — each of those types, and each
    election type, to the name of the method that handles it.  The
    tables are shared: nothing writes to them."""
    handlers = CommitProtocolEngine.HANDLERS
    mtypes = {kind: f"{family}.{kind}" for kind in handlers}
    handler_table = {
        **{mtypes[kind]: name for kind, name in handlers.items()},
        **CommitProtocolEngine.ELECTION_HANDLERS,
    }
    return mtypes, handler_table
