"""Fig. 5's decision table, written once, and the paper's two rules.

Every quorum termination rule in this library is Fig. 5's five-row
table over one pair of predicates on a set of polled sites:
``commits(sites)`` — do these sites hold the right to commit? — and
``aborts(sites)`` — the right to abort.  Both are evaluated in the
catalog of the epoch the transaction started in and against its
participant set, which the engine passes with every call:

1. COMMIT  — (>= 1 commit state) or commits(PC sites)
2. ABORT   — (>= 1 abort or initial state) or aborts(PA sites)
3. TRY_COMMIT — (∃ PC site) and commits(sites not in PA)
4. TRY_ABORT  — aborts(sites not in PC)
5. BLOCK
   Round conditions: the engine asks the same pair of a round's
   supporters — commits(PC-repliers + PC-ACKers) closes a commit
   round, aborts(PA-repliers + PA-ACKers) an abort round.

The four rules are four pairs:

==================  =========================  =========================
rule                commits(sites)             aborts(sites)
==================  =========================  =========================
1 (Fig. 5)          >= w(x) votes for every x  >= r(x) votes for some x
2 (Fig. 8)          >= r(x) votes for some x   >= w(x) votes for every x
primary copy (§5)   the primary of every x     the primary of some x
Skeen's [16]        >= Vc sites                >= Va sites
==================  =========================  =========================

The last two live in their own modules
(:mod:`repro.protocols.qtp.generalized`, :mod:`repro.protocols.skeen`).

The three data-item rules also build their commit predicate as a
:class:`QuorumTally` (:meth:`commit_tally`): the commit protocol paired
with each (:class:`~repro.protocols.qtp.commit.QuorumCommitEngine`)
folds its PC-ACKs into it and commits the moment it is met.

Why the table is safe (the intuition behind Lemmas 1 and 2), for any
pair under which two *disjoint* site sets can never satisfy
``commits`` and ``aborts`` at once — the §5 condition that two
partitions never both hold the access right.  In rule 1, a commit
quorum locks up w(x) votes of every item in PC, and since
``r(x) + w(x) > v(x)`` no other partition can ever gather r(x) votes
for any item from non-PC sites — the abort conditions become
unsatisfiable everywhere, forever.  Rule 2 trades the thresholds the
other way around; ``2 w(x) > v(x)`` makes two concurrent *abort*
quorums harmless (several abort quorums may form — they agree).
"""

from __future__ import annotations

from abc import abstractmethod
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.protocols.base import Decision, TerminationRule
from repro.protocols.states import TxnState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.replication.catalog import ReplicaCatalog


def votes_by_state(
    states: Mapping[int, TxnState],
) -> dict[TxnState, set[int]]:
    """Group the polled sites by their reported local state."""
    groups: dict[TxnState, set[int]] = {}
    for site, state in states.items():
        groups.setdefault(state, set()).add(site)
    return groups


class QuorumTally:
    """A commit predicate folded one site at a time.

    The predicate is a list of parts, each a ``(weights, threshold)``
    pair — a site's votes towards the part, and how many it needs —
    met when the sites added so far hold ``threshold`` votes of
    **every** part (``every``) or of **some** part.  No parts are never
    met.  :meth:`add` lowers what each part still lacks by the new
    site's votes; the caller adds each site once.  An ack costs the
    number of parts, never a recount over every site so far.
    """

    __slots__ = ("_weights", "_left", "_unmet", "_limit")

    def __init__(self, parts: Sequence[tuple[Mapping[int, int], int]], every: bool) -> None:
        self._weights = [weights for weights, _ in parts]
        self._left = [threshold for _, threshold in parts]
        self._unmet = sum(1 for left in self._left if left > 0)
        # met while at most this many parts are unmet: none of them
        # (every), all but one (some); -1 makes no parts never met
        self._limit = (0 if parts else -1) if every else len(parts) - 1

    def add(self, site: int) -> None:
        """Count a new site's votes."""
        left = self._left
        for index, weights in enumerate(self._weights):
            votes = weights.get(site)
            if votes:
                still = left[index]
                if still > 0:
                    left[index] = still = still - votes
                    if still <= 0:
                        self._unmet -= 1

    def met(self) -> bool:
        """Do the sites added so far satisfy the predicate?"""
        return self._unmet <= self._limit


class QuorumTerminationRule(TerminationRule):
    """Fig. 5's table over :meth:`commits` / :meth:`aborts`, the pair
    the engine also asks of a termination round's supporters.

    A subclass supplies the pair (abstract here, where the base rule
    grants both rights); ``sites`` is always a set, and
    ``participants`` / ``catalog`` are the transaction's own.
    """

    def admits(self, items, participants, catalog) -> bool:
        """Only when the participants themselves hold the commit right.
        A transaction whose participants fail :meth:`commits` could
        never commit, and once they were in PC it could not abort
        either: it would block for good, healed and up."""
        return self.commits(items, set(participants), participants, catalog)

    @abstractmethod
    def commits(self, items, sites, participants, catalog) -> bool:
        """Do ``sites`` hold the commit access right?"""

    @abstractmethod
    def aborts(self, items, sites, participants, catalog) -> bool:
        """Do ``sites`` hold the abort access right?"""

    def evaluate(
        self,
        items: list[str],
        states: Mapping[int, TxnState],
        participants: Iterable[int] | None = None,
        catalog: "ReplicaCatalog | None" = None,
    ) -> Decision:
        if not states:
            return Decision.BLOCK
        groups = votes_by_state(states)
        pc = groups.get(TxnState.PC, set())
        pa = groups.get(TxnState.PA, set())
        if TxnState.C in groups or self.commits(items, pc, participants, catalog):
            return Decision.COMMIT
        if (
            TxnState.A in groups
            or TxnState.Q in groups
            or self.aborts(items, pa, participants, catalog)
        ):
            return Decision.ABORT
        if pc and self.commits(items, set(states) - pa, participants, catalog):
            return Decision.TRY_COMMIT
        if self.aborts(items, set(states) - pc, participants, catalog):
            return Decision.TRY_ABORT
        return Decision.BLOCK


def _w_all(catalog: "ReplicaCatalog", items: list[str], sites: set[int]) -> bool:
    """>= w(x) votes for *every* item x from ``sites``."""
    return bool(items) and all(catalog.votes(x, sites) >= catalog.w(x) for x in items)


def _r_some(catalog: "ReplicaCatalog", items: list[str], sites: set[int]) -> bool:
    """>= r(x) votes for *some* item x from ``sites``."""
    return any(catalog.votes(x, sites) >= catalog.r(x) for x in items)


def _quorum_parts(
    catalog: "ReplicaCatalog", items: Iterable[str], quorum: str
) -> list[tuple[Mapping[int, int], int]]:
    """Each item's copies and its ``quorum`` threshold (an
    :class:`~repro.replication.catalog.ItemConfig` field name)."""
    return [(config.copies, getattr(config, quorum)) for config in map(catalog.item, items)]


class TerminationRule1(QuorumTerminationRule):
    """Termination protocol 1 (Fig. 5)."""

    name = "qtp-termination-1"

    def admits(self, items, participants, catalog) -> bool:
        """Every transaction: its write hosts, all participants, already
        hold w(x) votes of every written item (the commit right)."""
        return True

    def commits(self, items, sites, participants, catalog) -> bool:
        return _w_all(catalog, items, sites)

    def aborts(self, items, sites, participants, catalog) -> bool:
        return _r_some(catalog, items, sites)

    def commit_tally(self, catalog: "ReplicaCatalog", items: Iterable[str]) -> QuorumTally:
        """Commit protocol 1: w(x) votes for every x."""
        return QuorumTally(_quorum_parts(catalog, items, "write_quorum"), every=True)


class TerminationRule2(QuorumTerminationRule):
    """Termination protocol 2 (Fig. 8) — thresholds swapped."""

    name = "qtp-termination-2"

    def commits(self, items, sites, participants, catalog) -> bool:
        return _r_some(catalog, items, sites)

    def aborts(self, items, sites, participants, catalog) -> bool:
        return _w_all(catalog, items, sites)

    def commit_tally(self, catalog: "ReplicaCatalog", items: Iterable[str]) -> QuorumTally:
        """Commit protocol 2: r(x) votes for some x."""
        return QuorumTally(_quorum_parts(catalog, items, "read_quorum"), every=False)
