"""Quorum predicates of the paper's termination protocols (Figs. 5, 8).

Both rules evaluate *data-item* votes: "at least w(x) votes for every
data item x in W(TR) from participants in PC state" and its variants.
The helper :func:`votes_by_state` partitions the polled sites by their
reported local state; everything else is vote arithmetic against the
:class:`~repro.replication.catalog.ReplicaCatalog`.

Decision tables, in the exact top-to-bottom order of the prototypes:

**Termination protocol 1 (Fig. 5)**

1. COMMIT  — (>= 1 commit state) or (>= w(x) votes ∀x from PC sites)
2. ABORT   — (>= 1 abort or initial state) or (>= r(x) votes ∃x from PA sites)
3. TRY_COMMIT — (∃ PC site) and (>= w(x) votes ∀x from sites not in PA)
4. TRY_ABORT  — (>= r(x) votes ∃x from sites not in PC)
5. BLOCK
   Round conditions: commit round needs >= w(x) ∀x from PC-repliers +
   PC-ACKers; abort round needs >= r(x) ∃x from PA-repliers + PA-ACKers.

**Termination protocol 2 (Fig. 8)** — the same skeleton with the
read/write thresholds swapped:

1. COMMIT  — (>= 1 commit state) or (>= r(x) votes ∃x from PC sites)
2. ABORT   — (>= 1 abort or initial state) or (>= w(x) votes ∀x from PA sites)
3. TRY_COMMIT — (∃ PC site) and (>= r(x) votes ∃x from sites not in PA)
4. TRY_ABORT  — (>= w(x) votes ∀x from sites not in PC)
5. BLOCK
   Round conditions: commit round >= r(x) ∃x; abort round >= w(x) ∀x.

Why this is safe (the intuition behind Lemmas 1 and 2): in rule 1, a
commit quorum locks up w(x) votes of every item in PC, and since
``r(x) + w(x) > v(x)`` no other partition can ever gather r(x) votes
for any item from non-PC sites — the abort conditions become
unsatisfiable everywhere, forever.  Rule 2 trades the thresholds the
other way around; ``2 w(x) > v(x)`` makes two concurrent *abort*
quorums harmless (several abort quorums may form — they agree).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.protocols.base import Decision, TerminationRule
from repro.protocols.states import TxnState
from repro.replication.catalog import ReplicaCatalog


def votes_by_state(
    states: Mapping[int, TxnState],
) -> dict[TxnState, set[int]]:
    """Group the polled sites by their reported local state."""
    groups: dict[TxnState, set[int]] = {}
    for site, state in states.items():
        groups.setdefault(state, set()).add(site)
    return groups


class _QtpRuleBase(TerminationRule):
    """Shared plumbing of the two rules: vote tests in the catalog of
    the transaction's epoch (the engine passes it with every call)."""

    # -- threshold predicates over a site set --------------------------------

    @staticmethod
    def _w_all(catalog: ReplicaCatalog, items: list[str], sites: Iterable[int]) -> bool:
        """>= w(x) votes for *every* item x from ``sites``."""
        site_set = set(sites)
        return bool(items) and all(
            catalog.votes(x, site_set) >= catalog.w(x) for x in items
        )

    @staticmethod
    def _r_some(catalog: ReplicaCatalog, items: list[str], sites: Iterable[int]) -> bool:
        """>= r(x) votes for *some* item x from ``sites``."""
        site_set = set(sites)
        return any(catalog.votes(x, site_set) >= catalog.r(x) for x in items)


class TerminationRule1(_QtpRuleBase):
    """Termination protocol 1 (Fig. 5)."""

    name = "qtp-termination-1"

    def evaluate(
        self,
        items: list[str],
        states: Mapping[int, TxnState],
        participants: Iterable[int] | None = None,
        catalog: ReplicaCatalog | None = None,
    ) -> Decision:
        if not states:
            return Decision.BLOCK
        groups = votes_by_state(states)
        pc = groups.get(TxnState.PC, set())
        pa = groups.get(TxnState.PA, set())
        if TxnState.C in groups or self._w_all(catalog, items, pc):
            return Decision.COMMIT
        if (
            TxnState.A in groups
            or TxnState.Q in groups
            or self._r_some(catalog, items, pa)
        ):
            return Decision.ABORT
        not_pa = set(states) - pa
        if pc and self._w_all(catalog, items, not_pa):
            return Decision.TRY_COMMIT
        not_pc = set(states) - pc
        if self._r_some(catalog, items, not_pc):
            return Decision.TRY_ABORT
        return Decision.BLOCK

    def commit_round_ok(
        self, items: list[str], supporters: Iterable[int], participants=None, catalog=None
    ) -> bool:
        return self._w_all(catalog, items, supporters)

    def abort_round_ok(
        self, items: list[str], supporters: Iterable[int], participants=None, catalog=None
    ) -> bool:
        return self._r_some(catalog, items, supporters)


class TerminationRule2(_QtpRuleBase):
    """Termination protocol 2 (Fig. 8) — thresholds swapped."""

    name = "qtp-termination-2"

    def evaluate(
        self,
        items: list[str],
        states: Mapping[int, TxnState],
        participants: Iterable[int] | None = None,
        catalog: ReplicaCatalog | None = None,
    ) -> Decision:
        if not states:
            return Decision.BLOCK
        groups = votes_by_state(states)
        pc = groups.get(TxnState.PC, set())
        pa = groups.get(TxnState.PA, set())
        if TxnState.C in groups or self._r_some(catalog, items, pc):
            return Decision.COMMIT
        if (
            TxnState.A in groups
            or TxnState.Q in groups
            or self._w_all(catalog, items, pa)
        ):
            return Decision.ABORT
        not_pa = set(states) - pa
        if pc and self._r_some(catalog, items, not_pa):
            return Decision.TRY_COMMIT
        not_pc = set(states) - pc
        if self._w_all(catalog, items, not_pc):
            return Decision.TRY_ABORT
        return Decision.BLOCK

    def commit_round_ok(
        self, items: list[str], supporters: Iterable[int], participants=None, catalog=None
    ) -> bool:
        return self._r_some(catalog, items, supporters)

    def abort_round_ok(
        self, items: list[str], supporters: Iterable[int], participants=None, catalog=None
    ) -> bool:
        return self._w_all(catalog, items, supporters)
