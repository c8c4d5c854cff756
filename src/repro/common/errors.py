"""Error hierarchy for the whole library.

Every exception raised by ``repro`` derives from :class:`ReproError` so
applications can catch one base class.  Exceptions are used for genuine
error conditions only; expected protocol outcomes (a transaction being
blocked by the termination protocol, for instance) are modelled as
explicit result values in the protocol engines, *not* exceptions —
blocking is a normal, paper-mandated outcome, and the analysis layer
needs to observe it rather than unwind.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by this library."""


class ConfigurationError(ReproError):
    """A cluster / vote / protocol configuration violates an invariant.

    Raised eagerly at construction time: e.g. a Gifford vote assignment
    with ``r(x) + w(x) <= v(x)`` or ``2 * w(x) <= v(x)``, a replica
    placed on an unknown site, or a commit protocol asked to run a
    transaction with an empty writeset.
    """


class StorageError(ReproError):
    """A write-ahead-log or replica-store operation failed."""


class StoreError(ReproError, ValueError):
    """A persisted artifact (sweep result, bench baseline) is unusable.

    Raised on schema-version mismatch instead of handing back a stale
    payload the caller would misread.  Also a ``ValueError`` so callers
    that predate the dedicated class keep working.
    """


class MessageRowsOffError(ReproError, LookupError):
    """A trace query named ``send`` / ``deliver`` / ``drop`` rows on a
    tracer that kept none (a cluster built without ``message_rows=True``).

    Raised instead of answering with an empty list, which would read as
    "no message was sent".
    """

    def __init__(self, category: str) -> None:
        super().__init__(
            f"this trace keeps no {category!r} rows: build the cluster with "
            "message_rows=True (or the tracer with messages=True) to read them"
        )


class SiteDownError(ReproError):
    """An operation was attempted on a crashed site.

    The simulator raises this when test code drives a crashed site
    directly; within the simulation, messages to crashed sites are
    silently dropped (that is the network's job, not an error).
    """


class ProtocolError(ReproError):
    """An internal commit/termination protocol invariant was violated.

    Seeing this exception in a run means the implementation (or a
    deliberately broken variant used in a counterexample experiment)
    performed an illegal state transition, e.g. PC -> PA which Fig. 6 of
    the paper forbids.
    """


class TransactionAborted(ReproError):
    """Raised to a client whose transaction was aborted."""

    def __init__(self, txn_id: str, reason: str = "") -> None:
        super().__init__(f"transaction {txn_id} aborted: {reason or 'unspecified'}")
        self.txn_id = txn_id
        self.reason = reason


class QuorumUnreachableError(ReproError):
    """A read/write quorum could not be assembled in the caller's partition.

    Carries enough context for availability accounting: the item, the
    kind of quorum sought, the votes gathered and the votes needed.
    """

    def __init__(self, item: str, kind: str, gathered: int, needed: int) -> None:
        super().__init__(
            f"cannot assemble {kind} quorum for {item!r}: "
            f"gathered {gathered} of {needed} votes"
        )
        self.item = item
        self.kind = kind
        self.gathered = gathered
        self.needed = needed


class InvariantViolationError(ReproError):
    """A finished run broke one of the paper's claims.

    Raised by :func:`repro.traffic.run_scenario`, which judges every run
    it returns with :func:`repro.analysis.check_invariants`.  Carries
    the violations found, each a ``(predicate, detail)`` pair; the
    message names every one.
    """

    def __init__(self, run: str, violations: list) -> None:
        named = "; ".join(f"{predicate}: {detail}" for predicate, detail in violations)
        super().__init__(f"{run} broke {len(violations)} claim(s): {named}")
        self.violations = violations
