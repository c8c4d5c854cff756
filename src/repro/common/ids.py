"""Identifier types.

Sites are identified by small integers (the paper writes ``site1`` ...
``site8``); transactions by opaque strings.  Keeping these as plain
builtin types keeps every dataclass hashable and trivially serializable,
but the aliases below document intent at call sites.
"""

from __future__ import annotations

SiteId = int
TxnId = str


def make_txn_id(origin: SiteId, counter: int) -> TxnId:
    """Build a globally unique transaction identifier.

    The id embeds the originating site so that ids minted concurrently at
    different sites can never collide, mirroring the usual
    ``<site, local-sequence>`` construction in distributed databases.

    Args:
        origin: site where the transaction was issued.
        counter: the issuer's local sequence number.

    Returns:
        A string such as ``"T3.17"`` (transaction 17 issued at site 3).
    """
    return f"T{origin}.{counter}"
