"""Shared primitives used by every subsystem.

This package holds the small vocabulary of the whole library: identifier
types, error hierarchy, and configuration dataclasses.  Nothing here
depends on any other ``repro`` package.
"""

from repro.common.errors import (
    ConfigurationError,
    MessageRowsOffError,
    NotSerializableError,
    ProtocolError,
    QuorumUnreachableError,
    ReproError,
    SiteDownError,
    StorageError,
    StoreError,
    TransactionAborted,
)
from repro.common.ids import SiteId, TxnId, make_txn_id

__all__ = [
    "ConfigurationError",
    "MessageRowsOffError",
    "NotSerializableError",
    "ProtocolError",
    "QuorumUnreachableError",
    "ReproError",
    "SiteDownError",
    "SiteId",
    "StorageError",
    "StoreError",
    "TransactionAborted",
    "TxnId",
    "make_txn_id",
]
