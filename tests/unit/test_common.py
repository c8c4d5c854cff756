"""Unit tests for the common primitives (ids, errors)."""

import pytest

from repro.common.errors import (
    QuorumUnreachableError,
    ReproError,
    TransactionAborted,
)
from repro.common.ids import make_txn_id


class TestIds:
    def test_embeds_origin_and_counter(self):
        assert make_txn_id(3, 17) == "T3.17"

    def test_counter_is_required(self):
        with pytest.raises(TypeError):
            make_txn_id(3)

    def test_different_origins_never_collide(self):
        assert make_txn_id(1, 5) != make_txn_id(2, 5)


class TestErrors:
    def test_hierarchy(self):
        for exc_type in (TransactionAborted, QuorumUnreachableError):
            assert issubclass(exc_type, ReproError)

    def test_transaction_aborted_carries_context(self):
        exc = TransactionAborted("T1", "lock conflict")
        assert exc.txn_id == "T1"
        assert "lock conflict" in str(exc)

    def test_transaction_aborted_default_reason(self):
        assert "unspecified" in str(TransactionAborted("T1"))

    def test_quorum_error_carries_accounting(self):
        exc = QuorumUnreachableError("x", "read", gathered=1, needed=2)
        assert (exc.item, exc.kind, exc.gathered, exc.needed) == ("x", "read", 1, 2)
        assert "1 of 2" in str(exc)

    def test_catching_base_class(self):
        with pytest.raises(ReproError):
            raise QuorumUnreachableError("x", "write", 0, 3)
