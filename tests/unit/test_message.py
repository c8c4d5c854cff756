"""Unit tests for the one message type."""

from repro.net.message import Message


class TestMessage:
    def test_message_carries_envelope_fields(self):
        payload = {"vote": "yes"}
        msg = Message(1, 7, "qtp1.vote", "T1", payload)
        assert (msg.src, msg.dst, msg.mtype, msg.txn) == (1, 7, "qtp1.vote", "T1")
        assert msg.payload is payload  # shared across a fan-out, never copied

    def test_txn_and_payload_default_to_empty(self):
        a = Message(1, 2, "x.y")
        b = Message(1, 2, "x.y", payload=None)
        assert (a.txn, a.payload) == ("", {})
        assert b.payload == {} and b.payload is not a.payload
