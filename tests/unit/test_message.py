"""Unit tests for the in-flight message stamp."""

from repro.net.message import Message, MessageStamp


class TestMessageStamp:
    def test_stamp_carries_envelope_fields(self):
        payload = {"vote": "yes"}
        stamp = MessageStamp(1, 7, "qtp1.vote", "T1", payload)
        assert stamp.src == 1
        assert stamp.dst == 7
        assert stamp.mtype == "qtp1.vote"
        assert stamp.txn == "T1"
        assert stamp.payload is payload  # shared across a fan-out, never copied

    def test_msg_ids_unique_and_from_shared_counter(self):
        a = MessageStamp(1, 2, "a.b", "", {})
        message = Message(1, 3, "a.b")
        b = MessageStamp(1, 4, "a.b", "", {})
        # stamps and full messages draw from the same counter, in order
        assert a.msg_id < message.msg_id < b.msg_id

    def test_family_matches_message(self):
        stamp = MessageStamp(1, 2, "qtp1.t.state", "T", {})
        assert stamp.family == Message(1, 2, "qtp1.t.state", "T").family

    def test_str_matches_message(self):
        payload = {"k": 1}
        stamp = MessageStamp(1, 2, "a.b", "T9", payload)
        assert str(stamp) == str(Message(1, 2, "a.b", "T9", payload))

    def test_stamp_duck_types_message_attribute_set(self):
        # every attribute the network / tracer / handlers read off a
        # Message must exist on a stamp
        stamp = MessageStamp(1, 2, "a.b", "T", {})
        for name in ("src", "dst", "mtype", "txn", "payload", "msg_id", "family"):
            assert hasattr(stamp, name), name
