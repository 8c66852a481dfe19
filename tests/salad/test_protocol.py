"""The SALAD wire-protocol vocabulary."""

from repro.salad import protocol
from repro.salad.protocol import ALL_KINDS, JoinPayload, MatchPayload
from repro.core.fingerprint import synthetic_fingerprint


class TestVocabulary:
    def test_all_kinds_enumerated(self):
        assert set(ALL_KINDS) == {
            "record",
            "record_batch",
            "join",
            "welcome",
            "welcome_ack",
            "leaf_request",
            "leaf_response",
            "departure",
            "refresh",
            "match",
            "match_batch",
        }

    def test_kinds_are_distinct(self):
        assert len(set(ALL_KINDS)) == len(ALL_KINDS)

    def test_leaf_handles_every_kind(self):
        """Every protocol kind must have a registered handler on a leaf."""
        from repro.salad.leaf import SaladLeaf
        from repro.sim.events import EventScheduler
        from repro.sim.network import Network

        leaf = SaladLeaf(1, Network(EventScheduler()))
        for kind in ALL_KINDS:
            assert kind in leaf._handlers, kind


class TestPayloads:
    def test_join_payload_is_hashable(self):
        a = JoinPayload(sender=1, new_leaf=2)
        b = JoinPayload(sender=1, new_leaf=2)
        assert a == b and hash(a) == hash(b)

    def test_match_payload_carries_fingerprint(self):
        fp = synthetic_fingerprint(100, 1)
        payload = MatchPayload(fingerprint=fp, other_machine=9)
        assert payload.fingerprint.size == 100
        assert payload.other_machine == 9
