"""Deterministic synthetic content materialization."""

import hashlib

import pytest

from repro.core.fingerprint import synthetic_fingerprint
from repro.workload.content import synthetic_content


class TestSyntheticContent:
    def test_exact_length(self):
        for size in (0, 1, 63, 64, 65, 10_000, 1 << 20):
            assert len(synthetic_content(7, size)) == size
        assert synthetic_content(7, 0) == b""

    def test_deterministic(self):
        assert synthetic_content(3, 500) == synthetic_content(3, 500)

    def test_different_identities_different_bytes(self):
        assert synthetic_content(1, 500) != synthetic_content(2, 500)

    def test_same_identity_other_size_is_another_stream(self):
        """The size is part of the identity: a shorter version of a content
        is different bytes, not the longer one truncated."""
        short, long = synthetic_content(4, 500), synthetic_content(4, 501)
        assert short != long[:500]
        assert not long.startswith(short)

    def test_golden_construction(self):
        """SHAKE-256 over ``b"synthetic-content:<size>:<id>"``.  No
        simulated statistic depends on these bytes; changing how they are
        made should still be a decision someone sees."""
        assert synthetic_content(7, 16).hex() == "cb7a75a7788974b67cc7108db22ce487"
        assert hashlib.sha256(synthetic_content(7, 4096)).hexdigest() == (
            "ed3887244c36ba7a7ee11b08481b6a2aec73d4ea1b2b7bef35f399f9baea860d"
        )

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            synthetic_content(1, -1)

    def test_bytes_look_random(self):
        data = synthetic_content(9, 4096)
        assert len(set(data)) > 200  # all byte values appear


class TestConsistencyWithFingerprints:
    def test_same_identity_same_fingerprint_same_bytes(self):
        """The abstract corpus and the materialized bytes must agree:
        identical (size, content_id) means identical fingerprints AND
        identical blobs."""
        a_fp = synthetic_fingerprint(1000, 5)
        b_fp = synthetic_fingerprint(1000, 5)
        assert a_fp == b_fp
        assert synthetic_content(5, 1000) == synthetic_content(5, 1000)
