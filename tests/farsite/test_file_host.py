"""File hosts: encrypted replica storage with SIS coalescing."""

import random

import pytest

from repro.core.convergent import convergent_encrypt
from repro.farsite.file_host import FileHost

DOCUMENT = b"shared document body " * 50


@pytest.fixture
def host():
    return FileHost(machine_identifier=0xABC)


def encrypt_for(user_name, user, rng_seed=0):
    return convergent_encrypt(
        DOCUMENT, {user_name: user.public_key}, rng=random.Random(rng_seed)
    )


class TestStorage:
    def test_store_and_fetch(self, host, alice):
        ciphertext = encrypt_for("alice", alice)
        assert not host.store_replica("f1", ciphertext)
        fetched = host.fetch_replica("f1")
        assert fetched.data == ciphertext.data
        assert dict(fetched.metadata) == dict(ciphertext.metadata)

    def test_cross_user_replicas_coalesce(self, host, alice, bob):
        """The point of convergent encryption: different users' encryptions
        of the same plaintext coalesce on an untrusted host."""
        host.store_replica("alice-file", encrypt_for("alice", alice, 1))
        coalesced = host.store_replica("bob-file", encrypt_for("bob", bob, 2))
        assert coalesced
        assert host.sis.blob_count() == 1
        assert host.reclaimed_bytes == len(DOCUMENT)

    def test_metadata_kept_per_replica(self, host, alice, bob):
        host.store_replica("alice-file", encrypt_for("alice", alice, 1))
        host.store_replica("bob-file", encrypt_for("bob", bob, 2))
        assert "alice" in host.fetch_replica("alice-file").metadata
        assert "bob" in host.fetch_replica("bob-file").metadata

    def test_drop_replica(self, host, alice):
        host.store_replica("f1", encrypt_for("alice", alice))
        host.drop_replica("f1")
        assert len(host) == 0
        with pytest.raises(KeyError):
            host.fetch_replica("f1")

    def test_add_reader_key(self, host, alice, bob):
        from repro.core.convergent import convergent_decrypt, reencrypt_key_for

        host.store_replica("f1", encrypt_for("alice", alice))
        host.add_reader_key("f1", "bob", reencrypt_key_for(DOCUMENT, bob.public_key))
        assert convergent_decrypt(host.fetch_replica("f1"), bob) == DOCUMENT


class TestHashedOncePerHost:
    """A host hashes the bytes it receives itself, and only once."""

    @pytest.fixture
    def hash_calls(self, monkeypatch):
        from repro.core import fingerprint
        from repro.crypto import hashing
        from repro.farsite import sis

        calls = []

        def counting_hash(data):
            calls.append(len(data))
            return hashing.content_hash(data)

        # Both modules bind the primitive by name at import.
        monkeypatch.setattr(fingerprint, "content_hash", counting_hash)
        monkeypatch.setattr(sis, "content_hash", counting_hash)
        return calls

    def test_store_replica_hashes_once_per_call(self, host, alice, bob, hash_calls):
        host.store_replica("a", encrypt_for("alice", alice, 1))
        assert hash_calls == [len(DOCUMENT)]
        host.store_replica("b", encrypt_for("bob", bob, 2))
        assert hash_calls == [len(DOCUMENT)] * 2

    def test_fingerprint_digest_is_the_content_address(self, host, alice):
        """The handed-down digest coalesces with one the SIS computes itself."""
        ciphertext = encrypt_for("alice", alice)
        host.store_replica("via-host", ciphertext)
        assert host.sis.store("direct", ciphertext.data)  # coalesced
        assert host.sis.link_count("via-host") == 2

    def test_direct_sis_store_still_hashes(self, host, hash_calls):
        host.sis.store("plain", DOCUMENT)
        assert hash_calls == [len(DOCUMENT)]


class TestDfcHooks:
    def test_fingerprints_cover_all_replicas(self, host, alice, bob):
        host.store_replica("a", encrypt_for("alice", alice, 1))
        host.store_replica("b", encrypt_for("bob", bob, 2))
        fps = host.fingerprints()
        assert len(fps) == 2
        assert fps[0] == fps[1]  # identical content -> identical fingerprint

    def test_holds_fingerprint(self, host, alice):
        host.store_replica("a", encrypt_for("alice", alice))
        fp = host.fingerprints()[0]
        assert host.holds_fingerprint(fp) == ["a"]
