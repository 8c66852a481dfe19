"""File hosts: encrypted replica storage with SIS coalescing."""

import random
import sys

import pytest

from repro.core.convergent import convergent_encrypt
from repro.core.fingerprint import fingerprint_of
from repro.farsite.file_host import FileHost, ReplicaMismatchError

DOCUMENT = b"shared document body " * 50

#: Where CPython's hash functions and hash objects live.
HASH_MODULES = {"_hashlib", "_md5", "_sha1", "_sha2", "_sha256", "_sha512", "_sha3", "_blake2"}


def _module_of(fn):
    """Module of a builtin function, or of the object a bound builtin is on."""
    owner = getattr(fn, "__self__", None)
    if owner is not None and not isinstance(owner, type(sys)):
        return type(owner).__module__
    return getattr(fn, "__module__", None)


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
        assert host.logical_bytes - host.physical_bytes == len(DOCUMENT)

    def test_metadata_kept_per_replica(self, host, alice, bob):
        host.store_replica("alice-file", encrypt_for("alice", alice, 1))
        host.store_replica("bob-file", encrypt_for("bob", bob, 2))
        assert "alice" in host.fetch_replica("alice-file").metadata
        assert "bob" in host.fetch_replica("bob-file").metadata

    def test_expected_fingerprint_refuses_other_bytes(self, host, alice):
        ciphertext = encrypt_for("alice", alice)
        with pytest.raises(ReplicaMismatchError):
            host.store_replica("f1", ciphertext, expected=fingerprint_of(b"other"))
        assert len(host) == 0 and host.sis.blob_count() == 0
        assert not host.store_replica(
            "f1", ciphertext, expected=fingerprint_of(ciphertext.data)
        )
        assert host.fetch_replica("f1").data == ciphertext.data

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
    """A host hashes each replica once, for the fingerprint it publishes;
    its SIS finds duplicates by comparing bytes and hashes nothing."""

    @pytest.fixture
    def hash_calls(self, monkeypatch):
        from repro.core import fingerprint
        from repro.crypto import hashing

        calls = []

        def counting_hash(data):
            calls.append(len(data))
            return hashing.content_hash(data)

        # The module binds the primitive by name at import.
        monkeypatch.setattr(fingerprint, "content_hash", counting_hash)
        return calls

    def test_store_replica_hashes_once_per_call(self, host, alice, bob, hash_calls):
        host.store_replica("a", encrypt_for("alice", alice, 1))
        assert hash_calls == [len(DOCUMENT)]
        host.store_replica("b", encrypt_for("bob", bob, 2))
        assert hash_calls == [len(DOCUMENT)] * 2

    def test_host_replica_coalesces_only_with_equal_bytes(self, host, alice):
        """A replica stored through the host coalesces with an equal copy
        stored directly, and not with bytes that share its signature."""
        ciphertext = encrypt_for("alice", alice)
        host.store_replica("via-host", ciphertext)
        same_size_same_head = ciphertext.data[:-1] + bytes([ciphertext.data[-1] ^ 1])
        assert not host.sis.store("lookalike", same_size_same_head)
        assert host.sis.store("direct", bytearray(ciphertext.data))  # coalesced
        assert host.sis.blob_count() == 2
        assert host.sis.stats().physical_bytes == 2 * len(ciphertext.data)

    def test_sis_store_calls_no_hash(self, host):
        """No hash function runs inside store/read/delete."""
        called = []

        def profiler(frame, event, arg):
            if event == "c_call":
                called.append(arg)

        previous = sys.getprofile()
        sys.setprofile(profiler)
        try:
            host.sis.store("plain", DOCUMENT)
            host.sis.store("copy", bytes(bytearray(DOCUMENT)))
            host.sis.store("copy", DOCUMENT[::-1])
            host.sis.read("plain")
            host.sis.delete("copy")
        finally:
            sys.setprofile(previous)
        assert called, "the profiler saw no C calls"
        hashing = [
            fn for fn in called
            if fn is hash or _module_of(fn) in HASH_MODULES
        ]
        assert hashing == []
        assert "plain" in host.sis and host.sis.blob_count() == 1


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
        assert host.replica_info("a").fingerprint == fp
