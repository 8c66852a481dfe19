"""The end-to-end client write/read path."""

import random

import pytest

from repro.core.convergent import NotAuthorizedError
from repro.farsite.client import FarsiteClient, NoReplicaAvailableError
from repro.farsite.directory_group import DirectoryGroup
from repro.farsite.file_host import FileHost
from repro.farsite.namespace import Namespace

DOCUMENT = b"project plan " * 100


@pytest.fixture
def deployment(user_directory):
    hosts = {i: FileHost(i) for i in range(1, 7)}
    namespace = Namespace([DirectoryGroup([1, 2, 3, 4])])
    return hosts, namespace


def client_for(name, user_directory, deployment, seed=0):
    hosts, namespace = deployment
    return FarsiteClient(
        user_directory.get(name),
        user_directory,
        namespace,
        hosts,
        rng=random.Random(seed),
    )


class TestWriteRead:
    def test_roundtrip(self, user_directory, deployment):
        client = client_for("alice", user_directory, deployment)
        receipt = client.write_file("/home/alice/plan.txt", DOCUMENT)
        assert len(receipt.replica_hosts) == 3
        assert client.read_file("/home/alice/plan.txt") == DOCUMENT

    def test_missing_file(self, user_directory, deployment):
        client = client_for("alice", user_directory, deployment)
        with pytest.raises(FileNotFoundError):
            client.read_file("/ghost")

    def test_reader_list_grants_access(self, user_directory, deployment):
        alice = client_for("alice", user_directory, deployment, seed=1)
        bob = client_for("bob", user_directory, deployment, seed=2)
        alice.write_file("/share/x", DOCUMENT, readers=["bob"])
        assert bob.read_file("/share/x") == DOCUMENT

    def test_non_reader_cannot_decrypt(self, user_directory, deployment):
        alice = client_for("alice", user_directory, deployment, seed=3)
        carol = client_for("carol", user_directory, deployment, seed=4)
        alice.write_file("/private/x", DOCUMENT)
        with pytest.raises(NotAuthorizedError):
            carol.read_file("/private/x")

    def test_replicas_on_all_assigned_hosts(self, user_directory, deployment):
        hosts, _ = deployment
        client = client_for("alice", user_directory, deployment, seed=5)
        receipt = client.write_file("/home/alice/y", DOCUMENT, replica_hosts=[1, 2, 3])
        for host_id in (1, 2, 3):
            assert receipt.file_id in [info for info in hosts[host_id].replica_ids()]


class TestCoalescing:
    def test_cross_user_writes_coalesce(self, user_directory, deployment):
        hosts, _ = deployment
        alice = client_for("alice", user_directory, deployment, seed=6)
        bob = client_for("bob", user_directory, deployment, seed=7)
        alice.write_file("/home/alice/same", DOCUMENT, replica_hosts=[1, 2, 3])
        receipt = bob.write_file("/home/bob/same", DOCUMENT, replica_hosts=[1, 2, 3])
        assert set(receipt.coalesced_on) == {1, 2, 3}
        assert hosts[1].reclaimed_bytes == len(DOCUMENT)


class TestFailureHandling:
    def test_read_falls_back_to_surviving_replica(self, user_directory, deployment):
        hosts, _ = deployment
        client = client_for("alice", user_directory, deployment, seed=8)
        client.write_file("/home/alice/z", DOCUMENT, replica_hosts=[1, 2, 3])
        hosts[1].drop_replica
        del hosts[1]  # host 1 vanishes entirely
        assert client.read_file("/home/alice/z") == DOCUMENT

    def test_all_replicas_gone(self, user_directory, deployment):
        hosts, _ = deployment
        client = client_for("alice", user_directory, deployment, seed=9)
        receipt = client.write_file("/home/alice/w", DOCUMENT, replica_hosts=[1, 2])
        for host_id in (1, 2):
            hosts[host_id].drop_replica(receipt.file_id)
        with pytest.raises(NoReplicaAvailableError):
            client.read_file("/home/alice/w")

    def test_delete_file(self, user_directory, deployment):
        client = client_for("alice", user_directory, deployment, seed=10)
        client.write_file("/home/alice/del", DOCUMENT)
        client.delete_file("/home/alice/del")
        with pytest.raises(FileNotFoundError):
            client.read_file("/home/alice/del")


class TestOverwrite:
    """Writing an existing path replaces the file; nothing is left behind."""

    def test_overwrite_then_delete_leaves_nothing(self, user_directory, deployment):
        hosts, _ = deployment
        client = client_for("alice", user_directory, deployment, seed=11)
        client.write_file("/v/f", bytes(5000))
        client.write_file("/v/f", bytes(range(250)) * 28)
        assert client.read_file("/v/f") == bytes(range(250)) * 28
        assert sum(len(host) for host in hosts.values()) == 3
        assert sum(host.logical_bytes for host in hosts.values()) == 3 * 7000
        client.delete_file("/v/f")
        assert sum(len(host) for host in hosts.values()) == 0
        assert sum(host.logical_bytes for host in hosts.values()) == 0

    def test_overwrite_on_the_same_hosts_keeps_the_new_replicas(
        self, user_directory, deployment
    ):
        hosts, _ = deployment
        client = client_for("alice", user_directory, deployment, seed=12)
        client.write_file("/v/g", b"old " * 100, replica_hosts=[1, 2, 3])
        receipt = client.write_file("/v/g", b"new " * 100, replica_hosts=[2, 3, 4])
        assert client.read_file("/v/g") == b"new " * 100
        assert len(hosts[1]) == 0
        assert [hosts[h].replica_ids() for h in (2, 3, 4)] == [[receipt.file_id]] * 3

    def test_overwrite_does_not_disturb_a_sharer(self, user_directory, deployment):
        """The displaced blob is shared through the SIS by another path."""
        alice = client_for("alice", user_directory, deployment, seed=13)
        bob = client_for("bob", user_directory, deployment, seed=14)
        alice.write_file("/v/h", DOCUMENT, replica_hosts=[1, 2, 3])
        bob.write_file("/w/h", DOCUMENT, replica_hosts=[1, 2, 3])
        alice.write_file("/v/h", b"alice moved on", replica_hosts=[1, 2, 3])
        assert bob.read_file("/w/h") == DOCUMENT
        assert alice.read_file("/v/h") == b"alice moved on"


def corrupt_replica(hosts, host_id, file_id):
    """Flip one byte of the stored blob, as a faulty or malicious host would."""
    host = hosts[host_id]
    stored = host.fetch_replica(file_id)
    data = bytearray(stored.data)
    data[len(data) // 2] ^= 0x01
    # Straight into the SIS: the host's own bookkeeping still vouches for it.
    host.sis.store(file_id, bytes(data))


class TestIntegrity:
    """A blob that no longer hashes back to its key is never returned."""

    @pytest.mark.parametrize("corrupted,failures", [((1,), 1), ((1, 2), 2)])
    def test_corrupt_replicas_are_skipped(
        self, user_directory, deployment, corrupted, failures
    ):
        hosts, _ = deployment
        client = client_for("alice", user_directory, deployment, seed=15)
        receipt = client.write_file("/home/alice/i", DOCUMENT, replica_hosts=[1, 2, 3])
        for host_id in corrupted:
            corrupt_replica(hosts, host_id, receipt.file_id)
        assert client.read_file("/home/alice/i") == DOCUMENT
        assert client.integrity_failures == failures

    def test_all_replicas_corrupt(self, user_directory, deployment):
        hosts, _ = deployment
        client = client_for("alice", user_directory, deployment, seed=16)
        receipt = client.write_file("/home/alice/j", DOCUMENT, replica_hosts=[1, 2, 3])
        for host_id in (1, 2, 3):
            corrupt_replica(hosts, host_id, receipt.file_id)
        with pytest.raises(NoReplicaAvailableError):
            client.read_file("/home/alice/j")
        assert client.integrity_failures == 3

    @pytest.mark.parametrize("width", [24, 20])
    def test_wrong_width_key_raises(self, user_directory, deployment, width):
        """A metadata entry unlocking to a key of another width -- a valid AES
        width or not -- raises; it never yields bytes."""
        hosts, _ = deployment
        alice = user_directory.get("alice")
        client = client_for("alice", user_directory, deployment, seed=17)
        receipt = client.write_file("/home/alice/k", DOCUMENT, replica_hosts=[1])
        forged = alice.public_key.encrypt(bytes(width), rng=random.Random(1))
        hosts[1].add_reader_key(receipt.file_id, "alice", forged)
        with pytest.raises(NoReplicaAvailableError):
            client.read_file("/home/alice/k")
        assert client.integrity_failures == 1

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda mu, key: mu[:-1] + bytes([mu[-1] ^ 0x01]),  # padding check fails
            lambda mu, key: b"\xff" * len(mu),  # not below the modulus
            lambda mu, key: key.encrypt(bytes(20), rng=random.Random(2)),  # no AES width
            lambda mu, key: key.encrypt(bytes(24), rng=random.Random(3)),  # another width
        ],
        ids=["flipped-bit", "oversized", "20-byte-key", "24-byte-key"],
    )
    def test_tampered_key_entry_fails_over(self, user_directory, deployment, tamper):
        """A host that spoils the reader's key entry costs one replica, not the read."""
        hosts, _ = deployment
        alice = user_directory.get("alice")
        client = client_for("alice", user_directory, deployment, seed=18)
        receipt = client.write_file("/home/alice/m", DOCUMENT, replica_hosts=[1, 2, 3])
        mu = hosts[1].fetch_replica(receipt.file_id).metadata["alice"]
        hosts[1].add_reader_key(receipt.file_id, "alice", tamper(mu, alice.public_key))
        assert client.read_file("/home/alice/m") == DOCUMENT
        assert client.integrity_failures == 1
