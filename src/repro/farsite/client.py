"""The Farsite client write/read path (paper section 2 + section 3).

Write path: the client convergently encrypts the file under the public keys
of its authorized readers, registers metadata with the responsible directory
group, and ships the encrypted replica to each assigned file host.  Read
path: fetch a replica from any host, unlock the hash key with the user's
private key, decrypt.

This ties every substrate together: convergent encryption (core), user keys
(keyring), directory groups and namespace, replica placement, file hosts,
and SIS coalescing -- the complete DFC story minus SALAD (which discovers
*cross-host* duplicates; see :mod:`repro.farsite.relocation`).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.convergent import (
    ConvergentCiphertext,
    IntegrityError,
    convergent_decrypt,
    convergent_encrypt,
)
from repro.core.keyring import User, UserDirectory
from repro.farsite.directory_group import DirectoryEntry
from repro.farsite.file_host import FileHost
from repro.farsite.namespace import Namespace


class NoReplicaAvailableError(Exception):
    """Every replica of the file is unreachable, missing or corrupt."""


@dataclass
class WriteReceipt:
    path: str
    file_id: str
    replica_hosts: Tuple[int, ...]
    coalesced_on: Tuple[int, ...]  # hosts where the replica coalesced via SIS


class FarsiteClient:
    """A user's gateway to the distributed file system."""

    _file_counter = itertools.count(1)

    def __init__(
        self,
        user: User,
        users: UserDirectory,
        namespace: Namespace,
        hosts: Dict[int, FileHost],
        replication_factor: int = 3,
        rng: Optional[random.Random] = None,
    ):
        self.user = user
        self.users = users
        self.namespace = namespace
        self.hosts = hosts
        self.replication_factor = replication_factor
        self._rng = rng or random.Random(0)
        #: Replicas this client fetched and rejected.
        self.integrity_failures = 0

    # -- write ------------------------------------------------------------------

    def write_file(
        self,
        path: str,
        plaintext: bytes,
        readers: Optional[Sequence[str]] = None,
        replica_hosts: Optional[Sequence[int]] = None,
    ) -> WriteReceipt:
        """Encrypt, register, and replicate one file."""
        reader_names = list(readers or []) + [self.user.name]
        reader_keys = self.users.public_keys(dict.fromkeys(reader_names))
        ciphertext = convergent_encrypt(plaintext, reader_keys, rng=self._rng)

        if replica_hosts is None:
            count = min(self.replication_factor, len(self.hosts))
            replica_hosts = self._rng.sample(list(self.hosts), count)
        file_id = f"file-{next(self._file_counter):08d}"

        coalesced = []
        for host_id in replica_hosts:
            if self.hosts[host_id].store_replica(file_id, ciphertext):
                coalesced.append(host_id)

        displaced = self.namespace.create(
            path,
            file_id=file_id,
            size=len(plaintext),
            replica_hosts=tuple(replica_hosts),
            readers=tuple(dict.fromkeys(reader_names)),
        )
        if displaced is not None:
            # An overwrite: nothing names the old file any more.
            self._drop_replicas(displaced)
        return WriteReceipt(
            path=path,
            file_id=file_id,
            replica_hosts=tuple(replica_hosts),
            coalesced_on=tuple(coalesced),
        )

    # -- read -------------------------------------------------------------------

    def read_file(self, path: str) -> bytes:
        """Fetch any live, intact replica and decrypt it with this user's key.

        A replica whose bytes do not hash back to their own key, or whose
        key entry does not unlock (a host corrupted or tampered with either),
        is counted and skipped like a missing one.
        """
        entry = self.namespace.lookup(path)
        if entry is None:
            raise FileNotFoundError(path)
        last_error: Optional[Exception] = None
        for host_id in entry.replica_hosts:
            host = self.hosts.get(host_id)
            if host is None:
                continue
            try:
                ciphertext = host.fetch_replica(entry.file_id)
            except KeyError as exc:
                last_error = exc
                continue
            try:
                return convergent_decrypt(ciphertext, self.user)
            except IntegrityError as exc:
                self.integrity_failures += 1
                last_error = exc
        raise NoReplicaAvailableError(
            f"no reachable, intact replica of {path!r}"
        ) from last_error

    def delete_file(self, path: str) -> None:
        entry = self.namespace.lookup(path)
        if entry is None:
            raise FileNotFoundError(path)
        self._drop_replicas(entry)
        self.namespace.remove(path)

    def _drop_replicas(self, entry: DirectoryEntry) -> None:
        for host_id in entry.replica_hosts:
            host = self.hosts.get(host_id)
            if host is not None:
                host.drop_replica(entry.file_id)
