"""File hosts (paper section 2).

Every participating machine functions as a file host, "storing replicas of
encrypted file content on behalf of the system".  A host never sees
plaintext: it stores convergently encrypted blobs, coalesces identical ones
through its Single-Instance Store, and keeps the per-user key metadata
(which is small) alongside each replica.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.convergent import ConvergentCiphertext
from repro.core.fingerprint import Fingerprint, fingerprint_of
from repro.farsite.sis import SingleInstanceStore


@dataclass
class ReplicaInfo:
    """Metadata a host keeps per stored replica."""

    file_id: str
    fingerprint: Fingerprint
    metadata: Dict[str, bytes]  # per-user encrypted hash keys (mu_u)


class FileHost:
    """One machine's replica store: SIS-backed encrypted blobs plus metadata."""

    def __init__(self, machine_identifier: int, sis: Optional[SingleInstanceStore] = None):
        self.machine_identifier = machine_identifier
        self.sis = sis if sis is not None else SingleInstanceStore()
        self._replicas: Dict[str, ReplicaInfo] = {}

    # -- replica management --------------------------------------------------

    def store_replica(self, file_id: str, ciphertext: ConvergentCiphertext) -> bool:
        """Store one file's encrypted replica; returns True if it coalesced.

        The host computes the fingerprint of the *ciphertext* -- it cannot
        (and need not) see plaintext.  Identical plaintexts produce identical
        ciphertexts under convergent encryption, so their replicas coalesce
        in the SIS.  The bytes are hashed once, here: the fingerprint's
        digest is the SIS's content address.
        """
        fingerprint = fingerprint_of(ciphertext.data)
        coalesced = self.sis.store(
            file_id, ciphertext.data, digest=fingerprint.content_digest
        )
        self._replicas[file_id] = ReplicaInfo(
            file_id=file_id,
            fingerprint=fingerprint,
            metadata=dict(ciphertext.metadata),
        )
        return coalesced

    def fetch_replica(self, file_id: str) -> ConvergentCiphertext:
        info = self._replicas[file_id]
        return ConvergentCiphertext(data=self.sis.read(file_id), metadata=info.metadata)

    def drop_replica(self, file_id: str) -> None:
        if file_id in self._replicas:
            self.sis.delete(file_id)
            del self._replicas[file_id]

    def add_reader_key(self, file_id: str, user: str, encrypted_key: bytes) -> None:
        """Attach another authorized reader's mu_u to a stored replica."""
        self._replicas[file_id].metadata[user] = encrypted_key

    # -- DFC hooks -------------------------------------------------------------

    def fingerprints(self) -> List[Fingerprint]:
        """Fingerprints of all stored replicas (what the machine publishes
        into the SALAD)."""
        return [info.fingerprint for info in self._replicas.values()]

    def replica_ids(self) -> List[str]:
        return list(self._replicas)

    def replica_info(self, file_id: str) -> Optional[ReplicaInfo]:
        """Metadata for one stored replica, or None if absent."""
        return self._replicas.get(file_id)

    def holds_fingerprint(self, fingerprint: Fingerprint) -> List[str]:
        return [
            info.file_id
            for info in self._replicas.values()
            if info.fingerprint == fingerprint
        ]

    # -- space accounting ------------------------------------------------------

    @property
    def logical_bytes(self) -> int:
        return self.sis.stats().logical_bytes

    @property
    def physical_bytes(self) -> int:
        return self.sis.stats().physical_bytes

    @property
    def reclaimed_bytes(self) -> int:
        return self.sis.stats().reclaimed_bytes

    def __len__(self) -> int:
        return len(self._replicas)
