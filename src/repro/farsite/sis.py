"""Single-Instance Store (paper problem 4; Bolosky et al. [7]).

Coalesces identical files "while maintaining the semantics of separate
files": logically distinct files whose contents are identical share one
backing blob; writing through any link breaks the sharing (copy-on-write),
leaving every other link untouched.

In Farsite the stored contents are *convergently encrypted* ciphertexts, so
identical plaintexts -- even encrypted under different users' keys -- arrive
as identical blobs and coalesce (section 3: "store them in the space of a
single file (plus a small amount of space per user's key)").

Finding a duplicate works as in [7]: a cheap signature names the candidate
blobs, and a file is merged into one only after a full comparison of the
bytes.  The signature is the content's length and leading bytes, read in
O(1); nothing is hashed, and the store never coalesces on a digest, its own
or anyone else's, so two files share a blob only if their bytes are equal.
Each blob is named by a host-local integer key.

Link metadata -- link name -> key, each blob's link count, and the signature
index -- lives in RAM.  Blob bytes live in a pluggable backend: the default
keeps them in RAM; passing ``db_path`` stores them in a single-file sqlite3
database keyed by the local key, so a DFC pipeline pass over a large corpus
holds only link metadata in memory -- the same RAM-bounding move the SALAD
record stores make in :mod:`repro.salad.storage`.
"""

from __future__ import annotations

import os
import sqlite3
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

#: Leading bytes a signature keeps beside the length.
_SIGNATURE_PREFIX = 32


def _signature(data: bytes) -> Tuple[int, bytes]:
    """Candidate-finding signature: equal contents always share it."""
    return len(data), data[:_SIGNATURE_PREFIX]


class NoSuchFileError(KeyError):
    """The named link does not exist in this store."""


class _MemoryBlobs:
    """The default blob backend: everything in RAM."""

    def __init__(self) -> None:
        self._data: Dict[int, bytes] = {}

    def get(self, key: int) -> bytes:
        return self._data[key]

    def put(self, key: int, data: bytes) -> None:
        self._data[key] = data

    def pop(self, key: int) -> bytes:
        return self._data.pop(key)

    def sizes(self) -> Iterable[Tuple[int, int]]:
        return ((key, len(data)) for key, data in self._data.items())

    def close(self) -> None:
        pass


class _SqliteBlobs:
    """Blob backend over a single-file sqlite3 database.

    One row per blob: ``(key, data, size)``.  The size column lets space
    accounting avoid loading blob bytes.  Links live in RAM, so a store
    reopened on an existing file could reach none of its rows: it starts
    empty.
    """

    def __init__(self, path: os.PathLike):
        self._conn = sqlite3.connect(os.fspath(path))
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("DROP TABLE IF EXISTS blobs")
        self._conn.execute(
            "CREATE TABLE blobs ("
            " key INTEGER PRIMARY KEY,"
            " data BLOB NOT NULL,"
            " size INTEGER NOT NULL"
            ")"
        )
        self._conn.commit()

    def get(self, key: int) -> bytes:
        return self._conn.execute("SELECT data FROM blobs WHERE key = ?", (key,)).fetchone()[0]

    def put(self, key: int, data: bytes) -> None:
        self._conn.execute(
            "INSERT INTO blobs (key, data, size) VALUES (?, ?, ?)",
            (key, data, len(data)),
        )

    def pop(self, key: int) -> bytes:
        data = self.get(key)
        self._conn.execute("DELETE FROM blobs WHERE key = ?", (key,))
        return data

    def sizes(self) -> Iterable[Tuple[int, int]]:
        return self._conn.execute("SELECT key, size FROM blobs")

    def close(self) -> None:
        self._conn.commit()
        self._conn.close()


@dataclass
class SisStats:
    """Space accounting for one store."""

    logical_bytes: int = 0  # sum over links of their file size
    physical_bytes: int = 0  # sum over blobs of their size

    @property
    def reclaimed_bytes(self) -> int:
        return self.logical_bytes - self.physical_bytes


class SingleInstanceStore:
    """A coalescing store with separate-file (link) semantics.

    With ``db_path`` set, blob bytes live in sqlite instead of RAM; link
    metadata and the signature index stay in memory either way.  Observable
    behavior is identical across backends.
    """

    def __init__(self, db_path: Optional[os.PathLike] = None) -> None:
        self._blobs = _SqliteBlobs(db_path) if db_path is not None else _MemoryBlobs()
        self._links: Dict[str, int] = {}  # link name -> blob key
        self._refs: Dict[int, int] = {}  # blob key -> link count
        self._index: Dict[Tuple[int, bytes], List[int]] = {}  # signature -> blob keys
        self._next_key = 0

    # -- write/read -----------------------------------------------------------

    def store(self, name: str, data: bytes) -> bool:
        """Store *data* under link *name*; returns True if it coalesced.

        The link shares an existing blob only if that blob's bytes equal
        *data*; the signature merely picks which blobs to compare.
        Re-storing an existing name first releases its old blob.
        """
        if name in self._links:
            self._release(name)
        data = bytes(data)  # the object itself when it is already bytes
        signature = _signature(data)
        for key in self._index.get(signature, ()):
            # bytes == bytes answers at once for the same object, which is
            # what every replica of a content usually is.
            if self._blobs.get(key) == data:
                self._refs[key] += 1
                self._links[name] = key
                return True
        key = self._next_key
        self._next_key = key + 1
        self._blobs.put(key, data)
        self._refs[key] = 1
        self._index.setdefault(signature, []).append(key)
        self._links[name] = key
        return False

    def read(self, name: str) -> bytes:
        """Read through a link; separate-file semantics, shared storage."""
        return self._blobs.get(self._key_of(name))

    def write(self, name: str, data: bytes) -> None:
        """Copy-on-write: writing one link never disturbs its sharers."""
        if name not in self._links:
            raise NoSuchFileError(name)
        self.store(name, data)

    def delete(self, name: str) -> None:
        if name not in self._links:
            raise NoSuchFileError(name)
        self._release(name)
        del self._links[name]

    # -- internals -------------------------------------------------------------

    def _key_of(self, name: str) -> int:
        try:
            return self._links[name]
        except KeyError:
            raise NoSuchFileError(name) from None

    def _release(self, name: str) -> None:
        """Drop *name*'s link; its blob and index entry go with the last one."""
        key = self._links[name]
        links = self._refs[key] - 1
        if links:
            self._refs[key] = links
            return
        del self._refs[key]
        signature = _signature(self._blobs.pop(key))
        candidates = self._index[signature]
        candidates.remove(key)
        if not candidates:
            del self._index[signature]

    # -- introspection -----------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._links

    def __len__(self) -> int:
        return len(self._links)

    def link_count(self, name: str) -> int:
        """How many links share this file's blob (1 = not coalesced)."""
        return self._refs[self._key_of(name)]

    def blob_count(self) -> int:
        return len(self._refs)

    def stats(self) -> SisStats:
        logical = physical = 0
        for key, size in self._blobs.sizes():
            physical += size
            logical += size * self._refs[key]
        return SisStats(logical_bytes=logical, physical_bytes=physical)

    def close(self) -> None:
        """Release the blob backend (durable stores flush to disk)."""
        self._blobs.close()
