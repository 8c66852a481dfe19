"""Single-Instance Store (paper problem 4; Bolosky et al. [7]).

Coalesces identical files "while maintaining the semantics of separate
files": logically distinct files whose contents are identical share one
backing blob; writing through any link breaks the sharing (copy-on-write),
leaving every other link untouched.

In Farsite the stored contents are *convergently encrypted* ciphertexts, so
identical plaintexts -- even encrypted under different users' keys -- arrive
as identical blobs and coalesce (section 3: "store them in the space of a
single file (plus a small amount of space per user's key)").

Blobs live in a pluggable backend: the default keeps them in RAM; passing
``db_path`` stores them in a single-file sqlite3 database (digest-keyed,
with link counts and sizes), so a DFC pipeline pass over a large corpus
holds only link metadata in memory -- the same RAM-bounding move the SALAD
record stores make in :mod:`repro.salad.storage`.
"""

from __future__ import annotations

import os
import sqlite3
from dataclasses import dataclass
from typing import Dict, Optional

from repro.crypto.hashing import content_hash


class NoSuchFileError(KeyError):
    """The named link does not exist in this store."""


@dataclass
class _Blob:
    data: bytes
    link_count: int = 0


class _MemoryBlobs:
    """The default blob backend: everything in RAM."""

    def __init__(self) -> None:
        self._blobs: Dict[bytes, _Blob] = {}

    def get(self, digest: bytes) -> bytes:
        return self._blobs[digest].data

    def size(self, digest: bytes) -> int:
        return len(self._blobs[digest].data)

    def add_link(self, digest: bytes, data: bytes) -> bool:
        """Reference *data* under *digest*; returns True if it coalesced."""
        blob = self._blobs.get(digest)
        coalesced = blob is not None
        if blob is None:
            blob = _Blob(data=bytes(data))
            self._blobs[digest] = blob
        blob.link_count += 1
        return coalesced

    def drop_link(self, digest: bytes) -> None:
        blob = self._blobs[digest]
        blob.link_count -= 1
        if blob.link_count == 0:
            del self._blobs[digest]

    def link_count(self, digest: bytes) -> int:
        return self._blobs[digest].link_count

    def __len__(self) -> int:
        return len(self._blobs)

    def physical_bytes(self) -> int:
        return sum(len(b.data) for b in self._blobs.values())

    def close(self) -> None:
        pass


class _SqliteBlobs:
    """Blob backend over a single-file sqlite3 database.

    One row per distinct content: ``(digest, data, size, link_count)``.
    The size column lets space accounting avoid loading blob bytes.
    """

    def __init__(self, path: os.PathLike):
        self._conn = sqlite3.connect(os.fspath(path))
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS blobs ("
            " digest BLOB PRIMARY KEY,"
            " data BLOB NOT NULL,"
            " size INTEGER NOT NULL,"
            " link_count INTEGER NOT NULL"
            ") WITHOUT ROWID"
        )
        self._conn.commit()

    def get(self, digest: bytes) -> bytes:
        row = self._conn.execute(
            "SELECT data FROM blobs WHERE digest = ?", (digest,)
        ).fetchone()
        if row is None:
            raise KeyError(digest)
        return row[0]

    def size(self, digest: bytes) -> int:
        row = self._conn.execute(
            "SELECT size FROM blobs WHERE digest = ?", (digest,)
        ).fetchone()
        if row is None:
            raise KeyError(digest)
        return row[0]

    def add_link(self, digest: bytes, data: bytes) -> bool:
        cursor = self._conn.execute(
            "UPDATE blobs SET link_count = link_count + 1 WHERE digest = ?", (digest,)
        )
        if cursor.rowcount:
            return True
        self._conn.execute(
            "INSERT INTO blobs (digest, data, size, link_count) VALUES (?, ?, ?, 1)",
            (digest, bytes(data), len(data)),
        )
        return False

    def drop_link(self, digest: bytes) -> None:
        self._conn.execute(
            "UPDATE blobs SET link_count = link_count - 1 WHERE digest = ?", (digest,)
        )
        self._conn.execute("DELETE FROM blobs WHERE digest = ? AND link_count <= 0", (digest,))

    def link_count(self, digest: bytes) -> int:
        row = self._conn.execute(
            "SELECT link_count FROM blobs WHERE digest = ?", (digest,)
        ).fetchone()
        if row is None:
            raise KeyError(digest)
        return row[0]

    def __len__(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM blobs").fetchone()[0]

    def physical_bytes(self) -> int:
        row = self._conn.execute("SELECT COALESCE(SUM(size), 0) FROM blobs").fetchone()
        return row[0]

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
    """A content-addressed store with separate-file (link) semantics.

    With ``db_path`` set, blob bytes live in sqlite instead of RAM; link
    metadata (name -> digest) stays in memory either way.  Observable
    behavior is identical across backends.
    """

    def __init__(self, db_path: Optional[os.PathLike] = None) -> None:
        self._blobs = _SqliteBlobs(db_path) if db_path is not None else _MemoryBlobs()
        self._links: Dict[str, bytes] = {}  # link name -> blob digest

    # -- write/read -----------------------------------------------------------

    def store(self, name: str, data: bytes, digest: Optional[bytes] = None) -> bool:
        """Store *data* under link *name*; returns True if it coalesced.

        If a blob with identical content already exists, the link shares it.
        Re-storing an existing name first releases its old blob.  A caller
        on the same machine that has already hashed *data* may pass its
        ``content_hash`` as *digest*; it must never come from another party,
        because the store coalesces on it without looking at the bytes.
        """
        if name in self._links:
            self._release(name)
        if digest is None:
            digest = content_hash(data)
        coalesced = self._blobs.add_link(digest, data)
        self._links[name] = digest
        return coalesced

    def read(self, name: str) -> bytes:
        """Read through a link; separate-file semantics, shared storage."""
        return self._blobs.get(self._digest_of(name))

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

    def _digest_of(self, name: str) -> bytes:
        try:
            return self._links[name]
        except KeyError:
            raise NoSuchFileError(name) from None

    def _release(self, name: str) -> None:
        self._blobs.drop_link(self._links[name])

    # -- introspection -----------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._links

    def __len__(self) -> int:
        return len(self._links)

    def link_count(self, name: str) -> int:
        """How many links share this file's blob (1 = not coalesced)."""
        return self._blobs.link_count(self._digest_of(name))

    def blob_count(self) -> int:
        return len(self._blobs)

    def stats(self) -> SisStats:
        logical = sum(self._blobs.size(d) for d in self._links.values())
        physical = self._blobs.physical_bytes()
        return SisStats(logical_bytes=logical, physical_bytes=physical)

    def close(self) -> None:
        """Release the blob backend (durable stores flush to disk)."""
        self._blobs.close()
