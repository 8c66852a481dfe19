"""Single-Instance Store (paper problem 4; Bolosky et al. [7]).

Coalesces identical files "while maintaining the semantics of separate
files": logically distinct files whose contents are identical share one
backing blob; storing new bytes under any link breaks the sharing
(copy-on-write), leaving every other link untouched.

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

Everything lives in RAM: blob bytes keyed by the local key, and the link
metadata -- link name -> key, each blob's link count, and the signature
index.  The DFC pipeline materializes bytes only for small corpora, and a
replica of a content is the same ``bytes`` object on every host, so a
durable blob backend would bound nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Leading bytes a signature keeps beside the length.
_SIGNATURE_PREFIX = 32


def _signature(data: bytes) -> Tuple[int, bytes]:
    """Candidate-finding signature: equal contents always share it."""
    return len(data), data[:_SIGNATURE_PREFIX]


class NoSuchFileError(KeyError):
    """The named link does not exist in this store."""


@dataclass
class SisStats:
    """Space accounting for one store."""

    logical_bytes: int = 0  # sum over links of their file size
    physical_bytes: int = 0  # sum over blobs of their size

    @property
    def reclaimed_bytes(self) -> int:
        return self.logical_bytes - self.physical_bytes


class SingleInstanceStore:
    """A coalescing store with separate-file (link) semantics."""

    def __init__(self) -> None:
        self._blobs: Dict[int, bytes] = {}  # blob key -> bytes
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
            if self._blobs[key] == data:
                self._refs[key] += 1
                self._links[name] = key
                return True
        key = self._next_key
        self._next_key = key + 1
        self._blobs[key] = data
        self._refs[key] = 1
        self._index.setdefault(signature, []).append(key)
        self._links[name] = key
        return False

    def read(self, name: str) -> bytes:
        """Read through a link; separate-file semantics, shared storage."""
        return self._blobs[self._key_of(name)]

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

    def blob_count(self) -> int:
        return len(self._refs)

    def stats(self) -> SisStats:
        logical = physical = 0
        for key, data in self._blobs.items():
            physical += len(data)
            logical += len(data) * self._refs[key]
        return SisStats(logical_bytes=logical, physical_bytes=physical)
