"""File fingerprints (paper section 4.1).

A fingerprint is formed by "hashing the file's (convergently encrypted)
content and prepending the file size to the hash value".  SALAD records are
keyed by fingerprint; two files with the same fingerprint have, with
overwhelming probability, identical content.  With 20-byte hashes, the
probability that F files contain even one pair of same-sized non-identical
files sharing a hash is about F^2 / 2^161 -- the paper rounds this to
F * 10^-24 for F files.

Prepending the size means two fingerprints can only collide if the files
have equal sizes, and it gives SALAD a total order on records in which
smaller files sort first -- which the database-size-limit experiment
(Fig. 13) exploits by evicting the lowest fingerprint (the smallest file).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

from repro.crypto.hashing import FINGERPRINT_HASH_BYTES, content_hash

#: Bytes used to encode the file size prefix.  8 bytes covers any realistic
#: file (2^64 - 1 bytes).
SIZE_PREFIX_BYTES = 8

#: Total fingerprint width in bytes.
FINGERPRINT_BYTES = SIZE_PREFIX_BYTES + FINGERPRINT_HASH_BYTES


@total_ordering
@dataclass(frozen=True)
class Fingerprint:
    """A file fingerprint: ``size || hash(content)``.

    Comparison order is the big-endian byte order of the encoded fingerprint,
    so fingerprints of smaller files compare lower (the size prefix
    dominates), matching the eviction rule of the Fig. 13 experiment.
    """

    size: int
    content_digest: bytes

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"file size cannot be negative: {self.size}")
        if self.size >= 1 << (8 * SIZE_PREFIX_BYTES):
            raise ValueError(f"file size too large to encode: {self.size}")
        if len(self.content_digest) != FINGERPRINT_HASH_BYTES:
            raise ValueError(
                f"content digest must be {FINGERPRINT_HASH_BYTES} bytes, "
                f"got {len(self.content_digest)}"
            )
        # Fingerprints key every database dict; precompute the hash once
        # instead of re-hashing (size, digest) per lookup.  object.__setattr__
        # sidesteps the frozen guard; equality still compares the fields.
        object.__setattr__(self, "_hash", hash((self.size, self.content_digest)))

    def __hash__(self) -> int:
        return self._hash

    def to_bytes(self) -> bytes:
        """Encode as ``size (8 bytes, big-endian) || digest (20 bytes)``."""
        encoded = self.__dict__.get("_encoded")
        if encoded is None:
            encoded = self.size.to_bytes(SIZE_PREFIX_BYTES, "big") + self.content_digest
            object.__setattr__(self, "_encoded", encoded)
        return encoded

    @classmethod
    def from_bytes(cls, data: bytes) -> "Fingerprint":
        if len(data) != FINGERPRINT_BYTES:
            raise ValueError(
                f"fingerprint must be {FINGERPRINT_BYTES} bytes, got {len(data)}"
            )
        return cls(
            size=int.from_bytes(data[:SIZE_PREFIX_BYTES], "big"),
            content_digest=data[SIZE_PREFIX_BYTES:],
        )

    def hash_as_int(self) -> int:
        """Just the content-hash portion as an integer.

        SALAD cell-IDs are taken from the *least significant* bits of the
        identifier; for fingerprints those come from the hash portion, which
        is uniformly distributed.  (The size prefix occupies the most
        significant bytes and never reaches the cell-ID.)
        """
        return int.from_bytes(self.content_digest, "big")

    def __lt__(self, other: "Fingerprint") -> bool:
        if not isinstance(other, Fingerprint):
            return NotImplemented
        return self.to_bytes() < other.to_bytes()

    def __repr__(self) -> str:
        return f"Fingerprint(size={self.size}, digest={self.content_digest.hex()[:12]}...)"


def fingerprint_of(content: bytes) -> Fingerprint:
    """Fingerprint real bytes: hash the content and prepend its size."""
    return Fingerprint(size=len(content), content_digest=content_hash(content))


def synthetic_fingerprint(size: int, content_id: int) -> Fingerprint:
    """Fingerprint for a *synthetic* file identified by ``(size, content_id)``.

    The workload generator describes files by abstract content identity
    rather than by materialized bytes (materializing 685 GB would defeat the
    point of simulation).  Hashing the identity tuple yields exactly the
    uniformly distributed 20-byte digests the real scanner would produce,
    with equal contents mapping to equal fingerprints.
    """
    token = b"synthetic:%d:%d" % (size, content_id)
    return Fingerprint(size=size, content_digest=content_hash(token))
