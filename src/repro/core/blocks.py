"""Block-level convergent encryption and deduplication.

The paper's measurement tool hashed "each 64-Kbyte block of all files"
(section 5), and its related-work section cites LBFS [28], which identifies
identical *portions* of different files.  This module extends the
whole-file DFC machinery to blocks:

- :func:`split_fixed` -- the scanner's fixed 64-KB blocking;
- :func:`split_content_defined` -- LBFS-style content-defined chunking with
  a rolling hash, so an insertion near the front of a file shifts block
  boundaries instead of re-writing every block;
- :class:`BlockManifest` / :func:`encrypt_blocks` -- per-block convergent
  encryption: each block is encrypted with the hash of its own plaintext,
  so identical blocks coalesce across files *and* across users, exactly
  like whole files do under Eq. 2.

The ablation experiment :mod:`repro.experiments.ablation_blocks` quantifies
how much more space block-level coalescing reclaims on partially similar
files (versioned documents) than the paper's whole-file scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.fingerprint import Fingerprint, fingerprint_of
from repro.crypto.hashing import convergence_key
from repro.crypto.modes import decrypt_ctr, encrypt_ctr

#: The paper's scanner block size.
PAPER_BLOCK_SIZE = 64 * 1024


def split_fixed(data: bytes, block_size: int = PAPER_BLOCK_SIZE) -> List[bytes]:
    """Fixed-size blocking (the paper's scanner).  Last block may be short."""
    if block_size < 1:
        raise ValueError(f"block size must be positive: {block_size}")
    return [data[i : i + block_size] for i in range(0, len(data), block_size)] or [b""]


# -- content-defined chunking (LBFS style) -----------------------------------
#
# A 64-entry-window rolling sum ("buzhash"-like) selects breakpoints where
# the hash matches a mask, giving an expected chunk size of 2^mask_bits;
# minimum and maximum sizes bound pathological inputs.

_WINDOW = 64
# Pseudo-random byte mixing table, fixed for reproducibility.
_MIX = [((i * 2654435761) ^ (i << 7) ^ 0x9E3779B9) & 0xFFFFFFFF for i in range(256)]


def split_content_defined(
    data: bytes,
    target_size: int = 8 * 1024,
    min_size: Optional[int] = None,
    max_size: Optional[int] = None,
) -> List[bytes]:
    """Content-defined chunking with a rolling window hash.

    Breakpoints depend only on local content, so inserting bytes into a file
    changes O(1) chunks rather than all downstream blocks -- the property
    LBFS exploits to find shared portions of similar files.
    """
    if target_size < 256:
        raise ValueError(f"target size too small: {target_size}")
    min_size = min_size if min_size is not None else target_size // 4
    max_size = max_size if max_size is not None else target_size * 4
    if not 0 < min_size <= target_size <= max_size:
        raise ValueError("need 0 < min_size <= target_size <= max_size")
    mask = (1 << max(1, target_size.bit_length() - 1)) - 1

    chunks: List[bytes] = []
    start = 0
    n = len(data)
    while start < n:
        end = min(start + max_size, n)
        cut = end
        if end - start > min_size:
            state = 0
            window_start = start
            for i in range(start, end):
                state = (state + _MIX[data[i]]) & 0xFFFFFFFF
                if i - window_start >= _WINDOW:
                    state = (state - _MIX[data[i - _WINDOW]]) & 0xFFFFFFFF
                if i - start + 1 >= min_size and (state & mask) == mask:
                    cut = i + 1
                    break
        chunks.append(data[start:cut])
        start = cut
    return chunks or [b""]


# -- block-level convergent encryption ----------------------------------------


@dataclass(frozen=True)
class EncryptedBlock:
    """One convergently encrypted block: ciphertext plus its fingerprint."""

    ciphertext: bytes
    fingerprint: Fingerprint


@dataclass(frozen=True)
class BlockManifest:
    """Recipe for reassembling a file from its encrypted blocks.

    ``keys`` holds the per-block hash keys; in a full system each key would
    itself be encrypted under the readers' public keys (as whole-file
    convergent encryption does for its single key) -- the storage cost is
    O(blocks) either way, and the tests exercise the recovery path.
    """

    block_fingerprints: Tuple[Fingerprint, ...]
    keys: Tuple[bytes, ...]


def encrypt_blocks(blocks: Iterable[bytes]) -> Tuple[BlockManifest, List[EncryptedBlock]]:
    """Convergently encrypt each block (Eq. 2 applied per block)."""
    fingerprints: List[Fingerprint] = []
    keys: List[bytes] = []
    encrypted: List[EncryptedBlock] = []
    for block in blocks:
        key = convergence_key(block)
        ciphertext = encrypt_ctr(key, block)
        fingerprint = fingerprint_of(ciphertext)
        fingerprints.append(fingerprint)
        keys.append(key)
        encrypted.append(EncryptedBlock(ciphertext=ciphertext, fingerprint=fingerprint))
    return (
        BlockManifest(block_fingerprints=tuple(fingerprints), keys=tuple(keys)),
        encrypted,
    )


def decrypt_blocks(
    manifest: BlockManifest,
    block_store: Mapping[Fingerprint, bytes],
) -> bytes:
    """Reassemble a file from a content-addressed block store."""
    out = bytearray()
    for fingerprint, key in zip(manifest.block_fingerprints, manifest.keys):
        ciphertext = block_store[fingerprint]
        out.extend(decrypt_ctr(key, ciphertext))
    return bytes(out)


def deduplicated_bytes(manifests: Iterable[BlockManifest]) -> Tuple[int, int]:
    """(logical, physical) byte totals across files sharing a block store.

    Logical counts every block of every file; physical counts each distinct
    block once -- the block-level analogue of the corpus summary.
    """
    logical = 0
    distinct: Dict[Fingerprint, int] = {}
    for manifest in manifests:
        for fingerprint in manifest.block_fingerprints:
            logical += fingerprint.size
            distinct.setdefault(fingerprint, fingerprint.size)
    return logical, sum(distinct.values())
