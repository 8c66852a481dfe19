"""Modes of operation for the AES block cipher.

Convergent encryption requires that the ciphertext of a file be *fully
determined* by the file plaintext (paper section 3): ``c_f = E_{H(P_f)}(P_f)``
(Eq. 2).  We therefore use CTR mode with a fixed zero nonce: the key is
already a collision-resistant hash of the plaintext, so keystream reuse
across *different* plaintexts is impossible, and reuse across *identical*
plaintexts is precisely the feature.

CTR mode is embarrassingly parallel across blocks -- every keystream block is
``E_k(counter)`` for an independent counter -- so the hot path here is
*vectorized*: :func:`bulk_encrypt_ctr` runs all AES rounds for every block of
a file simultaneously as numpy gathers from the same T-tables the scalar
cipher uses (:mod:`repro.crypto.aes`), four table lookups and a handful of
word XORs per round over the whole file.  A byte-budgeted cache keyed by
``(key, nonce)`` re-serves keystream for content that is encrypted or
decrypted *repeatedly* -- duplicate files written on several machines, reads
of widely shared files -- and declines to store content requested only once.

The scalar per-block path (:func:`ctr_keystream` driving
``AES.encrypt_block``) serves messages too short to repay the numpy dispatch
and is the reference implementation the property suite checks the vectorized
path against, bit for bit.

CBC mode with a deterministic IV is provided as an alternative realization
(and to exercise the padding path); both satisfy Eq. 2.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.crypto.aes import AES, BLOCK_SIZE, _SBOX, _T0, _T1, _T2, _T3

#: Below this many blocks the scalar T-table loop beats the numpy dispatch
#: (13.5 us a block against a fixed ~110 us; re-measured for the T-table kernel).
_VECTOR_MIN_BLOCKS = 8


def ctr_keystream(cipher: AES, nonce: int, blocks: int) -> bytes:
    """Return *blocks* blocks of CTR keystream starting at counter *nonce*.

    Scalar reference path: one ``encrypt_block`` call per counter.  The
    counter wraps modulo 2^128, as in standard CTR.
    """
    out = bytearray()
    for counter in range(nonce, nonce + blocks):
        out.extend(
            cipher.encrypt_block((counter % (1 << 128)).to_bytes(BLOCK_SIZE, "big"))
        )
    return bytes(out)


# --- vectorized keystream ---------------------------------------------------
#
# The state of all N blocks is one (4, N) array of 32-bit words: row c holds
# column c of every block, its four bytes in memory in block order (a
# little-endian "lane" read of a big-endian column).  One round is the scalar
# cipher's ``T0[a] ^ T1[b] ^ T2[c] ^ T3[d] ^ rk`` with each table lookup done
# for every column of every block in a single gather; ShiftRows, which makes
# output column c read row r from input column c + r, is a rotation of the
# gathered rows and costs nothing but the slicing of the XOR.


@lru_cache(maxsize=None)
def _lane_tables() -> Tuple[Tuple["np.ndarray", ...], Tuple["np.ndarray", ...]]:
    """The T-tables in lane order, built from :mod:`repro.crypto.aes` on first use.

    Returns ``(round_tables, final_tables)``.  The final round has no
    MixColumns, so its four tables carry only ``S[x]``, each in the byte of
    the lane that its row occupies.
    """
    round_tables = tuple(
        np.array(table, dtype=">u4").view("<u4") for table in (_T0, _T1, _T2, _T3)
    )
    sbox = np.array(_SBOX, dtype="<u4")
    final_tables = tuple(sbox << np.uint32(8 * row) for row in range(4))
    for table in round_tables + final_tables:
        table.setflags(write=False)  # shared by every call from here on
    return round_tables, final_tables


def _counter_words(nonce: int, blocks: int) -> "np.ndarray":
    """Counter blocks ``nonce .. nonce+blocks-1`` (mod 2^128) as (4, N) lane words."""
    nonce %= 1 << 128
    low_start = nonce & 0xFFFFFFFFFFFFFFFF
    until_carry = (1 << 64) - low_start
    if blocks > until_carry:
        # The low 64 bits roll over inside the range: each side of the carry
        # is a carry-free range of its own.
        return np.concatenate(
            (
                _counter_words(nonce, until_carry),
                _counter_words(nonce + until_carry, blocks - until_carry),
            ),
            axis=1,
        )
    words = np.empty((4, blocks), dtype=">u4")
    words[0] = nonce >> 96
    words[1] = (nonce >> 64) & 0xFFFFFFFF
    low = np.arange(low_start, low_start + blocks, dtype=np.uint64)
    words[2] = low >> np.uint64(32)
    words[3] = low & np.uint64(0xFFFFFFFF)
    return words.view("<u4")


def _vector_keystream(cipher: AES, nonce: int, blocks: int) -> bytes:
    """All *blocks* keystream blocks at once via numpy T-table rounds."""
    round_tables, final_tables = _lane_tables()
    round_keys = np.array(cipher._round_keys, dtype=np.uint8).view("<u4")[:, :, None]

    state = _counter_words(nonce, blocks)
    state ^= round_keys[0]
    mixed = np.empty_like(state)
    gathered = np.empty_like(state)
    for r in range(1, cipher.rounds + 1):
        tables = round_tables if r < cipher.rounds else final_tables
        # [column, block, row]: a strided byte view, no copy.
        lanes = state.view(np.uint8).reshape(4, blocks, 4)
        # uint8 indices cannot leave a 256-entry table; "wrap" only skips
        # take()'s bounds pass and output buffering.
        tables[0].take(lanes[:, :, 0], out=mixed, mode="wrap")
        for row in (1, 2, 3):
            tables[row].take(lanes[:, :, row], out=gathered, mode="wrap")
            mixed[: 4 - row] ^= gathered[row:]
            mixed[4 - row :] ^= gathered[:row]
        mixed ^= round_keys[r]
        state, mixed = mixed, state
    return state.T.tobytes()


def keystream_blocks(cipher: AES, nonce: int, blocks: int) -> bytes:
    """CTR keystream: the scalar loop for short runs, the numpy kernel otherwise."""
    if blocks <= 0:
        return b""
    if blocks < _VECTOR_MIN_BLOCKS:
        return ctr_keystream(cipher, nonce, blocks)
    return _vector_keystream(cipher, nonce, blocks)


# --- keystream cache --------------------------------------------------------


class KeystreamCache:
    """Byte-budgeted LRU of generated keystream that admits on second sight.

    Keyed by ``(key, nonce)``.  Under convergent encryption the key *is* the
    content, so a key that comes back is content that repeats (a widely
    installed file written on many machines, a shared file read by many
    users) and a key that never comes back is unique content whose stream
    would only push repeated content out.  The cache therefore remembers the
    *keys* of recent misses in a small doorkeeper and stores a stream only
    when its key is already there or already resident; resident streams are
    evicted least recently used, by bytes.  Any second request is a second
    sight: a unique file read back while its write is still in the doorkeeper
    is stored on the read (a quarter of ``client-rw``'s unique reads; see
    docs/PERFORMANCE.md).  A request longer than the cached prefix extends it
    from the next counter rather than regenerating from scratch.
    """

    #: Doorkeeper span: how many distinct missed keys are remembered (keys
    #: only, some tens of KiB).
    DOORKEEPER_KEYS = 256

    def __init__(self, max_bytes: int = 4 << 20):
        self.max_bytes = max_bytes
        self.resident_bytes = 0
        self._entries: "OrderedDict[Tuple[bytes, int], bytes]" = OrderedDict()
        self._seen: "OrderedDict[Tuple[bytes, int], None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def keystream(self, key: bytes, nonce: int, nbytes: int) -> bytes:
        """At least *nbytes* of keystream for ``(key, nonce)``."""
        cache_key = (bytes(key), nonce)
        cached = self._entries.get(cache_key)
        if cached is not None and len(cached) >= nbytes:
            self._entries.move_to_end(cache_key)
            self.hits += 1
            return cached[:nbytes]
        self.misses += 1
        blocks_needed = (nbytes + BLOCK_SIZE - 1) // BLOCK_SIZE
        if cached is None:
            stream = keystream_blocks(AES(key), nonce, blocks_needed)
            admit = cache_key in self._seen
            if not admit:
                # First sight: remember the key, not the stream.
                self._seen[cache_key] = None
                if len(self._seen) > self.DOORKEEPER_KEYS:
                    self._seen.popitem(last=False)
        else:
            have_blocks = len(cached) // BLOCK_SIZE
            stream = cached + keystream_blocks(
                AES(key), nonce + have_blocks, blocks_needed - have_blocks
            )
            del self._entries[cache_key]
            self.resident_bytes -= len(cached)
            admit = True
        if admit and len(stream) <= self.max_bytes:
            self._entries[cache_key] = stream
            self.resident_bytes += len(stream)
            while self.resident_bytes > self.max_bytes:
                _, evicted = self._entries.popitem(last=False)
                self.resident_bytes -= len(evicted)
        return stream[:nbytes]

    def clear(self) -> None:
        self._entries.clear()
        self._seen.clear()
        self.resident_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)


#: Process-wide cache used by the bulk API.
_KEYSTREAM_CACHE = KeystreamCache()

#: Bulk-kernel lifetime totals (plain module ints on the hot path; harvested
#: into a MetricsRegistry by :func:`collect_metrics` at report time).
_BULK_CALLS = 0
_BULK_BYTES = 0


def keystream_cache() -> KeystreamCache:
    """The process-wide keystream cache (exposed for stats and tests)."""
    return _KEYSTREAM_CACHE


def collect_metrics(registry) -> None:
    """Harvest the bulk-CTR kernel's lifetime totals into *registry*.

    Builds fresh entries from the module counters and the process-wide
    keystream cache; calling it twice on two registries double-counts
    nothing (a harvest is a snapshot).
    """
    registry.counter("crypto.ctr.bulk_calls").inc(_BULK_CALLS)
    registry.counter("crypto.ctr.bulk_bytes").inc(_BULK_BYTES)
    cache = _KEYSTREAM_CACHE
    registry.counter("crypto.ctr.keystream_cache_hits").inc(cache.hits)
    registry.counter("crypto.ctr.keystream_cache_misses").inc(cache.misses)
    registry.gauge("crypto.ctr.keystream_cache_bytes").set(cache.resident_bytes)
    probes = cache.hits + cache.misses
    if probes:
        registry.gauge("crypto.ctr.keystream_cache_hit_rate").set(cache.hits / probes)


def _xor_bytes(data: bytes, stream: bytes) -> bytes:
    if len(data) >= _VECTOR_MIN_BLOCKS * BLOCK_SIZE:
        a = np.frombuffer(data, dtype=np.uint8)
        b = np.frombuffer(stream, dtype=np.uint8, count=len(data))
        return (a ^ b).tobytes()
    return bytes(p ^ s for p, s in zip(data, stream))


def bulk_encrypt_ctr(key: bytes, plaintext: bytes, nonce: int = 0) -> bytes:
    """Encrypt *plaintext* in CTR mode with the vectorized keystream kernel.

    Byte-identical to :func:`encrypt_ctr`; the whole keystream for the file
    is generated in one shot and cached under ``(key, nonce)``.
    """
    global _BULK_CALLS, _BULK_BYTES
    if not plaintext:
        return b""
    _BULK_CALLS += 1
    _BULK_BYTES += len(plaintext)
    stream = _KEYSTREAM_CACHE.keystream(key, nonce, len(plaintext))
    return _xor_bytes(plaintext, stream)


def bulk_decrypt_ctr(key: bytes, ciphertext: bytes, nonce: int = 0) -> bytes:
    """CTR decryption is CTR encryption."""
    return bulk_encrypt_ctr(key, ciphertext, nonce)


def encrypt_ctr(key: bytes, plaintext: bytes, nonce: int = 0) -> bytes:
    """Encrypt *plaintext* under *key* in CTR mode.

    The output has exactly the length of the input, so coalesced storage of a
    convergently encrypted file costs no more space than the plaintext.
    Delegates to the bulk kernel; the scalar path is :func:`encrypt_ctr_scalar`.
    """
    return bulk_encrypt_ctr(key, plaintext, nonce)


def decrypt_ctr(key: bytes, ciphertext: bytes, nonce: int = 0) -> bytes:
    """CTR decryption is CTR encryption."""
    return encrypt_ctr(key, ciphertext, nonce)


def encrypt_ctr_scalar(key: bytes, plaintext: bytes, nonce: int = 0) -> bytes:
    """The seed repository's scalar CTR path, kept as the reference."""
    cipher = AES(key)
    blocks = (len(plaintext) + BLOCK_SIZE - 1) // BLOCK_SIZE
    stream = ctr_keystream(cipher, nonce, blocks)
    return bytes(p ^ s for p, s in zip(plaintext, stream))


def _pad(data: bytes) -> bytes:
    """PKCS#7 padding to a whole number of blocks."""
    pad_len = BLOCK_SIZE - len(data) % BLOCK_SIZE
    return data + bytes([pad_len]) * pad_len


def _unpad(data: bytes) -> bytes:
    if not data or len(data) % BLOCK_SIZE:
        raise ValueError("ciphertext is not a whole number of blocks")
    pad_len = data[-1]
    if not 1 <= pad_len <= BLOCK_SIZE or data[-pad_len:] != bytes([pad_len]) * pad_len:
        raise ValueError("invalid PKCS#7 padding")
    return data[:-pad_len]


def encrypt_cbc(key: bytes, plaintext: bytes, iv: bytes = bytes(BLOCK_SIZE)) -> bytes:
    """Encrypt in CBC mode with PKCS#7 padding and a deterministic IV."""
    if len(iv) != BLOCK_SIZE:
        raise ValueError(f"IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
    cipher = AES(key)
    padded = _pad(plaintext)
    out = bytearray()
    prev = iv
    for i in range(0, len(padded), BLOCK_SIZE):
        block = bytes(a ^ b for a, b in zip(padded[i : i + BLOCK_SIZE], prev))
        prev = cipher.encrypt_block(block)
        out.extend(prev)
    return bytes(out)


def decrypt_cbc(key: bytes, ciphertext: bytes, iv: bytes = bytes(BLOCK_SIZE)) -> bytes:
    """Invert :func:`encrypt_cbc`."""
    if len(iv) != BLOCK_SIZE:
        raise ValueError(f"IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
    cipher = AES(key)
    out = bytearray()
    prev = iv
    for i in range(0, len(ciphertext), BLOCK_SIZE):
        block = ciphertext[i : i + BLOCK_SIZE]
        plain = cipher.decrypt_block(block)
        out.extend(a ^ b for a, b in zip(plain, prev))
        prev = block
    return _unpad(bytes(out))
