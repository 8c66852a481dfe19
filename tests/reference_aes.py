"""The from-scratch FIPS-197 AES and its scalar CTR: the libcrypto oracle.

Convergent encryption (paper section 3) needs a symmetric cipher ``E`` keyed
by the hash of the plaintext.  The shipped CTR path over file bytes
(:func:`repro.crypto.modes.bulk_encrypt_ctr`) runs on OpenSSL's AES; this
module is the reference it is tested against, bit for bit.  It implements
AES (128/192/256-bit keys) directly from the FIPS-197 specification -- key
expansion and the SubBytes/ShiftRows/MixColumns rounds.  Only the forward
cipher exists: CTR mode, the only mode convergent encryption uses, never
inverts a block.

Two encryption paths share the key schedule:

- a *scalar reference* path (:meth:`AES.encrypt_block_scalar`) that applies
  SubBytes/ShiftRows/MixColumns byte by byte, straight from the spec; and
- a *T-table* path (:meth:`AES.encrypt_block`, the default) that fuses the
  three key-agnostic round functions into four precomputed 256-entry
  tables of 32-bit words, so each round costs 16 table lookups and 20 XORs
  instead of ~60 byte operations.  The tables are derived from the same
  S-box and GF(2^8) arithmetic as the scalar path, and the property suite
  (``tests/property/test_prop_bulk_crypto.py``) asserts byte-identical
  output.

:func:`ctr_keystream` and :func:`encrypt_ctr_scalar` drive the cipher one
block at a time: the CTR reference.  The cipher is verified against the
FIPS-197 appendix test vectors in ``tests/crypto/test_aes.py``.
"""

from __future__ import annotations

from typing import List

BLOCK_SIZE = 16

# --- S-box generation -------------------------------------------------------
#
# Rather than hard-coding 256 magic numbers, derive the S-box from its
# definition: multiplicative inverse in GF(2^8) followed by the affine
# transform (FIPS-197 section 5.1.1).


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        high = a & 0x80
        a = (a << 1) & 0xFF
        if high:
            a ^= 0x1B
        b >>= 1
    return result


def _build_sbox() -> List[int]:
    # Compute inverses via exhaustive search once; 256*256 is trivial.
    inverse = [0] * 256
    for x in range(1, 256):
        for y in range(1, 256):
            if _gf_mul(x, y) == 1:
                inverse[x] = y
                break
    sbox = [0] * 256
    for x in range(256):
        b = inverse[x]
        # Affine transform: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63
        value = 0x63
        for shift in range(5):
            value ^= ((b << shift) | (b >> (8 - shift))) & 0xFF
        sbox[x] = value
    return sbox


_SBOX = _build_sbox()

_RCON = [0x01]
while len(_RCON) < 14:
    _RCON.append(_gf_mul(_RCON[-1], 0x02))

# Precomputed GF multiplication tables for MixColumns.
_MUL2 = [_gf_mul(x, 2) for x in range(256)]
_MUL3 = [_gf_mul(x, 3) for x in range(256)]

_ROUNDS_BY_KEY_BYTES = {16: 10, 24: 12, 32: 14}

# --- T-tables ---------------------------------------------------------------
#
# SubBytes, ShiftRows, and MixColumns are all key-agnostic, so their
# composition over one input byte is a pure function of that byte: a 256-entry
# table of 32-bit column contributions.  Four tables (one per row position)
# reduce a full round to 16 lookups and 20 XORs.  Each entry packs the
# MixColumns column (b0, b1, b2, b3) produced by S[x] big-endian, matching the
# big-endian word packing of the state columns.


def _build_t_tables() -> List[List[int]]:
    t0 = []
    for x in range(256):
        s = _SBOX[x]
        t0.append((_MUL2[s] << 24) | (s << 16) | (s << 8) | _MUL3[s])
    # T1..T3 are byte rotations of T0 (the contribution pattern shifts with
    # the row position).
    t1 = [((w >> 8) | ((w & 0xFF) << 24)) & 0xFFFFFFFF for w in t0]
    t2 = [((w >> 8) | ((w & 0xFF) << 24)) & 0xFFFFFFFF for w in t1]
    t3 = [((w >> 8) | ((w & 0xFF) << 24)) & 0xFFFFFFFF for w in t2]
    return [t0, t1, t2, t3]


_T0, _T1, _T2, _T3 = _build_t_tables()


class AES:
    """The AES block cipher over 16-byte blocks.

    >>> key = bytes(range(16))
    >>> AES(key).encrypt_block(bytes.fromhex("00112233445566778899aabbccddeeff")).hex()
    '69c4e0d86a7b0430d8cdb78070b4c55a'
    """

    def __init__(self, key: bytes):
        if len(key) not in _ROUNDS_BY_KEY_BYTES:
            raise ValueError(
                f"AES key must be 16, 24, or 32 bytes, got {len(key)}"
            )
        self.key = bytes(key)
        self.rounds = _ROUNDS_BY_KEY_BYTES[len(key)]
        self._round_keys = self._expand_key(key)
        # Round keys packed as four big-endian 32-bit column words each, for
        # the T-table path.
        self._round_key_words = [
            [
                (rk[c] << 24) | (rk[c + 1] << 16) | (rk[c + 2] << 8) | rk[c + 3]
                for c in (0, 4, 8, 12)
            ]
            for rk in self._round_keys
        ]

    def _expand_key(self, key: bytes) -> List[List[int]]:
        """FIPS-197 key expansion; returns one 16-int round key per round."""
        nk = len(key) // 4
        words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
        total_words = 4 * (self.rounds + 1)
        for i in range(nk, total_words):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]
                temp = [_SBOX[b] for b in temp]
                temp[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [_SBOX[b] for b in temp]
            words.append([words[i - nk][j] ^ temp[j] for j in range(4)])
        round_keys = []
        for r in range(self.rounds + 1):
            rk: List[int] = []
            for w in words[4 * r : 4 * r + 4]:
                rk.extend(w)
            round_keys.append(rk)
        return round_keys

    # State layout: a flat list of 16 bytes in column-major order, matching
    # the byte order of the input block (FIPS-197 section 3.4).

    @staticmethod
    def _add_round_key(state: List[int], rk: List[int]) -> None:
        for i in range(16):
            state[i] ^= rk[i]

    @staticmethod
    def _sub_bytes(state: List[int]) -> None:
        for i in range(16):
            state[i] = _SBOX[state[i]]

    @staticmethod
    def _shift_rows(state: List[int]) -> None:
        # Row r (bytes r, r+4, r+8, r+12) rotates left by r.
        state[1], state[5], state[9], state[13] = state[5], state[9], state[13], state[1]
        state[2], state[6], state[10], state[14] = state[10], state[14], state[2], state[6]
        state[3], state[7], state[11], state[15] = state[15], state[3], state[7], state[11]

    @staticmethod
    def _mix_columns(state: List[int]) -> None:
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = state[c : c + 4]
            state[c] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
            state[c + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
            state[c + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
            state[c + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]

    def encrypt_block_scalar(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block via the per-byte reference rounds.

        This is the FIPS-197 spec transcribed literally; it exists as the
        ground truth the T-table path is property-tested against.
        """
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        state = list(block)
        self._add_round_key(state, self._round_keys[0])
        for r in range(1, self.rounds):
            self._sub_bytes(state)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, self._round_keys[r])
        self._sub_bytes(state)
        self._shift_rows(state)
        self._add_round_key(state, self._round_keys[self.rounds])
        return bytes(state)

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block (T-table fast path)."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        words = self._round_key_words
        rk = words[0]
        s0 = int.from_bytes(block[0:4], "big") ^ rk[0]
        s1 = int.from_bytes(block[4:8], "big") ^ rk[1]
        s2 = int.from_bytes(block[8:12], "big") ^ rk[2]
        s3 = int.from_bytes(block[12:16], "big") ^ rk[3]
        for r in range(1, self.rounds):
            rk = words[r]
            u0 = t0[s0 >> 24] ^ t1[(s1 >> 16) & 0xFF] ^ t2[(s2 >> 8) & 0xFF] ^ t3[s3 & 0xFF] ^ rk[0]
            u1 = t0[s1 >> 24] ^ t1[(s2 >> 16) & 0xFF] ^ t2[(s3 >> 8) & 0xFF] ^ t3[s0 & 0xFF] ^ rk[1]
            u2 = t0[s2 >> 24] ^ t1[(s3 >> 16) & 0xFF] ^ t2[(s0 >> 8) & 0xFF] ^ t3[s1 & 0xFF] ^ rk[2]
            u3 = t0[s3 >> 24] ^ t1[(s0 >> 16) & 0xFF] ^ t2[(s1 >> 8) & 0xFF] ^ t3[s2 & 0xFF] ^ rk[3]
            s0, s1, s2, s3 = u0, u1, u2, u3
        # Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
        rk = words[self.rounds]
        sbox = _SBOX
        u0 = (
            (sbox[s0 >> 24] << 24)
            | (sbox[(s1 >> 16) & 0xFF] << 16)
            | (sbox[(s2 >> 8) & 0xFF] << 8)
            | sbox[s3 & 0xFF]
        ) ^ rk[0]
        u1 = (
            (sbox[s1 >> 24] << 24)
            | (sbox[(s2 >> 16) & 0xFF] << 16)
            | (sbox[(s3 >> 8) & 0xFF] << 8)
            | sbox[s0 & 0xFF]
        ) ^ rk[1]
        u2 = (
            (sbox[s2 >> 24] << 24)
            | (sbox[(s3 >> 16) & 0xFF] << 16)
            | (sbox[(s0 >> 8) & 0xFF] << 8)
            | sbox[s1 & 0xFF]
        ) ^ rk[2]
        u3 = (
            (sbox[s3 >> 24] << 24)
            | (sbox[(s0 >> 16) & 0xFF] << 16)
            | (sbox[(s1 >> 8) & 0xFF] << 8)
            | sbox[s2 & 0xFF]
        ) ^ rk[3]
        return (
            u0.to_bytes(4, "big")
            + u1.to_bytes(4, "big")
            + u2.to_bytes(4, "big")
            + u3.to_bytes(4, "big")
        )


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


def encrypt_ctr_scalar(key: bytes, plaintext: bytes, nonce: int = 0) -> bytes:
    """The seed repository's scalar CTR path: one :func:`ctr_keystream` per call."""
    cipher = AES(key)
    blocks = (len(plaintext) + BLOCK_SIZE - 1) // BLOCK_SIZE
    stream = ctr_keystream(cipher, nonce, blocks)
    return bytes(p ^ s for p, s in zip(plaintext, stream))
