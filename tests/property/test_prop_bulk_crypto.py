"""Property tests: the fast paths are bit-identical to the references.

Every performance path in the crypto layer keeps its slow reference
implementation alive precisely so these tests can pin them together:
T-table AES against the textbook per-byte rounds, and libcrypto's CTR
against the from-scratch one-block-at-a-time loop.  A fast path that diverges
by a single bit anywhere breaks convergent encryption's core property
(identical plaintext -> identical ciphertext across machines), so these run
under hypothesis rather than a handful of fixed vectors.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.modes import BLOCK_SIZE, bulk_encrypt_ctr, encrypt_ctr
from tests.reference_aes import AES, ctr_keystream, encrypt_ctr_scalar

keys = (
    st.binary(min_size=16, max_size=16)
    | st.binary(min_size=24, max_size=24)
    | st.binary(min_size=32, max_size=32)
)
blocks = st.binary(min_size=16, max_size=16)
payloads = st.binary(min_size=0, max_size=4096)
nonces = st.integers(min_value=0, max_value=(1 << 128) - 1)
#: Nonces near the carry out of the low 64 bits and the wrap at 2^128.
straddle_nonces = st.integers(
    min_value=(1 << 64) - 64, max_value=(1 << 64) + 64
) | st.integers(min_value=(1 << 128) - 64, max_value=(1 << 128) - 1)


class TestTTableAes:
    """The T-table round function equals the per-byte reference rounds."""

    @settings(max_examples=60, deadline=None)
    @given(keys, blocks)
    def test_fast_equals_scalar(self, key, block):
        cipher = AES(key)
        assert cipher.encrypt_block(block) == cipher.encrypt_block_scalar(block)

    @pytest.mark.parametrize(
        "key_hex,expected_hex",
        [
            # FIPS-197 appendix C known-answer vectors, all three key sizes,
            # exercised through the T-table fast path.
            ("000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"),
            (
                "000102030405060708090a0b0c0d0e0f1011121314151617",
                "dda97ca4864cdfe06eaf70a0ec0d7191",
            ),
            (
                "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
                "8ea2b7ca516745bfeafc49904b496089",
            ),
        ],
    )
    def test_fips197_vectors(self, key_hex, expected_hex):
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        cipher = AES(bytes.fromhex(key_hex))
        assert cipher.encrypt_block(plaintext) == bytes.fromhex(expected_hex)
        assert cipher.encrypt_block_scalar(plaintext) == bytes.fromhex(expected_hex)


class TestVectorKeystream:
    """libcrypto's CTR keystream equals the scalar block-loop keystream."""

    @settings(max_examples=40, deadline=None)
    @given(keys, nonces, st.integers(min_value=0, max_value=64))
    def test_keystream_blocks_equals_reference(self, key, nonce, blocks_):
        # Encrypting zeros yields the keystream itself.
        stream = bulk_encrypt_ctr(key, bytes(blocks_ * BLOCK_SIZE), nonce)
        assert stream == ctr_keystream(AES(key), nonce, blocks_)

    @settings(max_examples=30, deadline=None)
    @given(keys, straddle_nonces, payloads)
    def test_counter_rollover(self, key, nonce, payload):
        """Counters straddling 2^64 (and 2^128 wraparound) stay exact."""
        assert bulk_encrypt_ctr(key, payload, nonce) == encrypt_ctr_scalar(key, payload, nonce)


class TestBulkCtr:
    """bulk_encrypt_ctr == the seed's scalar encrypt_ctr, byte for byte."""

    @settings(max_examples=50, deadline=None)
    @given(keys, payloads, st.integers(min_value=0, max_value=(1 << 64) + 8))
    def test_bulk_equals_scalar(self, key, payload, nonce):
        assert bulk_encrypt_ctr(key, payload, nonce) == encrypt_ctr_scalar(
            key, payload, nonce
        )

    @pytest.mark.parametrize("width", [16, 24, 32])
    @settings(max_examples=30, deadline=None)
    @given(
        st.data(),
        st.integers(min_value=0, max_value=4095).filter(lambda n: n % BLOCK_SIZE),
        straddle_nonces,
    )
    def test_unaligned_lengths_at_the_carries(self, width, data, length, nonce):
        key = data.draw(st.binary(min_size=width, max_size=width))
        payload = data.draw(st.binary(min_size=length, max_size=length))
        assert bulk_encrypt_ctr(key, payload, nonce) == encrypt_ctr_scalar(
            key, payload, nonce
        )

    @settings(max_examples=40, deadline=None)
    @given(keys, payloads, nonces)
    def test_bulk_roundtrip(self, key, payload, nonce):
        # CTR decryption is CTR encryption.
        assert bulk_encrypt_ctr(key, bulk_encrypt_ctr(key, payload, nonce), nonce) == payload

    @settings(max_examples=40, deadline=None)
    @given(keys, payloads)
    def test_public_ctr_is_bulk(self, key, payload):
        assert encrypt_ctr(key, payload) == bulk_encrypt_ctr(key, payload)
