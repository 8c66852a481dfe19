"""CTR and CBC modes: roundtrip, determinism, length, and padding behavior."""

import pytest

from repro.crypto import modes
from repro.crypto.aes import AES
from repro.crypto.modes import (
    _VECTOR_MIN_BLOCKS,
    BLOCK_SIZE,
    bulk_encrypt_ctr,
    ctr_keystream,
    decrypt_cbc,
    decrypt_ctr,
    encrypt_cbc,
    encrypt_ctr,
    keystream_blocks,
)

KEY = bytes(range(16))

#: NIST SP 800-38A appendix F.5: the initial counter block and the four
#: plaintext blocks shared by every CTR example.
SP800_38A_COUNTER = int("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff", 16)
SP800_38A_PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
SP800_38A_VECTORS = {
    "F.5.1 CTR-AES128": (
        "2b7e151628aed2a6abf7158809cf4f3c",
        "874d6191b620e3261bef6864990db6ce"
        "9806f66b7970fdff8617187bb9fffdff"
        "5ae4df3edbd5d35e5b4f09020db03eab"
        "1e031dda2fbe03d1792170a0f3009cee",
    ),
    "F.5.5 CTR-AES256": (
        "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
        "601ec313775789a5b7a7f504bbf3d228"
        "f443e3ca4d62b59aca84e990cacaf5c5"
        "2b0930daa23de94ce87017ba2d84988d"
        "dfc9c58db67aada613c2dd08457941a6",
    ),
}


class TestCtr:
    @pytest.mark.parametrize("length", [0, 1, 15, 16, 17, 1000])
    def test_roundtrip_all_lengths(self, length):
        plaintext = bytes(i % 251 for i in range(length))
        assert decrypt_ctr(KEY, encrypt_ctr(KEY, plaintext)) == plaintext

    def test_ciphertext_length_equals_plaintext_length(self):
        # Coalesced storage must not inflate files.
        for length in (0, 5, 16, 33):
            assert len(encrypt_ctr(KEY, bytes(length))) == length

    def test_deterministic(self):
        plaintext = b"convergence demands determinism"
        assert encrypt_ctr(KEY, plaintext) == encrypt_ctr(KEY, plaintext)

    def test_nonce_changes_keystream(self):
        plaintext = bytes(32)
        assert encrypt_ctr(KEY, plaintext, nonce=0) != encrypt_ctr(KEY, plaintext, nonce=1)

    def test_different_key_different_ciphertext(self):
        plaintext = b"some plaintext bytes here..."
        other = bytes(range(1, 17))
        assert encrypt_ctr(KEY, plaintext) != encrypt_ctr(other, plaintext)


def xor_with(stream: bytes, data: bytes) -> bytes:
    return bytes(d ^ s for d, s in zip(data, stream))


@pytest.mark.parametrize(
    "key_hex,ciphertext_hex", SP800_38A_VECTORS.values(), ids=list(SP800_38A_VECTORS)
)
class TestCtrKnownAnswers:
    """Vectors that do not come from this repository's own scalar path."""

    def test_vector_kernel_keystream(self, key_hex, ciphertext_hex):
        # Ask for enough blocks that the numpy kernel, not the scalar loop,
        # is what answers; the known answer is its first 64 bytes.
        blocks = max(_VECTOR_MIN_BLOCKS, 4)
        stream = keystream_blocks(AES(bytes.fromhex(key_hex)), SP800_38A_COUNTER, blocks)
        assert len(stream) == blocks * BLOCK_SIZE
        assert xor_with(stream, SP800_38A_PLAINTEXT) == bytes.fromhex(ciphertext_hex)

    def test_bulk_encrypt_ctr(self, key_hex, ciphertext_hex):
        padded = SP800_38A_PLAINTEXT + bytes(_VECTOR_MIN_BLOCKS * BLOCK_SIZE)
        produced = bulk_encrypt_ctr(bytes.fromhex(key_hex), padded, SP800_38A_COUNTER)
        assert produced[:64] == bytes.fromhex(ciphertext_hex)

    def test_scalar_path_agrees(self, key_hex, ciphertext_hex):
        stream = ctr_keystream(AES(bytes.fromhex(key_hex)), SP800_38A_COUNTER, 4)
        assert xor_with(stream, SP800_38A_PLAINTEXT) == bytes.fromhex(ciphertext_hex)


class TestVectorKernelAgainstScalar:
    """``keystream_blocks`` == ``ctr_keystream`` at the sizes files have."""

    @pytest.mark.parametrize("key_bytes", [16, 24, 32])
    @pytest.mark.parametrize("blocks", [1024, 16384])
    def test_file_sized_runs(self, key_bytes, blocks):
        cipher = AES(bytes(range(7, 7 + key_bytes)))
        assert keystream_blocks(cipher, 0, blocks) == ctr_keystream(cipher, 0, blocks)

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_either_side_of_the_vector_threshold(self, delta):
        cipher = AES(KEY)
        blocks = _VECTOR_MIN_BLOCKS + delta
        assert keystream_blocks(cipher, 3, blocks) == ctr_keystream(cipher, 3, blocks)

    @pytest.mark.parametrize(
        "nonce",
        [(1 << 64) - 500, (1 << 128) - 500, (1 << 128) + (1 << 64) - 1, -500],
        ids=["carry-2^64", "wrap-2^128", "above-2^128", "negative"],
    )
    def test_carry_and_wrap_inside_a_long_run(self, nonce):
        cipher = AES(KEY)
        assert keystream_blocks(cipher, nonce, 1024) == ctr_keystream(cipher, nonce, 1024)


class TestHarvest:
    def test_cache_gauges_and_counters(self):
        from repro.obs.registry import MetricsRegistry

        cache = modes.keystream_cache()
        cache.clear()
        hits, misses = cache.hits, cache.misses
        payload = bytes(4096)
        for _ in range(3):  # first sight, admitted, served
            bulk_encrypt_ctr(KEY, payload, nonce=77)
        registry = MetricsRegistry()
        modes.collect_metrics(registry)
        assert registry.gauge("crypto.ctr.keystream_cache_bytes").value == 4096
        assert registry.counter("crypto.ctr.keystream_cache_hits").value == hits + 1
        assert registry.counter("crypto.ctr.keystream_cache_misses").value == misses + 2
        cache.clear()


class TestCbc:
    @pytest.mark.parametrize("length", [0, 1, 15, 16, 17, 100])
    def test_roundtrip_all_lengths(self, length):
        plaintext = bytes(i % 13 for i in range(length))
        assert decrypt_cbc(KEY, encrypt_cbc(KEY, plaintext)) == plaintext

    def test_output_is_whole_blocks(self):
        assert len(encrypt_cbc(KEY, bytes(1))) % 16 == 0
        assert len(encrypt_cbc(KEY, bytes(16))) == 32  # padding adds a block

    def test_deterministic_with_fixed_iv(self):
        plaintext = b"cbc is also deterministic here"
        assert encrypt_cbc(KEY, plaintext) == encrypt_cbc(KEY, plaintext)

    def test_corrupt_padding_rejected(self):
        ciphertext = bytearray(encrypt_cbc(KEY, b"hello"))
        ciphertext[-1] ^= 0xFF
        with pytest.raises(ValueError):
            decrypt_cbc(KEY, bytes(ciphertext))

    def test_partial_block_ciphertext_rejected(self):
        with pytest.raises(ValueError):
            decrypt_cbc(KEY, bytes(10))

    def test_bad_iv_length_rejected(self):
        with pytest.raises(ValueError):
            encrypt_cbc(KEY, b"x", iv=bytes(5))
