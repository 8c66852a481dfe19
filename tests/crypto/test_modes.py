"""CTR mode: roundtrip, determinism, length, and known-answer vectors.

The CTR path runs on libcrypto; every CTR case here checks it against the
from-scratch FIPS-197 reference (``ctr_keystream``, ``encrypt_ctr_scalar``)
or against published vectors.
"""

import hashlib
import random
import ssl
import sys
import tracemalloc

import pytest

from repro.crypto import modes
from repro.crypto.modes import bulk_encrypt_ctr, decrypt_ctr, encrypt_ctr
from tests.reference_aes import AES, ctr_keystream, encrypt_ctr_scalar

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
    "F.5.3 CTR-AES192": (
        "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
        "1abc932417521ca24f2b0459fe7e6e0b"
        "090339ec0aa6faefd5ccc2c6f4ce8e94"
        "1e36b26bd1ebc670d1bd1d665620abf7"
        "4f78a7f6d29809585a97daec58c6b050",
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
        # Through encrypt_ctr: encrypting zeros yields libcrypto's keystream.
        stream = encrypt_ctr(bytes.fromhex(key_hex), bytes(64), SP800_38A_COUNTER)
        assert xor_with(stream, SP800_38A_PLAINTEXT) == bytes.fromhex(ciphertext_hex)

    def test_bulk_encrypt_ctr(self, key_hex, ciphertext_hex):
        produced = bulk_encrypt_ctr(bytes.fromhex(key_hex), SP800_38A_PLAINTEXT, SP800_38A_COUNTER)
        assert produced == bytes.fromhex(ciphertext_hex)

    def test_scalar_path_agrees(self, key_hex, ciphertext_hex):
        stream = ctr_keystream(AES(bytes.fromhex(key_hex)), SP800_38A_COUNTER, 4)
        assert xor_with(stream, SP800_38A_PLAINTEXT) == bytes.fromhex(ciphertext_hex)


def payload(length: int) -> bytes:
    return bytes(i * 7 % 251 for i in range(length))


class TestVectorKernelAgainstScalar:
    """libcrypto's CTR kernel == ``encrypt_ctr_scalar`` at the sizes files have."""

    @pytest.mark.parametrize("key_bytes", [16, 24, 32])
    @pytest.mark.parametrize("blocks", [1024, 16384])
    def test_file_sized_runs(self, key_bytes, blocks):
        key = bytes(range(7, 7 + key_bytes))
        data = payload(blocks * 16 - 5)
        assert bulk_encrypt_ctr(key, data) == encrypt_ctr_scalar(key, data)

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_either_side_of_the_vector_threshold(self, delta):
        """Short inputs take the same single libcrypto call as long ones."""
        data = payload((8 + delta) * 16 + 3)
        assert bulk_encrypt_ctr(KEY, data, 3) == encrypt_ctr_scalar(KEY, data, 3)

    @pytest.mark.parametrize(
        "nonce",
        [(1 << 64) - 500, (1 << 128) - 500, (1 << 128) + (1 << 64) - 1, -500],
        ids=["carry-2^64", "wrap-2^128", "above-2^128", "negative"],
    )
    def test_carry_and_wrap_inside_a_long_run(self, nonce):
        data = payload(1024 * 16)
        assert bulk_encrypt_ctr(KEY, data, nonce) == encrypt_ctr_scalar(KEY, data, nonce)


class TestLibcrypto:
    """How the CTR path reaches OpenSSL, and what it refuses."""

    def test_the_ssl_modules_openssl(self):
        # Resolved through _hashlib, so no second OpenSSL is mapped.
        bulk_encrypt_ctr(KEY, b"load")
        assert modes._libcrypto().OpenSSL_version(0).decode() == ssl.OPENSSL_VERSION

    @pytest.mark.parametrize("width", [0, 15, 20])
    def test_wrong_key_width_raises_value_error(self, width):
        with pytest.raises(ValueError):
            encrypt_ctr(bytes(width), b"some plaintext")

    def test_empty_input_needs_no_library(self, monkeypatch):
        monkeypatch.setattr(modes, "_libcrypto", None)
        assert encrypt_ctr(KEY, b"") == b""

    @pytest.mark.parametrize("length", [63, 64, 65, 191, 192, 193])
    @pytest.mark.parametrize("nonce", [0, (1 << 64) - 5, (1 << 128) - 5])
    def test_stepped_updates_continue_the_counter(self, monkeypatch, length, nonce):
        monkeypatch.setattr(modes, "_STEP", 64)
        data = payload(length)
        assert bulk_encrypt_ctr(KEY, data, nonce) == encrypt_ctr_scalar(KEY, data, nonce)

    def test_unloadable_library_is_named(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "_hashlib", None)  # import now fails
        modes._libcrypto.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="libcrypto"):
                encrypt_ctr(KEY, b"x")
        finally:
            modes._libcrypto.cache_clear()


class TestNothingKeptBetweenCalls:
    def test_repeated_content_leaves_no_memory_behind(self):
        plaintexts = [random.Random(index).randbytes(256 << 10) for index in range(64)]
        encrypt_ctr(KEY, b"load the library before measuring")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(2):
                for plaintext in plaintexts:
                    ciphertext = encrypt_ctr(hashlib.sha256(plaintext).digest(), plaintext)
            del ciphertext
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 256 << 10
