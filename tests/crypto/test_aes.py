"""AES against the FIPS-197 appendix test vectors, plus behavioral checks."""

import pytest

from tests.reference_aes import AES, BLOCK_SIZE, _gf_mul

PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")


class TestFipsVectors:
    def test_aes128_appendix_c1(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert AES(key).encrypt_block(PLAINTEXT) == expected

    def test_aes192_appendix_c2(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
        expected = bytes.fromhex("dda97ca4864cdfe06eaf70a0ec0d7191")
        assert AES(key).encrypt_block(PLAINTEXT) == expected

    def test_aes256_appendix_c3(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
        )
        expected = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
        assert AES(key).encrypt_block(PLAINTEXT) == expected

    def test_aes128_fips_appendix_b(self):
        # The worked example of FIPS-197 appendix B.
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
        assert AES(key).encrypt_block(plaintext) == expected


class TestRoundTrip:
    def test_different_keys_give_different_ciphertexts(self):
        block = bytes(16)
        a = AES(bytes(16)).encrypt_block(block)
        b = AES(bytes([1] + [0] * 15)).encrypt_block(block)
        assert a != b

    def test_encryption_is_deterministic(self):
        key = bytes(range(16))
        block = b"deterministic..."
        assert AES(key).encrypt_block(block) == AES(key).encrypt_block(block)

    def test_single_bit_plaintext_change_diffuses(self):
        key = bytes(range(16))
        a = AES(key).encrypt_block(bytes(16))
        b = AES(key).encrypt_block(bytes([1]) + bytes(15))
        differing = sum(1 for x, y in zip(a, b) if x != y)
        assert differing >= 12  # avalanche: nearly every byte changes


class TestValidation:
    def test_rejects_bad_key_length(self):
        with pytest.raises(ValueError):
            AES(bytes(15))

    @pytest.mark.parametrize("bad_len", [0, 15, 17, 32])
    def test_rejects_bad_block_length(self, bad_len):
        cipher = AES(bytes(16))
        with pytest.raises(ValueError):
            cipher.encrypt_block(bytes(bad_len))


class TestGaloisField:
    def test_known_products(self):
        # Worked examples from the FIPS-197 specification text.
        assert _gf_mul(0x57, 0x13) == 0xFE
        assert _gf_mul(0x57, 0x02) == 0xAE

    def test_multiplicative_identity(self):
        for x in (0x01, 0x53, 0xFF):
            assert _gf_mul(x, 1) == x

    def test_commutative(self):
        assert _gf_mul(0x3C, 0xA7) == _gf_mul(0xA7, 0x3C)
