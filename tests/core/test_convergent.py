"""Convergent encryption: the section 3 construction (Eqs. 1-4)."""

import random

import pytest

from repro.core.convergent import (
    ConvergentCiphertext,
    IntegrityError,
    NotAuthorizedError,
    convergent_decrypt,
    convergent_encrypt,
    reencrypt_key_for,
    verify_convergent,
)

DOCUMENT = b"the same document, byte for byte " * 32


class TestConvergence:
    def test_identical_plaintexts_identical_data_ciphertext(self, alice, bob):
        """The defining property: c_f depends only on P_f (Eq. 2)."""
        by_alice = convergent_encrypt(DOCUMENT, {"alice": alice.public_key})
        by_bob = convergent_encrypt(DOCUMENT, {"bob": bob.public_key})
        assert by_alice.data == by_bob.data

    def test_metadata_differs_per_user(self, alice, bob):
        by_alice = convergent_encrypt(DOCUMENT, {"alice": alice.public_key})
        by_bob = convergent_encrypt(DOCUMENT, {"bob": bob.public_key})
        assert dict(by_alice.metadata) != dict(by_bob.metadata)

    def test_different_plaintexts_different_ciphertexts(self, alice):
        a = convergent_encrypt(b"contents A" * 10, {"alice": alice.public_key})
        b = convergent_encrypt(b"contents B" * 10, {"alice": alice.public_key})
        assert a.data != b.data

    def test_ciphertext_is_not_plaintext(self, alice):
        ciphertext = convergent_encrypt(DOCUMENT, {"alice": alice.public_key})
        assert ciphertext.data != DOCUMENT

    def test_ciphertext_length_equals_plaintext_length(self, alice):
        ciphertext = convergent_encrypt(DOCUMENT, {"alice": alice.public_key})
        assert len(ciphertext.data) == len(DOCUMENT)


class TestDecryption:
    def test_each_reader_decrypts(self, alice, bob):
        ciphertext = convergent_encrypt(
            DOCUMENT, {"alice": alice.public_key, "bob": bob.public_key}
        )
        assert convergent_decrypt(ciphertext, alice) == DOCUMENT
        assert convergent_decrypt(ciphertext, bob) == DOCUMENT

    def test_unauthorized_user_rejected(self, alice, bob):
        ciphertext = convergent_encrypt(DOCUMENT, {"alice": alice.public_key})
        with pytest.raises(NotAuthorizedError):
            convergent_decrypt(ciphertext, bob)

    def test_empty_reader_set_rejected(self):
        with pytest.raises(ValueError):
            convergent_encrypt(DOCUMENT, {})

    def test_empty_file(self, alice):
        ciphertext = convergent_encrypt(b"", {"alice": alice.public_key})
        assert convergent_decrypt(ciphertext, alice) == b""


class TestIntegrity:
    """The key is H(P_f), so decryption checks itself."""

    @pytest.mark.parametrize("key_bytes", [16, 24, 32])
    def test_every_key_width_verifies(self, alice, key_bytes):
        ciphertext = convergent_encrypt(
            DOCUMENT, {"alice": alice.public_key}, key_bytes=key_bytes
        )
        assert convergent_decrypt(ciphertext, alice) == DOCUMENT

    @pytest.mark.parametrize("position", [0, len(DOCUMENT) // 2, len(DOCUMENT) - 1])
    def test_one_flipped_bit_is_detected(self, alice, position):
        ciphertext = convergent_encrypt(DOCUMENT, {"alice": alice.public_key})
        data = bytearray(ciphertext.data)
        data[position] ^= 0x80
        tampered = ConvergentCiphertext(data=bytes(data), metadata=ciphertext.metadata)
        with pytest.raises(IntegrityError):
            convergent_decrypt(tampered, alice)

    def test_truncation_is_detected(self, alice):
        ciphertext = convergent_encrypt(DOCUMENT, {"alice": alice.public_key})
        tampered = ConvergentCiphertext(
            data=ciphertext.data[:-1], metadata=ciphertext.metadata
        )
        with pytest.raises(IntegrityError):
            convergent_decrypt(tampered, alice)

    def test_key_of_another_file_is_detected(self, alice):
        """Swapped metadata: a valid key, for different content."""
        mine = convergent_encrypt(DOCUMENT, {"alice": alice.public_key})
        other = convergent_encrypt(DOCUMENT + b"!", {"alice": alice.public_key})
        swapped = ConvergentCiphertext(data=mine.data, metadata=other.metadata)
        with pytest.raises(IntegrityError):
            convergent_decrypt(swapped, alice)

    @pytest.mark.parametrize("width", [0, 20, 24])
    def test_key_entry_of_another_width_is_detected(self, alice, width):
        mine = convergent_encrypt(DOCUMENT, {"alice": alice.public_key})
        forged = alice.public_key.encrypt(bytes(width), rng=random.Random(6))
        with pytest.raises(IntegrityError):
            convergent_decrypt(mine.add_reader("alice", forged), alice)

    def test_spoiled_key_entry_is_detected(self, alice):
        """An entry that fails RSA unpadding is the replica's fault, not the caller's."""
        mine = convergent_encrypt(DOCUMENT, {"alice": alice.public_key})
        mu = mine.metadata["alice"]
        spoiled = mu[:-1] + bytes([mu[-1] ^ 0x01])
        with pytest.raises(IntegrityError):
            convergent_decrypt(mine.add_reader("alice", spoiled), alice)


class TestControlledLeak:
    def test_candidate_confirmation_works(self, alice):
        """The intended leak: a candidate plaintext can be confirmed."""
        ciphertext = convergent_encrypt(DOCUMENT, {"alice": alice.public_key})
        assert verify_convergent(ciphertext, DOCUMENT)

    def test_wrong_candidate_rejected(self, alice):
        ciphertext = convergent_encrypt(DOCUMENT, {"alice": alice.public_key})
        assert not verify_convergent(ciphertext, b"x" * len(DOCUMENT))


class TestAccessGranting:
    def test_reader_can_grant_access(self, alice, bob):
        """Any holder of the plaintext can mint mu_u for a new reader."""
        ciphertext = convergent_encrypt(DOCUMENT, {"alice": alice.public_key})
        mu_bob = reencrypt_key_for(DOCUMENT, bob.public_key, rng=random.Random(5))
        shared = ciphertext.add_reader("bob", mu_bob)
        assert convergent_decrypt(shared, bob) == DOCUMENT
        assert convergent_decrypt(shared, alice) == DOCUMENT

    def test_metadata_bytes_counts_all_readers(self, alice, bob):
        ciphertext = convergent_encrypt(
            DOCUMENT, {"alice": alice.public_key, "bob": bob.public_key}
        )
        single = convergent_encrypt(DOCUMENT, {"alice": alice.public_key})
        assert ciphertext.metadata_bytes() > single.metadata_bytes()
