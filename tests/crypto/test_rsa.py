"""RSA key pairs: roundtrip, padding randomization, limits, serialization."""

import random

import pytest

from repro.crypto.rsa import RSAError, generate_keypair


class TestRoundTrip:
    def test_encrypt_decrypt(self, keypair):
        payload = b"a 16-byte secret"
        ciphertext = keypair.public.encrypt(payload, rng=random.Random(1))
        assert keypair.decrypt(ciphertext) == payload

    def test_empty_payload(self, keypair):
        ciphertext = keypair.public.encrypt(b"", rng=random.Random(2))
        assert keypair.decrypt(ciphertext) == b""

    def test_max_size_payload(self, keypair):
        payload = bytes(keypair.public.max_payload_bytes)
        assert keypair.decrypt(keypair.public.encrypt(payload)) == payload

    def test_wrong_key_fails_cleanly(self, keypair, second_keypair):
        ciphertext = keypair.public.encrypt(b"secret", rng=random.Random(3))
        with pytest.raises(RSAError):
            second_keypair.decrypt(ciphertext)


class TestPadding:
    def test_equal_payloads_encrypt_differently(self, keypair):
        """The nonce padding makes F IND-CPA-style randomized.

        This matters: the *only* determinism in convergent encryption must
        come from the convergent construction, never from F.
        """
        payload = b"same payload"
        a = keypair.public.encrypt(payload, rng=random.Random(1))
        b = keypair.public.encrypt(payload, rng=random.Random(2))
        assert a != b
        assert keypair.decrypt(a) == keypair.decrypt(b) == payload

    def test_oversized_payload_rejected(self, keypair):
        too_big = bytes(keypair.public.max_payload_bytes + 1)
        with pytest.raises(RSAError):
            keypair.public.encrypt(too_big)

    def test_sentinel_in_the_first_byte_is_rejected(self, keypair):
        """A block filling every byte parses to one byte over the limit."""
        public = keypair.public
        width = (public.modulus_bits + 7) // 8
        length = width - 2 - 8  # sentinel, length byte, nonce
        assert length == public.max_payload_bytes + 1
        block = bytes([1, length]) + bytes(8) + bytes(range(length))
        m = int.from_bytes(block, "big")
        assert m < public.n
        ciphertext = pow(m, public.e, public.n).to_bytes(width, "big")
        with pytest.raises(RSAError):
            keypair.decrypt(ciphertext)

    def test_ciphertext_above_modulus_rejected(self, keypair):
        n_bytes = (keypair.public.modulus_bits + 7) // 8
        bogus = (keypair.public.n + 1).to_bytes(n_bytes + 1, "big")
        with pytest.raises(RSAError):
            keypair.decrypt(bogus)


class TestKeyGeneration:
    def test_deterministic_for_seed(self):
        a = generate_keypair(512, rng=random.Random(42))
        b = generate_keypair(512, rng=random.Random(42))
        assert a.public == b.public

    def test_distinct_seeds_distinct_keys(self):
        a = generate_keypair(512, rng=random.Random(1))
        b = generate_keypair(512, rng=random.Random(2))
        assert a.public.n != b.public.n

    def test_modulus_width(self, keypair):
        assert keypair.public.modulus_bits == 512


class TestSerialization:
    def test_to_bytes_is_deterministic(self, keypair):
        assert keypair.public.to_bytes() == keypair.public.to_bytes()

    def test_to_bytes_distinguishes_keys(self, keypair, second_keypair):
        assert keypair.public.to_bytes() != second_keypair.public.to_bytes()
