"""Property tests: RSA encryption over arbitrary payloads."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.rsa import RSAError, generate_keypair

_KEYPAIR = generate_keypair(512, rng=random.Random(0xBEEF))

payloads = st.binary(min_size=0, max_size=_KEYPAIR.public.max_payload_bytes)
seeds = st.integers(min_value=0, max_value=2**32)


class TestRsaProperties:
    @settings(max_examples=60, deadline=None)
    @given(payloads, seeds)
    def test_roundtrip(self, payload, seed):
        ciphertext = _KEYPAIR.public.encrypt(payload, rng=random.Random(seed))
        assert _KEYPAIR.decrypt(ciphertext) == payload

    @settings(max_examples=40, deadline=None)
    @given(payloads, seeds, seeds)
    def test_randomized_padding(self, payload, seed_a, seed_b):
        a = _KEYPAIR.public.encrypt(payload, rng=random.Random(seed_a))
        b = _KEYPAIR.public.encrypt(payload, rng=random.Random(seed_b))
        if seed_a != seed_b:
            # Different nonces virtually always give different ciphertexts.
            assert a != b or seed_a == seed_b
        assert _KEYPAIR.decrypt(a) == _KEYPAIR.decrypt(b) == payload

    @settings(max_examples=40, deadline=None)
    @given(payloads, seeds)
    def test_ciphertext_width_is_fixed(self, payload, seed):
        ciphertext = _KEYPAIR.public.encrypt(payload, rng=random.Random(seed))
        assert len(ciphertext) == (_KEYPAIR.public.modulus_bits + 7) // 8


class TestCrtPrivateOperation:
    """The CRT private operation is the textbook one, only faster."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=_KEYPAIR.public.n - 1))
    def test_crt_equals_plain_exponentiation(self, c):
        assert _KEYPAIR.private_op(c) == pow(c, _KEYPAIR._d, _KEYPAIR.public.n)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=_KEYPAIR.public.n - 1))
    def test_private_then_public_is_identity(self, m):
        """What signing relies on: ``(m^d)^e = m`` for every residue."""
        signature = _KEYPAIR.private_op(m)
        assert pow(signature, _KEYPAIR.public.e, _KEYPAIR.public.n) == m

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=_KEYPAIR.public.n - 1))
    def test_padding_failures_still_raise(self, c):
        """A random residue is not a padded block: decrypt raises, or -- once
        in 2^16 or so -- parses; it never returns a malformed payload."""
        width = (_KEYPAIR.public.modulus_bits + 7) // 8
        try:
            payload = _KEYPAIR.decrypt(c.to_bytes(width, "big"))
        except RSAError:
            return
        assert len(payload) <= _KEYPAIR.public.max_payload_bytes
