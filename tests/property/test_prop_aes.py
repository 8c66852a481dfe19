"""Property tests: the AES cipher and its modes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.modes import decrypt_ctr, encrypt_ctr
from tests.reference_aes import AES

keys = st.binary(min_size=16, max_size=16) | st.binary(min_size=32, max_size=32)
blocks = st.binary(min_size=16, max_size=16)
payloads = st.binary(min_size=0, max_size=300)


class TestBlockCipher:
    @settings(max_examples=40, deadline=None)
    @given(keys, blocks, blocks)
    def test_injective_per_key(self, key, a, b):
        cipher = AES(key)
        if a != b:
            assert cipher.encrypt_block(a) != cipher.encrypt_block(b)


class TestModes:
    @settings(max_examples=40, deadline=None)
    @given(keys, payloads)
    def test_ctr_roundtrip(self, key, payload):
        assert decrypt_ctr(key, encrypt_ctr(key, payload)) == payload

    @settings(max_examples=40, deadline=None)
    @given(keys, payloads)
    def test_ctr_preserves_length(self, key, payload):
        assert len(encrypt_ctr(key, payload)) == len(payload)

    @settings(max_examples=40, deadline=None)
    @given(keys, payloads)
    def test_modes_deterministic(self, key, payload):
        """Determinism is the property convergent encryption builds on."""
        assert encrypt_ctr(key, payload) == encrypt_ctr(key, payload)
