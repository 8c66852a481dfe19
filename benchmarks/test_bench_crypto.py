"""Crypto microbenchmarks: the primitives every DFC operation pays for.

Not a paper figure; quantifies the substrate so the figure benches'
absolute times are interpretable.
"""

import random

import pytest

from repro.core.convergent import convergent_encrypt
from repro.core.keyring import User
from repro.crypto.hashing import content_hash, convergence_key
from repro.crypto.modes import bulk_encrypt_ctr, encrypt_ctr
from tests.reference_aes import AES, encrypt_ctr_scalar

KEY = bytes(range(16))
BLOCK = bytes(range(16))
PAYLOAD = bytes(256) * 16  # 4 KiB, the paper's pivotal file size
PAYLOAD_1M = bytes(1024) * 1024  # 1 MiB, the bulk-path showcase size


def test_bench_aes_block(benchmark):
    cipher = AES(KEY)
    benchmark(cipher.encrypt_block, BLOCK)


def test_bench_aes_block_scalar(benchmark):
    """The seed's per-byte rounds; the T-table baseline comparison."""
    cipher = AES(KEY)
    benchmark(cipher.encrypt_block_scalar, BLOCK)


def test_bench_ctr_4k(benchmark):
    benchmark(encrypt_ctr, KEY, PAYLOAD)


def test_bench_ctr_4k_scalar(benchmark):
    """The seed's block-at-a-time CTR; the vectorized baseline comparison."""
    benchmark(encrypt_ctr_scalar, KEY, PAYLOAD)


def test_bench_bulk_ctr_1m(benchmark):
    benchmark(bulk_encrypt_ctr, KEY, PAYLOAD_1M)


def test_bench_sha_fingerprint_4k(benchmark):
    benchmark(content_hash, PAYLOAD)


def test_bench_convergence_key_4k(benchmark):
    benchmark(convergence_key, PAYLOAD)


@pytest.fixture(scope="module")
def user():
    return User.create("bench", rng=random.Random(0))


def test_bench_convergent_encrypt_4k(benchmark, user):
    rng = random.Random(1)
    benchmark(convergent_encrypt, PAYLOAD, {"bench": user.public_key}, rng)


def test_bench_rsa_unlock(benchmark, user):
    locked = user.public_key.encrypt(convergence_key(PAYLOAD), rng=random.Random(2))
    benchmark(user.unlock_hash_key, locked)
