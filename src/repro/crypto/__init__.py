"""Cryptographic primitives, implemented from scratch but for one.

Farsite roots data privacy in symmetric-key and public-key cryptography
(paper section 2).  This package supplies every primitive the Duplicate-File
Coalescing subsystem needs:

- :mod:`repro.crypto.modes` -- CTR mode.  CTR over file bytes runs on
  OpenSSL's AES in the ``libcrypto`` CPython already links; the tests check
  it against a from-scratch FIPS-197 AES kept in ``tests/reference_aes.py``.
- :mod:`repro.crypto.primes` -- Miller-Rabin primality and prime generation.
- :mod:`repro.crypto.rsa` -- textbook RSA key pairs for user and machine keys.
- :mod:`repro.crypto.hashing` -- the 20-byte "cryptographically strong hash"
  used for machine identifiers and file fingerprints.
- :mod:`repro.crypto.random_oracle` -- the random-oracle model of section 3.1,
  used to test the convergent-encryption security theorem.
"""

from repro.crypto.hashing import (
    FINGERPRINT_HASH_BYTES,
    content_hash,
    convergence_key,
    strong_hash,
)
from repro.crypto.modes import decrypt_ctr, encrypt_ctr
from repro.crypto.primes import generate_prime, is_probable_prime
from repro.crypto.rsa import RSAKeyPair, RSAPublicKey, generate_keypair

__all__ = [
    "FINGERPRINT_HASH_BYTES",
    "RSAKeyPair",
    "RSAPublicKey",
    "content_hash",
    "convergence_key",
    "decrypt_ctr",
    "encrypt_ctr",
    "generate_keypair",
    "generate_prime",
    "is_probable_prime",
    "strong_hash",
]
