"""The paper's primary contribution: the Duplicate-File Coalescing core.

- :mod:`repro.core.convergent` -- convergent encryption (section 3,
  Eqs. 1-4): identical plaintexts produce identical ciphertexts irrespective
  of the users' keys, so untrusted hosts can detect and coalesce duplicates.
- :mod:`repro.core.keyring` -- per-user key management and the ciphertext
  metadata set M_f of Eq. 3.
- :mod:`repro.core.fingerprint` -- file fingerprints (size prepended to a
  20-byte content hash, section 4.1).
- :mod:`repro.core.security_model` -- empirical realization of the section
  3.1 security theorem in the random-oracle model.
"""

from repro.core.convergent import (
    ConvergentCiphertext,
    IntegrityError,
    NotAuthorizedError,
    convergent_decrypt,
    convergent_encrypt,
)
from repro.core.fingerprint import Fingerprint, fingerprint_of
from repro.core.keyring import User, UserDirectory

__all__ = [
    "ConvergentCiphertext",
    "Fingerprint",
    "IntegrityError",
    "NotAuthorizedError",
    "User",
    "UserDirectory",
    "convergent_decrypt",
    "convergent_encrypt",
    "fingerprint_of",
]
