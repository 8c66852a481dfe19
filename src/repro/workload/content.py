"""Deterministic synthetic file contents.

The corpus describes files abstractly as ``(content_id, size)``; when an
experiment needs actual bytes (to exercise the Single-Instance Store or the
encryption path end to end), this module materializes them: equal content
identities yield byte-identical data, different identities yield different
data, and generation is cheap: the identity is the input of an
extendable-output function (SHAKE-256) whose output *is* the content, one C
call per blob.

The materialized bytes stand in for the *convergently encrypted* blob of the
file: under convergent encryption, identical plaintexts produce identical
ciphertexts, so identity of these blobs is exactly the property every
downstream component (fingerprinting, SIS coalescing) relies on.
"""

from __future__ import annotations

import hashlib


def synthetic_content(content_id: int, size: int) -> bytes:
    """Deterministic bytes for a synthetic content identity.

    The construction mirrors :func:`repro.core.fingerprint.synthetic_fingerprint`:
    the ``(size, content_id)`` token, here absorbed by SHAKE-256 and squeezed
    to the requested length in one call.  The size is part of the token, so
    two sizes of one identity are unrelated streams, not a prefix of one
    another.
    """
    if size < 0:
        raise ValueError(f"size cannot be negative: {size}")
    token = b"synthetic-content:%d:%d" % (size, content_id)
    return hashlib.shake_256(token).digest(size)
