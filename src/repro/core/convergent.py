"""Convergent encryption (paper section 3, Eqs. 1-4).

The construction, for file plaintext ``P_f`` and authorized readers ``U_f``:

1. Compute the hash key ``h = H(P_f)``.
2. Encrypt the data with the hash as the symmetric key:
   ``c_f = E_h(P_f)``                                  (Eq. 2)
3. For each authorized reader ``u``, encrypt the hash under the reader's
   public key: ``mu_u = F_{K_u}(h)``; the metadata set is
   ``M_f = { mu_u : u in U_f }``                       (Eq. 3)
4. The ciphertext is the tuple ``C_f = <c_f, M_f>``    (Eq. 1)

Decryption by reader ``u``: recover ``h = F^-1_{K'_u}(mu_u)`` with the
private key, then ``P_f = E^-1_h(c_f)``                (Eq. 4)

Because the data ciphertext is fully determined by the data plaintext,
identical files encrypt to identical ``c_f`` regardless of who encrypted
them -- which is exactly what lets untrusted file hosts coalesce duplicates
(they compare and deduplicate ``c_f``, never seeing ``P_f`` or any private
key).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from random import Random
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.crypto.hashing import CONVERGENCE_KEY_BYTES, convergence_key
from repro.crypto.modes import bulk_encrypt_ctr, decrypt_ctr, encrypt_ctr
from repro.crypto.rsa import RSAError, RSAPublicKey

from repro.core.keyring import User


class NotAuthorizedError(Exception):
    """Raised when a user without a metadata entry attempts decryption."""


class IntegrityError(Exception):
    """The decrypted bytes do not hash back to the key that decrypted them.

    Convergent encryption authenticates for free: the key *is* ``H(P_f)``,
    so data ciphertext altered in storage decrypts to bytes whose hash no
    longer matches, and an altered metadata entry unlocks (if at all) to a
    key the content does not hash to.
    """


def metadata_rng(plaintext: bytes, reader: str) -> Random:
    """A deterministic RNG for one reader's metadata encryption.

    The RSA padding nonce in ``mu_u`` needs randomness, but seeding it from
    process-global entropy makes pipeline runs irreproducible -- and under a
    parallel executor, dependent on worker scheduling.  Deriving the stream
    from ``(plaintext, reader)`` keeps every metadata entry deterministic and
    *independent of execution order*, so serial and parallel batch
    encryptions produce byte-identical ciphertext tuples.  (Determinism here
    costs nothing the construction did not already concede: the data
    ciphertext is deterministic by design, Eq. 2.)
    """
    digest = hashlib.sha256(b"metadata-rng:" + reader.encode() + b":" + plaintext)
    return Random(int.from_bytes(digest.digest()[:16], "big"))


@dataclass(frozen=True)
class ConvergentCiphertext:
    """The tuple ``C_f = <c_f, M_f>`` of Eq. 1.

    ``data`` is the convergently encrypted file content ``c_f``;
    ``metadata`` maps each authorized reader's name to ``mu_u``, the hash key
    encrypted under that reader's public key.
    """

    data: bytes
    metadata: Mapping[str, bytes]

    @property
    def readers(self) -> Iterable[str]:
        return self.metadata.keys()

    def metadata_bytes(self) -> int:
        """Space consumed by per-user key metadata.

        The paper notes coalesced files cost "a small amount of space per
        user's key" beyond the single data copy; this is that amount.
        """
        return sum(len(mu) for mu in self.metadata.values())

    def add_reader(self, name: str, encrypted_key: bytes) -> "ConvergentCiphertext":
        """Return a copy with one more authorized reader.

        The caller must supply ``mu_u`` produced by someone who already knows
        the hash key (see :func:`reencrypt_key_for`).
        """
        merged = dict(self.metadata)
        merged[name] = encrypted_key
        return ConvergentCiphertext(data=self.data, metadata=merged)


def convergent_encrypt(
    plaintext: bytes,
    reader_keys: Mapping[str, RSAPublicKey],
    rng: Optional[Random] = None,
    key_bytes: int = CONVERGENCE_KEY_BYTES,
) -> ConvergentCiphertext:
    """Encrypt *plaintext* so every reader in *reader_keys* can decrypt it.

    The data ciphertext depends only on the plaintext and uses the bulk CTR
    kernel; the metadata entries are randomized per-reader RSA encryptions of
    the hash key.  When no *rng* is supplied, each entry draws from a
    deterministic per-``(plaintext, reader)`` stream (:func:`metadata_rng`),
    so repeated and parallel runs reproduce exactly.
    """
    if not reader_keys:
        raise ValueError("a convergently encrypted file needs at least one reader")
    hash_key = convergence_key(plaintext, key_bytes=key_bytes)
    data = bulk_encrypt_ctr(hash_key, plaintext)
    metadata: Dict[str, bytes] = {
        name: public_key.encrypt(
            hash_key, rng=rng if rng is not None else metadata_rng(plaintext, name)
        )
        for name, public_key in reader_keys.items()
    }
    return ConvergentCiphertext(data=data, metadata=metadata)


def _encrypt_one(args: Tuple[bytes, Mapping[str, RSAPublicKey], int]) -> ConvergentCiphertext:
    plaintext, reader_keys, key_bytes = args
    return convergent_encrypt(plaintext, reader_keys, key_bytes=key_bytes)


def convergent_encrypt_many(
    plaintexts: Sequence[bytes],
    reader_keys: Mapping[str, RSAPublicKey],
    key_bytes: int = CONVERGENCE_KEY_BYTES,
    workers: Optional[int] = 1,
) -> List[ConvergentCiphertext]:
    """Batch-encrypt many files for one reader set.

    With ``workers > 1`` the batch fans out over a process pool; because
    every per-file ciphertext (data *and* metadata, via :func:`metadata_rng`)
    is a pure function of the plaintext, the result list is byte-identical to
    the serial loop, in input order.
    """
    from repro.perf import parallel_map

    return parallel_map(
        _encrypt_one,
        [(plaintext, reader_keys, key_bytes) for plaintext in plaintexts],
        workers=workers,
    )


def convergent_decrypt(ciphertext: ConvergentCiphertext, user: User) -> bytes:
    """Decrypt per Eq. 4: unlock the hash key, then the data, then check it.

    Raises :class:`IntegrityError` if the recovered plaintext does not
    re-derive the unlocked key, i.e. ``c_f`` is not what was written, or if
    ``mu_u`` does not unlock to an AES key at all.
    """
    try:
        mu = ciphertext.metadata[user.name]
    except KeyError:
        raise NotAuthorizedError(
            f"user {user.name!r} is not an authorized reader of this file"
        ) from None
    try:
        hash_key = user.unlock_hash_key(mu)
        plaintext = decrypt_ctr(hash_key, ciphertext.data)
        intact = convergence_key(plaintext, key_bytes=len(hash_key)) == hash_key
    except (RSAError, ValueError) as exc:
        # Bad padding, or a payload that is not 16/24/32 bytes wide.
        raise IntegrityError("metadata entry does not unlock to a usable key") from exc
    if not intact:
        raise IntegrityError("decrypted content does not match its convergence key")
    return plaintext


def verify_convergent(ciphertext: ConvergentCiphertext, plaintext: bytes) -> bool:
    """Check whether *ciphertext* is the convergent encryption of *plaintext*.

    This is the "controlled leak" the paper accepts: anyone holding a
    candidate plaintext can confirm a match without any key.  The security
    theorem (section 3.1) says this is the *only* leak.
    """
    hash_key = convergence_key(plaintext, key_bytes=_infer_key_bytes(ciphertext))
    return encrypt_ctr(hash_key, plaintext) == ciphertext.data


def _infer_key_bytes(ciphertext: ConvergentCiphertext) -> int:
    # All key sizes produce the same-length c_f, so the default suffices for
    # verification unless a caller consistently uses another width.
    return CONVERGENCE_KEY_BYTES


def reencrypt_key_for(
    plaintext: bytes,
    new_reader: RSAPublicKey,
    rng: Optional[Random] = None,
    key_bytes: int = CONVERGENCE_KEY_BYTES,
) -> bytes:
    """Produce ``mu_u`` for a new authorized reader, given the plaintext.

    Any current reader (who can recover the plaintext and hence the hash key)
    can grant access to another user by publishing this value.
    """
    hash_key = convergence_key(plaintext, key_bytes=key_bytes)
    if rng is None:
        rng = metadata_rng(plaintext, f"reencrypt:{new_reader.n}:{new_reader.e}")
    return new_reader.encrypt(hash_key, rng=rng)
