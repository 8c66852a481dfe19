"""Modes of operation for the AES block cipher.

Convergent encryption requires that the ciphertext of a file be *fully
determined* by the file plaintext (paper section 3): ``c_f = E_{H(P_f)}(P_f)``
(Eq. 2).  We therefore use CTR mode with a fixed zero nonce: the key is
already a collision-resistant hash of the plaintext, so keystream reuse
across *different* plaintexts is impossible, and reuse across *identical*
plaintexts is precisely the feature.

The CTR path every file takes (:func:`bulk_encrypt_ctr`) runs on OpenSSL's
EVP AES-CTR, reached through :mod:`ctypes` in the ``libcrypto`` that
CPython's ``_hashlib`` already maps into the process: one cipher context and
one update per file, nothing kept between calls.  The library is resolved on
the first CTR call, so a process that never encrypts never touches it.

The tests check the library path bit for bit against a from-scratch
FIPS-197 cipher driven one block at a time, which lives in the test tree
(``tests/reference_aes.py``) because no caller of the package runs it.
"""

from __future__ import annotations

import ctypes
from functools import lru_cache

#: AES's block width in bytes: the counter block is this wide.
BLOCK_SIZE = 16

#: ``EVP_EncryptUpdate`` takes an ``int`` length: a longer input goes in steps
#: of this many bytes, the counter carrying on from one step to the next.
_STEP = 1 << 30

#: OpenSSL's CTR cipher for each AES key width.
_EVP_CTR = {16: "EVP_aes_128_ctr", 24: "EVP_aes_192_ctr", 32: "EVP_aes_256_ctr"}


@lru_cache(maxsize=None)
def _libcrypto() -> ctypes.CDLL:
    """OpenSSL's libcrypto, through the ``_hashlib`` extension that links it.

    Symbols resolve through ``_hashlib``'s own handle, so this is the very
    library ``hashlib`` and ``ssl`` already use, never a second copy.
    """
    try:
        import _hashlib

        lib = ctypes.CDLL(_hashlib.__file__)
        pointer = ctypes.c_void_p
        signatures = {
            "OpenSSL_version": (ctypes.c_char_p, ctypes.c_int),
            "EVP_CIPHER_CTX_new": (pointer,),
            "EVP_CIPHER_CTX_free": (None, pointer),
            "EVP_EncryptInit_ex": (
                ctypes.c_int, pointer, pointer, pointer, ctypes.c_char_p, ctypes.c_char_p
            ),
            "EVP_EncryptUpdate": (
                ctypes.c_int, pointer, pointer, ctypes.POINTER(ctypes.c_int), pointer, ctypes.c_int
            ),
            **{name: (pointer,) for name in _EVP_CTR.values()},
        }
        for name, (restype, *argtypes) in signatures.items():
            function = getattr(lib, name)
            function.restype, function.argtypes = restype, argtypes
    except (ImportError, OSError, AttributeError) as error:
        raise RuntimeError(
            "AES-CTR needs OpenSSL's libcrypto as linked by CPython's _hashlib "
            f"module, which could not be loaded: {error}"
        ) from error
    return lib


#: The C API's way of building bytes without a copy, bound to the running
#: interpreter: ``PyBytes_FromStringAndSize(NULL, n)`` makes a bytes object
#: whose n bytes the cipher writes in place before anything else sees it.
_new_bytes = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.c_void_p, ctypes.c_ssize_t)(
    ("PyBytes_FromStringAndSize", ctypes.pythonapi)
)
_bytes_buffer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object)(
    ("PyBytes_AsString", ctypes.pythonapi)
)


def bulk_encrypt_ctr(key: bytes, plaintext: bytes, nonce: int = 0) -> bytes:
    """Encrypt *plaintext* in CTR mode on libcrypto's AES.

    The initial counter block is *nonce* mod 2^128, big-endian; the output
    is byte-identical to the scalar reference in ``tests/reference_aes.py``.
    One cipher context and one update per call (an input past :data:`_STEP`
    bytes takes more).
    """
    if not plaintext:
        return b""
    if len(key) not in _EVP_CTR:
        raise ValueError(f"AES key must be 16, 24, or 32 bytes, got {len(key)}")
    lib = _libcrypto()
    data = bytes(plaintext)
    size = len(data)
    out = _new_bytes(None, size)
    source = _bytes_buffer(data)
    target = _bytes_buffer(out)
    written = ctypes.c_int()
    ctx = lib.EVP_CIPHER_CTX_new()
    if not ctx:
        raise MemoryError("libcrypto: EVP_CIPHER_CTX_new failed")
    try:
        counter = (nonce % (1 << 128)).to_bytes(BLOCK_SIZE, "big")
        cipher = getattr(lib, _EVP_CTR[len(key)])()
        if not lib.EVP_EncryptInit_ex(ctx, cipher, None, bytes(key), counter):
            raise RuntimeError("libcrypto: EVP_EncryptInit_ex failed")
        for start in range(0, size, _STEP):
            step = min(_STEP, size - start)
            if not lib.EVP_EncryptUpdate(
                ctx, target + start, ctypes.byref(written), source + start, step
            ):
                raise RuntimeError("libcrypto: EVP_EncryptUpdate failed")
    finally:
        lib.EVP_CIPHER_CTX_free(ctx)
    return out


def encrypt_ctr(key: bytes, plaintext: bytes, nonce: int = 0) -> bytes:
    """Encrypt *plaintext* under *key* in CTR mode.

    The output has exactly the length of the input, so coalesced storage of a
    convergently encrypted file costs no more space than the plaintext.
    Delegates to the bulk path.
    """
    return bulk_encrypt_ctr(key, plaintext, nonce)


def decrypt_ctr(key: bytes, ciphertext: bytes, nonce: int = 0) -> bytes:
    """CTR decryption is CTR encryption."""
    return encrypt_ctr(key, ciphertext, nonce)
