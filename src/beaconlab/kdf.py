"""HKDF-SHA256 (RFC 5869), the one key-derivation function behind BLS key
generation and the Noise and discv5 key schedules."""

from __future__ import annotations

import hmac

HASH_LEN = 32


def hkdf_sha256(salt: bytes, ikm: bytes, info: bytes, length: int) -> bytes:
    """Extract a pseudorandom key from ``ikm`` under ``salt``, then expand
    it with ``info`` to ``length`` bytes."""
    if not 0 <= length <= 255 * HASH_LEN:
        raise ValueError(f"HKDF-SHA256 output length must be in [0, {255 * HASH_LEN}]")
    prk = hmac.digest(salt, ikm, "sha256")
    okm = block = b""
    for counter in range(1, -(-length // HASH_LEN) + 1):
        block = hmac.digest(prk, block + info + bytes([counter]), "sha256")
        okm += block
    return okm[:length]
