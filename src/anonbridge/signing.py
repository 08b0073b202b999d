"""Signature scheme used by dApp signers.

Ed25519: deterministic, EUF-CMA, 64-byte signatures, 32-byte verifying
keys. The protocol only needs a verifying signature, so no
circuit-friendliness constraint applies here.
"""

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from . import ops


class KeyPair:
    def __init__(self, signing_seed: bytes):
        if len(signing_seed) != 32:
            raise ValueError("signing seed must be 32 bytes")
        self._sk = Ed25519PrivateKey.from_private_bytes(signing_seed)
        self.verifying_key = self._sk.public_key().public_bytes_raw()

    @classmethod
    def generate(cls, rng) -> "KeyPair":
        return cls(rng.bytes(32))

    def sign(self, message: bytes) -> bytes:
        return self._sk.sign(message)


def verify(verifying_key: bytes, message: bytes, signature: bytes) -> bool:
    """True iff the signature is valid; never raises on bad input."""
    ops.charge("sig_verifies")
    try:
        pk = Ed25519PublicKey.from_public_bytes(bytes(verifying_key))
        pk.verify(bytes(signature), bytes(message))
        return True
    except (InvalidSignature, ValueError):
        return False
