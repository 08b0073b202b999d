"""Prime-field arithmetic over the BN254 scalar field.

Field elements are plain Python ints in [0, P); helpers below keep
encodings canonical (32-byte big-endian).
"""

from .errors import NotInField

# BN254 (alt_bn128) scalar field modulus, 254 bits.
P = 21888242871839275222246405745257275088548364400416034343698204186575808495617


def check(x: int) -> int:
    """Assert that ``x`` is a canonical field element and return it."""
    if not isinstance(x, int) or x < 0 or x >= P:
        raise NotInField(f"not a canonical field element: {x!r}")
    return x


def to_bytes32(x: int) -> bytes:
    """Canonical 32-byte big-endian encoding; also used for ints < P."""
    return x.to_bytes(32, "big")


def reduce_bytes(b: bytes) -> int:
    """Interpret arbitrary bytes big-endian and reduce mod P."""
    return int.from_bytes(b, "big") % P
