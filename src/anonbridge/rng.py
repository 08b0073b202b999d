"""Deterministic seeded randomness.

One root seed per scenario; every actor derives an independent child
stream by domain-separated hashing, so the scheduler order of draws in
one stream never affects another.

This is harness randomness (keys, notes, payloads, seed-chosen
interleavings), not protocol work: it is drawn with CPython's built-in
``_blake2.blake2b`` (the class ``hashlib.blake2b`` names, taken from its
own module so that no OpenSSL-backed ``hashlib`` is loaded), charges no op
and never enters a simulation's hash table. Every protocol hash stays on
``keccak.keccak256``.
"""

import random

from _blake2 import blake2b


def _hash(data: bytes) -> bytes:
    return blake2b(data, digest_size=32).digest()


class SeededRng:
    """Counter-mode blake2b stream over a 32-byte state."""

    def __init__(self, seed):
        if isinstance(seed, int):
            seed = seed.to_bytes(32, "big", signed=False)
        self._start(_hash(b"anonbridge/rng" + bytes(seed)))

    def _start(self, state: bytes) -> None:
        self._state = state
        self._counter = 0
        self._buf = b""

    def child(self, label: str) -> "SeededRng":
        """Independent stream derived from this one's seed and a label."""
        rng = SeededRng.__new__(SeededRng)
        rng._start(_hash(self._state + label.encode()))
        return rng

    def bytes(self, n: int) -> bytes:
        while len(self._buf) < n:
            block = _hash(self._state + self._counter.to_bytes(8, "big"))
            self._counter += 1
            self._buf += block
        out, self._buf = self._buf[:n], self._buf[n:]
        return out

    def py_random(self) -> random.Random:
        """Stdlib Random seeded from this stream, for shuffles/choices."""
        return random.Random(int.from_bytes(self.bytes(32), "big"))


def random_field_31(rng: SeededRng) -> int:
    """Uniform 31-byte integer, big-endian; always < 2^248 < P."""
    return int.from_bytes(rng.bytes(31), "big")
