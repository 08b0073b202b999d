"""Keccak-256 with the original (pre-SHA3) padding used by EVM chains.

The standard library only ships the NIST SHA3 padding variant, so the
permutation is implemented here. Rate is 136 bytes; the multi-rate
padding byte is 0x01 (not SHA3's 0x06).

``_keccak_f`` is a lane-wise implementation in the sense of Bertoni et
al., "Keccak implementation overview" (keccak.team), section 2: each of
the 25 64-bit lanes A[x, y] lives in its own local ``a{x}{y}`` for the
whole permutation, unpacked from the flat state ``a[x + 5*y]`` once and
written back once. The round body is written out as source: theta from
the five column parities, rho and pi fused into one literal rotation
(a shift pair) per lane landing in ``b{x}{y}``, chi row by row, then
iota on lane A[0, 0]. Only the 24 rounds remain a loop.

``keccak256`` charges one unit per rate block and hands its sponge to
``ops.tabled``: the charge and the hash-table rule live in ``ops``.
"""

from . import ops

_MASK = (1 << 64) - 1

_RC = [
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
]

_RATE = 136


def _keccak_f(a: list) -> None:
    """Keccak-f[1600] on the flat 25-lane state ``a[x + 5*y]``, in place."""
    M = _MASK
    (
        a00, a10, a20, a30, a40,
        a01, a11, a21, a31, a41,
        a02, a12, a22, a32, a42,
        a03, a13, a23, a33, a43,
        a04, a14, a24, a34, a44,
    ) = a
    for rc in _RC:
        # theta: column parities c0..c4, then d[x] = c[x-1] ^ rol(c[x+1], 1)
        c0 = a00 ^ a01 ^ a02 ^ a03 ^ a04
        c1 = a10 ^ a11 ^ a12 ^ a13 ^ a14
        c2 = a20 ^ a21 ^ a22 ^ a23 ^ a24
        c3 = a30 ^ a31 ^ a32 ^ a33 ^ a34
        c4 = a40 ^ a41 ^ a42 ^ a43 ^ a44
        d0 = c4 ^ ((c1 << 1 | c1 >> 63) & M)
        d1 = c0 ^ ((c2 << 1 | c2 >> 63) & M)
        d2 = c1 ^ ((c3 << 1 | c3 >> 63) & M)
        d3 = c2 ^ ((c4 << 1 | c4 >> 63) & M)
        d4 = c3 ^ ((c0 << 1 | c0 >> 63) & M)
        # rho + pi: b[y][2x+3y] = rol(a[x][y] ^ d[x], r[x][y])
        b00 = a00 ^ d0
        t = a10 ^ d1
        b02 = (t << 1 | t >> 63) & M
        t = a20 ^ d2
        b04 = (t << 62 | t >> 2) & M
        t = a30 ^ d3
        b01 = (t << 28 | t >> 36) & M
        t = a40 ^ d4
        b03 = (t << 27 | t >> 37) & M
        t = a01 ^ d0
        b13 = (t << 36 | t >> 28) & M
        t = a11 ^ d1
        b10 = (t << 44 | t >> 20) & M
        t = a21 ^ d2
        b12 = (t << 6 | t >> 58) & M
        t = a31 ^ d3
        b14 = (t << 55 | t >> 9) & M
        t = a41 ^ d4
        b11 = (t << 20 | t >> 44) & M
        t = a02 ^ d0
        b21 = (t << 3 | t >> 61) & M
        t = a12 ^ d1
        b23 = (t << 10 | t >> 54) & M
        t = a22 ^ d2
        b20 = (t << 43 | t >> 21) & M
        t = a32 ^ d3
        b22 = (t << 25 | t >> 39) & M
        t = a42 ^ d4
        b24 = (t << 39 | t >> 25) & M
        t = a03 ^ d0
        b34 = (t << 41 | t >> 23) & M
        t = a13 ^ d1
        b31 = (t << 45 | t >> 19) & M
        t = a23 ^ d2
        b33 = (t << 15 | t >> 49) & M
        t = a33 ^ d3
        b30 = (t << 21 | t >> 43) & M
        t = a43 ^ d4
        b32 = (t << 8 | t >> 56) & M
        t = a04 ^ d0
        b42 = (t << 18 | t >> 46) & M
        t = a14 ^ d1
        b44 = (t << 2 | t >> 62) & M
        t = a24 ^ d2
        b41 = (t << 61 | t >> 3) & M
        t = a34 ^ d3
        b43 = (t << 56 | t >> 8) & M
        t = a44 ^ d4
        b40 = (t << 14 | t >> 50) & M
        # chi, row by row: a[x][y] = b[x][y] ^ (~b[x+1][y] & b[x+2][y]),
        # complementing by XOR with the mask so every lane stays non-negative
        a00 = b00 ^ ((b10 ^ M) & b20)
        a10 = b10 ^ ((b20 ^ M) & b30)
        a20 = b20 ^ ((b30 ^ M) & b40)
        a30 = b30 ^ ((b40 ^ M) & b00)
        a40 = b40 ^ ((b00 ^ M) & b10)
        a01 = b01 ^ ((b11 ^ M) & b21)
        a11 = b11 ^ ((b21 ^ M) & b31)
        a21 = b21 ^ ((b31 ^ M) & b41)
        a31 = b31 ^ ((b41 ^ M) & b01)
        a41 = b41 ^ ((b01 ^ M) & b11)
        a02 = b02 ^ ((b12 ^ M) & b22)
        a12 = b12 ^ ((b22 ^ M) & b32)
        a22 = b22 ^ ((b32 ^ M) & b42)
        a32 = b32 ^ ((b42 ^ M) & b02)
        a42 = b42 ^ ((b02 ^ M) & b12)
        a03 = b03 ^ ((b13 ^ M) & b23)
        a13 = b13 ^ ((b23 ^ M) & b33)
        a23 = b23 ^ ((b33 ^ M) & b43)
        a33 = b33 ^ ((b43 ^ M) & b03)
        a43 = b43 ^ ((b03 ^ M) & b13)
        a04 = b04 ^ ((b14 ^ M) & b24)
        a14 = b14 ^ ((b24 ^ M) & b34)
        a24 = b24 ^ ((b34 ^ M) & b44)
        a34 = b34 ^ ((b44 ^ M) & b04)
        a44 = b44 ^ ((b04 ^ M) & b14)
        # iota
        a00 ^= rc
    a[:] = (
        a00, a10, a20, a30, a40,
        a01, a11, a21, a31, a41,
        a02, a12, a22, a32, a42,
        a03, a13, a23, a33, a43,
        a04, a14, a24, a34, a44,
    )


def n_blocks(length: int) -> int:
    """Rate blocks in the padded form of a ``length``-byte input."""
    return length // _RATE + 1


def _sponge(data: bytes, blocks: int) -> bytes:
    """Pad ``data`` to ``blocks`` rate blocks, absorb and squeeze 32 bytes."""
    padded = bytearray(data)
    padded += b"\x00" * (blocks * _RATE - len(data))
    padded[len(data)] ^= 0x01
    padded[-1] ^= 0x80

    state = [0] * 25
    for blk in range(blocks):
        off = blk * _RATE
        for i in range(_RATE // 8):
            state[i] ^= int.from_bytes(padded[off + 8 * i: off + 8 * i + 8], "little")
        _keccak_f(state)

    return b"".join([lane.to_bytes(8, "little") for lane in state[:4]])


def keccak256(data: bytes) -> bytes:
    """Keccak-256 digest of ``data`` (legacy 0x01 padding), tabled under
    its input bytes. Cost: one unit per rate block of the padded input,
    charged also when the active hash table already holds the digest."""
    blocks = n_blocks(len(data))
    ops.charge("keccak_blocks", blocks)
    return ops.tabled(bytes(data), _sponge, data, blocks)
