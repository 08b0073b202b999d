"""MiMC sponge permutation and the commitment hashes built from it.

Construction: a 220-round exponent-5 Feistel permutation over a two-lane
state in the BN254 scalar field, round constants derived by iterating
keccak256 from the ASCII seed ``mimcsponge``. ``mimc_hash2`` absorbs both
inputs into the state and runs exactly one permutation, so the op-counter
charges one permutation per tree-hash call.

Commitments use the same permutation under distinct domain-separation
constants so that ``commit`` and ``nullifier_hash`` can never collide
with each other or with tree nodes.

Hash table. ``permute`` and ``keccak.keccak256`` are pure functions, and
a simulation hashes the same inputs many times: a settlement or revert
proof re-folds a Merkle path whose nodes the tree's spine fold already
hashed, the wallet recomputes its commitment and nullifier hash, and the
destination Router recomputes the obfuscated data and the TPC the
deposit already hashed. The proof attestation is no protocol hash: it is
keyed BLAKE2b, charged as the keccak256 MAC the op-count model prices,
kept out of the table and recomputed by ``ProofSystem.verify`` (see
``circuit``). Both cores charge their cost first and then pass their
computation to ``ops.tabled``, where the table rule lives: inside an
``ops.hash_table(table)`` block the output stored for an input seen
before is returned, and every output computed is stored. ``permute``
keys on its input pair (a tuple) and ``keccak256`` on its input bytes,
so the two kinds of key never collide in the one dict. Each
``Simulation`` owns one table and enters it around every contract call
and around the honest proof ``withdraw_grafted`` builds outside its
call; outside such a block no table is active and every call computes.
A hit is charged like a miss (one permutation, or the input's keccak
blocks): op counts model the protocol's in-circuit and on-chain cost,
not host work. The table holds one entry per distinct input, and is
freed with the simulation that owns it.
"""

from . import ops
from .field import P, check, reduce_bytes
from .keccak import keccak256

N_PERM_ROUNDS = 220

_CONSTANT_SEED = b"mimcsponge"


def _round_constants() -> list:
    cs = []
    s = keccak256(_CONSTANT_SEED)
    for _ in range(N_PERM_ROUNDS):
        s = keccak256(s)
        cs.append(int.from_bytes(s, "big") % P)
    return cs


_C = _round_constants()

# domain-separation constants for the pluggable commitment hash
DOMAIN_COMMIT = reduce_bytes(keccak256(b"anonbridge/commit"))
DOMAIN_NULLIFIER = reduce_bytes(keccak256(b"anonbridge/nullifier"))


def _feistel(x_left: int, x_right: int) -> tuple:
    """The 220 Feistel rounds of ``permute``, uncharged and untabled.

    Each round sets ``x_left, x_right = x_right + (x_left + c)**5, x_left``
    over the field, and the last round leaves the lanes unswapped. Here
    every round swaps and the return swaps back. Reductions mod P are
    deferred: only the fifth power is reduced inside the loop, and both
    lanes once on return. Every step adds, multiplies or reduces mod P,
    so each lane stays congruent mod P to the fully reduced one, and the
    final ``% P`` gives the same canonical result for any integer input.

    Size bound, for inputs in [0, P): a lane gains one reduced power,
    less than P, every two rounds, so after 220 rounds both lanes are
    below 111 * P < 2**261. The base ``x_left + c`` stays below 112 * P.
    """
    for c in _C:
        t = x_left + c
        t2 = t * t % P
        x_left, x_right = x_right + t2 * t2 * t % P, x_left
    return x_right % P, x_left % P


def permute(x_left: int, x_right: int) -> tuple:
    """One full Feistel permutation of the two-lane state, tabled under
    its input pair. Cost: 1 unit, charged also when the active hash table
    already holds it."""
    ops.charge("permutations")
    return ops.tabled((x_left, x_right), _feistel, x_left, x_right)


def mimc_hash2(left: int, right: int) -> int:
    """Two-to-one hash used for Merkle tree nodes. Exactly 1 permutation."""
    check(left)
    check(right)
    return permute(left, right)[0]


def mimc_sponge(inputs, domain: int) -> int:
    """Absorb ``inputs`` one lane at a time under a domain constant."""
    x_left, x_right = domain % P, 0
    for v in inputs:
        x_left = (x_left + check(v)) % P
        x_left, x_right = permute(x_left, x_right)
    return x_left


def commit(secret: int, nullifier: int) -> int:
    """Hiding, binding commitment to (secret, nullifier)."""
    return mimc_sponge((secret, nullifier), DOMAIN_COMMIT)


def nullifier_hash(nullifier: int) -> int:
    """Public image of the nullifier; published at settlement."""
    return mimc_sponge((nullifier,), DOMAIN_NULLIFIER)
