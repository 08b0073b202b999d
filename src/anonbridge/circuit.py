"""Settlement and revert constraint systems behind a simulated prover.

Proofs are MACs under a per-circuit "deity key" held solely by the
proving object, which refuses to MAC the public signals unless every
constraint holds. This makes soundness and hiding testable contracts:
the prove/verify seam is exactly where a real SNARK backend would slot
in, and the proof object carries nothing witness-derived beyond the
public signals.

The MAC stands in for a SNARK, so it is host work, not a protocol hash:
CPython's built-in keyed BLAKE2b (``_blake2.blake2b``, RFC 7693 keyed
mode) under the deity key over circuit_id byte || canonical public
signals, a 32-byte tag, compared in constant time by
``_operator._compare_digest`` (``hmac.compare_digest`` without OpenSSL).
Prove and verify each charge the keccak blocks of the Keccak-256 MAC the
op-count model prices, over deity_key || circuit_id byte || publics.
The tag never enters a simulation's hash table: ``verify`` recomputes it.

Serialization: circuit_id byte || canonical public signals || 32-byte
attestation. Settlement publics are nullifier_hash (32) || merkle_root
(32) || tpc (32) || verifying_key (32); revert publics are commitment
(32) || source_chain (32) || nullifier_hash (32) || merkle_root (32) ||
tpc (32). Each circuit binds its public TPC into the leaf under the root.
"""

from _blake2 import blake2b
from _operator import _compare_digest
from dataclasses import dataclass

from . import ops
from .dact import make_leaf, leaf_bytes, validate_chain_id
from .errors import ConstraintViolation, InvalidProof
from .field import to_bytes32
from .hashing import commit, nullifier_hash
from .keccak import n_blocks
from .merkle import MerklePath, verify_path
from .signing import verify as verify_signature

SETTLEMENT = 1
REVERT = 2


@dataclass(frozen=True)
class SettlementWitness:
    nullifier: int
    secret: int
    path: MerklePath
    source_chain: int
    leaf_signature: bytes


@dataclass(frozen=True)
class SettlementPublic:
    nullifier_hash: int
    merkle_root: int
    tpc: int
    dapp_verifying_key: bytes

    def canonical_bytes(self) -> bytes:
        return (
            to_bytes32(self.nullifier_hash)
            + to_bytes32(self.merkle_root)
            + to_bytes32(self.tpc)
            + self.dapp_verifying_key
        )


@dataclass(frozen=True)
class RevertWitness:
    """The note and its path; the TPC is public, as the deposit event is."""
    nullifier: int
    secret: int
    path: MerklePath


@dataclass(frozen=True)
class RevertPublic:
    commitment: int
    source_chain: int
    nullifier_hash: int
    merkle_root: int
    tpc: int

    def canonical_bytes(self) -> bytes:
        return (
            to_bytes32(self.commitment)
            + to_bytes32(self.source_chain)
            + to_bytes32(self.nullifier_hash)
            + to_bytes32(self.merkle_root)
            + to_bytes32(self.tpc)
        )


@dataclass(frozen=True)
class Proof:
    circuit_id: int
    public: object  # SettlementPublic | RevertPublic
    attestation: bytes

    def serialize(self) -> bytes:
        return bytes([self.circuit_id]) + self.public.canonical_bytes() + self.attestation


def _check_settlement(w: SettlementWitness, p: SettlementPublic) -> None:
    """All four settlement constraints, in order."""
    validate_chain_id(w.source_chain)
    ops.charge("constraint_evals")
    if nullifier_hash(w.nullifier) != p.nullifier_hash:
        raise ConstraintViolation("nullifier_hash")
    ops.charge("constraint_evals")
    leaf = make_leaf(commit(w.secret, w.nullifier), p.tpc, w.source_chain)
    ops.charge("constraint_evals", len(w.path.elements))
    if not verify_path(p.merkle_root, leaf, w.path):
        raise ConstraintViolation("merkle_path")
    ops.charge("constraint_evals")
    if not verify_signature(p.dapp_verifying_key, leaf_bytes(leaf), w.leaf_signature):
        raise ConstraintViolation("signature")


def _check_revert(w: RevertWitness, p: RevertPublic) -> None:
    """Revert circuit: no signature check; commitment, source and TPC public."""
    validate_chain_id(p.source_chain)
    ops.charge("constraint_evals")
    if commit(w.secret, w.nullifier) != p.commitment:
        raise ConstraintViolation("commitment")
    ops.charge("constraint_evals")
    if nullifier_hash(w.nullifier) != p.nullifier_hash:
        raise ConstraintViolation("nullifier_hash")
    leaf = make_leaf(p.commitment, p.tpc, p.source_chain)
    ops.charge("constraint_evals", len(w.path.elements))
    if not verify_path(p.merkle_root, leaf, w.path):
        raise ConstraintViolation("merkle_path")


# circuit id -> its constraint check, which raises ConstraintViolation
_CONSTRAINTS = {SETTLEMENT: _check_settlement, REVERT: _check_revert}


def constraints_hold(circuit_id: int, witness, public) -> bool:
    """Whether every constraint of ``circuit_id`` holds, as a boolean."""
    try:
        _CONSTRAINTS[circuit_id](witness, public)
        return True
    except ConstraintViolation:
        return False


class ProofSystem:
    """Holds the per-circuit deity keys; one instance per scenario."""

    def __init__(self, rng):
        self._keys = {cid: rng.bytes(32) for cid in _CONSTRAINTS}

    def _mac(self, circuit_id: int, public) -> bytes:
        key = self._keys[circuit_id]
        data = bytes([circuit_id]) + public.canonical_bytes()
        ops.charge("keccak_blocks", n_blocks(len(key) + len(data)))
        return blake2b(data, key=key, digest_size=32).digest()

    def prove(self, circuit_id: int, witness, public) -> Proof:
        """MAC the public signals iff the circuit constraints hold."""
        check = _CONSTRAINTS.get(circuit_id)
        if check is None:
            raise InvalidProof(f"unknown circuit id {circuit_id}")
        check(witness, public)
        return Proof(circuit_id, public, self._mac(circuit_id, public))

    def verify(self, circuit_id: int, proof: Proof) -> bool:
        """Constant-cost check that the attestation covers the publics."""
        ops.charge("proof_verifies")
        if proof.circuit_id != circuit_id:
            return False
        return _compare_digest(self._mac(circuit_id, proof.public), proof.attestation)
