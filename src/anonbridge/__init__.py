"""Deterministic multi-chain simulator for an anonymous cross-chain
message protocol: commitment mixer, nullifier accounting, settlement and
revert constraint systems, contract state machines, actors, and a
scenario harness."""

from .circuit import (
    REVERT,
    SETTLEMENT,
    Proof,
    ProofSystem,
    RevertPublic,
    RevertWitness,
    SettlementPublic,
    SettlementWitness,
    constraints_hold,
)
from .dact import (
    DepositRequest,
    Note,
    PayloadIntent,
    dapp_global_hash,
    make_leaf,
    note_new,
    obfuscate,
    parse_deposit,
    serialize_deposit,
    trustless_public_commitment,
)
from .field import P
from .hashing import commit, mimc_hash2, mimc_sponge, nullifier_hash
from .keccak import keccak256
from .merkle import MerklePath, MerkleTree, verify_path
from .rng import SeededRng

__version__ = "0.1.0"

__all__ = [
    "P",
    "SeededRng",
    "keccak256",
    "mimc_hash2",
    "mimc_sponge",
    "commit",
    "nullifier_hash",
    "MerkleTree",
    "MerklePath",
    "verify_path",
    "Note",
    "PayloadIntent",
    "DepositRequest",
    "note_new",
    "obfuscate",
    "dapp_global_hash",
    "trustless_public_commitment",
    "make_leaf",
    "serialize_deposit",
    "parse_deposit",
    "SETTLEMENT",
    "REVERT",
    "Proof",
    "ProofSystem",
    "SettlementWitness",
    "SettlementPublic",
    "RevertWitness",
    "RevertPublic",
    "constraints_hold",
    "__version__",
]
