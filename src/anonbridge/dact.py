"""Anonymous cross-chain message data structures.

The pipeline, in creation order: a wallet draws a three-part random note,
obfuscates its intent (payload digest, destination chain, salt) into one
opaque digest, commits to (secret, nullifier), and submits. Contract-side
code folds the dApp global hash, protocol version, and obfuscated data
into a 73-bit trustless public commitment, then sums commitment + TPC +
source chain id into the Merkle leaf.

Integer-to-bytes encoding everywhere is 32-byte big-endian (EVM word
convention). Addresses are opaque 20-byte identifiers.
"""

from dataclasses import dataclass

from .errors import (
    CallerInList,
    ChainIdOutOfTier,
    DuplicateAddress,
    MalformedDeposit,
    VersionOutOfTier,
)
from .field import P, to_bytes32
from .keccak import keccak256
from .rng import SeededRng, random_field_31

# disjoint value tiers: versions never collide with chain ids
VERSION_MIN, VERSION_MAX = 1, 1000
CHAIN_ID_MIN, CHAIN_ID_MAX = 1001, 10000

TPC_BITS = 73
TPC_MASK = (1 << TPC_BITS) - 1

ADDRESS_LEN = 20


def validate_chain_id(value: int) -> int:
    if not CHAIN_ID_MIN <= value <= CHAIN_ID_MAX:
        raise ChainIdOutOfTier(f"chain id {value} outside [{CHAIN_ID_MIN}, {CHAIN_ID_MAX}]")
    return value


def validate_version(value: int) -> int:
    if not VERSION_MIN <= value <= VERSION_MAX:
        raise VersionOutOfTier(f"version {value} outside [{VERSION_MIN}, {VERSION_MAX}]")
    return value


def validate_address(addr: bytes) -> bytes:
    if len(addr) != ADDRESS_LEN:
        raise MalformedDeposit(f"address must be {ADDRESS_LEN} bytes")
    return addr


@dataclass(frozen=True)
class Note:
    """The user's private material; never leaves the wallet."""

    secret: int
    nullifier: int
    salt: int


@dataclass(frozen=True)
class PayloadIntent:
    payload: bytes       # 32-byte agnostic call-data digest
    dest_chain_id: int

    def __post_init__(self):
        if len(self.payload) != 32:
            raise MalformedDeposit("payload must be exactly 32 bytes")
        validate_chain_id(self.dest_chain_id)


@dataclass(frozen=True)
class DepositRequest:
    commitment: int
    obfuscated_data: bytes
    version: int
    dapp_address: bytes


def note_new(rng: SeededRng) -> Note:
    """Three independent 31-byte field elements: secret, nullifier, salt."""
    return Note(random_field_31(rng), random_field_31(rng), random_field_31(rng))


def obfuscate(intent: PayloadIntent, salt: int) -> bytes:
    """keccak256(payload || dest_chain_id || salt), all 32-byte words."""
    return keccak256(intent.payload + to_bytes32(intent.dest_chain_id) + to_bytes32(salt))


def dapp_global_hash(caller_address: bytes, other_addresses: list) -> bytes:
    """Global dApp alias: keccak over caller then the submitted array.

    Order-sensitive in the submitted order; the registry stores whatever
    the owner submitted and equality is what matters.
    """
    validate_address(caller_address)
    if not other_addresses:
        raise MalformedDeposit("other_addresses must be non-empty")
    seen = set()
    for a in other_addresses:
        validate_address(a)
        if a == caller_address:
            raise CallerInList("caller address must not appear in the list")
        if a in seen:
            raise DuplicateAddress(f"duplicate address {a.hex()}")
        seen.add(a)
    return keccak256(caller_address + b"".join(other_addresses))


def trustless_public_commitment(global_hash: bytes, version: int, obfuscated_data: bytes) -> int:
    """Low-order 73 bits of keccak256(ghash || version || obfuscated)."""
    validate_version(version)
    digest = keccak256(global_hash + to_bytes32(version) + obfuscated_data)
    return int.from_bytes(digest, "big") & TPC_MASK


def make_leaf(commitment: int, tpc: int, source_chain: int) -> int:
    """The leaf value: field addition of the three components, mod P."""
    validate_chain_id(source_chain)
    if tpc >> TPC_BITS:
        raise MalformedDeposit(f"tpc wider than {TPC_BITS} bits")
    return (commitment + tpc + source_chain) % P


def leaf_bytes(leaf_value: int) -> bytes:
    """Canonical message the dApp signs: 32-byte big-endian leaf value."""
    return to_bytes32(leaf_value)


# -- deposit wire format -----------------------------------------------------
# commitment (32) || obfuscated_data (32) || version (32) || dapp_address (20)

_DEPOSIT_LEN = 32 + 32 + 32 + ADDRESS_LEN


def serialize_deposit(req: DepositRequest) -> bytes:
    validate_version(req.version)
    validate_address(req.dapp_address)
    if len(req.obfuscated_data) != 32:
        raise MalformedDeposit("obfuscated_data must be 32 bytes")
    return (
        to_bytes32(req.commitment)
        + req.obfuscated_data
        + to_bytes32(req.version)
        + req.dapp_address
    )


def parse_deposit(data: bytes) -> DepositRequest:
    if len(data) != _DEPOSIT_LEN:
        raise MalformedDeposit(f"deposit must be {_DEPOSIT_LEN} bytes, got {len(data)}")
    commitment = int.from_bytes(data[:32], "big")
    if commitment >= P:
        raise MalformedDeposit("commitment not a field element")
    version = int.from_bytes(data[64:96], "big")
    try:
        validate_version(version)
    except VersionOutOfTier as exc:
        raise MalformedDeposit(str(exc)) from exc
    return DepositRequest(commitment, data[32:64], version, data[96:])
