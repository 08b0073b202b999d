"""In-process ledgers and the three contract state machines.

One ``Chain`` per supported blockchain, each carrying a Router contract
deployed with its oracle key, proof verifier and revert window, so a call
carries only calldata; the multiplexer chain also carries the Mixer. There
is no consensus or mempool: the scenario scheduler serializes every call,
and a block clock advances only through ``advance_blocks``.

An ``Event`` carries its canonical payload and block height only; a
deposit's dApp is its source Router's ``commitment_log`` entry. A contract
reads another chain only in what it ``published`` (the stand-in for an
inclusion proof): deposit events for the Mixer, revert marks for a Router.
"""

from dataclasses import dataclass

from . import circuit as circuit_mod
from .dact import (
    DepositRequest,
    PayloadIntent,
    dapp_global_hash,
    make_leaf,
    obfuscate,
    trustless_public_commitment,
    validate_chain_id,
)
from .errors import (
    AlreadyPending,
    AlreadyRegistered,
    DoubleSpend,
    DuplicateCommitment,
    Halted,
    IndexUnknown,
    InvalidProof,
    NoPending,
    NotMarked,
    TpcMismatch,
    Unauthorized,
    UnknownCommitment,
    UnknownDapp,
    UnknownDeposit,
    UnknownRoot,
    WindowActive,
    WindowExpired,
    WrongChain,
)
from .field import to_bytes32
from .merkle import MerkleTree

ROUTER_ROOT_WINDOW = 2      # a Router only remembers the latest two roots


@dataclass
class Event:
    """The published bytes and their block height, no side metadata."""
    kind: str
    payload: bytes          # canonical protocol fields only
    block: int


def words(*values: int) -> bytes:
    """An event payload: each value as one 32-byte big-endian word."""
    return b"".join(map(to_bytes32, values))


def unwords(payload: bytes) -> list:
    """The values of a payload's 32-byte words, in order."""
    return [int.from_bytes(payload[i:i + 32], "big") for i in range(0, len(payload), 32)]


@dataclass
class PendingRevert:
    commitment: int
    window_end: int
    halted: bool = False


class RouterState:
    def __init__(self):
        self.dapp_registry: dict = {}      # global hash -> local dApp address
        self.dapp_keys: dict = {}          # verifying key -> global hash
        self.dapp_ghash: dict = {}         # local dApp address -> its first global hash
        self.known_roots: list = []        # latest two, oldest first
        self.nullifier_spent: set = set()
        # nullifier_hash -> commitment marked or refunded here; only the benchmark reads it
        self.nullifier_reverted: dict = {}
        self.pending_reverts: dict = {}    # nullifier_hash -> PendingRevert
        self.commitment_log: dict = {}     # commitment -> dApp address (source side)


class MixerState:
    def __init__(self, depth: int):
        self.commitments: dict = {}        # commitment -> leaf index; wallets and signers read it
        self.tree = MerkleTree(depth)
        self.leaf_signatures: dict = {}    # leaf index -> signature bytes


class Chain:
    """One blockchain: block clock, event log and what it ``published``,
    Router, the Mixer on the multiplexer, and ``dapps``, its dApp contracts
    by address. The Router's ``verifier`` and ``revert_window`` are fixed
    at deployment, next to ``oracle_auth``; no contract call supplies them."""

    def __init__(self, chain_id: int, depth: int = None, oracle_auth: bytes = b"",
                 verifier: circuit_mod.ProofSystem = None, revert_window: int = None):
        validate_chain_id(chain_id)
        self.chain_id = chain_id
        self.height = 0
        self.event_log: list = []
        self.published: set = set()        # (kind, payload) of every event emitted
        self.router = RouterState()
        self.mixer = MixerState(depth) if depth is not None else None
        self.oracle_auth = oracle_auth
        self.verifier = verifier
        self.revert_window = revert_window
        self.dapps: dict = {}              # address -> deployed dApp contract

    def emit(self, kind: str, payload: bytes) -> Event:
        ev = Event(kind, payload, self.height)
        self.event_log.append(ev)
        self.published.add((kind, payload))
        return ev


# -- Router: registration and deposit ----------------------------------------

def router_register_dapp(chain: Chain, caller: bytes, other_addresses: list,
                         verifying_key: bytes, home_address: bytes = None) -> bytes:
    """Register a dApp's global hash, local address, and verifying key.

    Message-sender check: only a deployed dApp contract may call. The
    global hash must be identical on every chain for the TPC to verify
    cross-chain, so registrations away from the dApp's home chain submit
    the home address and the same array; the Router recomputes the hash
    and requires the local caller to appear in that array, which blocks
    hash squatting. First writer wins; a registered hash, and the global
    hash a verifying key is bound to, are permanent.
    """
    if caller not in chain.dapps:
        raise Unauthorized(f"{caller.hex()} is not a dApp contract on chain {chain.chain_id}")
    home = home_address if home_address is not None else caller
    if home != caller and caller not in other_addresses:
        raise Unauthorized("caller is not part of the dApp's address array")
    ghash = dapp_global_hash(home, other_addresses)
    if ghash in chain.router.dapp_registry:
        raise AlreadyRegistered(f"global hash {ghash.hex()} already registered")
    if verifying_key in chain.router.dapp_keys:
        raise AlreadyRegistered(f"verifying key {verifying_key.hex()} already bound")
    chain.router.dapp_registry[ghash] = caller
    chain.router.dapp_keys[verifying_key] = ghash
    chain.router.dapp_ghash.setdefault(caller, ghash)
    return ghash


def router_deposit(chain: Chain, req: DepositRequest) -> Event:
    """Accept a deposit, derive the TPC, and emit the three-field event."""
    router = chain.router
    ghash = router.dapp_ghash.get(req.dapp_address)
    if ghash is None:
        raise UnknownDapp(f"dApp {req.dapp_address.hex()} not registered")
    if req.commitment in router.commitment_log:
        raise DuplicateCommitment(f"commitment {req.commitment} already submitted")
    tpc = trustless_public_commitment(ghash, req.version, req.obfuscated_data)
    router.commitment_log[req.commitment] = req.dapp_address
    return chain.emit("deposit", words(req.commitment, tpc, chain.chain_id))


# -- Mixer --------------------------------------------------------------------

def mixer_submit(chain: Chain, event: Event, source: Chain) -> int:
    """Relay a deposit event ``source`` published into the global tree;
    dedupe on commitment, then record its leaf index in ``commitments``."""
    mixer = chain.mixer
    payload = event.payload
    if ("deposit", payload) not in source.published or payload[64:] != words(source.chain_id):
        raise UnknownDeposit(f"chain {source.chain_id} published no such deposit event")
    commitment, tpc, source_chain = unwords(payload)
    if commitment in mixer.commitments:
        raise DuplicateCommitment(f"commitment {commitment} already in the tree")
    leaf = make_leaf(commitment, tpc, source_chain)
    index = mixer.tree.insert(leaf)
    mixer.commitments[commitment] = index
    chain.emit("leaf_inserted", words(leaf, index))
    return index


def mixer_store_signature(chain: Chain, leaf_index: int, signature: bytes) -> None:
    """First-write-wins signature storage by leaf index; the stored
    signature is public state, published as signature || leaf index."""
    mixer = chain.mixer
    if not 0 <= leaf_index < len(mixer.tree.leaves):
        raise IndexUnknown(f"no leaf at index {leaf_index}")
    if leaf_index in mixer.leaf_signatures:
        raise Unauthorized(f"signature for leaf {leaf_index} already stored")
    mixer.leaf_signatures[leaf_index] = signature
    chain.emit("signature_stored", signature + words(leaf_index))


# -- Router: root sync and withdrawal ----------------------------------------

def router_update_root(chain: Chain, root: int, oracle_auth: bytes) -> None:
    """Oracle-authenticated root push; keeps only the latest two roots."""
    if oracle_auth != chain.oracle_auth:
        raise Unauthorized("root update requires oracle network authentication")
    chain.router.known_roots.append(root)
    if len(chain.router.known_roots) > ROUTER_ROOT_WINDOW:
        del chain.router.known_roots[:-ROUTER_ROOT_WINDOW]
    chain.emit("root_update", words(root))


def router_withdraw(chain: Chain, proof, payload: bytes, salt: int,
                    dest_chain_claim: int, version: int) -> None:
    """Destination-side settlement; the six contract checks, in order."""
    router = chain.router
    public = proof.public
    # 1. not double spending
    if public.nullifier_hash in router.nullifier_spent:
        raise DoubleSpend(f"nullifier hash {public.nullifier_hash} already spent")
    # 2. root is known
    if public.merkle_root not in router.known_roots:
        raise UnknownRoot(f"root {public.merkle_root} not among the latest two")
    # 3. this chain is the destination bound inside the TPC
    if dest_chain_claim != chain.chain_id:
        raise WrongChain(f"claimed destination {dest_chain_claim} != {chain.chain_id}")
    ghash = router.dapp_keys.get(public.dapp_verifying_key)
    if ghash is None:
        raise UnknownDapp("verifying key maps to no registered dApp")
    od = obfuscate(PayloadIntent(payload, chain.chain_id), salt)
    if trustless_public_commitment(ghash, version, od) != public.tpc:
        raise TpcMismatch("recomputed TPC does not match the proof's public signal")
    # 4. the proof verifies
    if not chain.verifier.verify(circuit_mod.SETTLEMENT, proof):
        raise InvalidProof("settlement attestation rejected")
    # 5. resolve and invoke the destination dApp
    dapp_address = router.dapp_registry[ghash]
    router.nullifier_spent.add(public.nullifier_hash)
    chain.emit("settled", words(public.nullifier_hash))
    chain.dapps[dapp_address].on_settle(payload)


# -- Router: revert -----------------------------------------------------------

def router_revert_mark_destination(chain: Chain, proof, payload: bytes, salt: int,
                                   version: int, ghash: bytes) -> None:
    """Flag the nullifier as Spent and Reverted on the destination chain.

    The call carries (payload, salt, version, global hash) so the Router
    can recompute the TPC with itself as the destination and compare it
    with the proof's public TPC, which the circuit bound into the leaf --
    the withdraw check. The mark event publishes nullifier hash ||
    commitment; a revert reveals both anyway, and the deposit the TPC.
    """
    router = chain.router
    public = proof.public
    if not chain.verifier.verify(circuit_mod.REVERT, proof):
        raise InvalidProof("revert attestation rejected")
    if public.merkle_root not in router.known_roots:
        raise UnknownRoot(f"root {public.merkle_root} not among the latest two")
    if public.nullifier_hash in router.nullifier_spent:
        raise DoubleSpend(f"nullifier hash {public.nullifier_hash} already spent")
    if ghash not in router.dapp_registry:
        raise UnknownDapp("global hash not registered on this chain")
    od = obfuscate(PayloadIntent(payload, chain.chain_id), salt)
    if trustless_public_commitment(ghash, version, od) != public.tpc:
        raise TpcMismatch("this chain is not the destination bound in the intent")
    router.nullifier_spent.add(public.nullifier_hash)
    router.nullifier_reverted[public.nullifier_hash] = public.commitment
    chain.emit("revert_marked", words(public.nullifier_hash, public.commitment))


def router_revert_initiate_source(chain: Chain, dest: Chain, proof) -> int:
    """Open the revert window on the source chain, once per commitment, over
    the revert mark of it that ``dest`` published; returns window end. Like
    the Mixer's, both checks are of event inclusion, and charge nothing."""
    router = chain.router
    public = proof.public
    if not chain.verifier.verify(circuit_mod.REVERT, proof):
        raise InvalidProof("revert attestation rejected")
    if public.merkle_root not in router.known_roots:
        raise UnknownRoot(f"root {public.merkle_root} not among the latest two")
    if public.source_chain != chain.chain_id:
        raise WrongChain(f"revert bound to source {public.source_chain}, this is {chain.chain_id}")
    if public.commitment not in router.commitment_log:
        raise UnknownCommitment(f"commitment {public.commitment} never deposited here")
    if public.nullifier_hash in router.pending_reverts:
        raise AlreadyPending(f"revert for {public.nullifier_hash} already pending")
    initiated = words(public.commitment, public.nullifier_hash)
    if ("revert_initiated", initiated) in chain.published:
        raise AlreadyPending(f"revert of {public.commitment} already executed")
    if ("revert_marked", words(public.nullifier_hash, public.commitment)) not in dest.published:
        raise NotMarked(f"no revert mark for {public.commitment} on {dest.chain_id}")
    window_end = chain.height + chain.revert_window
    router.pending_reverts[public.nullifier_hash] = PendingRevert(public.commitment, window_end)
    chain.emit("revert_initiated", initiated)
    return window_end


def router_revert_halt(chain: Chain, nullifier_hash: int, caller: bytes) -> None:
    """Halt by the commitment's own dApp inside the window, once; it adds
    one window, so the refund is delayed, never lost."""
    router = chain.router
    pending = router.pending_reverts.get(nullifier_hash)
    if pending is None:
        raise NoPending(f"no pending revert for {nullifier_hash}")
    if caller != router.commitment_log[pending.commitment]:
        raise Unauthorized("only the commitment's dApp may halt its revert")
    if chain.height >= pending.window_end:
        raise WindowExpired(f"window closed at block {pending.window_end}")
    if pending.halted:
        raise Halted("revert was already halted once")
    pending.halted = True
    pending.window_end += chain.revert_window
    chain.emit("revert_halted", words(nullifier_hash))


def router_revert_execute(chain: Chain, nullifier_hash: int) -> None:
    """Anyone may execute a revert once its window, halted or not, expired."""
    router = chain.router
    pending = router.pending_reverts.get(nullifier_hash)
    if pending is None:
        raise NoPending(f"no pending revert for {nullifier_hash}")
    if chain.height < pending.window_end:
        raise WindowActive(f"window open until block {pending.window_end}")
    router.nullifier_reverted[nullifier_hash] = pending.commitment
    dapp_address = router.commitment_log[pending.commitment]
    del router.pending_reverts[nullifier_hash]
    chain.emit("revert_executed", words(nullifier_hash))
    chain.dapps[dapp_address].on_revert(pending.commitment)


def advance_blocks(chain: Chain, n: int) -> int:
    if n < 1:
        raise ValueError("must advance at least one block")
    chain.height += n
    return chain.height
