"""Behavioral models: user wallet, oracle network, dApp signer and watcher.

Actors own their state exclusively and are stepped by the deterministic
scenario scheduler. Adversarial behavior lives in the oracle policy and
in scenario drivers, never inside the contracts.
"""

from collections import deque
from dataclasses import dataclass

from . import circuit as circuit_mod
from .chain import (
    Chain,
    mixer_store_signature,
    mixer_submit,
    router_deposit,
    router_revert_halt,
    router_update_root,
    unwords,
)
from .circuit import (
    Proof,
    ProofSystem,
    RevertPublic,
    RevertWitness,
    SettlementPublic,
    SettlementWitness,
)
from .dact import (
    TPC_MASK,
    DepositRequest,
    Note,
    PayloadIntent,
    leaf_bytes,
    make_leaf,
    note_new,
    obfuscate,
    parse_deposit,
    serialize_deposit,
)
from .errors import (
    DuplicateCommitment,
    InvalidValue,
    SignatureMissing,
    UnknownCommitment,
    WrongChain,
)
from .hashing import commit, nullifier_hash
from .merkle import MerkleTree
from .rng import SeededRng, random_field_31
from .signing import KeyPair


# -- dApp contract (per chain) -------------------------------------------------

class DappContract:
    """Minimal value-transfer dApp: escrows deposits, receives payloads.

    Settlement delivers the raw 32-byte payload; revert refunds the
    escrowed value to the depositing wallet.
    """

    def __init__(self, address: bytes):
        self.address = address
        self.received_payloads: list = []
        self.escrow: dict = {}  # commitment -> (value, wallet)

    def on_settle(self, payload: bytes) -> None:
        self.received_payloads.append(payload)

    def on_revert(self, commitment: int) -> None:
        value, wallet = self.escrow.pop(commitment)
        wallet.balance += value

    def forward_deposit(self, chain: Chain, wallet, req: DepositRequest, value: int):
        """The dApp SC interface that passes user data to the Router.

        Round-trips the request through the canonical wire format, the
        same bytes a real transaction would carry.
        """
        if not 0 <= value <= wallet.balance:
            raise InvalidValue(f"value {value} outside 0..{wallet.balance}")
        req = parse_deposit(serialize_deposit(req))
        event = router_deposit(chain, req)
        wallet.balance -= value
        self.escrow[req.commitment] = (value, wallet)
        return event


# -- wallet --------------------------------------------------------------------

START_BALANCE = 100  # every wallet's opening balance


@dataclass
class NoteRecord:
    """A deposit's only record, held by its wallet: the note and intent,
    the TPC the Router emitted in the deposit event and the leaf it makes,
    and the proofs built over them."""
    wallet: str
    commitment: int
    note: Note
    payload: bytes
    source: int
    dest: int
    version: int
    ghash: bytes
    tpc: int
    leaf: int
    settlement: Proof = None        # the last settlement proof built
    revert: Proof = None            # the last revert proof built


class Wallet:
    """Holds notes and builds proofs; note material never leaves here."""

    def __init__(self, name: str, rng: SeededRng):
        self.name = name
        self.rng = rng
        self.balance = START_BALANCE
        self.notes: dict = {}  # commitment -> NoteRecord

    def deposit(self, chain: Chain, dapp_contract: DappContract, ghash: bytes,
                intent: PayloadIntent, version: int, value: int = 1) -> NoteRecord:
        """Create a note, submit it via the dApp, and keep its record; a
        destination equal to ``chain`` raises ``WrongChain`` before either."""
        if intent.dest_chain_id == chain.chain_id:
            raise WrongChain(f"destination {intent.dest_chain_id} is the source chain")
        note = note_new(self.rng)
        c = commit(note.secret, note.nullifier)
        od = obfuscate(intent, note.salt)
        req = DepositRequest(c, od, version, dapp_contract.address)
        event = dapp_contract.forward_deposit(chain, self, req, value)
        _, tpc, source = unwords(event.payload)
        self.notes[c] = rec = NoteRecord(
            self.name, c, note, intent.payload, source, intent.dest_chain_id,
            version, ghash, tpc, make_leaf(c, tpc, source))
        return rec

    def _locate_leaf(self, commitment: int, mixer_chain: Chain) -> tuple:
        """The record and its leaf index, read from the Mixer's ``commitments``."""
        rec = self.notes.get(commitment)
        if rec is None:
            raise UnknownCommitment(f"wallet holds no note for {commitment}")
        index = mixer_chain.mixer.commitments.get(commitment)
        if index is None:
            raise UnknownCommitment(f"commitment {commitment} not in the global tree")
        if mixer_chain.mixer.tree.leaves[index] != rec.leaf:
            raise UnknownCommitment(f"leaf {index} holds a copy of commitment {commitment}")
        return rec, index

    def build_settlement(self, commitment: int, mixer_chain: Chain,
                         proofs: ProofSystem, dapp_verifying_key: bytes) -> Proof:
        """Settlement proof, kept as the record's ``settlement``."""
        rec, index = self._locate_leaf(commitment, mixer_chain)
        signature = mixer_chain.mixer.leaf_signatures.get(index)
        if signature is None:
            raise SignatureMissing(f"leaf {index} has no dApp signature yet")
        tree = mixer_chain.mixer.tree
        public = SettlementPublic(
            nullifier_hash(rec.note.nullifier), tree.root, rec.tpc, dapp_verifying_key
        )
        witness = SettlementWitness(
            rec.note.nullifier, rec.note.secret, tree.path(index), rec.source, signature
        )
        rec.settlement = proofs.prove(circuit_mod.SETTLEMENT, witness, public)
        return rec.settlement

    def build_revert(self, commitment: int, mixer_chain: Chain,
                     proofs: ProofSystem) -> Proof:
        """Revert proof, kept as the record's ``revert``."""
        rec, index = self._locate_leaf(commitment, mixer_chain)
        tree = mixer_chain.mixer.tree
        public = RevertPublic(
            commitment, rec.source, nullifier_hash(rec.note.nullifier), tree.root, rec.tpc
        )
        witness = RevertWitness(rec.note.nullifier, rec.note.secret, tree.path(index))
        rec.revert = proofs.prove(circuit_mod.REVERT, witness, public)
        return rec.revert


# -- event logs ------------------------------------------------------------------

def new_events(chains: dict, cursors: dict, kind: str = None):
    """Yield ``(chain, event)`` for each ``kind`` event, any if None, past
    the chain's cursor in ``cursors`` (chain id -> next index to read),
    chains in id order. A chain's cursor moves to the end of its log only
    once the chain has been read, so an exception leaves it where it was."""
    for cid in sorted(chains):
        chain = chains[cid]
        for ev in chain.event_log[cursors.get(cid, 0):]:
            if kind is None or ev.kind == kind:
                yield chain, ev
        cursors[cid] = len(chain.event_log)


# -- oracle network -------------------------------------------------------------

ORACLE_MODES = ("honest", "forge_root", "censor_dapp", "censor_chain", "replay")


@dataclass
class OraclePolicy:
    mode: str = "honest"  # one of ORACLE_MODES
    censor_chain: int = 0


class Oracle:
    """Relays deposit events to the mixer and pushes roots to routers.

    In ``censor_dapp`` mode it drops the withdraws of the dApp whose global
    hash is ``censored_dapp``; in ``censor_chain`` mode, the deposits made on
    and the withdraws bound for chain ``policy.censor_chain``. ``relay``
    reports each dropped deposit as a ``relay_censored`` action; a dropped
    withdraw is its call's ``Censored`` error. In ``replay`` mode ``relay``
    submits each deposit event twice, and the second is ``relay_rejected``.
    In ``forge_root`` mode it offers the root of the tree it forged once. It
    holds no key, as a Router takes any root the Mixer holds: ``auth`` is unread.
    """

    def __init__(self, policy: OraclePolicy, auth: bytes, rng: SeededRng,
                 censored_dapp: bytes = b""):
        self.policy = policy
        self.censored_dapp = censored_dapp
        self.rng = rng
        self.offline = False
        self._cursors: dict = {}     # chain id -> next event index to scan
        self._forgery = None         # the forged note's public parts and witness
        self.forged_root = 0         # the root of the forged tree, once forged

    def relay(self, chains: dict, mixer_chain: Chain) -> list:
        """Push each new deposit event of every chain into the mixer with
        that chain: once, twice in ``replay`` mode, where the mixer must dedupe."""
        if self.offline:
            return []
        actions = []
        submissions = 2 if self.policy.mode == "replay" else 1
        for chain, ev in new_events(chains, self._cursors, "deposit"):
            cid = chain.chain_id
            if self.policy.mode == "censor_chain" and cid == self.policy.censor_chain:
                actions.append(("relay_censored", cid))
                continue
            for _ in range(submissions):
                try:
                    index = mixer_submit(mixer_chain, ev, chain)
                except DuplicateCommitment:
                    # the commitment is already in the tree (a copy deposited
                    # on another chain, or this event replayed); the cursor
                    # must still pass it, or every later relay on this chain
                    # fails the same way
                    actions.append(("relay_rejected", cid, "DuplicateCommitment"))
                    break
                actions.append(("relayed", cid, index))
        return actions

    def push_root(self, chains: dict, mixer_chain: Chain):
        """Push the Mixer's root to its own chain's Router, then to the others,
        and return it; a ``forge_root`` oracle offers its root to the others only."""
        if self.offline:
            return None
        others = [chains[cid] for cid in sorted(chains) if chains[cid] is not mixer_chain]
        if self.policy.mode == "forge_root":
            root, routers = self.forged_root, others
        else:
            root, routers = mixer_chain.mixer.tree.root, [mixer_chain, *others]
        for chain in routers:
            router_update_root(chain, root, mixer_chain)
        return root

    def route_withdraw(self, ghash: bytes, dest_chain: int) -> bool:
        """Whether the oracle network is willing to relay this withdraw."""
        if self.offline:
            return False
        if self.policy.mode == "censor_dapp" and ghash == self.censored_dapp:
            return False
        if self.policy.mode == "censor_chain" and dest_chain == self.policy.censor_chain:
            return False
        return True

    def attempt_forged_settlement(self, proofs: ProofSystem, depth: int,
                                  source_chain: int, victim_vk: bytes):
        """The network-abuse move: forge a root, then try to prove.

        The first call forges and keeps a note, its one-leaf tree (of the
        first ``depth`` and ``source_chain``) and a leaf signature by its
        own key; a ``forge_root`` oracle's ``push_root`` offers that root,
        ``forged_root``, which no Router takes. Each call (a later one draws
        no rng and hashes nothing afresh) proves against it for ``victim_vk``;
        lacking the dApp's signature, proving must fail at the signature constraint.
        """
        if self._forgery is None:
            secret = random_field_31(self.rng)
            nullifier = random_field_31(self.rng)
            tpc = int.from_bytes(self.rng.bytes(9), "big") & TPC_MASK
            leaf = make_leaf(commit(secret, nullifier), tpc, source_chain)
            tree = MerkleTree(depth)
            path = tree.path(tree.insert(leaf))
            self.forged_root = tree.root
            forged_sig = KeyPair.generate(self.rng).sign(leaf_bytes(leaf))
            self._forgery = (nullifier_hash(nullifier), tpc, SettlementWitness(
                nullifier, secret, path, source_chain, forged_sig))
        nh, tpc, witness = self._forgery
        public = SettlementPublic(nh, self.forged_root, tpc, victim_vk)
        # raises ConstraintViolation("signature")
        return proofs.prove(circuit_mod.SETTLEMENT, witness, public)


# -- dApp signer and revert watcher ----------------------------------------------

@dataclass
class ResilienceRules:
    """The fields of a scenario's ``dapp`` section, with their defaults:
    the revert watcher's rate and value limits. A trip delays a refund by
    one window; the rate is counted per chain, in that chain's blocks."""
    max_reverts_per_period: int = 1000
    period_blocks: int = 1000
    max_value_per_revert: int = 10**9


class DappSigner:
    """Signs recognized leaves and polices revert windows under its
    ``ResilienceRules``."""

    def __init__(self, rng: SeededRng, **rules):
        self.key = KeyPair.generate(rng)
        self.resilience = ResilienceRules(**rules)
        self.offline = False
        self.contracts: dict = {}   # chain id -> DappContract
        self.ghash: bytes = b""
        self._pending: set = set()     # own (commitment, leaf) pairs no pass has handled
        self._let_through: dict = {}   # chain id -> deque of heights of reverts let through
        self._deposit_cursors: dict = {}  # chain id -> next event index to read
        self._revert_cursors: dict = {}   # the same, for revert initiations

    @property
    def verifying_key(self) -> bytes:
        return self.key.verifying_key

    def scan_and_sign(self, chains: dict, mixer_chain: Chain) -> list:
        """Sign the mixer leaves of our new deposits, in index order.

        Only a leaf that matches one of our source-chain deposit events is
        ever signed, whatever the mixer state claims; each event is decoded
        once, and is ours if its Router's ``commitment_log`` names our
        contract. A pass reads each pending commitment's leaf index from the
        Mixer's ``commitments`` and handles it once, as that index never
        changes: it signs if the index holds our leaf, not a copy's, and has
        no signature yet. A commitment not relayed yet waits for a later pass.
        """
        if self.offline:
            return []
        for chain, ev in new_events(chains, self._deposit_cursors, "deposit"):
            commitment, tpc, src = unwords(ev.payload)
            if chain.router.commitment_log[commitment] == self.contracts[chain.chain_id].address:
                self._pending.add((commitment, make_leaf(commitment, tpc, src)))
        mixer = mixer_chain.mixer
        relayed = sorted((mixer.commitments[c], c, leaf) for c, leaf in self._pending
                         if c in mixer.commitments)
        signed = []
        for index, commitment, leaf in relayed:
            if mixer.tree.leaves[index] == leaf and index not in mixer.leaf_signatures:
                mixer_store_signature(mixer_chain, index, self.key.sign(leaf_bytes(leaf)))
                signed.append(index)
            self._pending.discard((commitment, leaf))
        return signed

    def watch_reverts(self, chains: dict) -> list:
        """Judge each revert once, on the first pass after its initiation:
        skip it if no longer pending, its window has closed or its Router's
        ``commitment_log`` names another contract, else halt it if the value
        (read from escrow) or rate rule trips. The rate counts the reverts
        let through on its chain, in that chain's blocks. The source Router
        opens a window only over a destination mark, so settle-XOR-revert
        needs no watcher."""
        if self.offline:
            return []
        halts = []
        for chain, ev in new_events(chains, self._revert_cursors, "revert_initiated"):
            _, nh = unwords(ev.payload)
            pending = chain.router.pending_reverts.get(nh)
            contract = self.contracts[chain.chain_id]
            if pending is None or chain.height >= pending.window_end \
                    or chain.router.commitment_log[pending.commitment] != contract.address:
                continue  # executed, expired, or another dApp's transaction
            let_through = self._let_through.setdefault(chain.chain_id, deque())
            start = chain.height - self.resilience.period_blocks
            while let_through and let_through[0] <= start:
                let_through.popleft()
            value, _ = contract.escrow[pending.commitment]
            if value > self.resilience.max_value_per_revert:
                reason = "value_threshold"
            elif len(let_through) >= self.resilience.max_reverts_per_period:
                reason = "rate_threshold"
            else:
                let_through.append(chain.height)
                continue
            router_revert_halt(chain, nh, contract.address)
            halts.append((chain.chain_id, nh, reason))
        return halts
