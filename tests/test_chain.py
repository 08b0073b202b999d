"""Contract state machines: registration, deposit, mixer, withdraw, revert."""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

from anonbridge import chain as chain_mod, ops
from anonbridge.chain import (
    ROUTER_ROOT_WINDOW,
    Chain,
    Event,
    advance_blocks,
    mixer_store_signature,
    mixer_submit,
    router_deposit,
    router_register_dapp,
    router_revert_execute,
    router_revert_halt,
    router_revert_initiate_source,
    router_revert_mark_destination,
    router_update_root,
    router_withdraw,
    unwords,
    words,
)
from anonbridge.circuit import ProofSystem
from anonbridge.dact import (
    DepositRequest,
    PayloadIntent,
    dapp_global_hash,
    obfuscate,
    trustless_public_commitment,
)
from anonbridge.errors import (
    AlreadyPending,
    AlreadyRegistered,
    ChainIdOutOfTier,
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
from anonbridge.hashing import commit
from anonbridge.rng import SeededRng, random_field_31
from anonbridge.signing import KeyPair

AUTH = b"\xaa" * 32
WINDOW = 100


class StubDapp:
    """A deployed dApp contract that records the Router's hook calls."""

    def __init__(self):
        self.settled: list = []     # payloads, in call order
        self.reverted: list = []    # commitments, in call order

    def on_settle(self, payload: bytes) -> None:
        self.settled.append(payload)

    def on_revert(self, commitment: int) -> None:
        self.reverted.append(commitment)


class Harness:
    """Minimal two-chain rig: source 1001, multiplexer+destination 1002."""

    def __init__(self, seed=0, depth=8):
        self.rng = SeededRng(seed)
        self.proofs = ProofSystem(self.rng.child("keys"))
        self.src = Chain(1001, oracle_auth=AUTH, verifier=self.proofs, revert_window=WINDOW)
        self.dst = Chain(1002, depth=depth, oracle_auth=AUTH, verifier=self.proofs,
                         revert_window=WINDOW)
        self.addr_src = self.rng.bytes(20)
        self.addr_dst = self.rng.bytes(20)
        for chain, addr in ((self.src, self.addr_src), (self.dst, self.addr_dst)):
            chain.dapps[addr] = StubDapp()
        self.key = KeyPair.generate(self.rng.child("dapp"))
        self.ghash = router_register_dapp(
            self.src, self.addr_src, [self.addr_dst], self.key.verifying_key
        )
        router_register_dapp(
            self.dst, self.addr_dst, [self.addr_dst], self.key.verifying_key,
            home_address=self.addr_src,
        )

    def deposit(self, dest=1002, version=1):
        from anonbridge.dact import note_new

        note = note_new(self.rng)
        payload = self.rng.bytes(32)
        od = obfuscate(PayloadIntent(payload, dest), note.salt)
        req = DepositRequest(commit(note.secret, note.nullifier), od, version, self.addr_src)
        event = router_deposit(self.src, req)
        return note, payload, req, event

    def settle_case(self, dest=1002, version=1):
        """Deposit, relay, sign, push root; returns everything a withdraw needs."""
        from anonbridge.circuit import SETTLEMENT, SettlementPublic, SettlementWitness
        from anonbridge.dact import leaf_bytes, make_leaf
        from anonbridge.hashing import nullifier_hash

        note, payload, req, event = self.deposit(dest, version)
        index = mixer_submit(self.dst, event, self.src)
        _, tpc, source = unwords(event.payload)
        leaf = make_leaf(req.commitment, tpc, source)
        sig = self.key.sign(leaf_bytes(leaf))
        mixer_store_signature(self.dst, index, sig)
        tree = self.dst.mixer.tree
        router_update_root(self.src, tree.root, AUTH)
        router_update_root(self.dst, tree.root, AUTH)
        public = SettlementPublic(
            nullifier_hash(note.nullifier), tree.root, tpc, self.key.verifying_key
        )
        witness = SettlementWitness(note.nullifier, note.secret, tree.path(index),
                                    source, sig)
        proof = self.proofs.prove(SETTLEMENT, witness, public)
        return note, payload, req, proof, tpc

    def revert_proof(self, note, req, tpc):
        from anonbridge.circuit import REVERT, RevertPublic, RevertWitness
        from anonbridge.dact import make_leaf
        from anonbridge.hashing import nullifier_hash

        tree = self.dst.mixer.tree
        leaf = make_leaf(req.commitment, tpc, 1001)
        index = tree.leaves.index(leaf)
        public = RevertPublic(req.commitment, 1001, nullifier_hash(note.nullifier),
                              tree.root, tpc)
        witness = RevertWitness(note.nullifier, note.secret, tree.path(index))
        return self.proofs.prove(REVERT, witness, public)


class TestRegistration:
    def test_chain_requires_valid_tier(self):
        with pytest.raises(ChainIdOutOfTier):
            Chain(17)

    def test_only_deployed_contracts_register(self):
        h = Harness()
        with pytest.raises(Unauthorized):
            router_register_dapp(h.src, b"\x01" * 20, [h.addr_dst], b"\x00" * 32)

    def test_first_writer_wins(self):
        h = Harness()
        with pytest.raises(AlreadyRegistered):
            router_register_dapp(h.src, h.addr_src, [h.addr_dst], b"\x01" * 32)

    def test_global_hash_identical_across_chains(self):
        h = Harness()
        assert h.src.router.dapp_registry[h.ghash] == h.addr_src
        assert h.dst.router.dapp_registry[h.ghash] == h.addr_dst

    def test_remote_caller_must_be_in_array(self):
        h = Harness()
        intruder = h.rng.bytes(20)
        h.dst.dapps[intruder] = StubDapp()
        with pytest.raises(Unauthorized):
            router_register_dapp(h.dst, intruder, [h.addr_dst], b"\x02" * 32,
                                 home_address=h.addr_src)

    def test_bound_verifying_key_cannot_be_rebound(self):
        """A second contract registering the dApp's key under its own
        global hash is refused before it writes anything."""
        h = Harness()
        squatter = h.rng.bytes(20)
        h.dst.dapps[squatter] = StubDapp()
        vk = h.key.verifying_key
        with pytest.raises(AlreadyRegistered):
            router_register_dapp(h.dst, squatter, [h.addr_src], vk)
        assert h.dst.router.dapp_keys[vk] == h.ghash
        assert dapp_global_hash(squatter, [h.addr_src]) not in h.dst.router.dapp_registry
        assert squatter not in h.dst.router.dapp_ghash

    def test_registered_hash_matches_direct_computation(self):
        h = Harness()
        assert h.ghash == dapp_global_hash(h.addr_src, [h.addr_dst])


class TestDepositAndMixer:
    def test_an_event_is_its_published_bytes(self):
        """An event carries its kind, canonical payload and block only; a
        deposit's dApp is read from the Router's commitment log."""
        assert [f.name for f in dataclasses.fields(Event)] == ["kind", "payload", "block"]
        assert list(inspect.signature(Chain.emit).parameters) == ["self", "kind", "payload"]
        h = Harness()
        _, _, req, event = h.deposit()
        assert h.src.event_log == [event]
        assert h.src.router.commitment_log == {req.commitment: req.dapp_address}

    def test_deposit_emits_three_words(self):
        h = Harness()
        note, payload, req, event = h.deposit()
        assert event.kind == "deposit" and len(event.payload) == 96
        c, tpc, src = unwords(event.payload)
        assert c == req.commitment and src == 1001
        od = obfuscate(PayloadIntent(payload, 1002), note.salt)
        assert tpc == trustless_public_commitment(h.ghash, 1, od)

    def test_unknown_dapp_rejected(self):
        h = Harness()
        req = DepositRequest(1, b"\x00" * 32, 1, b"\x09" * 20)
        with pytest.raises(UnknownDapp):
            router_deposit(h.src, req)

    def test_duplicate_commitment_rejected_at_router_and_mixer(self):
        h = Harness()
        note, payload, req, event = h.deposit()
        with pytest.raises(DuplicateCommitment):
            router_deposit(h.src, req)
        mixer_submit(h.dst, event, h.src)
        with pytest.raises(DuplicateCommitment):
            mixer_submit(h.dst, event, h.src)

    @pytest.mark.parametrize("case", ["altered_tpc", "other_source_word", "wrong_source",
                                      "short_payload", "long_payload"])
    def test_mixer_takes_only_a_published_deposit(self, case):
        """The Mixer takes a deposit event only from the chain its source
        word names, and only as that chain published it: an altered TPC, a
        source word naming another chain, a payload of two or four words
        (even ones the source emitted) and a real event handed with the
        wrong source are all UnknownDeposit, refused before the dedupe, at
        no charge and with no leaf."""
        h = Harness()
        _, _, _, event = h.deposit()
        c, tpc, src = unwords(event.payload)
        source = h.src
        if case == "altered_tpc":
            event = Event("deposit", words(c, tpc + 1, src), event.block)
        elif case == "other_source_word":
            event = h.src.emit("deposit", words(c, tpc, 1002))
        elif case == "short_payload":
            event = h.src.emit("deposit", words(c, tpc))
        elif case == "long_payload":
            event = h.src.emit("deposit", words(c, tpc, src, 0))
        else:
            source = h.dst
        events_before = list(h.dst.event_log)
        with ops.counting() as spent:
            with pytest.raises(UnknownDeposit):
                mixer_submit(h.dst, event, source)
        assert spent == ops.OpCounts()
        assert len(h.dst.mixer.tree.leaves) == 0
        assert h.dst.mixer.commitments == {}
        assert h.dst.event_log == events_before

    def test_signature_storage_rules(self):
        h = Harness()
        _, _, _, event = h.deposit()
        index = mixer_submit(h.dst, event, h.src)
        with pytest.raises(IndexUnknown):
            mixer_store_signature(h.dst, index + 1, b"s")
        mixer_store_signature(h.dst, index, b"s")
        with pytest.raises(Unauthorized):
            mixer_store_signature(h.dst, index, b"t")
        assert h.dst.mixer.leaf_signatures[index] == b"s"


class TestRootSync:
    def test_requires_oracle_auth(self):
        h = Harness()
        with pytest.raises(Unauthorized):
            router_update_root(h.src, 1, b"\xbb" * 32)

    def test_window_of_two(self):
        h = Harness()
        for root in (11, 22, 33, 44):
            router_update_root(h.src, root, AUTH)
        assert h.src.router.known_roots == [33, 44]
        assert len(h.src.router.known_roots) == ROUTER_ROOT_WINDOW


class TestWithdraw:
    def test_happy_path_invokes_hook(self):
        h = Harness()
        note, payload, req, proof, tpc = h.settle_case()
        router_withdraw(h.dst, proof, payload, note.salt, 1002, 1)
        assert h.dst.dapps[h.addr_dst].settled == [payload]
        assert proof.public.nullifier_hash in h.dst.router.nullifier_spent

    def test_check_order(self):
        """Each rejection fires before later checks get a chance."""
        h = Harness()
        note, payload, req, proof, tpc = h.settle_case()
        # unknown root (push two fresh roots to evict)
        router_update_root(h.dst, 1, AUTH)
        router_update_root(h.dst, 2, AUTH)
        with pytest.raises(UnknownRoot):
            router_withdraw(h.dst, proof, payload, note.salt, 1002, 1)
        router_update_root(h.dst, h.dst.mixer.tree.root, AUTH)
        # wrong destination claim
        with pytest.raises(WrongChain):
            router_withdraw(h.dst, proof, payload, note.salt, 1001, 1)
        # unregistered verifying key
        from dataclasses import replace
        from anonbridge.circuit import Proof

        alien = Proof(proof.circuit_id,
                      replace(proof.public, dapp_verifying_key=b"\x05" * 32),
                      proof.attestation)
        with pytest.raises(UnknownDapp):
            router_withdraw(h.dst, alien, payload, note.salt, 1002, 1)
        # tampered payload breaks the TPC recomputation
        bad = bytes([payload[0] ^ 1]) + payload[1:]
        with pytest.raises(TpcMismatch):
            router_withdraw(h.dst, proof, bad, note.salt, 1002, 1)
        # wrong version does too
        with pytest.raises(TpcMismatch):
            router_withdraw(h.dst, proof, payload, note.salt, 1002, 2)
        # valid submission settles, resubmission double-spends
        router_withdraw(h.dst, proof, payload, note.salt, 1002, 1)
        with pytest.raises(DoubleSpend):
            router_withdraw(h.dst, proof, payload, note.salt, 1002, 1)

    def test_invalid_attestation(self):
        from anonbridge.circuit import Proof
        from anonbridge.errors import InvalidProof

        h = Harness()
        note, payload, req, proof, tpc = h.settle_case()
        forged = Proof(proof.circuit_id, proof.public, b"\x00" * 32)
        with pytest.raises(InvalidProof):
            router_withdraw(h.dst, forged, payload, note.salt, 1002, 1)


class TestRevert:
    def _marked(self, h):
        note, payload, req, proof, tpc = h.settle_case()
        rproof = h.revert_proof(note, req, tpc)
        router_revert_mark_destination(h.dst, rproof, payload, note.salt, 1, h.ghash)
        return note, payload, req, rproof

    def _pending(self, h):
        note, payload, req, rproof = self._marked(h)
        end = router_revert_initiate_source(h.src, h.dst, rproof)
        return note, payload, req, rproof, end

    @staticmethod
    def _routers(h):
        """What a refused revert call must leave as it was, on both chains."""
        return [(set(c.router.nullifier_spent), dict(c.router.nullifier_reverted),
                 dict(c.router.pending_reverts)) for c in (h.src, h.dst)]

    def test_tampered_attestation_is_invalid_on_both_routers(self):
        h = Harness()
        note, payload, req, proof, tpc = h.settle_case()
        rproof = h.revert_proof(note, req, tpc)
        forged = dataclasses.replace(rproof, attestation=bytes(32))
        before = self._routers(h)
        with pytest.raises(InvalidProof):
            router_revert_mark_destination(h.dst, forged, payload, note.salt, 1, h.ghash)
        with pytest.raises(InvalidProof):
            router_revert_initiate_source(h.src, h.dst, forged)
        assert self._routers(h) == before

    def test_another_proof_systems_attestation_is_invalid_on_every_router(self):
        """Every constraint holds, but another system attested the proofs:
        each Router verifies with the verifier it was deployed with."""
        h = Harness()
        h.proofs = ProofSystem(h.rng.child("other-keys"))
        note, payload, req, proof, tpc = h.settle_case()
        rproof = h.revert_proof(note, req, tpc)
        before = self._routers(h)
        with pytest.raises(InvalidProof):
            router_withdraw(h.dst, proof, payload, note.salt, 1002, 1)
        with pytest.raises(InvalidProof):
            router_revert_mark_destination(h.dst, rproof, payload, note.salt, 1, h.ghash)
        with pytest.raises(InvalidProof):
            router_revert_initiate_source(h.src, h.dst, rproof)
        assert self._routers(h) == before

    def test_no_call_supplies_a_verifier_or_a_window(self):
        """The verifier and the revert window are the Router's deployment
        state: no contract function takes them, no pending revert keeps one."""
        params = {name for _, fn in inspect.getmembers(chain_mod, inspect.isfunction)
                  for name in inspect.signature(fn).parameters}
        assert not params & {"proofs", "window", "verifier", "revert_window"}
        assert "window" not in {f.name for f in dataclasses.fields(chain_mod.PendingRevert)}

    def test_root_not_pushed_is_unknown_on_both_routers(self):
        """A revert proof against a tree root no Router was handed yet."""
        h = Harness()
        h.settle_case()
        note, payload, req, event = h.deposit()
        mixer_submit(h.dst, event, h.src)
        _, tpc, _ = unwords(event.payload)
        rproof = h.revert_proof(note, req, tpc)
        before = self._routers(h)
        with pytest.raises(UnknownRoot):
            router_revert_mark_destination(h.dst, rproof, payload, note.salt, 1, h.ghash)
        with pytest.raises(UnknownRoot):
            router_revert_initiate_source(h.src, h.dst, rproof)
        assert self._routers(h) == before

    def test_mark_naming_an_unregistered_dapp_is_unknown(self):
        h = Harness()
        note, payload, req, proof, tpc = h.settle_case()
        rproof = h.revert_proof(note, req, tpc)
        before = self._routers(h)
        with pytest.raises(UnknownDapp):
            router_revert_mark_destination(h.dst, rproof, payload, note.salt, 1,
                                           bytes(32))
        assert self._routers(h) == before

    def test_mark_sets_both_flags(self):
        h = Harness()
        note, payload, req, rproof, _ = self._pending(h)
        nh = rproof.public.nullifier_hash
        assert nh in h.dst.router.nullifier_spent
        assert h.dst.router.nullifier_reverted[nh] == req.commitment
        # the mark event publishes nullifier hash || commitment
        assert (h.dst.event_log[-1].kind, h.dst.event_log[-1].payload) == (
            "revert_marked", nh.to_bytes(32, "big") + req.commitment.to_bytes(32, "big"))

    def test_mark_rejects_wrong_destination(self):
        """A chain whose id is not bound in the intent refuses the mark."""
        h = Harness(depth=8)
        note, payload, req, proof, tpc = h.settle_case()
        rproof = h.revert_proof(note, req, tpc)
        # the source chain also knows the root but is not the destination
        with pytest.raises(TpcMismatch):
            router_revert_mark_destination(h.src, rproof, payload, note.salt, 1,
                                           h.ghash)

    def test_public_tpc_changed_after_proving_is_invalid_on_both_routers(self):
        h = Harness()
        note, payload, req, proof, tpc = h.settle_case()
        rproof = h.revert_proof(note, req, tpc)
        moved = dataclasses.replace(
            rproof, public=dataclasses.replace(rproof.public, tpc=tpc ^ 1))
        before = self._routers(h)
        with pytest.raises(InvalidProof):
            router_revert_mark_destination(h.dst, moved, payload, note.salt, 1,
                                           h.ghash)
        with pytest.raises(InvalidProof):
            router_revert_initiate_source(h.src, h.dst, moved)
        assert self._routers(h) == before

    def test_mark_hashes_no_path(self):
        """The mark compares TPCs: the circuit, not the Router, folds the path."""
        h = Harness()
        note, payload, req, proof, tpc = h.settle_case()
        rproof = h.revert_proof(note, req, tpc)
        with ops.counting() as mark:
            router_revert_mark_destination(h.dst, rproof, payload, note.salt, 1,
                                           h.ghash)
        assert mark.permutations == 0
        assert rproof.public.nullifier_hash in h.dst.router.nullifier_reverted

    def test_no_router_folds_a_path_in_clear(self):
        tree = ast.parse(Path(chain_mod.__file__).read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert "verify_path" not in names

    def test_mark_after_settlement_is_double_spend(self):
        h = Harness()
        note, payload, req, proof, tpc = h.settle_case()
        router_withdraw(h.dst, proof, payload, note.salt, 1002, 1)
        rproof = h.revert_proof(note, req, tpc)
        with pytest.raises(DoubleSpend):
            router_revert_mark_destination(h.dst, rproof, payload, note.salt, 1,
                                           h.ghash)

    def test_initiate_guards(self):
        h = Harness()
        note, payload, req, rproof, _ = self._pending(h)
        with pytest.raises(AlreadyPending):
            router_revert_initiate_source(h.src, h.dst, rproof)
        with pytest.raises(WrongChain):
            router_revert_initiate_source(h.dst, h.dst, rproof)

    def test_initiate_unknown_commitment(self):
        h = Harness()
        note, payload, req, proof, tpc = h.settle_case()
        rproof = h.revert_proof(note, req, tpc)
        h.src.router.commitment_log.clear()
        with pytest.raises(UnknownCommitment):  # checked before the mark
            router_revert_initiate_source(h.src, h.dst, rproof)

    def test_initiate_without_mark_is_not_marked(self):
        h = Harness()
        note, payload, req, proof, tpc = h.settle_case()
        rproof = h.revert_proof(note, req, tpc)
        with pytest.raises(NotMarked):
            router_revert_initiate_source(h.src, h.dst, rproof)
        assert h.src.router.pending_reverts == {}

    def test_initiate_reads_the_published_mark_not_the_dest_router(self):
        """With the destination's flag gone but its mark event published,
        the window still opens: the source reads only what ``dest``
        published."""
        h = Harness()
        _, _, req, rproof = self._marked(h)
        del h.dst.router.nullifier_reverted[rproof.public.nullifier_hash]
        end = router_revert_initiate_source(h.src, h.dst, rproof)
        pending = h.src.router.pending_reverts[rproof.public.nullifier_hash]
        assert (pending.commitment, pending.window_end) == (req.commitment, end)

    def test_initiate_without_the_published_mark_is_not_marked(self):
        """With the destination's flag set but no mark event published, no
        window opens."""
        h = Harness()
        _, _, req, rproof = self._marked(h)
        marks = {entry for entry in h.dst.published if entry[0] == "revert_marked"}
        assert len(marks) == 1
        h.dst.published -= marks
        assert h.dst.router.nullifier_reverted[rproof.public.nullifier_hash] == req.commitment
        with pytest.raises(NotMarked):
            router_revert_initiate_source(h.src, h.dst, rproof)
        assert h.src.router.pending_reverts == {}

    def test_initiate_after_settlement_is_not_marked(self):
        # the settled destination refuses the mark, so no window opens
        h = Harness()
        note, payload, req, proof, tpc = h.settle_case()
        router_withdraw(h.dst, proof, payload, note.salt, 1002, 1)
        rproof = h.revert_proof(note, req, tpc)
        with pytest.raises(DoubleSpend):
            router_revert_mark_destination(h.dst, rproof, payload, note.salt, 1,
                                           h.ghash)
        with pytest.raises(NotMarked):
            router_revert_initiate_source(h.src, h.dst, rproof)
        assert h.src.router.pending_reverts == {}
        assert h.src.dapps[h.addr_src].reverted == []

    def test_window_boundary_exact(self):
        h = Harness()
        note, payload, req, rproof, end = self._pending(h)
        nh = rproof.public.nullifier_hash
        advance_blocks(h.src, WINDOW - 1)
        with pytest.raises(WindowActive):
            router_revert_execute(h.src, nh)
        advance_blocks(h.src, 1)
        assert h.src.chain_id and h.src.router.pending_reverts[nh].window_end == end
        router_revert_execute(h.src, nh)  # exactly at window end
        assert nh not in h.src.router.pending_reverts
        assert h.src.router.nullifier_reverted[nh] == req.commitment
        assert h.src.dapps[h.addr_src].reverted == [req.commitment]

    def test_halt_delays_execution_once(self):
        """A halt adds one window to the end, once; it never blocks the
        refund for good."""
        h = Harness()
        note, payload, req, rproof, end = self._pending(h)
        nh = rproof.public.nullifier_hash
        with pytest.raises(Unauthorized):
            router_revert_halt(h.src, nh, b"\x01" * 20)
        router_revert_halt(h.src, nh, h.addr_src)
        pending = h.src.router.pending_reverts[nh]
        assert pending.halted and pending.window_end == end + WINDOW
        with pytest.raises(Halted):
            router_revert_halt(h.src, nh, h.addr_src)
        assert pending.window_end == end + WINDOW
        advance_blocks(h.src, WINDOW)  # the original end
        with pytest.raises(WindowActive):
            router_revert_execute(h.src, nh)
        advance_blocks(h.src, WINDOW)
        with pytest.raises(WindowExpired):
            router_revert_halt(h.src, nh, h.addr_src)
        router_revert_execute(h.src, nh)
        assert h.src.router.nullifier_reverted[nh] == req.commitment
        assert h.src.dapps[h.addr_src].reverted == [req.commitment]

    def test_only_the_commitments_dapp_may_halt(self):
        # a second registered dApp cannot block the first dApp's revert
        h = Harness()
        other = b"\x02" * 20
        h.src.dapps[other] = StubDapp()
        router_register_dapp(h.src, other, [b"\x03" * 20],
                             KeyPair.generate(h.rng.child("other")).verifying_key)
        note, payload, req, rproof, _ = self._pending(h)
        nh = rproof.public.nullifier_hash
        with pytest.raises(Unauthorized):
            router_revert_halt(h.src, nh, other)
        assert not h.src.router.pending_reverts[nh].halted
        advance_blocks(h.src, WINDOW)
        router_revert_execute(h.src, nh)
        assert nh in h.src.router.nullifier_reverted

    def test_halt_after_expiry_rejected(self):
        h = Harness()
        note, payload, req, rproof, _ = self._pending(h)
        advance_blocks(h.src, WINDOW)
        with pytest.raises(WindowExpired):
            router_revert_halt(h.src, rproof.public.nullifier_hash, h.addr_src)

    def test_no_pending(self):
        h = Harness()
        with pytest.raises(NoPending):
            router_revert_execute(h.src, 12345)
        with pytest.raises(NoPending):
            router_revert_halt(h.src, 12345, h.addr_src)

    def test_executed_revert_cannot_reopen(self):
        h = Harness()
        note, payload, req, rproof, _ = self._pending(h)
        nh = rproof.public.nullifier_hash
        advance_blocks(h.src, WINDOW)
        router_revert_execute(h.src, nh)
        advance_blocks(h.src, 10)
        with pytest.raises(AlreadyPending):
            router_revert_initiate_source(h.src, h.dst, rproof)


def test_no_contract_reads_another_chains_state():
    """A contract learns about another chain only through what that chain
    ``published``: every ``.router``, ``.mixer`` or ``.dapps`` read in
    ``chain.py`` is of the function's own chain -- its ``chain`` parameter,
    or ``self`` in a ``Chain`` method."""
    state = {"router", "mixer", "dapps"}
    tree = ast.parse(Path(chain_mod.__file__).read_text())
    own = {}  # function -> the name its own chain goes by in it
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and "chain" in [a.arg for a in node.args.args]:
            own[node] = "chain"
        elif isinstance(node, ast.ClassDef) and node.name == "Chain":
            own.update((fn, "self") for fn in node.body if isinstance(fn, ast.FunctionDef))
    allowed = {node for fn, name in own.items() for node in ast.walk(fn)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id == name}
    foreign = [f"line {node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr in state
               and node not in allowed]
    assert foreign == []


class TestClock:
    def test_advance_guards(self):
        h = Harness()
        with pytest.raises(ValueError):
            advance_blocks(h.src, 0)
        assert advance_blocks(h.src, 3) == 3
