"""Wallet, oracle policies, dApp signer, and the revert watcher."""

import ast
from dataclasses import asdict, fields
from itertools import permutations
from pathlib import Path

import pytest

import _reference as ref
from anonbridge import actors, ops
from anonbridge.actors import DappSigner, Oracle, OraclePolicy, ResilienceRules
from anonbridge.chain import router_revert_initiate_source, router_revert_mark_destination
from anonbridge.dact import DepositRequest, PayloadIntent, trustless_public_commitment
from anonbridge.errors import (
    ConstraintViolation,
    SignatureMissing,
    UnknownCommitment,
    WrongChain,
)
from anonbridge.field import P
from anonbridge.harness import ScenarioConfig, Simulation
from anonbridge.harness.scenarios import standard_verdicts
from anonbridge.rng import SeededRng


def word(value: int) -> bytes:
    return value.to_bytes(32, "big")


def make_sim(seed=0, oracle=None, dapp=None, wallets=("alice",)):
    config = ScenarioConfig(
        seed=seed, name="t", oracle=oracle or {}, dapp=dapp or {},
        wallets=list(wallets), script=[],
    )
    return Simulation(config)


class TestWallet:
    def test_deposit_decrements_balance_and_escrows(self):
        sim = make_sim()
        d = sim.deposit("alice", 1001, 1003, value=5)
        w = sim.wallets["alice"]
        assert w.balance == 95
        info = sim.deposits[d]
        assert sim.dapp.contracts[1001].escrow[info.commitment] == (5, w)

    def test_same_chain_deposit_is_refused_before_a_note_is_drawn(self):
        refused, clean = make_sim(), make_sim()
        with pytest.raises(WrongChain):
            refused.deposit("alice", 1001, 1001)
        payload = b"\x01" * 32
        after = refused.deposit("alice", 1001, 1003, payload=payload)
        first = clean.deposit("alice", 1001, 1003, payload=payload)
        assert refused.deposits[after].note == clean.deposits[first].note

    def test_unknown_commitment(self):
        sim = make_sim()
        with pytest.raises(UnknownCommitment):
            sim.wallets["alice"].build_settlement(
                424242, sim.mixer_chain, sim.proofs, sim.dapp.verifying_key
            )

    def test_settlement_requires_relay(self):
        sim = make_sim()
        d = sim.deposit("alice", 1001, 1003)
        info = sim.deposits[d]
        with pytest.raises(UnknownCommitment):  # leaf not yet in the tree
            sim.wallets["alice"].build_settlement(
                info.commitment, sim.mixer_chain, sim.proofs, sim.dapp.verifying_key
            )

    def test_settlement_requires_signature(self):
        sim = make_sim()
        d = sim.deposit("alice", 1001, 1003)
        sim.relay()
        info = sim.deposits[d]
        with pytest.raises(SignatureMissing):
            sim.wallets["alice"].build_settlement(
                info.commitment, sim.mixer_chain, sim.proofs, sim.dapp.verifying_key
            )


class TestNoteRecord:
    def test_leaf_matches_the_reference_in_all_six_directions(self):
        """Each record's TPC and leaf, taken from the deposit event, equal
        the ones rebuilt from its note with the reference hashes; the
        record is the simulation's deposit and the wallet's note at once."""
        sim = make_sim()
        chains = sim.config.chains
        home = sim.dapp.contracts[chains[0]].address
        others = b"".join(sim.dapp.contracts[c].address for c in chains[1:])
        ghash = ref.keccak256(home + others)
        directions = list(permutations(chains, 2))
        for i, (source, dest) in enumerate(directions):
            sim.deposit("alice", source, dest, label=str(i),
                        payload=bytes([i]) * 32, version=i + 1)
        sim.relay()
        for i, (source, dest) in enumerate(directions):
            rec = sim.deposits[str(i)]
            assert rec is sim.wallets["alice"].notes[rec.commitment]
            note = rec.note
            obfuscated = ref.keccak256(bytes([i]) * 32 + word(dest) + word(note.salt))
            tpc = int.from_bytes(ref.keccak256(ghash + word(i + 1) + obfuscated),
                                 "big") & ((1 << 73) - 1)
            assert rec.tpc == tpc
            assert rec.leaf == (ref.commit(note.secret, note.nullifier) + tpc
                                + source) % ref.P
            assert sim.mixer_chain.mixer.tree.leaves[i] == rec.leaf

    def test_building_a_proof_charges_only_its_mac(self):
        # the wallet reads the TPC from its record; of the keccak work only
        # the proof MAC's two blocks are charged
        sim = make_sim()
        d = sim.deposit("alice", 1001, 1003)
        sim.relay()
        sim.sign()
        rec = sim.deposits[d]
        wallet = sim.wallets["alice"]
        with ops.counting() as settle:
            proof = wallet.build_settlement(rec.commitment, sim.mixer_chain,
                                            sim.proofs, sim.dapp.verifying_key)
        with ops.counting() as revert:
            wallet.build_revert(rec.commitment, sim.mixer_chain, sim.proofs)
        assert settle.keccak_blocks == 2 and revert.keccak_blocks == 2
        assert rec.settlement is proof and rec.revert is not None
        assert rec.revert.public.tpc == rec.tpc


class TestOracle:
    def test_honest_relay_is_cursor_based(self):
        sim = make_sim()
        sim.deposit("alice", 1001, 1003)
        assert len(sim.relay()) == 1
        assert sim.relay() == []  # nothing new

    def test_offline_oracle_does_nothing(self):
        sim = make_sim()
        sim.deposit("alice", 1001, 1003)
        sim.go_offline("oracle")
        assert sim.relay() == []
        assert sim.push_root() is None

    def test_censor_chain_drops_deposits(self):
        sim = make_sim(oracle={"mode": "censor_chain", "censor_chain": 1001})
        sim.deposit("alice", 1001, 1003)
        assert sim.relay() == [("relay_censored", 1001)]
        assert len(sim.mixer_chain.mixer.tree.leaves) == 0
        event = sim.transcript.records[-1]
        assert (event["kind"], event["op"], event["chain"]) == (
            "action", "relay_censored", 1002)

    def test_censor_chain_logs_each_drop_once(self):
        """Each censored deposit is one ``relay_censored`` event; a deposit
        on another chain is relayed, and a later relay logs no drop again."""
        sim = make_sim(oracle={"mode": "censor_chain", "censor_chain": 1001})
        for source, dest in ((1001, 1003), (1003, 1001), (1001, 1002)):
            sim.deposit("alice", source, dest)
        sim.relay()

        def censored():
            return [r for r in sim.transcript.records
                    if r.get("op") == "relay_censored"]

        assert [r["detail"] for r in censored()] == ["(1001,)", "(1001,)"]
        assert len(sim.mixer_chain.mixer.tree.leaves) == 1
        sim.relay()
        assert len(censored()) == 2
        leakage = standard_verdicts(sim)[-1]
        assert leakage.name == "no_hidden_field_leakage" and leakage.passed

    def test_censor_dapp_drops_routed_withdraws(self):
        sim = make_sim(oracle={"mode": "censor_dapp"})
        assert not sim.oracle.route_withdraw(sim.dapp.ghash, 1003)
        assert sim.oracle.route_withdraw(b"\x01" * 32, 1003)  # other dApps fine

    def test_offline_oracle_routes_no_withdraw(self):
        sim = make_sim()
        d = sim.deposit("alice", 1001, 1003)
        sim.relay()
        sim.sign()
        sim.push_root()
        sim.go_offline("oracle")
        sim.withdraw(d, via_oracle=True, expect="Censored")
        calls = [r for r in sim.transcript.records if r["kind"] == "call"]
        assert calls[-1]["op"] == "router_withdraw"
        assert calls[-1]["error"] == "Censored"
        assert not sim.settled(d)
        sim.withdraw(d)
        assert sim.settled(d)

    def test_censor_chain_drops_routed_withdraws_to_it(self):
        sim = make_sim(oracle={"mode": "censor_chain", "censor_chain": 1003})
        d = sim.deposit("alice", 1001, 1003)
        sim.relay()
        sim.sign()
        sim.push_root()
        sim.withdraw(d, via_oracle=True, expect="Censored")
        calls = [r for r in sim.transcript.records if r["kind"] == "call"]
        assert calls[-1]["error"] == "Censored"
        assert not sim.settled(d)

    def test_forged_settlement_fails_at_signature(self):
        sim = make_sim(oracle={"mode": "forge_root"})
        with pytest.raises(ConstraintViolation) as err:
            sim.oracle.attempt_forged_settlement(
                sim.proofs, 8, 1001, sim.dapp.verifying_key
            )
        assert err.value.constraint == "signature"

    def test_replay_mode_bounces_off_dedupe(self):
        sim = make_sim(oracle={"mode": "replay"})
        sim.deposit("alice", 1001, 1003)
        actions = sim.oracle.relay(sim.chains, sim.mixer_chain)
        kinds = [a[0] for a in actions]
        assert kinds == ["relayed", "relay_rejected"]

    def test_copied_commitment_does_not_wedge_relay(self):
        # a copycat re-deposits a relayed public commitment on another chain;
        # the oracle records the rejection and keeps relaying that chain
        sim = make_sim(wallets=("alice", "bob", "mallory"))
        d = sim.deposit("alice", 1001, 1003)
        sim.relay()
        copy = DepositRequest(sim.deposits[d].commitment, b"\x07" * 32, 1,
                              sim.dapp.contracts[1003].address)
        sim.dapp.contracts[1003].forward_deposit(
            sim.chains[1003], sim.wallets["mallory"], copy, 1
        )
        assert sim.relay() == [("relay_rejected", 1003, "DuplicateCommitment")]
        honest = sim.deposit("bob", 1003, 1001)
        assert [a[:2] for a in sim.relay()] == [("relayed", 1003)]
        sim.sign()
        sim.push_root()
        sim.withdraw(honest)
        assert sim.settled(honest)


class TestSignerOrigination:
    def test_offline_signer_signs_nothing(self):
        sim = make_sim()
        sim.deposit("alice", 1001, 1003)
        sim.relay()
        sim.go_offline("dapp")
        assert sim.sign() == []
        assert sim.mixer_chain.mixer.leaf_signatures == {}

    def test_never_signs_unoriginated_leaves(self):
        """A leaf injected into the mixer without a matching source-chain
        deposit event gets no signature, whatever the tree claims."""
        sim = make_sim()
        sim.deposit("alice", 1001, 1003)
        sim.relay()
        # adversary injects an arbitrary leaf directly
        sim.mixer_chain.mixer.tree.insert(777)
        signed = sim.dapp.scan_and_sign(sim.chains, sim.mixer_chain)
        assert signed == [0]
        assert 1 not in sim.mixer_chain.mixer.leaf_signatures

    def test_signs_deposits_made_after_a_scan(self):
        sim = make_sim()
        sim.deposit("alice", 1001, 1003)
        sim.relay()
        assert sim.sign() == [0]
        sim.deposit("alice", 1003, 1001)
        assert sim.sign() == []  # not relayed yet
        sim.relay()
        assert sim.sign() == [1]

    def test_pass_checks_only_new_own_leaves(self):
        """A pass makes one signature check per new own leaf and one more
        as the store takes it: signed leaves, an unoriginated leaf and
        another dApp's leaf that its signer never signs are not visited."""
        class CountingSignatures(dict):
            checks = 0

            def __contains__(self, index):
                self.checks += 1
                return super().__contains__(index)

        sim = make_sim()
        for _ in range(3):
            for _ in range(4):
                sim.deposit("alice", 1001, 1003)
            sim.relay()
            sim.sign()
        mixer = sim.mixer_chain.mixer
        mixer.leaf_signatures = CountingSignatures(mixer.leaf_signatures)
        mixer.tree.insert(777)  # leaf 12, unoriginated: stays unsigned
        lagging = sim.deploy_extra_dapp("lagging")
        sim.wallets["alice"].deposit(
            sim.chains[1001], lagging.contracts[1001], lagging.ghash,
            PayloadIntent(b"\x01" * 32, 1003), 1)
        sim.deposit("alice", 1003, 1001)
        sim.relay()  # leaf 13 is the lagging dApp's, leaf 14 ours
        assert sim.sign() == [14]
        assert mixer.leaf_signatures.checks == 2
        sim.deposit("alice", 1001, 1003)
        sim.deposit("alice", 1001, 1003)
        sim.relay()
        assert sim.sign() == [15, 16]
        assert mixer.leaf_signatures.checks == 2 + 4
        sim.deposit("alice", 1001, 1003)
        assert sim.sign() == []  # not relayed yet: no check
        assert mixer.leaf_signatures.checks == 2 + 4
        sim.relay()
        assert sim.sign() == [17]
        assert mixer.leaf_signatures.checks == 2 + 4 + 2
        assert 12 not in mixer.leaf_signatures and 13 not in mixer.leaf_signatures

    def test_ignores_other_dapps_deposits(self):
        sim = make_sim()
        other = sim.deploy_extra_dapp("other")
        sim.deposit("alice", 1001, 1003)
        sim.relay()
        assert other.scan_and_sign(sim.chains, sim.mixer_chain) == []


class TestLeafPosition:
    """A deposit's leaf index is read from the Mixer's commitment record,
    and the wallet and the signer use it only if it holds the deposit's leaf."""

    def test_equal_valued_leaves_each_get_a_signature(self):
        # mallory picks, from alice's public deposit event, a commitment
        # whose leaf on another chain has the same value as alice's leaf
        sim = make_sim(wallets=("alice", "mallory"))
        d = sim.deposit("alice", 1003, 1001)
        leaf, od = sim.deposits[d].leaf, b"\x07" * 32
        c2 = (leaf - trustless_public_commitment(sim.dapp.ghash, 1, od) - 1001) % P
        contract = sim.dapp.contracts[1001]
        contract.forward_deposit(sim.chains[1001], sim.wallets["mallory"],
                                 DepositRequest(c2, od, 1, contract.address), 1)
        sim.relay()  # chain 1001 first: mallory's leaf is 0, alice's 1
        assert sim.mixer_chain.mixer.tree.leaves == [leaf, leaf]
        assert sim.sign() == [0, 1]
        sim.push_root()
        sim.withdraw(d)
        assert sim.settled(d)

    def test_copied_commitment_through_another_dapp_is_not_signed(self):
        sim = make_sim(wallets=("alice", "mallory"))
        other = sim.deploy_extra_dapp("dapp_b")
        d = sim.deposit("alice", 1003, 1001)
        rec = sim.deposits[d]
        copy = DepositRequest(rec.commitment, b"\x07" * 32, 1, other.contracts[1001].address)
        other.contracts[1001].forward_deposit(sim.chains[1001], sim.wallets["mallory"], copy, 1)
        # chain 1001 first: the copy takes the commitment's index 0
        assert [a[0] for a in sim.relay()] == ["relayed", "relay_rejected"]
        assert sim.sign() == []
        with pytest.raises(UnknownCommitment, match="copy"):
            sim.wallets["alice"].build_settlement(
                rec.commitment, sim.mixer_chain, sim.proofs, sim.dapp.verifying_key)


class TestEventLogReader:
    def test_only_new_events_reads_an_event_log(self):
        """Every event-log read in ``actors.py`` goes through one cursor
        reader: only ``new_events`` names an ``event_log``, and the oracle
        relay, the signer and the watcher each call it."""
        tree = ast.parse(Path(actors.__file__).read_text())
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        readers = {func.name for func in functions for node in ast.walk(func)
                   if isinstance(node, ast.Attribute) and node.attr == "event_log"}
        assert readers == {"new_events"}
        callers = {func.name for func in functions for node in ast.walk(func)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == "new_events"}
        assert callers == {"relay", "scan_and_sign", "watch_reverts"}


class TestWatcher:
    def _revert_pending(self, sim):
        d = sim.deposit("alice", 1001, 1003)
        sim.relay()
        sim.sign()
        sim.push_root()
        sim.revert_mark(d)
        sim.revert_init(d)
        return d

    def test_honest_revert_not_halted(self):
        sim = make_sim()
        self._revert_pending(sim)
        assert sim.dapp.watch_reverts(sim.chains) == []

    def test_value_threshold_halts(self):
        sim = make_sim(dapp={"max_value_per_revert": 3})
        d = sim.deposit("alice", 1001, 1003, value=5)
        sim.relay(); sim.sign(); sim.push_root()
        sim.revert_mark(d)
        sim.revert_init(d)
        halts = sim.dapp.watch_reverts(sim.chains)
        assert [h[2] for h in halts] == ["value_threshold"]

    def test_rate_threshold_halts(self):
        sim = make_sim(dapp={"max_reverts_per_period": 1, "period_blocks": 1000})
        d0 = self._revert_pending(sim)
        assert sim.dapp.watch_reverts(sim.chains) == []  # first one tolerated
        d1 = sim.deposit("alice", 1001, 1003)
        sim.relay(); sim.sign(); sim.push_root()
        sim.revert_mark(d1)
        sim.revert_init(d1)
        halts = sim.dapp.watch_reverts(sim.chains)
        assert "rate_threshold" in [h[2] for h in halts]

    def test_revert_watched_twice_counts_once(self):
        # each pass sees the same honest revert; only the first counts
        # against a rate of one per period
        sim = make_sim(dapp={"max_reverts_per_period": 1, "period_blocks": 1000})
        d = self._revert_pending(sim)
        assert sim.halt() == []
        assert sim.halt() == []
        sim.advance(sim.config.window)
        sim.execute(d)
        assert sim.reverted(d)

    def test_another_dapps_revert_is_left_to_its_watcher(self):
        """A pending revert of a deposit through another dApp's contract is
        not in our escrow: our watcher skips it, its own halts it. Both
        watchers' value rules trip on it."""
        sim = make_sim(dapp={"max_value_per_revert": 0})
        other = sim.deploy_extra_dapp("other")
        other.resilience.max_value_per_revert = 0
        wallet = sim.wallets["alice"]
        rec = wallet.deposit(sim.chains[1001], other.contracts[1001], other.ghash,
                             PayloadIntent(b"\x01" * 32, 1003), 1)
        sim.relay()
        other.scan_and_sign(sim.chains, sim.mixer_chain)
        sim.push_root()
        proof = wallet.build_revert(rec.commitment, sim.mixer_chain, sim.proofs)
        router_revert_mark_destination(sim.chains[1003], proof, rec.payload,
                                       rec.note.salt, rec.version, rec.ghash)
        router_revert_initiate_source(sim.chains[1001], sim.chains[1003], proof)
        assert sim.dapp.watch_reverts(sim.chains) == []
        nh = proof.public.nullifier_hash
        assert other.watch_reverts(sim.chains) == [(1001, nh, "value_threshold")]

    def test_pass_reads_only_new_initiations(self):
        """A pass reads one pending entry per revert initiated since the
        last pass: executed and halted reverts are not visited again."""
        class CountingReverts(dict):
            reads = 0

            def get(self, key, default=None):
                self.reads += 1
                return super().get(key, default)

            def __getitem__(self, key):
                self.reads += 1
                return super().__getitem__(key)

            def items(self):
                self.reads += len(self)
                return super().items()

            def values(self):
                self.reads += len(self)
                return super().values()

            def __iter__(self):
                self.reads += len(self)
                return super().__iter__()

        def initiate(n, value):
            labels = [sim.deposit("alice", 1001, 1003, value=value) for _ in range(n)]
            sim.relay(); sim.sign(); sim.push_root()
            for d in labels:
                sim.revert_mark(d)
                sim.revert_init(d)
            return labels

        sim = make_sim(dapp={"max_value_per_revert": 3})
        router = sim.chains[1001].router
        router.pending_reverts = CountingReverts()
        executed = initiate(3, value=1)
        assert sim.halt() == []
        sim.advance(sim.config.window)
        for d in executed:
            sim.execute(d)
        initiate(2, value=5)
        assert [h[2] for h in sim.halt()] == ["value_threshold"] * 2
        reads = router.pending_reverts.reads
        assert sim.halt() == []
        assert router.pending_reverts.reads == reads
        initiate(4, value=1)
        reads = router.pending_reverts.reads
        assert sim.halt() == []
        assert router.pending_reverts.reads == reads + 4

    def test_rate_is_counted_per_chain_in_its_own_blocks(self):
        """A revert let through on 1003 at its height 5000 does not count
        against 1001 at height 0; 1001's own budget frees after
        ``period_blocks`` of 1001's blocks."""
        def revert(source, dest):
            d = sim.deposit("alice", source, dest)
            sim.relay(); sim.sign(); sim.push_root()
            sim.revert_mark(d)
            sim.revert_init(d)
            return [h[2] for h in sim.halt()]

        sim = make_sim(dapp={"max_reverts_per_period": 1, "period_blocks": 1000})
        sim.advance(5000, chain=1003)
        assert revert(1003, 1001) == []  # let through at 1003's height 5000
        assert revert(1001, 1003) == []  # let through at 1001's height 0
        assert revert(1001, 1003) == ["rate_threshold"]
        sim.advance(999, chain=1001)
        assert revert(1001, 1003) == ["rate_threshold"]
        sim.advance(1, chain=1001)
        assert revert(1001, 1003) == []

    def test_offline_watcher_issues_nothing(self):
        sim = make_sim(dapp={"max_value_per_revert": 0})
        self._revert_pending(sim)  # value 1 trips the rule
        sim.dapp.offline = True
        assert sim.dapp.watch_reverts(sim.chains) == []
        sim.dapp.offline = False
        assert [h[2] for h in sim.dapp.watch_reverts(sim.chains)] == ["value_threshold"]


class TestResilienceDefaults:
    def test_defaults_are_permissive(self):
        rules = ResilienceRules()
        assert rules.max_reverts_per_period >= 1000
        assert rules.max_value_per_revert >= 10**9

    def test_every_dapp_field_reaches_the_signer(self):
        dapp = {"max_reverts_per_period": 3, "period_blocks": 7,
                "max_value_per_revert": 5}
        sim = make_sim(dapp=dapp)
        assert asdict(sim.dapp.resilience) == dict(asdict(ResilienceRules()), **dapp)

    def test_every_rule_is_read_by_a_signer_pass(self):
        """A ``dapp`` knob no path reads is dead: every ``ResilienceRules``
        field is read as ``self.resilience.<field>`` in a ``DappSigner``
        method other than ``__init__``."""
        tree = ast.parse(Path(actors.__file__).read_text())
        signer = next(node for node in tree.body
                      if isinstance(node, ast.ClassDef) and node.name == "DappSigner")
        read = {node.attr
                for method in signer.body
                if isinstance(method, ast.FunctionDef) and method.name != "__init__"
                for node in ast.walk(method)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "resilience"
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == "self"}
        assert {f.name for f in fields(ResilienceRules)} <= read

    def test_empty_dapp_section_and_extra_dapp_take_the_defaults(self):
        sim = make_sim(dapp={})
        assert sim.dapp.resilience == ResilienceRules()
        assert sim.deploy_extra_dapp("x").resilience == ResilienceRules()
