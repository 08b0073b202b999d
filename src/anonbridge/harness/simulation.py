"""Deterministic scenario driver.

Builds the chain topology, actors, and proof system from a config, then
exposes one method per action, the only way any caller reaches the
contracts. A contract operation is reached by one path, so all its call
records carry the same fields: set-up registers through
``register_dapp``, a grafted proof is ``withdraw``'s ``graft_key``, and
the oracle's forged settlement is its own action, ``forge_settlement``.
An outcome has one path too: a refusal, the oracle network's ``Censored``
included, is the call's error, judged by ``expect``.
Each method refuses with ``ConfigInvalid``, before it acts or logs, an
unknown wallet, chain or actor name, a taken label or one that names no
deposit, and a proof to reuse or execute that was never built. Only
``_call`` logs what the chains emit: after each call's record, every new
event, its payload as 64-character hex words. A decision no chain
publishes is an ``action`` record. Each simulation owns its op counter,
charged by set-up and by every call (also kept per operation) alone, and
one hash table, active inside every call alone, so a call does not
recompute a MiMC permutation or a keccak256 digest that an earlier call,
or an earlier step of the same call, already computed (see ``hashing``);
op counts are the same with or without it. The proof attestation, keyed
BLAKE2b charged as the keccak256 MAC it stands for, never enters the
table: the verifier recomputes it. An action hands ``_call`` the
function it calls and its arguments, which are evaluated outside the
counter and the table: work that hashes, proves or can raise a protocol
error goes in a closure.
"""

from dataclasses import dataclass, replace

from .. import ops
from ..actors import (
    DappContract,
    DappSigner,
    NoteRecord,
    Oracle,
    OraclePolicy,
    Wallet,
    new_events,
)
from ..chain import (
    Chain,
    advance_blocks,
    router_register_dapp,
    router_revert_execute,
    router_revert_initiate_source,
    router_revert_mark_destination,
    router_withdraw,
    words,
)
from ..circuit import Proof, ProofSystem
from ..dact import PayloadIntent
from ..errors import Censored, ConfigInvalid, ConstraintViolation, SimError
from ..field import to_bytes32
from ..rng import SeededRng
from .transcript import Transcript


@dataclass
class Verdict:
    name: str
    passed: bool
    detail: str = ""


class UnexpectedOutcome(SimError):
    """A scripted action did not produce its expected result."""


# the actors go_offline may name, each a Simulation attribute
OFFLINE_ACTORS = ("oracle", "dapp")


def _known(field: str, value, allowed) -> None:
    """Refuse ``field`` naming what ``allowed`` lacks; None names nothing."""
    if value is not None and value not in allowed:
        raise ConfigInvalid(f"field {field!r} names unknown {value!r}")


def _error_name(exc: Exception) -> str:
    if isinstance(exc, ConstraintViolation):
        return f"ConstraintViolation:{exc.constraint}"
    return type(exc).__name__


class Simulation:
    def __init__(self, config):
        config.validate()
        self.config = config
        self.ops = ops.OpCounts()       # set-up and every call
        self.metrics: dict = {}         # op name -> OpCounts of its calls
        self.hash_table: dict = {}      # hash input -> output, the same
        self.transcript = Transcript()
        self._event_cursors: dict = {}  # chain id -> its events logged so far
        self.verdicts: list = []
        self.deposits: dict = {}        # label -> its wallet's NoteRecord
        self._labels: set = set()       # every label taken, failed deposits' too
        with ops.counting(self.ops):
            self.rng = SeededRng(config.seed)
            self.proofs = ProofSystem(self.rng.child("deity-keys"))

            self.chains = {}
            for cid in config.chains:
                depth = config.merkle_depth if cid == config.multiplexer else None
                self.chains[cid] = Chain(cid, depth, self.proofs, config.window)
            self.mixer_chain = self.chains[config.multiplexer]

            self.transcript.log("header", config=config.to_json())

            # one dApp spanning every chain; validate() checked both sections
            self.dapp = DappSigner(self.rng.child("dapp-keys"), **config.dapp)
            self._deploy_and_register(self.dapp, "dapp")

            # a censoring oracle censors this scenario's dApp
            self.oracle = Oracle(OraclePolicy(**config.oracle), b"",
                                 self.rng.child("oracle"), censored_dapp=self.dapp.ghash)

            self.wallets = {
                name: Wallet(name, self.rng.child(f"wallet/{name}"))
                for name in config.wallets
            }

    # -- setup helpers ---------------------------------------------------------

    def _deploy_and_register(self, signer: DappSigner, tag: str) -> None:
        addr_rng = self.rng.child(f"{tag}-addresses")
        for cid in self.config.chains:
            contract = DappContract(addr_rng.bytes(20))
            signer.contracts[cid] = contract
            self.chains[cid].dapps[contract.address] = contract
        # home chain registers first and fixes the global hash; the other
        # chains submit the same array plus the home address
        home_cid = self.config.chains[0]
        home = signer.contracts[home_cid].address
        others = [signer.contracts[c].address for c in self.config.chains if c != home_cid]
        for cid in self.config.chains:
            ghash = self.register_dapp(cid, signer.contracts[cid].address, others,
                                       signer.verifying_key,
                                       None if cid == home_cid else home)
            if cid == home_cid:
                signer.ghash = ghash

    def deploy_extra_dapp(self, tag: str) -> DappSigner:
        """Second dApp for wrong-dApp and registration-attack scenarios."""
        signer = DappSigner(self.rng.child(f"{tag}-keys"))
        self._deploy_and_register(signer, tag)
        return signer

    def register_dapp(self, chain: int, caller: bytes, others: list,
                      verifying_key: bytes, home: bytes = None, expect=None):
        """Contract ``caller`` registers a dApp spanning ``others`` on
        ``chain``, a non-home chain when ``home`` is given."""
        _known("chain", chain, self.chains)
        return self._call("router_register_dapp", chain, router_register_dapp,
                          self.chains[chain], caller, others, verifying_key, home,
                          expect=expect, caller=caller.hex())

    # -- logging / metrics wrapper ----------------------------------------------

    def _call(self, op: str, chain, fn, *args, expect=None, **logged):
        """Run ``fn(*args)`` as call ``op`` on ``chain``: count its ops, run
        it under the hash table, log it with ``logged`` and then each new
        chain event, judge it against ``expect``. ``args`` are evaluated
        before the counter and the table are entered, so anything that
        hashes, proves or can raise a protocol error belongs in ``fn``."""
        error = None
        result = None
        with ops.counting() as spent, ops.hash_table(self.hash_table):
            try:
                result = fn(*args)
            except SimError as exc:
                error = exc
        self.metrics.setdefault(op, ops.OpCounts()).add(spent)
        self.ops.add(spent)
        self.transcript.log(
            "call", op=op, chain=chain,
            ok=error is None,
            error=_error_name(error) if error else None,
            **logged,
        )
        for emitter, ev in new_events(self.chains, self._event_cursors):
            self.transcript.log("event", op=f"{ev.kind}_event", chain=emitter.chain_id,
                                block=ev.block, payload=ev.payload.hex(" ", -32).split())
        if expect in (None, "ok"):
            if error is not None:
                raise error
        else:
            if error is None or _error_name(error) != expect:
                got = _error_name(error) if error else "ok"
                raise UnexpectedOutcome(f"{op}: expected {expect}, got {got}")
        return result

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.verdicts.append(Verdict(name, bool(passed), detail))

    # -- script actions -----------------------------------------------------------

    def deposit(self, wallet: str, source: int, dest: int, label: str = None,
                payload: bytes = None, version: int = 1, value: int = 1,
                expect=None) -> str:
        _known("wallet", wallet, self.wallets)
        _known("source", source, self.chains)
        _known("dest", dest, self.chains)
        if label is None:
            label = self.next_label()
        if label in self._labels:
            raise ConfigInvalid(f"label {label!r} is already taken")
        self._labels.add(label)
        w = self.wallets[wallet]
        if payload is None:
            payload = self.rng.child(f"payload/{label}").bytes(32)
        contract = self.dapp.contracts[source]

        def _do():
            intent = PayloadIntent(payload, dest)  # tier check before submission
            return w.deposit(self.chains[source], contract, self.dapp.ghash,
                             intent, version, value)

        rec = self._call(
            "router_deposit", source, _do, expect=expect,
            wallet=wallet, dapp_address=contract.address.hex(), version=version,
            value=value,
        )
        if rec is not None:
            self.deposits[label] = rec
        return label

    def next_label(self) -> str:
        """The label a deposit made without one takes."""
        return f"d{len(self._labels)}"

    def _record(self, deposit: str) -> NoteRecord:
        """The record of the deposit labelled ``deposit``."""
        rec = self.deposits.get(deposit)
        if rec is None:
            raise ConfigInvalid(f"field 'deposit' names no deposit made so far: "
                                f"{deposit!r}")
        return rec

    def relay(self, expect=None):
        actions = self._call("oracle_relay", self.config.multiplexer, self.oracle.relay,
                             self.chains, self.mixer_chain, expect=expect)
        for act in actions or []:
            if act[0] != "relayed":  # a relayed deposit is its leaf_inserted event
                self.transcript.log("action", op=act[0],
                                    chain=self.config.multiplexer, detail=str(act[1:]))
        return actions

    def push_root(self, expect=None):
        return self._call("router_update_root", None, self.oracle.push_root,
                          self.chains, self.mixer_chain, expect=expect)

    def sign(self, expect=None):
        return self._call("mixer_store_signature", self.config.multiplexer,
                          self.dapp.scan_and_sign, self.chains, self.mixer_chain,
                          expect=expect)

    def forge_settlement(self, expect=None):
        """The oracle's network-abuse move: forge a note and a tree once,
        whose root a ``forge_root`` oracle offers next, and at each call
        attempt a settlement proof against that root and this scenario's
        dApp; it fails at the signature."""
        return self._call(
            "forged_settlement_attempt", None, self.oracle.attempt_forged_settlement,
            self.proofs, self.config.merkle_depth, self.config.chains[0],
            self.dapp.verifying_key, expect=expect)

    def withdraw(self, deposit: str, expect=None, chain: int = None,
                 claim_dest: int = None, via_oracle: bool = False,
                 tamper_payload: bool = False, reuse_proof: bool = False, *,
                 verifying_key: bytes = None, graft_key: bytes = None):
        """Withdraw the deposit with a settlement proof, built in the call
        against ``verifying_key`` (the dApp's by default) or the one kept
        (``reuse_proof``), then re-bound to ``graft_key`` if given: a proof
        grafted onto another dApp. A ``via_oracle`` withdraw the oracle
        network will not route fails with ``Censored`` after the proof
        build, before any Router check."""
        _known("chain", chain, self.chains)
        rec = self._record(deposit)
        if reuse_proof and rec.settlement is None:
            raise ConfigInvalid(f"deposit {deposit!r} has no settlement proof "
                                f"to reuse; withdraw it first")
        w = self.wallets[rec.wallet]
        dest_chain = self.chains[chain if chain is not None else rec.dest]
        vk = verifying_key if verifying_key is not None else self.dapp.verifying_key

        def _do():
            proof = rec.settlement if reuse_proof else w.build_settlement(
                rec.commitment, self.mixer_chain, self.proofs, vk)
            if graft_key is not None:
                proof = replace(proof, public=replace(proof.public,
                                                      dapp_verifying_key=graft_key))
            if via_oracle and not self.oracle.route_withdraw(
                self.dapp.ghash, dest_chain.chain_id
            ):
                raise Censored(f"the oracle network does not route withdraw "
                               f"{deposit!r}")
            payload = rec.payload
            if tamper_payload:
                payload = bytes([payload[0] ^ 1]) + payload[1:]
            claim = claim_dest if claim_dest is not None else dest_chain.chain_id
            return router_withdraw(dest_chain, proof, payload, rec.note.salt, claim,
                                   rec.version)

        return self._call(
            "router_withdraw", dest_chain.chain_id, _do, expect=expect,
            deposit=deposit, via_oracle=via_oracle,
        )

    def _revert_proof(self, rec: NoteRecord) -> Proof:
        """The deposit's revert proof, built once."""
        if rec.revert is None:
            self.wallets[rec.wallet].build_revert(rec.commitment, self.mixer_chain,
                                                  self.proofs)
        return rec.revert

    def revert_mark(self, deposit: str, expect=None, chain: int = None):
        _known("chain", chain, self.chains)
        rec = self._record(deposit)
        dest_chain = self.chains[chain if chain is not None else rec.dest]

        def _do():
            proof = self._revert_proof(rec)
            router_revert_mark_destination(dest_chain, proof, rec.payload, rec.note.salt,
                                           rec.version, rec.ghash)
            return proof

        return self._call(
            "router_revert_mark", dest_chain.chain_id, _do, expect=expect,
            deposit=deposit,
            commitment=to_bytes32(rec.commitment).hex(),
        )

    def revert_init(self, deposit: str, expect=None, chain: int = None):
        _known("chain", chain, self.chains)
        rec = self._record(deposit)
        src_chain = self.chains[chain if chain is not None else rec.source]

        def _do():
            return router_revert_initiate_source(src_chain, self.chains[rec.dest],
                                                 self._revert_proof(rec))

        return self._call(
            "router_revert_initiate", src_chain.chain_id, _do, expect=expect,
            deposit=deposit,
            commitment=to_bytes32(rec.commitment).hex(),
        )

    def execute(self, deposit: str, expect=None):
        rec = self._record(deposit)
        if rec.revert is None:
            raise ConfigInvalid(f"deposit {deposit!r} has no revert proof; "
                                f"revert_mark or revert_init it first")
        src_chain = self.chains[rec.source]
        return self._call(
            "router_revert_execute", src_chain.chain_id, router_revert_execute,
            src_chain, rec.revert.public.nullifier_hash, expect=expect, deposit=deposit)

    def halt(self, expect=None):
        """The dApp watcher pass; a halt where a rule trips delays a refund one window."""
        halts = self._call("dapp_watch_reverts", None, self.dapp.watch_reverts,
                           self.chains, expect=expect)
        for cid, nh, reason in halts or []:
            self.transcript.log("action", op="revert_halted", chain=cid,
                                nullifier_hash=to_bytes32(nh).hex(), reason=reason)
        return halts

    def advance(self, blocks: int = 1, chain: int = None, expect=None):
        if blocks < 1:
            raise ConfigInvalid(f"field 'blocks' must be at least 1, got {blocks}")
        _known("chain", chain, self.chains)
        targets = [chain] if chain is not None else sorted(self.chains)

        def _do():
            for cid in targets:
                advance_blocks(self.chains[cid], blocks)
            return blocks

        return self._call("advance_blocks", chain, _do, expect=expect,
                          blocks=blocks)

    def go_offline(self, actor: str, expect=None):
        _known("actor", actor, OFFLINE_ACTORS)

        def _do():
            getattr(self, actor).offline = True

        return self._call("go_offline", None, _do, expect=expect, actor=actor)

    # -- inspection helpers ---------------------------------------------------------

    def settled(self, deposit: str) -> bool:
        """Whether this deposit's own nullifier hash settled on its
        destination: that chain published its ``settled`` event."""
        rec = self._record(deposit)
        if rec.settlement is None:
            return False
        nh = rec.settlement.public.nullifier_hash
        return ("settled", words(nh)) in self.chains[rec.dest].published

    def reverted(self, deposit: str) -> bool:
        rec = self._record(deposit)
        return rec.commitment not in self.dapp.contracts[rec.source].escrow \
            and rec.revert is not None

    def secrets_for_analysis(self) -> list:
        """Per-deposit sensitive encodings, read out-of-band from wallets."""
        return [{
            "label": label,
            "payload": rec.payload.hex(),
            "dest_chain_id": to_bytes32(rec.dest).hex(),
            "salt": to_bytes32(rec.note.salt).hex(),
            "secret": to_bytes32(rec.note.secret).hex(),
            "nullifier": to_bytes32(rec.note.nullifier).hex(),
            "commitment": to_bytes32(rec.commitment).hex(),
            "source_chain": rec.source,
        } for label, rec in self.deposits.items()]

    def metrics_report(self) -> dict:
        per_op = {op: c.as_dict() for op, c in sorted(self.metrics.items())}
        return {"per_op": per_op, "total": self.ops.as_dict()}
