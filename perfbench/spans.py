"""Span recorder for the traced benchmark run.

Each traced name is a public function or method of one program layer.
Most callers import functions by name (``from .keccak import keccak256``),
so a function is wrapped by rebinding every ``anonbridge`` module
attribute that refers to it; a method is wrapped on its class. Spans stay
in memory as ``[name, start, end, parent]`` lists and are written out
after the run. Nothing is installed unless ``install`` is called.
"""

import functools
import json
import sys
from time import perf_counter

# (span name, defining module, attribute or Class.method)
TARGETS = [
    ("keccak.keccak256", "anonbridge.keccak", "keccak256"),
    ("hashing.permute", "anonbridge.hashing", "permute"),
    ("hashing.mimc_hash2", "anonbridge.hashing", "mimc_hash2"),
    ("hashing.commit", "anonbridge.hashing", "commit"),
    ("hashing.nullifier_hash", "anonbridge.hashing", "nullifier_hash"),
    ("rng.bytes", "anonbridge.rng", "SeededRng.bytes"),
    ("rng.child", "anonbridge.rng", "SeededRng.child"),
    ("merkle.insert", "anonbridge.merkle", "MerkleTree.insert"),
    ("merkle.path", "anonbridge.merkle", "MerkleTree.path"),
    ("merkle.verify_path", "anonbridge.merkle", "verify_path"),
    ("signing.sign", "anonbridge.signing", "KeyPair.sign"),
    ("signing.verify", "anonbridge.signing", "verify"),
    ("dact.note_new", "anonbridge.dact", "note_new"),
    ("dact.obfuscate", "anonbridge.dact", "obfuscate"),
    ("dact.trustless_public_commitment", "anonbridge.dact",
     "trustless_public_commitment"),
    ("dact.dapp_global_hash", "anonbridge.dact", "dapp_global_hash"),
    ("circuit.verify", "anonbridge.circuit", "ProofSystem.verify"),
    ("chain.router_register_dapp", "anonbridge.chain", "router_register_dapp"),
    ("chain.router_deposit", "anonbridge.chain", "router_deposit"),
    ("chain.mixer_submit", "anonbridge.chain", "mixer_submit"),
    ("chain.mixer_store_signature", "anonbridge.chain", "mixer_store_signature"),
    ("chain.router_update_root", "anonbridge.chain", "router_update_root"),
    ("chain.router_withdraw", "anonbridge.chain", "router_withdraw"),
    ("chain.router_revert_mark_destination", "anonbridge.chain",
     "router_revert_mark_destination"),
    ("chain.router_revert_initiate_source", "anonbridge.chain",
     "router_revert_initiate_source"),
    ("chain.router_revert_halt", "anonbridge.chain", "router_revert_halt"),
    ("chain.router_revert_execute", "anonbridge.chain", "router_revert_execute"),
    ("chain.advance_blocks", "anonbridge.chain", "advance_blocks"),
    ("actors.forward_deposit", "anonbridge.actors", "DappContract.forward_deposit"),
    ("actors.deposit", "anonbridge.actors", "Wallet.deposit"),
    ("actors.build_settlement", "anonbridge.actors", "Wallet.build_settlement"),
    ("actors.build_revert", "anonbridge.actors", "Wallet.build_revert"),
    ("actors.relay", "anonbridge.actors", "Oracle.relay"),
    ("actors.push_root", "anonbridge.actors", "Oracle.push_root"),
    ("actors.scan_and_sign", "anonbridge.actors", "DappSigner.scan_and_sign"),
    ("actors.watch_reverts", "anonbridge.actors", "DappSigner.watch_reverts"),
    ("harness.simulation_init", "anonbridge.harness.simulation",
     "Simulation.__init__"),
    ("harness.transcript_log", "anonbridge.harness.transcript", "Transcript.log"),
    ("harness.analyze_linkability", "anonbridge.harness.linkability",
     "analyze_linkability"),
    ("harness.standard_verdicts", "anonbridge.harness.scenarios",
     "standard_verdicts"),
    ("harness.run_scenario", "anonbridge.harness.scenarios", "run_scenario"),
] + [
    (f"harness.{action}", "anonbridge.harness.simulation", f"Simulation.{action}")
    for action in ("deposit", "relay", "sign", "push_root", "withdraw",
                   "revert_mark", "revert_init", "halt", "execute", "advance")
]

# ProofSystem.prove serves both circuits; its spans are named per circuit
PROVE_TARGET = ("anonbridge.circuit", "ProofSystem.prove")


class Recorder:
    def __init__(self):
        self.spans: list = []   # [name, start, end, parent index or -1]
        self._open = [-1]

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._open[-1]])
        self._open.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn):
        enter, leave = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(idx)

        return traced

    def wrap_prove(self, fn, settlement_id: int):
        enter, leave = self.enter, self.exit

        @functools.wraps(fn)
        def traced(proof_system, circuit_id, witness, public):
            name = ("circuit.prove_settlement" if circuit_id == settlement_id
                    else "circuit.prove_revert")
            idx = enter(name)
            try:
                return fn(proof_system, circuit_id, witness, public)
            finally:
                leave(idx)

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def _program_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "anonbridge" or n.startswith("anonbridge."))]


def install(rec: Recorder) -> list:
    """Wrap every target; returns the undo list for ``uninstall``."""
    undo = []
    modules = _program_modules()

    def patch(module_name, attr, make):
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, make(original))
            undo.append((cls, meth, original))
            return
        original = getattr(owner, attr)
        wrapped = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, original))

    for name, module_name, attr in TARGETS:
        patch(module_name, attr, lambda fn, name=name: rec.wrap(name, fn))
    settlement_id = sys.modules["anonbridge.circuit"].SETTLEMENT
    patch(*PROVE_TARGET, lambda fn: rec.wrap_prove(fn, settlement_id))
    return undo


def uninstall(undo: list) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


def summarize(spans: list) -> dict:
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the part of it that its direct
    child spans cover; calls are sequential, so children never overlap.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - covered[i]
    return {name: {"calls": c, "total_s": t, "self_s": s}
            for name, (c, t, s) in out.items()}


def module_self_times(summary: dict) -> dict:
    """Self seconds per module, the first component of the span name."""
    out: dict = {}
    for name, entry in summary.items():
        module = name.split(".", 1)[0]
        out[module] = out.get(module, 0.0) + entry["self_s"]
    return out
