"""Correctness checks made apart from the program.

Hashes, commitments, nullifier hashes and Merkle roots are recomputed with
the independent reference implementation in ``tests/_reference.py``; the
leakage scan is this benchmark's own. Each check returns ``(name, ok,
detail)``.
"""

import json
from collections import Counter

import _reference as ref

TPC_MASK = (1 << 73) - 1

# calls a user submits directly to a destination Router: the only records
# an oracle is not expected to observe
USER_DIRECT_OPS = {"router_withdraw", "router_revert_mark", "withdraw_censored"}


def word(value: int) -> bytes:
    return value.to_bytes(32, "big")


def ref_leaf(note, payload: bytes, source: int, dest: int, ghash: bytes,
             version: int) -> int:
    """Mixer leaf of one deposit, rebuilt from its note with reference hashes."""
    obfuscated = ref.keccak256(payload + word(dest) + word(note.salt))
    tpc = int.from_bytes(ref.keccak256(ghash + word(version) + obfuscated),
                         "big") & TPC_MASK
    return (ref.commit(note.secret, note.nullifier) + tpc + source) % ref.P


def ref_global_hash(signer, chains: list) -> bytes:
    """The dApp's global hash: keccak over the home address, then the others."""
    home = signer.contracts[chains[0]].address
    others = b"".join(signer.contracts[c].address for c in chains[1:])
    return ref.keccak256(home + others)


def note_of(sim, label: str):
    info = sim.deposits[label]
    return sim.wallets[info.wallet].notes[info.commitment].note


def _blob(records: list) -> str:
    return "\n".join(json.dumps(r, sort_keys=True, default=str) for r in records)


def leakage_scan(sim) -> tuple:
    """Byte-scan the oracle view and each source-chain view of the
    transcript for every note's payload, salt, secret and nullifier, in
    32-byte hex and in decimal, and for its destination chain id as a
    32-byte word.

    The destination chain id is also the public ``source_chain_id`` of each
    deposit event emitted on the destination chain, so in the oracle view
    its word may appear in those events and nowhere else; in the source
    view, whose chain is not the destination, it may not appear at all."""
    records = sim.transcript.records
    oracle_records = [r for r in records if r.get("op") not in USER_DIRECT_OPS]
    oracle = _blob(oracle_records)
    by_source: dict = {}
    # destination chain -> oracle view without that chain's deposit events
    by_dest: dict = {}
    hits = []
    for label, info in sim.deposits.items():
        note = note_of(sim, label)
        source = by_source.get(info.source)
        if source is None:
            source = by_source[info.source] = _blob(
                [r for r in records if r.get("chain") == info.source])
        dest = by_dest.get(info.dest)
        if dest is None:
            dest = by_dest[info.dest] = _blob(
                [r for r in oracle_records
                 if not (r.get("op") == "deposit_event" and r.get("chain") == info.dest)])
        encodings = [info.payload.hex()]
        for secret in (note.salt, note.secret, note.nullifier):
            encodings += [word(secret).hex(), str(secret)]
        dest_word = word(info.dest).hex()
        if (dest_word in source or dest_word in dest
                or any(enc in oracle or enc in source for enc in encodings)):
            hits.append(label)
    return ("leakage_scan", not hits, f"leaking deposits: {hits[:5]}" if hits else "")


def mixer_root(sim, order: list, depth: int) -> tuple:
    """Final Mixer root against ``naive_root`` over reference-built leaves,
    taken in the relay order the benchmark predicts (``order``: labels)."""
    chains = sim.config.chains
    ghash = ref_global_hash(sim.dapp, chains)
    leaves = []
    for label in order:
        info = sim.deposits[label]
        leaves.append(ref_leaf(note_of(sim, label), info.payload, info.source,
                               info.dest, ghash, info.version))
    want = ref.naive_root(tuple(leaves), depth)
    got = sim.mixer_chain.mixer.tree.root
    return ("mixer_root", got == want, "" if got == want else f"{got} != {want}")


def spent_sets(sim) -> tuple:
    """Each destination Router has spent exactly the reference nullifier
    hashes of the notes bound for it."""
    want: dict = {cid: set() for cid in sim.chains}
    for label, info in sim.deposits.items():
        want[info.dest].add(ref.nullifier_hash(note_of(sim, label).nullifier))
    bad = [cid for cid, chain in sim.chains.items()
           if chain.router.nullifier_spent != want[cid]]
    return ("spent_sets", not bad, f"chains {bad}" if bad else "")


def delivered_once(sim, payloads: dict) -> tuple:
    """Every generated payload reached its destination dApp exactly once
    (``payloads``: destination chain -> generated payloads)."""
    bad = [cid for cid in sim.chains
           if Counter(sim.dapp.contracts[cid].received_payloads)
           != Counter(payloads.get(cid, []))]
    return ("delivered_once", not bad, f"chains {bad}" if bad else "")


def value_conserved(sim, start_balance: int) -> tuple:
    """Wallet balances plus dApp escrow equal the starting balances."""
    held = sum(w.balance for w in sim.wallets.values())
    escrowed = sum(value for contract in sim.dapp.contracts.values()
                   for value, _ in contract.escrow.values())
    want = start_balance * len(sim.wallets)
    ok = held + escrowed == want
    return ("value_conserved", ok, "" if ok else f"{held}+{escrowed} != {want}")


def refunded(sim, start_balance: int) -> tuple:
    """After a full revert flood every wallet is back where it started and
    no escrow is left."""
    off = [n for n, w in sim.wallets.items() if w.balance != start_balance]
    escrowed = sum(len(c.escrow) for c in sim.dapp.contracts.values())
    ok = not off and escrowed == 0
    return ("refunded", ok, "" if ok else f"wallets {off}, escrow {escrowed}")


def nothing_settled(sim) -> tuple:
    settled = sum(ev.kind == "settled" for c in sim.chains.values()
                  for ev in c.event_log)
    return ("nothing_settled", settled == 0, f"{settled} settled" if settled else "")


def revert_flags(sim) -> tuple:
    """Each reference nullifier hash is spent and reverted on its
    destination and reverted on its source."""
    bad = []
    for label, info in sim.deposits.items():
        nh = ref.nullifier_hash(note_of(sim, label).nullifier)
        dest = sim.chains[info.dest].router
        source = sim.chains[info.source].router
        if not (nh in dest.nullifier_spent and nh in dest.nullifier_reverted
                and nh in source.nullifier_reverted):
            bad.append(label)
    return ("revert_flags", not bad, f"deposits {bad[:5]}" if bad else "")


def no_halts(halts: list) -> tuple:
    return ("no_halts", not halts, f"{len(halts)} halts" if halts else "")
