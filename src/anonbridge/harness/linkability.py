"""Transcript analysis: who could have linked what.

Reconstructs two observer views from a transcript and byte-scans them for
sensitive encodings the protocol promises to hide:

* oracle view: everything the relaying network observes while doing its
  job -- source-chain deposit events, mixer state, root pushes, revert
  broadcasts. Excludes the calls users submit directly to a destination
  Router (withdraw, revert mark), which are the intentional reveal, and
  the transcript header: harness metadata that embeds the scenario config
  (a scripted payload too) and that no oracle observes.
* source-chain view: every record emitted on a given deposit's source
  chain.

A deposit event's last word is its emitting chain's public id, so it is
stripped before either view is scanned.

Revert scenarios legitimately reveal the commitment on the source chain;
the analyzer reports that linkage as expected leakage rather than a
violation.
"""

import json

# destination-side calls the user submits itself; everything else is
# observable by the oracle network in the course of relaying
_USER_DIRECT_OPS = {"router_withdraw", "router_revert_mark", "withdraw_censored"}

_HIDDEN_FIELDS = ("payload", "dest_chain_id", "salt", "secret", "nullifier")


def _record_bytes(records) -> bytes:
    return "\n".join(
        json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records
    ).encode()


def _strip_public_chain_id(records: list) -> list:
    """Drop each deposit event's last payload word: the id of the chain that
    emitted it, public by design (``deposit_minimality`` checks it)."""
    return [dict(r, payload=r["payload"][:-64]) if r.get("op") == "deposit_event"
            else r for r in records]


def oracle_view(records: list) -> list:
    return [r for r in records
            if r.get("kind") != "header" and r.get("op") not in _USER_DIRECT_OPS]


def source_view(records: list, source_chain: int) -> list:
    return [r for r in records if r.get("chain") == source_chain]


def analyze_linkability(records: list, deposit_secrets: list) -> dict:
    """Scan observer views for sensitive encodings.

    ``deposit_secrets`` is the per-deposit sensitive material, provided
    out-of-band by the harness (it never appears in the transcript
    itself). Returns per-view hit counts and the expected commitment
    leakage from revert flows.
    """
    scanned = _strip_public_chain_id(records)
    oracle_blob = _record_bytes(oracle_view(scanned))
    src_blobs = {c: _record_bytes(source_view(scanned, c))
                 for c in {sec["source_chain"] for sec in deposit_secrets}}
    # the deposit event itself contains the commitment by design; the
    # linkage that matters is its reappearance in revert records
    revert_blob = _record_bytes(
        [r for r in records if "revert" in str(r.get("op", ""))]
    )
    report = {
        "deposits": [],
        "violations": 0,
        "expected_leakage": [],
    }
    for sec in deposit_secrets:
        src_blob = src_blobs[sec["source_chain"]]
        entry = {"label": sec["label"], "oracle_view": {}, "source_view": {}}
        for name in _HIDDEN_FIELDS:
            enc = sec[name].encode()
            hits_oracle = oracle_blob.count(enc)
            hits_source = src_blob.count(enc)
            entry["oracle_view"][name] = hits_oracle
            entry["source_view"][name] = hits_source
            report["violations"] += hits_oracle + hits_source
        commitment_hits = revert_blob.count(sec["commitment"].encode())
        if commitment_hits:
            report["expected_leakage"].append(
                {"label": sec["label"], "commitment_hits": commitment_hits}
            )
        report["deposits"].append(entry)
    return report
