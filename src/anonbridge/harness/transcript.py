"""Ordered, replayable transcript of every actor action and contract call."""

import json

from cryptography.hazmat.primitives.hashes import SHA256, Hash

# the one canonical encoding of a record, shared by the transcript file and
# the leakage scan
RECORD_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class Transcript:
    def __init__(self):
        self.records: list = []

    def log(self, kind: str, **fields) -> dict:
        rec = {"i": len(self.records), "kind": kind}
        rec.update(fields)
        self.records.append(rec)
        return rec

    def to_jsonl(self) -> bytes:
        return ("\n".join(map(RECORD_ENCODER.encode, self.records)) + "\n").encode()

    def digest(self) -> str:
        # transcript identity, not a protocol hash; sha256 keeps it off the
        # op-counter, and cryptography's (already loaded for Ed25519) keeps a
        # second OpenSSL, hashlib's, out of the process
        h = Hash(SHA256())
        h.update(self.to_jsonl())
        return h.finalize().hex()

    @staticmethod
    def load_records(path) -> list:
        with open(path, "rb") as fh:
            return [json.loads(line) for line in fh.read().splitlines() if line]
