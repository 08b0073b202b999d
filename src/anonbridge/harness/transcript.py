"""Ordered, replayable transcript of every actor action and contract call.

Each record is encoded once, when it is logged, into ``lines``, which the
transcript file, its digest and the leakage scan read."""

import json

from cryptography.hazmat.primitives.hashes import SHA256, Hash

# the one canonical encoding of a record, shared by the transcript file and
# the leakage scan
RECORD_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class Transcript:
    def __init__(self):
        self.records: list = []
        self.lines: list = []  # RECORD_ENCODER's line of each record

    def log(self, kind: str, **fields) -> dict:
        rec = {"i": len(self.records), "kind": kind}
        rec.update(fields)
        self.records.append(rec)
        self.lines.append(RECORD_ENCODER.encode(rec))
        return rec

    def to_jsonl(self) -> bytes:
        return ("\n".join(self.lines) + "\n").encode()

    def digest(self) -> str:
        # transcript identity, not a protocol hash; sha256 keeps it off the
        # op-counter, and cryptography's (already loaded for Ed25519) keeps a
        # second OpenSSL, hashlib's, out of the process
        h = Hash(SHA256())
        h.update(self.to_jsonl())
        return h.finalize().hex()

    @classmethod
    def load(cls, path) -> "Transcript":
        """The transcript a ``to_jsonl`` file holds, each record encoded
        again canonically, so other JSON whitespace gives the same digest."""
        transcript = cls()
        with open(path, "rb") as fh:
            transcript.records = [json.loads(line) for line in fh.read().splitlines() if line]
        transcript.lines = list(map(RECORD_ENCODER.encode, transcript.records))
        return transcript
