"""Ordered, replayable transcript of every actor action and contract call.

Each record is kept only as its line, encoded once when it is logged:
``lines`` holds them for the transcript file and its digest, ``classes``
the same lines by (kind, op, chain) for the leakage scan."""

import json

from cryptography.hazmat.primitives.hashes import SHA256, Hash

# the one canonical encoding of a record, shared by the transcript file and
# the leakage scan
RECORD_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class Transcript:
    def __init__(self):
        self.lines: list = []    # RECORD_ENCODER's line of each record
        self.classes: dict = {}  # (kind, op, chain) -> its records' lines

    def log(self, kind: str, **fields) -> dict:
        return self._add({"i": len(self.lines), "kind": kind, **fields})

    def _add(self, rec: dict) -> dict:
        line = RECORD_ENCODER.encode(rec)
        self.lines.append(line)
        key = (rec.get("kind"), rec.get("op"), rec.get("chain"))
        self.classes.setdefault(key, []).append(line)
        return rec

    @property
    def records(self) -> list:
        # one JSON document, so the records share their key strings
        return json.loads("[" + ",".join(self.lines) + "]")

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
        again canonically, so other JSON whitespace gives the same digest,
        and added as it is: no ``i`` is given to a record that lacks one."""
        transcript = cls()
        with open(path, "rb") as fh:
            for rec in map(json.loads, filter(None, fh.read().splitlines())):
                if not isinstance(rec, dict):
                    raise ValueError(f"not a JSON object: {rec!r:.40}")
                transcript._add(rec)
        return transcript
