"""Transcript analysis: who could have linked what.

Reconstructs two observer views from a transcript and byte-scans them for
sensitive encodings the protocol promises to hide:

* oracle view: everything the relaying network observes while doing its
  job -- every event any chain emitted (deposits, Mixer leaves and
  signatures, root pushes, settlements, reverts), the calls that made
  them and the oracle's own actions. Excludes the calls users submit
  directly to a destination Router (withdraw, revert mark), which are the
  intentional reveal, and the transcript header: harness metadata that
  embeds the scenario config (a scripted payload too) and that no oracle
  observes.
* source-chain view: every record emitted on a given deposit's source
  chain.

An event record's payload is a list of 64-character hex words. A deposit
event's last word is its emitting chain's public id, and the last word of
a ``leaf_inserted`` or ``signature_stored`` event is a public Mixer leaf
index, so neither view counts those words (see Exactness). The
encoder puts ``","`` between words, so event payloads are searched only at
32-byte word boundaries: a value split across two words is not one hex
run and is not counted.

A revert legitimately reveals the commitment, in the destination's mark
event and on the source chain; the analyzer reports that linkage as
expected leakage rather than a violation.

The scan is one pass over the transcript's ``lines``, each record's
encoding made when it was logged, so the scan encodes nothing; a record
without a line raises ``ValueError`` rather than going unscanned. Each
record is classified by the views that hold it (``_views``), which reads
only its kind, op and chain; one call asks ``_views`` once per distinct
triple and keeps the answers for that call only. The lines of one class
are joined into one blob, and records no view holds are skipped. Each
class's blob is then searched for its maximal runs of at least 64
lowercase hex characters. A run of exactly 64 is one lookup in the set
of secret words; a longer run is cut into the list of its 64-character
windows, one per offset, and that list is intersected with the set. A
word found in a run is counted with ``run.count``. The cost is linear in
the transcript, not in deposits times transcript.

Precondition: every hidden field and commitment is encoded as a
64-character lowercase hex word (a 32-byte value; ``secrets_for_analysis``
gives them so). Any other encoding raises ``ValueError`` rather than going
unseen.

Exactness: a word made only of hex characters cannot straddle a non-hex
byte, so each occurrence lies inside one maximal hex run. ``bytes.count``
is greedy and non-overlapping from the left, and within a run it proceeds
exactly as ``run.count`` does, so the sum of the per-run counts over a
view's records equals ``count`` on that view's whole blob: hits at odd
offsets, between hex neighbours and of self-overlapping words count as
they would there. A public last word is a quoted string of at most 64 hex
characters (a payload is cut into 32-byte words), so it is a lone run: a
64-character one was counted exactly once, and taking that hit back
leaves its class's count without it; a shorter one holds no word.
"""

from collections import defaultdict

# destination-side calls the user submits itself; everything else is
# observable by the oracle network in the course of relaying
_USER_DIRECT_OPS = {"router_withdraw", "router_revert_mark"}

_HIDDEN_FIELDS = ("payload", "dest_chain_id", "salt", "secret", "nullifier")

# events whose last payload word is public: the emitting chain's id, or a
# Mixer leaf index, which from 1001 on reads as a destination chain id
_PUBLIC_LAST_WORD = {"deposit_event", "leaf_inserted_event", "signature_stored_event"}

# view keys; a source view's key is its chain id
_ORACLE, _REVERT = "oracle", "revert"

# lowercase hex digits map to "1", every other byte to " "
_HEX_MASK = bytes(ord("1") if c in b"0123456789abcdef" else ord(" ")
                  for c in range(256))
_WORD = 64                   # hex characters in a 32-byte word
_WORD_RUN = b"1" * _WORD


def _views(record: dict, source_chains) -> tuple:
    """The views that hold ``record``: the oracle's, its chain's if that is
    one of ``source_chains``, and the revert records' (where a deposit's
    commitment is expected). It reads no field but ``kind``, ``op`` and
    ``chain``: ``analyze_linkability`` reuses one answer per triple."""
    views = []
    if record.get("kind") != "header" and record.get("op") not in _USER_DIRECT_OPS:
        views.append(_ORACLE)
    if record.get("chain") in source_chains:
        views.append(record["chain"])
    if "revert" in str(record.get("op", "")):
        views.append(_REVERT)
    return tuple(views)


def oracle_view(records: list) -> list:
    return [r for r in records if _ORACLE in _views(r, ())]


def source_view(records: list, source_chain: int) -> list:
    return [r for r in records if source_chain in _views(r, (source_chain,))]


def _word(value: str) -> bytes:
    word = value.encode()
    if word.translate(_HEX_MASK) != _WORD_RUN:
        raise ValueError(f"not a 64-character lowercase hex word: {value!r}")
    return word


def _word_counts(blob: bytes, words: frozenset) -> dict:
    """``blob.count(word)`` for every word of ``words`` that occurs in
    ``blob``, found in one pass over its hex runs."""
    counts = {}
    mask = blob.translate(_HEX_MASK)
    start = mask.find(_WORD_RUN)
    while start >= 0:
        end = mask.find(b" ", start + _WORD)
        if end < 0:
            end = len(blob)
        run = blob[start:end]
        size = end - start
        if size == _WORD:  # a lone word: the common run, and one lookup
            if run in words:
                counts[run] = counts.get(run, 0) + 1
        else:
            windows = [run[i:i + _WORD] for i in range(size - _WORD + 1)]
            for word in words.intersection(windows):
                counts[word] = counts.get(word, 0) + run.count(word)
        start = mask.find(_WORD_RUN, end)
    return counts


def analyze_linkability(transcript, deposit_secrets: list) -> dict:
    """Scan observer views of ``transcript`` for sensitive encodings.

    ``deposit_secrets`` is the per-deposit sensitive material, provided
    out-of-band by the harness (it never appears in the transcript
    itself). Returns per-view hit counts and the expected commitment
    leakage from revert flows.
    """
    hidden = frozenset(_word(sec[name]) for sec in deposit_secrets
                       for name in _HIDDEN_FIELDS)
    # the deposit event itself contains the commitment by design; the
    # linkage that matters is its reappearance in revert records
    commitments = frozenset(_word(sec["commitment"]) for sec in deposit_secrets)
    source_chains = {sec["source_chain"] for sec in deposit_secrets}
    classes = defaultdict(list)      # views -> lines of the records they hold
    public_last = defaultdict(list)  # views -> public last words among them
    views_of = {}  # (kind, op, chain) -> _views answer, for this call only
    for record, line in zip(transcript.records, transcript.lines, strict=True):
        key = (record.get("kind"), record.get("op"), record.get("chain"))
        views = views_of.get(key)
        if views is None:
            views = views_of[key] = _views(record, source_chains)
        if views:
            classes[views].append(line)
            if key[1] in _PUBLIC_LAST_WORD and record["payload"]:
                public_last[views].append(record["payload"][-1].encode())
    hits = {}  # view -> word -> occurrences
    for views, lines in classes.items():
        # hidden fields are sought in the oracle and source views,
        # commitments in revert records
        if _REVERT not in views:
            words = hidden
        elif views == (_REVERT,):
            words = commitments
        else:
            words = hidden | commitments
        # no hex run crosses the "}\n{" between two records, so the counts
        # are those of the records apart
        counts = _word_counts("\n".join(lines).encode(), words)
        for word in public_last[views]:
            if word in counts:  # its one lone run was counted
                counts[word] -= 1
        for view in views:
            view_hits = hits.setdefault(view, {})
            for word, n in counts.items():
                view_hits[word] = view_hits.get(word, 0) + n

    report = {
        "deposits": [],
        "violations": 0,
        "expected_leakage": [],
    }
    oracle, revert = hits.get(_ORACLE, {}), hits.get(_REVERT, {})
    for sec in deposit_secrets:
        source = hits.get(sec["source_chain"], {})
        entry = {"label": sec["label"], "oracle_view": {}, "source_view": {}}
        for name in _HIDDEN_FIELDS:
            word = sec[name].encode()
            entry["oracle_view"][name] = oracle.get(word, 0)
            entry["source_view"][name] = source.get(word, 0)
            report["violations"] += oracle.get(word, 0) + source.get(word, 0)
        commitment_hits = revert.get(sec["commitment"].encode(), 0)
        if commitment_hits:
            report["expected_leakage"].append(
                {"label": sec["label"], "commitment_hits": commitment_hits}
            )
        report["deposits"].append(entry)
    return report
