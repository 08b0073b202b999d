"""Message-protocol data structures: tiers, obfuscation, TPC, leaf, wire format."""

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import _reference as ref
from anonbridge.dact import (
    ADDRESS_LEN,
    CHAIN_ID_MAX,
    CHAIN_ID_MIN,
    TPC_BITS,
    VERSION_MAX,
    VERSION_MIN,
    DepositRequest,
    Note,
    PayloadIntent,
    dapp_global_hash,
    leaf_bytes,
    make_leaf,
    note_new,
    obfuscate,
    parse_deposit,
    serialize_deposit,
    trustless_public_commitment,
    validate_chain_id,
    validate_version,
)
from anonbridge.errors import (
    CallerInList,
    ChainIdOutOfTier,
    DuplicateAddress,
    MalformedDeposit,
    VersionOutOfTier,
)
from anonbridge.field import P
from anonbridge.rng import SeededRng

BOUNDARY = [0, 1, 1000, 1001, 10000, 10001]


class TestTiers:
    @pytest.mark.parametrize("value", BOUNDARY)
    def test_version_boundaries(self, value):
        if VERSION_MIN <= value <= VERSION_MAX:
            assert validate_version(value) == value
        else:
            with pytest.raises(VersionOutOfTier):
                validate_version(value)

    @pytest.mark.parametrize("value", BOUNDARY)
    def test_chain_id_boundaries(self, value):
        if CHAIN_ID_MIN <= value <= CHAIN_ID_MAX:
            assert validate_chain_id(value) == value
        else:
            with pytest.raises(ChainIdOutOfTier):
                validate_chain_id(value)

    def test_tiers_disjoint(self):
        assert VERSION_MAX < CHAIN_ID_MIN


class TestNote:
    def test_note_is_three_distinct_field_elements(self):
        note = note_new(SeededRng(1))
        parts = {note.secret, note.nullifier, note.salt}
        assert len(parts) == 3
        assert all(0 <= v < (1 << 248) for v in parts)

    def test_notes_never_repeat_across_seeds(self):
        notes = {note_new(SeededRng(i)).secret for i in range(200)}
        assert len(notes) == 200


class TestObfuscation:
    def test_golden_vectors(self, golden):
        for v in golden["dact"]:
            intent = PayloadIntent(bytes.fromhex(v["payload"]), v["dest"])
            assert obfuscate(intent, int(v["salt"], 16)).hex() == v["od"]

    def test_intent_validation(self):
        with pytest.raises(MalformedDeposit):
            PayloadIntent(b"short", 1003)
        with pytest.raises(ChainIdOutOfTier):
            PayloadIntent(b"\x00" * 32, 55)

    @given(st.binary(min_size=32, max_size=32),
           st.integers(min_value=CHAIN_ID_MIN, max_value=CHAIN_ID_MAX),
           st.integers(min_value=0, max_value=2**248 - 1))
    @settings(max_examples=100, deadline=None)
    def test_salt_blinds_everything(self, payload, dest, salt):
        od = obfuscate(PayloadIntent(payload, dest), salt)
        assert len(od) == 32
        # changing any input changes the digest
        assert od != obfuscate(PayloadIntent(payload, dest), salt ^ 1)
        other = bytes([payload[0] ^ 1]) + payload[1:]
        assert od != obfuscate(PayloadIntent(other, dest), salt)

    def test_obfuscation_output_uniform(self):
        """First-byte histogram of digests over fresh salts is uniform.

        Chi-square over 256 bins; fixed seed keeps the draw deterministic
        so the p-value is a constant of the suite.
        """
        rng = SeededRng(1234)
        intent = PayloadIntent(b"\x07" * 32, 1003)
        counts = [0] * 256
        for _ in range(4096):
            od = obfuscate(intent, int.from_bytes(rng.bytes(31), "big"))
            counts[od[0]] += 1
        res = stats.chisquare(counts)
        assert res.pvalue > 0.001


class TestGlobalHash:
    def test_golden_vectors(self, golden):
        for v in golden["dact"]:
            caller = bytes.fromhex(v["caller"])
            others = [bytes.fromhex(o) for o in v["others"]]
            assert dapp_global_hash(caller, others).hex() == v["ghash"]

    def test_guards(self):
        a, b = b"\x01" * 20, b"\x02" * 20
        with pytest.raises(MalformedDeposit):
            dapp_global_hash(b"\x01" * 19, [b])
        with pytest.raises(MalformedDeposit):
            dapp_global_hash(a, [])
        with pytest.raises(CallerInList):
            dapp_global_hash(a, [b, a])
        with pytest.raises(DuplicateAddress):
            dapp_global_hash(a, [b, b])

    def test_order_sensitive(self):
        a, b, c = b"\x01" * 20, b"\x02" * 20, b"\x03" * 20
        assert dapp_global_hash(a, [b, c]) != dapp_global_hash(a, [c, b])


class TestTpcAndLeaf:
    def test_tpc_golden_vectors(self, golden):
        for v in golden["dact"]:
            tpc = trustless_public_commitment(
                bytes.fromhex(v["ghash"]), v["version"], bytes.fromhex(v["od"])
            )
            assert tpc == int(v["tpc"], 16)

    @given(st.binary(min_size=32, max_size=32), st.integers(min_value=1, max_value=1000),
           st.binary(min_size=32, max_size=32))
    @settings(max_examples=100, deadline=None)
    def test_tpc_width(self, ghash, version, od):
        assert trustless_public_commitment(ghash, version, od) < (1 << TPC_BITS)

    def test_tpc_rejects_bad_version(self):
        with pytest.raises(VersionOutOfTier):
            trustless_public_commitment(b"\x00" * 32, 1001, b"\x00" * 32)

    def test_leaf_is_field_sum(self):
        leaf = make_leaf(123, 45, 1002)
        assert leaf == (123 + 45 + 1002) % P
        assert leaf_bytes(leaf) == leaf.to_bytes(32, "big")

    def test_leaf_guards(self):
        with pytest.raises(ChainIdOutOfTier):
            make_leaf(1, 1, 50)
        with pytest.raises(MalformedDeposit):
            make_leaf(1, 1 << TPC_BITS, 1002)

    def test_leaf_matches_independent_computation(self, golden):
        v = golden["dact"][0]
        note_c = 987654321
        leaf = make_leaf(note_c, int(v["tpc"], 16), 1001)
        assert leaf == (note_c + int(v["tpc"], 16) + 1001) % ref.P


class TestWireFormat:
    def _req(self):
        return DepositRequest(12345, b"\x0b" * 32, 7, b"\x0a" * ADDRESS_LEN)

    def test_round_trip(self):
        req = self._req()
        data = serialize_deposit(req)
        assert len(data) == 116
        assert parse_deposit(data) == req

    def test_layout(self):
        data = serialize_deposit(self._req())
        assert data[:32] == (12345).to_bytes(32, "big")
        assert data[32:64] == b"\x0b" * 32
        assert data[64:96] == (7).to_bytes(32, "big")
        assert data[96:] == b"\x0a" * 20

    def test_malformed_rejections(self):
        good = serialize_deposit(self._req())
        with pytest.raises(MalformedDeposit):
            parse_deposit(good[:-1])
        with pytest.raises(MalformedDeposit):
            parse_deposit(good + b"\x00")
        with pytest.raises(MalformedDeposit):
            parse_deposit(b"\xff" * 32 + good[32:])  # commitment not in field
        bad_version = good[:64] + (1001).to_bytes(32, "big") + good[96:]
        with pytest.raises(MalformedDeposit):
            parse_deposit(bad_version)

    def test_serialize_guards(self):
        with pytest.raises(MalformedDeposit):
            serialize_deposit(DepositRequest(1, b"\x00" * 31, 1, b"\x0a" * 20))
        with pytest.raises(VersionOutOfTier):
            serialize_deposit(DepositRequest(1, b"\x00" * 32, 0, b"\x0a" * 20))
        with pytest.raises(MalformedDeposit):
            serialize_deposit(DepositRequest(1, b"\x00" * 32, 1, b"\x0a" * 21))

    @given(st.integers(min_value=0, max_value=P - 1),
           st.binary(min_size=32, max_size=32),
           st.integers(min_value=1, max_value=1000),
           st.binary(min_size=20, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, c, od, version, addr):
        req = DepositRequest(c, od, version, addr)
        assert parse_deposit(serialize_deposit(req)) == req
