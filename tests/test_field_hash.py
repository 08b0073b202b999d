"""Field arithmetic, keccak, the sponge permutation, rng, and signatures."""

from hashlib import blake2b

import pytest
from hypothesis import given, settings, strategies as st

import _reference as ref
from anonbridge import ops
from anonbridge.errors import NotInField
from anonbridge.field import P, check, reduce_bytes, to_bytes32
from anonbridge.hashing import (
    DOMAIN_COMMIT,
    DOMAIN_NULLIFIER,
    _C,
    commit,
    mimc_hash2,
    mimc_sponge,
    nullifier_hash,
    permute,
)
from anonbridge.keccak import keccak256
from anonbridge.rng import SeededRng, random_field_31
from anonbridge.signing import KeyPair, verify

felt = st.integers(min_value=0, max_value=P - 1)


# -- field --------------------------------------------------------------------

class TestField:
    def test_modulus_is_prime_sized(self):
        assert P.bit_length() == 254

    def test_check_rejects(self):
        for bad in (-1, P, P + 5, "3", 1.0):
            with pytest.raises(NotInField):
                check(bad)

    @given(felt)
    @settings(deadline=None)
    def test_bytes32_round_trip(self, x):
        b = to_bytes32(x)
        assert len(b) == 32
        assert int.from_bytes(b, "big") == x

    def test_from_bytes32_guards(self):
        """A 32-byte word need not be canonical: ``check`` rejects it as it
        stands, and ``reduce_bytes`` maps it into the field."""
        with pytest.raises(NotInField):
            check(int.from_bytes(b"\xff" * 32, "big"))
        assert reduce_bytes(b"\xff" * 32) == int.from_bytes(b"\xff" * 32, "big") % P


# -- keccak ---------------------------------------------------------------------

KECCAK_VECTORS = [
    (b"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"),
    (b"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"),
    ((123).to_bytes(32, "big"),
     "5569044719a1ec3b04d0afa9e7a5310c7c0473331d13dc9fafe143b2c4e8148a"),
    (b"testing", "5f16f4c7f149ac4f9510d9cf8cf384038ad348b3bcdc01915f95de12df9d1b02"),
]


class TestKeccak:
    @pytest.mark.parametrize("msg,digest", KECCAK_VECTORS)
    def test_published_vectors(self, msg, digest):
        assert keccak256(msg).hex() == digest

    @given(st.binary(min_size=0, max_size=500))
    @settings(max_examples=300, deadline=None)
    def test_matches_independent_implementation(self, data):
        assert keccak256(data) == ref.keccak256(data)

    def test_block_charging(self):
        with ops.counting() as c:
            keccak256(b"x" * 136)  # one full block plus the padding block
        assert c.keccak_blocks == 2
        with ops.counting() as c:
            keccak256(b"")
        assert c.keccak_blocks == 1

    @pytest.mark.parametrize("n,blocks", [
        (0, 1), (1, 1), (135, 1), (136, 2), (137, 2),
        (271, 2), (272, 3), (273, 3), (408, 4),
    ])
    def test_block_boundaries(self, n, blocks):
        data = bytes((7 * i + 1) % 256 for i in range(n))
        with ops.counting() as c:
            assert keccak256(data) == ref.keccak256(data)
        assert c.keccak_blocks == blocks

    def test_table_hit_matches_reference_and_is_charged(self):
        data = b"x" * 136
        table = {}
        with ops.counting() as c, ops.hash_table(table):
            first = keccak256(data)
            assert c.keccak_blocks == 2
            again = keccak256(bytearray(data))  # keyed by its bytes
            assert c.keccak_blocks == 4
            pair = permute(3, 5)  # one dict, two kinds of key
        assert first == again == ref.keccak256(data)
        assert table == {data: first, (3, 5): pair}
        keccak256(b"y")  # outside the block: nothing is stored
        assert b"y" not in table


# -- sponge permutation -----------------------------------------------------------

class TestPermutation:
    def test_round_constants_frozen(self, golden):
        rc = golden["round_constants"]
        assert _C[0] == int(rc["0"], 16)
        assert _C[1] == int(rc["1"], 16)
        assert _C[219] == int(rc["219"], 16)
        assert len(_C) == 220

    def test_domains_frozen(self, golden):
        assert DOMAIN_COMMIT == int(golden["domain_commit"], 16)
        assert DOMAIN_NULLIFIER == int(golden["domain_nullifier"], 16)
        assert DOMAIN_COMMIT != DOMAIN_NULLIFIER

    def test_hash2_golden_vectors(self, golden):
        for a, b, out in golden["hash2"]:
            assert mimc_hash2(int(a, 16), int(b, 16)) == int(out, 16)

    def test_commit_golden_vectors(self, golden):
        for a, b, out in golden["commit"]:
            assert commit(int(a, 16), int(b, 16)) == int(out, 16)

    def test_nullifier_hash_golden_vectors(self, golden):
        for a, out in golden["nullifier_hash"]:
            assert nullifier_hash(int(a, 16)) == int(out, 16)

    @given(felt, felt)
    @settings(max_examples=30, deadline=None)
    def test_matches_independent_implementation(self, a, b):
        assert mimc_hash2(a, b) == ref.hash2(a, b)
        assert commit(a, b) == ref.commit(a, b)

    def test_both_lanes_match_reference_at_field_edges(self):
        edges = (0, 1, P - 1, P - 2)
        for a in edges:
            for b in edges:
                assert permute(a, b) == ref.permute(a, b)

    @given(felt, felt)
    @settings(max_examples=30, deadline=None)
    def test_both_lanes_match_independent_implementation(self, a, b):
        assert permute(a, b) == ref.permute(a, b)

    def test_table_hit_matches_reference_and_is_charged(self):
        table = {}
        with ops.counting() as c, ops.hash_table(table):
            first = permute(3, P - 5)
            assert c.permutations == 1
            again = permute(3, P - 5)
            assert c.permutations == 2
        assert first == again == ref.permute(3, P - 5)
        assert table == {(3, P - 5): first}
        permute(1, 2)  # outside the block: nothing is stored
        assert (1, 2) not in table

    @given(felt, felt)
    @settings(max_examples=30, deadline=None)
    def test_permutation_is_injective_on_samples(self, a, b):
        # a permutation never collides; feed two distinct states
        if (a, b) != (b, a):
            assert permute(a, b) != permute(b, a)

    def test_hash2_costs_one_permutation(self):
        with ops.counting() as c:
            mimc_hash2(1, 2)
        assert c.permutations == 1

    def test_sponge_costs_one_permutation_per_input(self):
        for n in (1, 2, 5):
            with ops.counting() as c:
                mimc_sponge(list(range(n)), DOMAIN_COMMIT)
            assert c.permutations == n

    def test_hash2_rejects_out_of_field(self):
        with pytest.raises(NotInField):
            mimc_hash2(P, 0)
        with pytest.raises(NotInField):
            mimc_sponge((P + 1,), DOMAIN_COMMIT)

    def test_commit_and_nullifier_domains_disjoint(self):
        # same inputs under the two domains never agree
        for v in (0, 1, 12345):
            assert mimc_sponge((v,), DOMAIN_COMMIT) != mimc_sponge((v,), DOMAIN_NULLIFIER)


# -- seeded randomness -------------------------------------------------------------

class TestRng:
    def test_deterministic(self):
        a, b = SeededRng(7), SeededRng(7)
        assert a.bytes(100) == b.bytes(100)
        assert a.child("x").bytes(8) == b.child("x").bytes(8)

    def test_child_streams_independent(self):
        root = SeededRng(7)
        assert root.child("a").bytes(32) != root.child("b").bytes(32)

    def test_seed_separation_over_many_seeds(self):
        outputs = {SeededRng(i).bytes(16) for i in range(1000)}
        assert len(outputs) == 1000

    def test_bytes_seed_accepted(self):
        assert SeededRng(b"abc").bytes(4) == SeededRng(b"abc").bytes(4)

    def test_py_random_reproducible(self):
        xs = SeededRng(3).py_random().sample(range(100), 10)
        ys = SeededRng(3).py_random().sample(range(100), 10)
        assert xs == ys

    @given(st.integers(min_value=0, max_value=2**64))
    @settings(max_examples=50, deadline=None)
    def test_random_field_31_in_field(self, seed):
        x = random_field_31(SeededRng(seed))
        assert 0 <= x < (1 << 248) < P

    def test_known_answer(self):
        def h(data):
            return blake2b(data, digest_size=32).digest()

        state = h(b"anonbridge/rng" + bytes(32))
        child_state = h(state + b"x")
        root = SeededRng(0)
        assert root.bytes(32) == h(state + bytes(8))
        assert root.child("x").bytes(8) == h(child_state + bytes(8))[:8]

    def test_draws_are_off_the_books(self):
        with ops.counting() as spent, ops.hash_table({}) as table:
            SeededRng(1).child("x").bytes(64)
        assert spent == ops.OpCounts()
        assert table == {}


# -- signatures ----------------------------------------------------------------------

class TestSigning:
    def test_round_trip(self):
        kp = KeyPair.generate(SeededRng(1))
        msg = b"m" * 32
        sig = kp.sign(msg)
        assert len(sig) == 64 and len(kp.verifying_key) == 32
        assert verify(kp.verifying_key, msg, sig)

    def test_rejections_never_raise(self):
        kp = KeyPair.generate(SeededRng(1))
        other = KeyPair.generate(SeededRng(2))
        msg = b"m" * 32
        sig = kp.sign(msg)
        assert not verify(other.verifying_key, msg, sig)
        assert not verify(kp.verifying_key, b"n" * 32, sig)
        assert not verify(kp.verifying_key, msg, bytes(64))
        assert not verify(b"\xff" * 32, msg, sig)
        assert not verify(b"", msg, b"short")

    def test_deterministic_signatures(self):
        kp = KeyPair.generate(SeededRng(1))
        assert kp.sign(b"x") == kp.sign(b"x")

    def test_verify_charged(self):
        kp = KeyPair.generate(SeededRng(1))
        sig = kp.sign(b"x")
        with ops.counting() as c:
            verify(kp.verifying_key, b"x", sig)
        assert c.sig_verifies == 1

    def test_rfc8032_test_1(self):
        # RFC 8032 section 7.1, TEST 1: the raw verifying key and the
        # signature of the empty message
        kp = KeyPair(bytes.fromhex(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"))
        assert kp.verifying_key == bytes.fromhex(
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a")
        assert kp.sign(b"") == bytes.fromhex(
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555"
            "fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b")

    def test_bad_seed_length(self):
        with pytest.raises(ValueError):
            KeyPair(b"short")
