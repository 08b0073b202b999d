"""Settlement and revert constraint systems and the simulated prover."""

import pytest
from dataclasses import replace
from hashlib import blake2b

from anonbridge import keccak, ops
from anonbridge.circuit import (
    REVERT,
    SETTLEMENT,
    Proof,
    ProofSystem,
    RevertPublic,
    RevertWitness,
    SettlementPublic,
    SettlementWitness,
    constraints_hold,
)
from anonbridge.dact import leaf_bytes, make_leaf
from anonbridge.errors import ConstraintViolation, InvalidProof
from anonbridge.field import P, to_bytes32
from anonbridge.hashing import commit, nullifier_hash
from anonbridge.merkle import MerkleTree
from anonbridge.rng import SeededRng, random_field_31
from anonbridge.signing import KeyPair


def build_case(seed=0, depth=8, source=1001):
    """One fully consistent (witness, public) pair for each circuit."""
    rng = SeededRng(seed)
    secret, nullifier = random_field_31(rng), random_field_31(rng)
    c = commit(secret, nullifier)
    tpc = int.from_bytes(rng.bytes(9), "big") & ((1 << 73) - 1)
    leaf = make_leaf(c, tpc, source)
    tree = MerkleTree(depth)
    # bury the leaf among decoys, as far as capacity allows
    r = rng.py_random()
    pre = r.randint(0, min(5, tree.capacity - 1))
    post = r.randint(0, min(5, tree.capacity - pre - 1))
    for _ in range(pre):
        tree.insert(random_field_31(rng))
    index = tree.insert(leaf)
    for _ in range(post):
        tree.insert(random_field_31(rng))
    path = tree.path(index)
    dapp = KeyPair.generate(rng)
    sig = dapp.sign(leaf_bytes(leaf))
    sw = SettlementWitness(nullifier, secret, path, source, sig)
    sp = SettlementPublic(nullifier_hash(nullifier), tree.root, tpc, dapp.verifying_key)
    rw = RevertWitness(nullifier, secret, path)
    rp = RevertPublic(c, source, nullifier_hash(nullifier), tree.root, tpc)
    return sw, sp, rw, rp, rng


def _circuits(seed):
    """``(circuit_id, witness, public)`` for each circuit, and the rng."""
    sw, sp, rw, rp, rng = build_case(seed)
    return [(SETTLEMENT, sw, sp), (REVERT, rw, rp)], rng


class TestConstraints:
    def test_honest_cases_satisfy_both_circuits(self):
        for seed in range(5):
            sw, sp, rw, rp, _ = build_case(seed)
            assert constraints_hold(SETTLEMENT, sw, sp)
            assert constraints_hold(REVERT, rw, rp)

    def test_settlement_failure_names(self):
        sw, sp, rw, rp, _ = build_case(1)
        proofs = ProofSystem(SeededRng(99))
        cases = [
            (replace(sp, nullifier_hash=(sp.nullifier_hash + 1) % P), sw, "nullifier_hash"),
            (replace(sp, merkle_root=(sp.merkle_root + 1) % P), sw, "merkle_path"),
            (replace(sp, tpc=sp.tpc ^ 1), sw, "merkle_path"),   # leaf no longer in tree
            (sp, replace(sw, secret=(sw.secret + 1) % P), "merkle_path"),
            (sp, replace(sw, leaf_signature=bytes(64)), "signature"),
        ]
        for public, witness, name in cases:
            assert not constraints_hold(SETTLEMENT, witness, public)
            with pytest.raises(ConstraintViolation) as err:
                proofs.prove(SETTLEMENT, witness, public)
            assert err.value.constraint == name

    def test_revert_failure_names(self):
        sw, sp, rw, rp, _ = build_case(2)
        proofs = ProofSystem(SeededRng(99))
        cases = [
            (replace(rp, commitment=(rp.commitment + 1) % P), rw, "commitment"),
            (replace(rp, nullifier_hash=(rp.nullifier_hash + 1) % P), rw, "nullifier_hash"),
            (replace(rp, merkle_root=(rp.merkle_root + 1) % P), rw, "merkle_path"),
            # the public TPC is bound into the leaf under the root
            (replace(rp, tpc=rp.tpc ^ 1), rw, "merkle_path"),
            (replace(rp, tpc=build_case(3)[3].tpc), rw, "merkle_path"),  # another deposit's
        ]
        for public, witness, name in cases:
            assert not constraints_hold(REVERT, witness, public)
            with pytest.raises(ConstraintViolation) as err:
                proofs.prove(REVERT, witness, public)
            assert err.value.constraint == name

    def test_wrong_source_chain_rejected(self):
        sw, sp, _, _, _ = build_case(3)
        assert not constraints_hold(SETTLEMENT, replace(sw, source_chain=1002), sp)

    @pytest.mark.parametrize("resize", [lambda e: e[:-1], lambda e: e + [0]],
                             ids=["short", "long"])
    def test_a_resized_path_is_refused_at_merkle_path(self, resize):
        circuits, rng = _circuits(5)
        proofs = ProofSystem(rng.child("keys"))
        for circuit_id, witness, public in circuits:
            path = replace(witness.path, elements=resize(witness.path.elements))
            with ops.counting() as c, pytest.raises(ConstraintViolation) as err:
                proofs.prove(circuit_id, replace(witness, path=path), public)
            assert err.value.constraint == "merkle_path"
            # the two constraints before the path, then one per sibling
            assert c.constraint_evals == 2 + len(path.elements)


class TestProver:
    def test_prove_verify_round_trip(self):
        sw, sp, rw, rp, rng = build_case(4)
        proofs = ProofSystem(rng.child("keys"))
        s_proof = proofs.prove(SETTLEMENT, sw, sp)
        r_proof = proofs.prove(REVERT, rw, rp)
        assert proofs.verify(SETTLEMENT, s_proof)
        assert proofs.verify(REVERT, r_proof)

    def test_unknown_circuit(self):
        sw, sp, *_ , rng = build_case(4)
        proofs = ProofSystem(rng.child("keys"))
        with pytest.raises(InvalidProof):
            proofs.prove(99, sw, sp)

    def test_attestation_not_transferable_across_circuits(self):
        sw, sp, rw, rp, rng = build_case(5)
        proofs = ProofSystem(rng.child("keys"))
        s_proof = proofs.prove(SETTLEMENT, sw, sp)
        assert not proofs.verify(REVERT, s_proof)
        forged = Proof(REVERT, rp, s_proof.attestation)
        assert not proofs.verify(REVERT, forged)

    def test_tampered_publics_rejected(self):
        sw, sp, *_, rng = build_case(6)
        proofs = ProofSystem(rng.child("keys"))
        proof = proofs.prove(SETTLEMENT, sw, sp)
        tampered = Proof(
            SETTLEMENT, replace(sp, tpc=sp.tpc ^ 1), proof.attestation
        )
        assert not proofs.verify(SETTLEMENT, tampered)

    def test_different_key_holders_incompatible(self):
        cases, _ = _circuits(7)
        a, b = ProofSystem(SeededRng(1)), ProofSystem(SeededRng(2))
        for cid, witness, public in cases:
            assert a._keys[cid] != b._keys[cid]
            for prover, other in ((a, b), (b, a)):
                proof = prover.prove(cid, witness, public)
                assert prover.verify(cid, proof)
                assert not other.verify(cid, proof)

    def test_serialization_layout(self):
        sw, sp, *_, rng = build_case(8)
        proofs = ProofSystem(rng.child("keys"))
        proof = proofs.prove(SETTLEMENT, sw, sp)
        blob = proof.serialize()
        assert blob[0] == SETTLEMENT
        assert blob[1:33] == to_bytes32(sp.nullifier_hash)
        assert blob[33:65] == to_bytes32(sp.merkle_root)
        assert blob[65:97] == to_bytes32(sp.tpc)
        assert blob[97:129] == sp.dapp_verifying_key
        assert blob[129:] == proof.attestation and len(proof.attestation) == 32

    def test_revert_serialization_layout(self):
        _, _, rw, rp, rng = build_case(8)
        proofs = ProofSystem(rng.child("keys"))
        proof = proofs.prove(REVERT, rw, rp)
        blob = proof.serialize()
        assert blob[0] == REVERT
        fields = (rp.commitment, rp.source_chain, rp.nullifier_hash, rp.merkle_root, rp.tpc)
        assert blob[1:161] == b"".join(to_bytes32(f) for f in fields)
        assert blob[161:] == proof.attestation and len(blob) == 193


class TestMac:
    """The attestation is keyed BLAKE2b under the circuit's deity key,
    charged as the Keccak-256 MAC the op-count model prices."""

    def test_prove_and_verify_charge_the_mac_blocks_and_run_no_keccak(self, monkeypatch):
        runs = 0
        real = keccak._keccak_f

        def counted(state):
            nonlocal runs
            runs += 1
            real(state)

        monkeypatch.setattr(keccak, "_keccak_f", counted)
        cases, rng = _circuits(9)
        proofs = ProofSystem(rng.child("keys"))
        for cid, witness, public in cases:
            # a 32-byte deity key, the circuit id byte, the publics
            blocks = keccak.n_blocks(32 + 1 + len(public.canonical_bytes()))
            assert blocks == 2
            with ops.counting() as prove:
                proof = proofs.prove(cid, witness, public)
            with ops.counting() as verify:
                assert proofs.verify(cid, proof)
            assert (prove.keccak_blocks, verify.keccak_blocks) == (blocks, blocks)
        assert runs == 0

    def test_attestation_is_keyed_blake2b(self):
        cases, rng = _circuits(10)
        proofs = ProofSystem(rng.child("keys"))
        for cid, witness, public in cases:
            proof = proofs.prove(cid, witness, public)
            data = bytes([cid]) + public.canonical_bytes()
            key = proofs._keys[cid]
            assert proof.attestation == blake2b(data, key=key, digest_size=32).digest()

    def test_any_flipped_attestation_byte_fails_verify(self):
        cases, rng = _circuits(11)
        proofs = ProofSystem(rng.child("keys"))
        for cid, witness, public in cases:
            proof = proofs.prove(cid, witness, public)
            for i in range(len(proof.attestation)):
                for bit in (0x01, 0x80):
                    flipped = bytearray(proof.attestation)
                    flipped[i] ^= bit
                    assert not proofs.verify(
                        cid, replace(proof, attestation=bytes(flipped))), (cid, i, bit)
            for wrong_length in (proof.attestation[:-1], proof.attestation + b"\x00", b""):
                assert not proofs.verify(cid, replace(proof, attestation=wrong_length))


class TestHiding:
    def test_proof_bytes_carry_no_witness_material(self):
        """Byte-scan: serialized proofs never contain witness encodings."""
        proofs = ProofSystem(SeededRng(77))
        for seed in range(1000):
            sw, sp, rw, rp, _ = build_case(seed, depth=4)
            blob = proofs.prove(SETTLEMENT, sw, sp).serialize()
            blob += proofs.prove(REVERT, rw, rp).serialize()
            for secret_value in (sw.secret, sw.nullifier):
                enc = to_bytes32(secret_value)
                assert enc not in blob
                assert enc[1:] not in blob  # 31-byte tail too
            assert sw.leaf_signature not in blob

    def test_settlement_publics_hide_the_commitment(self):
        sw, sp, *_, _ = build_case(9)
        c = commit(sw.secret, sw.nullifier)
        assert to_bytes32(c) not in sp.canonical_bytes()


class TestCosts:
    def test_verify_cost_constant_in_depth(self):
        deltas = set()
        for depth in (2, 4, 8, 16):
            sw, sp, *_, _ = build_case(depth, depth=depth)
            proofs = ProofSystem(SeededRng(depth))
            proof = proofs.prove(SETTLEMENT, sw, sp)
            with ops.counting() as d:
                proofs.verify(SETTLEMENT, proof)
            assert d.proof_verifies == 1
            assert d.permutations == 0 and d.sig_verifies == 0
            deltas.add(tuple(d.as_dict().items()))
        assert len(deltas) == 1  # identical across depths

    def test_prove_constraints_linear_in_depth(self):
        for depth in (2, 4, 8):
            sw, sp, *_, _ = build_case(depth, depth=depth)
            proofs = ProofSystem(SeededRng(depth))
            with ops.counting() as c:
                proofs.prove(SETTLEMENT, sw, sp)
            # nullifier + path-fold (depth) + membership + signature
            assert c.constraint_evals == depth + 3
