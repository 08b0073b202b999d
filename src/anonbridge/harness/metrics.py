"""Cost-vs-depth measurements, reported as operation counts.

The unit costs are 1 per MiMC permutation, 1 per keccak block, 1 per
signature verification, 1 per proof verification -- never gas.
"""

from .. import circuit as circuit_mod
from .. import ops
from ..circuit import ProofSystem, SettlementPublic, SettlementWitness
from ..dact import TPC_MASK, make_leaf
from ..errors import InvalidProof
from ..hashing import commit, nullifier_hash
from ..merkle import MerkleTree
from ..rng import SeededRng, random_field_31
from ..signing import KeyPair


def measure_depth(depth: int, seed: int = 0) -> dict:
    """Insert/prove/verify costs for one tree depth. The measurement runs
    under a hash table of its own, as a simulation's calls run under the
    simulation's: the proof's commitment, nullifier hash and path re-fold
    hit the hashes computed before it, and are charged like misses."""
    with ops.hash_table({}):
        rng = SeededRng(seed).child(f"sweep/{depth}")

        with ops.counting() as setup:
            tree = MerkleTree(depth)

        secret, nullifier = random_field_31(rng), random_field_31(rng)
        c = commit(secret, nullifier)
        tpc = int.from_bytes(rng.bytes(9), "big") & TPC_MASK
        source_chain = 1001
        leaf = make_leaf(c, tpc, source_chain)

        with ops.counting() as insert:
            index = tree.insert(leaf)

        signer = KeyPair.generate(rng)
        signature = signer.sign(leaf.to_bytes(32, "big"))
        path = tree.path(index)
        proofs = ProofSystem(rng.child("deity"))
        public = SettlementPublic(nullifier_hash(nullifier), tree.root, tpc,
                                  signer.verifying_key)
        witness = SettlementWitness(nullifier, secret, path, source_chain, signature)

        with ops.counting() as prove:
            proof = proofs.prove(circuit_mod.SETTLEMENT, witness, public)

        with ops.counting() as verify:
            if not proofs.verify(circuit_mod.SETTLEMENT, proof):
                raise InvalidProof(f"the depth-{depth} sweep proof does not verify")

        return {
            "depth": depth,
            "capacity": 1 << depth,
            "setup_permutations": setup.permutations,
            "insert_permutations": insert.permutations,
            "prove_constraints": prove.constraint_evals,
            "prove_permutations": prove.permutations,
            "verify_ops": verify.proof_verifies,
            "verify_keccak_blocks": verify.keccak_blocks,
            "verify_permutations": verify.permutations,
        }


def sweep_depths(depths: list, seed: int = 0) -> list:
    """Per-depth cost series; the simulator's analogue of the gas curves."""
    return [measure_depth(d, seed) for d in depths]
