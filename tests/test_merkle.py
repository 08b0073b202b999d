"""Incremental Merkle tree against the naive recursive oracle."""

import pytest
from hypothesis import given, settings, strategies as st

import _reference as ref
from anonbridge import ops
from anonbridge.errors import DepthOutOfRange, IndexUnknown, NotInField, TreeFull
from anonbridge.field import P
from anonbridge.merkle import MAX_DEPTH, ZERO, MerklePath, MerkleTree, verify_path
from anonbridge.rng import SeededRng


def _leaves(n, seed=0):
    rng = SeededRng(seed)
    return [int.from_bytes(rng.bytes(31), "big") for _ in range(n)]


class TestConstruction:
    def test_zero_leaf_constant(self, golden):
        assert ZERO == int(golden["zero_leaf"], 16)

    def test_first_zero_node(self, golden):
        tree = MerkleTree(2)
        assert tree.zeros[1] == int(golden["z1"], 16)

    def test_depth_bounds(self):
        for bad in (0, -3, MAX_DEPTH + 1):
            with pytest.raises(DepthOutOfRange):
                MerkleTree(bad)
        assert MerkleTree(1).capacity == 2

    def test_depth_32_capacity(self):
        assert MerkleTree(32).capacity == 4_294_967_296

    def test_empty_root_matches_oracle(self):
        for depth in range(1, 9):
            assert MerkleTree(depth).root == ref.naive_root((), depth)


class TestOracleEquivalence:
    @pytest.mark.parametrize("depth", range(1, 9))
    def test_every_prefix_of_a_full_fill(self, depth):
        tree = MerkleTree(depth)
        leaves = _leaves(tree.capacity, seed=depth)
        for i, leaf in enumerate(leaves):
            tree.insert(leaf)
            assert tree.root == ref.naive_root(tuple(leaves[: i + 1]), depth)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_random_partial_fills(self, depth, seed):
        tree = MerkleTree(depth)
        n = SeededRng(seed).py_random().randint(0, tree.capacity)
        leaves = _leaves(n, seed=seed)
        for leaf in leaves:
            tree.insert(leaf)
        assert tree.root == ref.naive_root(tuple(leaves), depth)


class TestPaths:
    @pytest.mark.parametrize("depth", [1, 3, 5])
    def test_every_leaf_proves_against_current_root(self, depth):
        tree = MerkleTree(depth)
        leaves = _leaves(tree.capacity, seed=depth)
        for leaf in leaves:
            tree.insert(leaf)
        for i, leaf in enumerate(leaves):
            path = tree.path(i)
            assert len(path.elements) == depth
            assert verify_path(tree.root, leaf, path)

    @pytest.mark.parametrize("depth", range(1, 7))
    def test_every_leaf_proves_after_each_insert(self, depth):
        # rightmost nodes stay zero-padded until their sibling arrives
        tree = MerkleTree(depth)
        leaves = _leaves(tree.capacity, seed=depth)
        for n, leaf in enumerate(leaves, start=1):
            tree.insert(leaf)
            root = ref.naive_root(tuple(leaves[:n]), depth)
            for i in range(n):
                path = tree.path(i)
                assert len(path.elements) == depth
                assert verify_path(root, leaves[i], path)

    def test_path_fails_for_wrong_leaf(self):
        tree = MerkleTree(4)
        a, b = _leaves(2)
        tree.insert(a)
        tree.insert(b)
        path = tree.path(0)
        assert verify_path(tree.root, a, path)
        assert not verify_path(tree.root, b, path)
        assert not verify_path((tree.root + 1) % P, a, path)

    def test_unknown_index(self):
        tree = MerkleTree(4)
        with pytest.raises(IndexUnknown):
            tree.path(0)
        tree.insert(1)
        with pytest.raises(IndexUnknown):
            tree.path(1)
        with pytest.raises(IndexUnknown):
            tree.path(-1)

    def test_path_shape_validation(self):
        with pytest.raises(AssertionError):
            MerklePath([1, 2], [0])
        with pytest.raises(AssertionError):
            MerklePath([1], [2])


class TestLeafIndex:
    def test_index_is_the_first_match(self):
        leaves = _leaves(6)
        tree = MerkleTree(5)
        for leaf in leaves + leaves[::2] + [ZERO, leaves[1], ZERO]:
            tree.insert(leaf)
        with pytest.raises(NotInField):
            tree.insert(P)  # rejected before it is stored
        assert tree.leaf_index == {v: tree.leaves.index(v) for v in tree.leaves}
        assert len(tree.leaf_index) == 7


class TestCosts:
    @pytest.mark.parametrize("depth", [1, 4, 8, 16])
    def test_insert_costs_exactly_depth_permutations(self, depth):
        tree = MerkleTree(depth)
        for leaf in _leaves(min(5, tree.capacity)):
            with ops.counting() as c:
                tree.insert(leaf)
            assert c.permutations == depth

    def test_setup_costs_exactly_depth_permutations(self):
        with ops.counting() as c:
            MerkleTree(12)
        assert c.permutations == 12

    def test_path_extraction_is_free(self):
        tree = MerkleTree(6)
        for leaf in _leaves(10):
            tree.insert(leaf)
        with ops.counting() as c:
            tree.path(3)
        assert c.as_dict() == {
            "permutations": 0, "keccak_blocks": 0, "sig_verifies": 0,
            "constraint_evals": 0, "proof_verifies": 0,
        }

    def test_verify_path_costs_depth(self):
        tree = MerkleTree(6)
        tree.insert(_leaves(1)[0])
        path = tree.path(0)
        with ops.counting() as c:
            verify_path(tree.root, tree.leaves[0], path)
        assert c.permutations == 6


class TestRootHistory:
    def test_full_and_overflow(self):
        tree = MerkleTree(8, root_history=5)
        roots = [tree.root]
        for leaf in _leaves(10):
            tree.insert(leaf)
            roots.append(tree.root)
        assert tree.root_history == roots[-5:]
        assert tree.is_known_root(roots[-1])
        assert tree.is_known_root(roots[-5])
        assert not tree.is_known_root(roots[0])

    def test_tree_full(self):
        tree = MerkleTree(1)
        tree.insert(1)
        tree.insert(2)
        with pytest.raises(TreeFull):
            tree.insert(3)
