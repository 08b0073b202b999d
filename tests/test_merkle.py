"""Incremental Merkle tree against the naive recursive oracle."""

import ast
import copy
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import _reference as ref
import anonbridge
from anonbridge import hashing, ops
from anonbridge.errors import DepthOutOfRange, IndexUnknown, NotInField, TreeFull
from anonbridge.field import P
from anonbridge.merkle import (
    MAX_DEPTH,
    ZERO,
    MerklePath,
    MerkleTree,
    verify_path,
    zero_node,
)
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

    def test_tree_full(self):
        tree = MerkleTree(1)
        tree.insert(1)
        tree.insert(2)
        with pytest.raises(TreeFull):
            tree.insert(3)


class TestZeroNodes:
    """Zero nodes are per-process constants: each level is hashed once,
    uncharged, while every tree is still charged ``depth`` for them."""

    def test_every_depth_matches_the_oracle(self):
        for depth in range(1, MAX_DEPTH + 1):
            tree = MerkleTree(depth)
            assert tree.root == ref.naive_root((), depth)
            assert tree.zeros == [zero_node(level) for level in range(depth + 1)]

    def test_level_bounds(self):
        assert zero_node(0) == ZERO
        for bad in (-1, MAX_DEPTH + 1):
            with pytest.raises(DepthOutOfRange):
                zero_node(bad)

    def test_each_level_is_hashed_once_per_process(self, monkeypatch):
        runs = 0
        real = hashing.permute

        def counted(x_left, x_right):
            nonlocal runs
            runs += 1
            return real(x_left, x_right)

        monkeypatch.setattr(hashing, "permute", counted)
        zero_node.cache_clear()
        # (depth, permutations computed); each tree is charged its depth
        for depth, n_runs in [(16, 16), (16, 0), (20, 4)]:
            runs = 0
            with ops.counting() as c:
                MerkleTree(depth)
            assert (runs, c.permutations) == (n_runs, depth), depth

    def test_derivation_leaves_no_hash_table_entry(self):
        zero_node.cache_clear()
        with ops.counting() as c, ops.hash_table({}) as table:
            cold = MerkleTree(8)
            warm = MerkleTree(8)
        assert table == {}
        assert cold.zeros == warm.zeros
        assert c.permutations == 16


MEMOS = {"cache", "lru_cache"}


def _memo(decorator) -> bool:
    """Whether ``decorator`` is ``cache`` or ``lru_cache``, bare or as a
    ``functools`` attribute, called or not."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        return decorator.attr in MEMOS
    return isinstance(decorator, ast.Name) and decorator.id in MEMOS


def _modules():
    """``(dotted module name, parsed AST)`` for every source module."""
    src = Path(anonbridge.__file__).parent
    for path in sorted(src.rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        yield module, ast.parse(path.read_text(), str(path))


def test_zero_node_is_the_only_process_wide_memo():
    # a process-wide memo outlives every Simulation; each one is a reviewed
    # decision, bounded and pure, never an accident
    memoised = []
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                memoised += [f"{module}.{node.name}"
                             for d in node.decorator_list if _memo(d)]
    assert memoised == ["merkle.zero_node"]


def test_no_source_module_asserts():
    # `python -O` drops an assert statement, so a check in src/ raises
    # instead, and none can vanish from an optimised run
    asserts = [f"{module}:{node.lineno}" for module, tree in _modules()
               for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert asserts == []


ENVIRONMENT_READERS = {"environ", "getenv"}


def test_no_source_module_reads_the_environment():
    # a run depends on its (config, seed) and its command-line flags alone
    reads = [f"{module}:{node.lineno}" for module, tree in _modules()
             for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS)
             or (isinstance(node, (ast.Import, ast.ImportFrom))
                 and any(alias.name in ENVIRONMENT_READERS for alias in node.names))]
    assert reads == []


def _compares_name_with_main(node) -> bool:
    operands = [node.left, *node.comparators]
    return (any(isinstance(n, ast.Name) and n.id == "__name__" for n in operands)
            and any(isinstance(n, ast.Constant) and n.value == "__main__"
                    for n in operands))


def test_only_dunder_main_is_a_script():
    # a command runs through harness.cli.main, reached by the console script
    # or ``python -m anonbridge``, and by no third entry
    scripts = [module for module, tree in _modules() if any(
        isinstance(node, ast.Compare) and _compares_name_with_main(node)
        for node in ast.walk(tree))]
    assert scripts == ["__main__"]


def test_the_package_is_its_docstring_alone():
    # each name is imported from the module that defines it, so importing
    # one module loads only what that module imports
    package = dict(_modules())["__init__"]
    assert len(package.body) == 1 and ast.get_docstring(package)


def _keccak_uses(node, scope: str) -> list:
    """The scope of every read of ``keccak256`` under ``node``, or import
    of it under another name: the enclosing function or class, or the
    module-level name assigned."""
    uses = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            uses += _keccak_uses(child, f"{scope}.{child.name}")
            continue
        if (isinstance(node, ast.Module) and isinstance(child, ast.Assign)
                and len(child.targets) == 1 and isinstance(child.targets[0], ast.Name)):
            uses += _keccak_uses(child, f"{scope}.{child.targets[0].id}")
            continue
        if (isinstance(child, ast.Name) and child.id == "keccak256"
                or isinstance(child, ast.Attribute) and child.attr == "keccak256"
                or isinstance(child, ast.alias) and child.name == "keccak256"
                and child.asname is not None):
            uses.append(scope)
        uses += _keccak_uses(child, scope)
    return uses


def test_keccak256_serves_only_protocol_hashes():
    # keccak256 is charged and tabled as protocol work; harness randomness
    # and the simulated prover's MAC run on stdlib blake2b instead
    uses = sorted(use for module, tree in _modules()
                  for use in _keccak_uses(tree, module))
    assert uses == [
        "dact.dapp_global_hash",
        "dact.obfuscate",
        "dact.trustless_public_commitment",
        "hashing.DOMAIN_COMMIT",
        "hashing.DOMAIN_NULLIFIER",
        "hashing._round_constants",
        "hashing._round_constants",
        "merkle.ZERO",
    ]


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

    def test_index_bits_choose_the_sides(self):
        tree = MerkleTree(3)
        leaves = _leaves(tree.capacity)
        for leaf in leaves:
            tree.insert(leaf)
        for i, leaf in enumerate(leaves):
            path = tree.path(i)
            assert path.index == i
            assert verify_path(tree.root, leaf, path)
            for bit in range(3):
                flipped = MerklePath(path.elements, i ^ 1 << bit)
                assert not verify_path(tree.root, leaf, flipped)

    @pytest.mark.parametrize("resize", [lambda e: e[:-1], lambda e: e + [ZERO]],
                             ids=["short", "long"])
    def test_a_path_folds_exactly_its_siblings(self, resize):
        tree = MerkleTree(6)
        for leaf in _leaves(6):
            tree.insert(leaf)
        path = tree.path(5)
        resized = MerklePath(resize(path.elements), path.index)
        with ops.counting() as c:
            assert not verify_path(tree.root, tree.leaves[5], resized)
        assert c.permutations == len(resized.elements)


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


def _check_against_eager_fold(tree, leaves, table):
    """Root and every leaf's path of ``tree`` equal the eager oracle's, read
    from a copy so the tree under test keeps its unread state."""
    probe = copy.deepcopy(tree)
    root = ref.naive_root(tuple(leaves), tree.depth)
    assert probe.root == root
    with ops.hash_table(table):  # the same folds, step after step
        for i, leaf in enumerate(leaves):
            assert verify_path(root, leaf, probe.path(i))


def _random_steps(depth, seed):
    """Seeded interleaving of inserts and reads that fills up to the tree's
    capacity, at most 40 inserts."""
    rnd = SeededRng(seed).py_random()
    steps, n = [], 0
    while n < min(1 << depth, 40):
        kind = rnd.choice(("insert", "insert", "insert", "root", "path"))
        if kind == "path" and n == 0:
            continue
        steps.append((kind, rnd.randrange(n) if kind == "path" else None))
        n += kind == "insert"
    return steps


class TestLazySpine:
    """An insert defers its hashing to the next read of ``root`` or
    ``path()``; every read equals the eager fold over the leaves so far."""

    @pytest.mark.parametrize("depth,steps", [
        *(pytest.param(d, _random_steps(d, seed), id=f"random-d{d}-s{seed}")
          for d in range(1, 9) for seed in (d, 100 + d)),
        pytest.param(5, [("insert", None), ("root", None)] * 12,
                     id="read-after-every-insert"),
        pytest.param(6, [("insert", None)] * 37 + [("root", None)], id="read-only-at-end"),
        # 3 leaves read, then a batch of 5 whose first dirty index is odd
        pytest.param(4, [("insert", None)] * 3 + [("root", None)]
                     + [("insert", None)] * 5 + [("path", 2)], id="odd-first-index"),
        pytest.param(4, [("insert", None)] * 16 + [("path", 15)], id="full-tree"),
    ])
    def test_every_step_matches_the_eager_fold(self, depth, steps):
        tree = MerkleTree(depth)
        pool = iter(_leaves(len(steps), seed=depth))
        leaves, table = [], {}
        for kind, arg in steps:
            if kind == "insert":
                leaves.append(next(pool))
                assert tree.insert(leaves[-1]) == len(leaves) - 1
            elif kind == "root":
                assert tree.root == ref.naive_root(tuple(leaves), depth)
            else:
                path = tree.path(arg)
                assert verify_path(ref.naive_root(tuple(leaves), depth), leaves[arg], path)
            _check_against_eager_fold(tree, leaves, table)
        assert len(leaves) == len(tree.leaves)
        if len(leaves) == tree.capacity:
            with pytest.raises(TreeFull):
                tree.insert(1)

    def test_a_batch_hashes_only_the_spine_once(self):
        tree = MerkleTree(20)
        with ops.counting() as c, ops.hash_table({}) as t:
            for leaf in _leaves(12):
                tree.insert(leaf)
            root = tree.root
            # 6 + 3 + 2 nodes at levels 1-3, then one per level up to the
            # root; eager inserts would hash 12 * 20 = 240. The table also
            # holds the keccak digests of the leaves' seeded draws.
            assert sum(isinstance(key, tuple) for key in t) == 28
        assert c.permutations == 240
        # a second read hashes nothing, not even a table hit
        with ops.hash_table({}) as again:
            assert tree.root == root
            tree.path(5)
        assert again == {}

    def test_reading_a_dirty_tree_is_free(self):
        for read in (lambda t: t.root, lambda t: t.path(2)):
            tree = MerkleTree(8)
            for leaf in _leaves(5):
                tree.insert(leaf)
            with ops.counting() as c:
                read(tree)
            assert c.permutations == 0

    def test_rejected_leaf_changes_nothing(self):
        tree = MerkleTree(6)
        for leaf in _leaves(3):
            tree.insert(leaf)
        before = (len(tree.leaves), list(tree.leaves))
        with ops.counting() as c:
            with pytest.raises(NotInField):
                tree.insert(P)
        assert c.permutations == 0
        assert (len(tree.leaves), tree.leaves) == before
        assert tree.root == ref.naive_root(tuple(before[1]), 6)
