"""Fixed-depth incremental Merkle tree.

Tornado-style construction: empty positions padded with zero nodes,
``zeros[l+1] = H(zeros[l], zeros[l])``. A zero node depends only on its
level, so like ``ZERO`` it is a per-process constant: ``zero_node``
derives each level once per process, on first use, uncharged and outside
every hash table. Every tree is still charged ``depth`` permutations for
its zero nodes when it is built.

An insert is charged exactly ``depth`` hash calls but hashes nothing; the
next read of ``root`` or ``path()`` hashes the right spine those inserts
changed, once. The tree keeps ``levels`` (its nodes, one list per level,
the root level last), ``zeros`` and ``_folded``, and nothing else, so a
path is read from the stored nodes and costs no hashing; where a
deposit's leaf sits is the Mixer's record (``MixerState.commitments``).
"""

from dataclasses import dataclass
from functools import cache

from . import ops
from .errors import DepthOutOfRange, IndexUnknown, TreeFull
from .field import P, check, reduce_bytes
from .hashing import mimc_hash2
from .keccak import keccak256

MAX_DEPTH = 32

# nothing-up-my-sleeve constant for the empty leaf
ZERO = reduce_bytes(keccak256(b"anonbridge/empty-leaf"))


@cache
def zero_node(level: int) -> int:
    """Root of an empty subtree of height ``level``; level 0 is ``ZERO``.
    Derived once per process and level, charged to no counter and stored
    in no hash table: at most ``MAX_DEPTH + 1`` constants."""
    if not 0 <= level <= MAX_DEPTH:
        raise DepthOutOfRange(f"level must be in 0..{MAX_DEPTH}, got {level}")
    if level == 0:
        return ZERO
    z = zero_node(level - 1)
    with ops.counting(), ops.hash_table(None):
        return mimc_hash2(z, z)


@dataclass
class MerklePath:
    elements: list  # sibling node per level, leaf level first
    index: int      # the leaf's; bit l set = our node is the right child at level l


class MerkleTree:
    """``levels`` (root level last), ``zeros`` and ``_folded``; no leaf lookup."""

    def __init__(self, depth: int):
        if not 1 <= depth <= MAX_DEPTH:
            raise DepthOutOfRange(f"depth must be in 1..{MAX_DEPTH}, got {depth}")
        self.depth = depth
        # zero node per level: zeros[0] = empty leaf, zeros[i+1] = H(z, z).
        # Per-process constants, hashed at most once by zero_node; every
        # tree is still charged for them here, `depth` permutations.
        ops.charge("permutations", depth)
        self.zeros = [zero_node(level) for level in range(depth + 1)]
        # levels[l]: the nodes of level l, leftmost first, the rightmost one
        # zero-padded; above the leaves they cover the first `_folded`
        # leaves, and levels[depth] holds the root alone
        self.levels: list = [[] for _ in range(depth)] + [[self.zeros[depth]]]
        self.leaves: list = self.levels[0]
        self._folded = 0

    @property
    def capacity(self) -> int:
        return 1 << self.depth

    @property
    def root(self) -> int:
        self._fold()
        return self.levels[-1][0]

    def insert(self, leaf: int) -> int:
        """Insert a leaf; returns its index. Charged ``depth`` permutations."""
        if len(self.leaves) == self.capacity:
            raise TreeFull(f"tree of depth {self.depth} is full")
        check(leaf)
        ops.charge("permutations", self.depth)
        self.leaves.append(leaf)
        return len(self.leaves) - 1

    def _fold(self) -> None:
        """Re-hash, level by level, the nodes above the leaves inserted
        since the last fold, as eager inserts would have left them."""
        if self._folded == len(self.leaves):
            return
        first = self._folded >> 1  # first stale parent
        with ops.counting():  # the inserts were charged for this work
            for nodes, parents, zero in zip(self.levels, self.levels[1:], self.zeros):
                n = len(nodes)
                parents[first:] = [mimc_hash2(nodes[i], nodes[i + 1] if i + 1 < n else zero)
                                   for i in range(2 * first, n, 2)]
                first >>= 1
        self._folded = len(self.leaves)

    def path(self, index: int) -> MerklePath:
        """Sibling path for the leaf at ``index`` against the current root."""
        if not 0 <= index < len(self.leaves):
            raise IndexUnknown(f"no leaf at index {index}")
        self._fold()
        elements = []
        idx = index
        for nodes, zero in zip(self.levels[:-1], self.zeros):
            sib = idx ^ 1
            elements.append(nodes[sib] if sib < len(nodes) else zero)
            idx >>= 1
        return MerklePath(elements, index)


def verify_path(root: int, leaf: int, path: MerklePath) -> bool:
    """Fold ``leaf`` through the path and compare against ``root``."""
    current, index = leaf % P, path.index
    for sibling in path.elements:
        if index & 1:
            current = mimc_hash2(sibling, current)
        else:
            current = mimc_hash2(current, sibling)
        index >>= 1
    return current == root
