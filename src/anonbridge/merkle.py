"""Fixed-depth incremental Merkle tree with a bounded root history.

Tornado-style construction: empty positions padded with precomputed zero
nodes, exactly ``depth`` hash calls per insert. Every node an insert
hashes is kept in one list per level, so a path is read from the stored
level nodes and costs no hashing.
"""

from dataclasses import dataclass

from .errors import DepthOutOfRange, IndexUnknown, TreeFull
from .field import P, reduce_bytes
from .hashing import mimc_hash2
from .keccak import keccak256

MAX_DEPTH = 32

# nothing-up-my-sleeve constant for the empty leaf
ZERO = reduce_bytes(keccak256(b"anonbridge/empty-leaf"))


@dataclass
class MerklePath:
    elements: list  # sibling node per level, leaf level first
    indices: list   # 0 = our node is the left child at that level

    def __post_init__(self):
        assert len(self.elements) == len(self.indices)
        assert all(b in (0, 1) for b in self.indices)


class MerkleTree:
    def __init__(self, depth: int, root_history: int = 100):
        if not 1 <= depth <= MAX_DEPTH:
            raise DepthOutOfRange(f"depth must be in 1..{MAX_DEPTH}, got {depth}")
        self.depth = depth
        self.next_index = 0
        # levels[l] holds the nodes of level l computed so far, leftmost
        # first; the rightmost one is zero-padded until its sibling arrives.
        self.levels: list = [[] for _ in range(depth)]
        self.leaves: list = self.levels[0]
        self.leaf_index: dict = {}  # leaf value -> index of its first insert
        # zero node per level: zeros[0] = empty leaf, zeros[i+1] = H(z, z).
        # Charged once here, `depth` permutations.
        self.zeros = [ZERO]
        for _ in range(depth):
            self.zeros.append(mimc_hash2(self.zeros[-1], self.zeros[-1]))
        self.root_history_size = root_history
        self.root_history: list = [self.zeros[depth]]

    @property
    def capacity(self) -> int:
        return 1 << self.depth

    @property
    def root(self) -> int:
        return self.root_history[-1]

    def insert(self, leaf: int) -> int:
        """Insert a leaf; returns its index. Exactly ``depth`` hash calls."""
        if self.next_index == self.capacity:
            raise TreeFull(f"tree of depth {self.depth} is full")
        index = self.next_index
        current = leaf
        idx = index
        for level, nodes in enumerate(self.levels):
            # hash before storing, so a leaf outside the field leaves no trace
            if idx % 2 == 0:
                parent = mimc_hash2(current, self.zeros[level])
            else:
                parent = mimc_hash2(nodes[idx - 1], current)
            if idx == len(nodes):
                nodes.append(current)
            else:
                nodes[idx] = current
            current = parent
            idx //= 2
        self.leaf_index.setdefault(leaf, index)
        self.next_index += 1
        self.root_history.append(current)
        if len(self.root_history) > self.root_history_size:
            del self.root_history[: len(self.root_history) - self.root_history_size]
        return index

    def path(self, index: int) -> MerklePath:
        """Sibling path for the leaf at ``index`` against the current root."""
        if not 0 <= index < self.next_index:
            raise IndexUnknown(f"no leaf at index {index}")
        elements, indices = [], []
        idx = index
        for nodes, zero in zip(self.levels, self.zeros):
            sib = idx ^ 1
            elements.append(nodes[sib] if sib < len(nodes) else zero)
            indices.append(idx % 2)
            idx //= 2
        return MerklePath(elements, indices)

    def is_known_root(self, root: int) -> bool:
        return root in self.root_history


def verify_path(root: int, leaf: int, path: MerklePath) -> bool:
    """Fold ``leaf`` through the path and compare against ``root``."""
    current = leaf % P
    for sibling, bit in zip(path.elements, path.indices):
        if bit == 0:
            current = mimc_hash2(current, sibling)
        else:
            current = mimc_hash2(sibling, current)
    return current == root
