"""Operation counter: the simulator's stand-in for gas metering.

Costs are plain counts (1 unit per sponge permutation, 1 per keccak block,
1 per signature verification, 1 per elementary constraint check, 1 per
proof verification) and are never converted to currency units.

Every charge goes to the counter of the innermost ``counting()`` block in
the current context (a PEP 567 context variable: each thread and asyncio
task has its own). Each ``Simulation`` owns one counter; a charge made
outside every block goes nowhere and cannot be read.

The hash table of the innermost ``hash_table()`` block lives here too,
next to the counter both hash cores already charge: ``hashing.permute``
and ``keccak.keccak256`` read it with ``active_table()`` (see
``hashing``).
"""

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, asdict


@dataclass
class OpCounts:
    permutations: int = 0
    keccak_blocks: int = 0
    sig_verifies: int = 0
    constraint_evals: int = 0
    proof_verifies: int = 0

    def as_dict(self) -> dict:
        return asdict(self)

    def add(self, other: "OpCounts") -> None:
        self.permutations += other.permutations
        self.keccak_blocks += other.keccak_blocks
        self.sig_verifies += other.sig_verifies
        self.constraint_evals += other.constraint_evals
        self.proof_verifies += other.proof_verifies


_active: ContextVar = ContextVar("anonbridge.ops", default=None)


@contextmanager
def counting(counts: OpCounts = None):
    """Charge the block's operations to ``counts`` (a fresh counter when
    None) and yield it. Blocks nest; only the innermost one is charged."""
    if counts is None:
        counts = OpCounts()
    token = _active.set(counts)
    try:
        yield counts
    finally:
        _active.reset(token)


_table: ContextVar = ContextVar("anonbridge.ops.table", default=None)

# the innermost hash_table() block's dict, or None outside every block
active_table = _table.get


@contextmanager
def hash_table(table: dict):
    """Remember every hash of the block in ``table`` and yield it: a MiMC
    permutation under its input pair, a keccak256 digest under its input
    bytes. Blocks nest; only the innermost table is consulted, and a
    ``None`` table turns the outer ones off for the block."""
    token = _table.set(table)
    try:
        yield table
    finally:
        _table.reset(token)


def charge_permutation(n: int = 1) -> None:
    if (counts := _active.get()) is not None:
        counts.permutations += n


def charge_keccak_blocks(n: int) -> None:
    if (counts := _active.get()) is not None:
        counts.keccak_blocks += n


def charge_sig_verify(n: int = 1) -> None:
    if (counts := _active.get()) is not None:
        counts.sig_verifies += n


def charge_constraint(n: int = 1) -> None:
    if (counts := _active.get()) is not None:
        counts.constraint_evals += n


def charge_proof_verify(n: int = 1) -> None:
    if (counts := _active.get()) is not None:
        counts.proof_verifies += n
