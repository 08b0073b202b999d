"""Operation counter: the simulator's stand-in for gas metering.

Costs are plain counts (1 unit per sponge permutation, 1 per keccak block,
1 per signature verification, 1 per elementary constraint check, 1 per
proof verification) and are never converted to currency units. The
fields of ``OpCounts`` are the one list of cost kinds: ``charge(kind)``
takes a field name, and inside a ``counting()`` block a misspelled one
raises ``AttributeError`` and charges nothing.

Every charge goes to the counter of the innermost ``counting()`` block in
the current context (a PEP 567 context variable: each thread and asyncio
task has its own). Each ``Simulation`` owns one counter; a charge made
outside every block goes nowhere and cannot be read.

The hash table of the innermost ``hash_table()`` block lives here too,
and ``tabled()`` states its rule once: both hash cores,
``hashing.permute`` and ``keccak.keccak256``, charge their cost and hand
their computation to it (see ``hashing``).
"""

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, asdict


@dataclass(slots=True)
class OpCounts:
    permutations: int = 0
    keccak_blocks: int = 0
    sig_verifies: int = 0
    constraint_evals: int = 0
    proof_verifies: int = 0

    def as_dict(self) -> dict:
        return asdict(self)

    def add(self, other: "OpCounts") -> None:
        for kind in self.__slots__:
            setattr(self, kind, getattr(self, kind) + getattr(other, kind))


_active: ContextVar = ContextVar("anonbridge.ops", default=None)
_table: ContextVar = ContextVar("anonbridge.ops.table", default=None)

# the innermost hash_table() block's dict, or None outside every block
active_table = _table.get


@contextmanager
def _scope(var: ContextVar, value):
    """Set ``var`` to ``value`` for the block and yield ``value``."""
    token = var.set(value)
    try:
        yield value
    finally:
        var.reset(token)


def counting(counts: OpCounts = None):
    """Charge the block's operations to ``counts`` (a fresh counter when
    None) and yield it. Blocks nest; only the innermost one is charged."""
    return _scope(_active, OpCounts() if counts is None else counts)


def hash_table(table: dict):
    """Remember every hash of the block in ``table`` and yield it: a MiMC
    permutation under its input pair, a keccak256 digest under its input
    bytes. Blocks nest; only the innermost table is consulted, and a
    ``None`` table turns the outer ones off for the block."""
    return _scope(_table, table)


def charge(kind: str, n: int = 1) -> None:
    """Charge ``n`` units of ``kind``, an ``OpCounts`` field name."""
    if (counts := _active.get()) is not None:
        setattr(counts, kind, getattr(counts, kind) + n)


def tabled(key, compute, *args):
    """``compute(*args)``, looked up under ``key`` in the active hash
    table: computed and stored on a miss, computed alone with no table."""
    table = _table.get()
    if table is None:
        return compute(*args)
    if (out := table.get(key)) is None:
        out = table[key] = compute(*args)
    return out
