"""Settle-XOR-revert is held by the contracts alone: the source Router
opens a revert window only over the destination's mark of the same
commitment, so no deposit ends both settled and refunded, whether its
dApp is online or not."""

import ast
import inspect
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

from anonbridge import actors, chain
from anonbridge.actors import START_BALANCE
from anonbridge.chain import router_revert_initiate_source
from anonbridge.errors import NotMarked
from anonbridge.harness import (
    ScenarioConfig,
    Simulation,
    builtin_config,
    run_scenario,
    simulation,
)
from anonbridge.harness.scenarios import standard_verdicts

# deposit 1001 -> 1003, settle it, take the dApp offline, then try to refund
SETTLED_THEN_OFFLINE_DAPP = [
    {"op": "deposit", "wallet": "alice", "source": 1001, "dest": 1003, "label": "d0"},
    {"op": "relay"},
    {"op": "sign"},
    {"op": "push_root"},
    {"op": "withdraw", "deposit": "d0"},
    {"op": "go_offline", "actor": "dapp"},
    {"op": "revert_init", "deposit": "d0", "expect": "NotMarked"},
    {"op": "advance", "blocks": 100},
    {"op": "execute", "deposit": "d0", "expect": "NoPending"},
]


def test_settled_deposit_is_not_refunded_with_its_dapp_offline():
    result = run_scenario(ScenarioConfig(seed=1, name="settled-then-offline-dapp",
                                         script=SETTLED_THEN_OFFLINE_DAPP))
    assert result.passed, [v for v in result.verdicts if not v.passed]
    assert "settle_xor_revert" in [v.name for v in result.verdicts]
    sim = result.sim
    assert sim.settled("d0") and not sim.reverted("d0")
    assert sim.wallets["alice"].balance == START_BALANCE - 1
    assert sim.chains[1001].router.pending_reverts == {}


def _deposit_sharing(sim: Simulation, shared: str, source: int, dest: int,
                     label: str, **fields) -> None:
    """Deposit a fresh note that takes the nullifier of deposit ``shared``."""
    nullifier = sim.deposits[shared].note.nullifier
    fresh_note = actors.note_new
    with mock.patch.object(actors, "note_new", lambda rng: replace(
            fresh_note(rng), nullifier=nullifier)):
        sim.deposit("alice", source, dest, label=label, **fields)


def _refund(sim: Simulation, *labels: str) -> None:
    for label in labels:
        sim.revert_init(label)
    sim.advance(sim.config.window)
    for label in labels:
        sim.execute(label)


def _shared_nullifier_sim() -> Simulation:
    """Two notes share a nullifier: a decoy of value 0 goes to 1002 and the
    real note to 1003. The decoy is marked on 1002, then the real note
    settles on 1003."""
    sim = Simulation(ScenarioConfig(seed=3, name="shared-nullifier", script=[]))
    sim.deposit("alice", 1001, 1003, label="real")
    _deposit_sharing(sim, "real", 1001, 1002, "decoy", value=0)
    sim.relay()
    sim.sign()
    sim.push_root()
    sim.revert_mark("decoy")
    sim.withdraw("real")
    return sim


def test_a_mark_of_a_note_sharing_the_nullifier_refunds_no_settled_note():
    """The decoy's mark on 1002 records the decoy's commitment, so after
    the real note settles on 1003 no window opens for it, whichever
    destination the caller names."""
    sim = _shared_nullifier_sim()
    real, decoy = sim.deposits["real"], sim.deposits["decoy"]
    assert decoy.note.nullifier == real.note.nullifier
    assert decoy.commitment != real.commitment

    sim.revert_init("real", expect="NotMarked")
    nh = real.revert.public.nullifier_hash
    assert nh in sim.chains[1002].router.nullifier_reverted  # the decoy's mark
    with pytest.raises(NotMarked):
        router_revert_initiate_source(sim.chains[1001], sim.chains[1002], real.revert)
    assert sim.chains[1001].router.pending_reverts == {}

    # the decoy's own refund still goes through its own mark
    _refund(sim, "decoy")
    assert sim.settled("real") and not sim.reverted("real")
    assert sim.reverted("decoy") and not sim.settled("decoy")
    assert real.commitment in sim.dapp.contracts[1001].escrow


def test_a_shared_nullifier_with_one_outcome_per_deposit_passes_the_verdict():
    """The real note settled and the decoy was refunded: one outcome each,
    under one nullifier hash."""
    sim = _shared_nullifier_sim()
    _refund(sim, "decoy")
    assert sim.settled("real") and sim.reverted("decoy")
    verdict = next(v for v in standard_verdicts(sim) if v.name == "settle_xor_revert")
    assert verdict.passed, verdict.detail


def test_a_destination_mark_sharing_the_nullifier_strands_no_refund():
    """A goes 1001 -> 1003 and B, under A's nullifier, 1003 -> 1002. A's
    mark on 1003 writes the nullifier hash into 1003's ``nullifier_reverted``;
    B's window on 1003 still opens, and both notes come back."""
    sim = Simulation(ScenarioConfig(seed=3, name="shared-nullifier", script=[]))
    sim.deposit("alice", 1001, 1003, label="A")
    _deposit_sharing(sim, "A", 1003, 1002, "B")
    sim.relay()
    sim.sign()
    sim.push_root()
    sim.revert_mark("A")
    sim.revert_mark("B")
    _refund(sim, "A", "B")
    assert sim.reverted("A") and sim.reverted("B")
    assert sim.wallets["alice"].balance == START_BALANCE
    sim.revert_init("A", expect="AlreadyPending")
    sim.revert_init("B", expect="AlreadyPending")


def test_a_pending_revert_keeps_a_second_window_from_its_nullifier():
    """A goes 1001 -> 1003 and B, under A's nullifier, 1001 -> 1002; both are
    marked. A pending revert is keyed by its nullifier hash, so while A's is
    pending on 1001, B's initiation is ``AlreadyPending``: a window opened
    over A's entry would make A's execute refund B and strand A. Once A is
    refunded, B's own window opens, and both notes come back."""
    sim = Simulation(ScenarioConfig(seed=3, name="shared-nullifier", script=[]))
    sim.deposit("alice", 1001, 1003, label="A")
    _deposit_sharing(sim, "A", 1001, 1002, "B")
    sim.relay()
    sim.sign()
    sim.push_root()
    sim.revert_mark("A")
    sim.revert_mark("B")
    sim.revert_init("A")
    sim.revert_init("B", expect="AlreadyPending")
    sim.advance(sim.config.window)
    sim.execute("A")
    assert sim.reverted("A") and not sim.reverted("B")
    _refund(sim, "B")
    assert sim.reverted("B")
    assert sim.wallets["alice"].balance == START_BALANCE


def test_a_mark_sharing_the_nullifier_after_a_refund_reopens_no_window():
    """A goes 1001 -> 1003 and is refunded on 1001; C, under A's nullifier,
    goes 1002 -> 1001 and is marked there after, overwriting 1001's
    ``nullifier_reverted`` entry with C's commitment. A refunded note stays
    refunded: its window does not open again."""
    sim = Simulation(ScenarioConfig(seed=3, name="shared-nullifier", script=[]))
    sim.deposit("alice", 1001, 1003, label="A")
    _deposit_sharing(sim, "A", 1002, 1001, "C")
    sim.relay()
    sim.sign()
    sim.push_root()
    sim.revert_mark("A")
    _refund(sim, "A")
    sim.revert_mark("C")
    nh = sim.deposits["A"].revert.public.nullifier_hash
    assert sim.chains[1001].router.nullifier_reverted[nh] == sim.deposits["C"].commitment
    sim.revert_init("A", expect="AlreadyPending")
    assert sim.chains[1001].router.pending_reverts == {}
    _refund(sim, "C")
    assert sim.wallets["alice"].balance == START_BALANCE


def test_a_settlement_after_a_refund_under_the_same_nullifier_is_settled():
    """A goes 1001 -> 1003 and is refunded on 1001; B, under A's nullifier,
    goes 1003 -> 1001 and settles there. 1001 published B's ``settled``
    event, so B is settled, though A's refund left its nullifier hash in
    1001's ``nullifier_reverted``."""
    sim = Simulation(ScenarioConfig(seed=3, name="shared-nullifier", script=[]))
    sim.deposit("alice", 1001, 1003, label="A")
    sim.relay()
    sim.sign()
    sim.push_root()
    sim.revert_mark("A")
    _refund(sim, "A")
    _deposit_sharing(sim, "A", 1003, 1001, "B")
    sim.relay()
    sim.sign()
    sim.push_root()
    sim.withdraw("B")
    nh = sim.deposits["B"].settlement.public.nullifier_hash
    assert nh in sim.chains[1001].router.nullifier_reverted  # A's refund
    assert sim.reverted("A") and not sim.settled("A")
    assert sim.settled("B") and not sim.reverted("B")
    verdict = next(v for v in standard_verdicts(sim) if v.name == "settle_xor_revert")
    assert verdict.passed, verdict.detail


def _initiate_without_mark_check():
    """A copy of ``router_revert_initiate_source`` that lacks its
    ``NotMarked`` check: it opens a window over a deposit never marked."""
    tree = ast.parse(inspect.getsource(chain.router_revert_initiate_source))
    fn = tree.body[0]
    kept = [stmt for stmt in fn.body if "NotMarked" not in ast.unparse(stmt)]
    assert len(kept) == len(fn.body) - 1
    fn.body = kept
    namespace = dict(vars(chain))
    exec(compile(tree, chain.__file__, "exec"), namespace)
    return namespace["router_revert_initiate_source"]


def test_the_verdict_fails_a_deposit_settled_and_refunded(monkeypatch):
    """Without the mark check a race can settle a deposit and then refund
    it; the verdict names that deposit."""
    monkeypatch.setattr(simulation, "router_revert_initiate_source",
                        _initiate_without_mark_check())
    for seed in range(100):
        result = run_scenario(builtin_config("withdraw_revert_race", seed=seed))
        verdict = next(v for v in result.verdicts if v.name == "settle_xor_revert")
        if not verdict.passed:
            break
    assert not verdict.passed, "no seed settled and refunded one deposit"
    assert "d0" in verdict.detail


def test_no_actor_reads_the_nullifier_flags():
    """Settle-XOR-revert stays a decision of ``chain.py``: nothing in
    ``actors.py`` reads a Router's ``nullifier_spent`` or
    ``nullifier_reverted``, as an attribute or by name."""
    flags = {"nullifier_spent", "nullifier_reverted"}
    tree = ast.parse(Path(actors.__file__).read_text())
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in flags
             or isinstance(node, ast.Constant) and node.value in flags]
    assert reads == []
