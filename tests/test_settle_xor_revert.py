"""Settle-XOR-revert is held by the contracts alone: the source Router
opens a revert window only over the destination's mark of the same
commitment, so no deposit ends both settled and refunded, whether its
dApp is online or not."""

import ast
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

from anonbridge import actors
from anonbridge.actors import START_BALANCE
from anonbridge.chain import router_revert_initiate_source
from anonbridge.errors import NotMarked
from anonbridge.harness import ScenarioConfig, Simulation, run_scenario
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


def _shared_nullifier_sim() -> Simulation:
    """Two notes share a nullifier: a decoy of value 0 goes to 1002 and the
    real note to 1003. The decoy is marked on 1002, then the real note
    settles on 1003."""
    sim = Simulation(ScenarioConfig(seed=3, name="shared-nullifier", script=[]))
    sim.deposit("alice", 1001, 1003, label="real")
    real = sim.deposits["real"]
    fresh_note = actors.note_new
    with mock.patch.object(actors, "note_new", lambda rng: replace(
            fresh_note(rng), nullifier=real.note.nullifier)):
        sim.deposit("alice", 1001, 1002, label="decoy", value=0)
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
    sim.revert_init("decoy")
    sim.advance(sim.config.window)
    sim.execute("decoy")
    assert sim.settled("real") and not sim.reverted("real")
    assert sim.reverted("decoy") and not sim.settled("decoy")
    assert real.commitment in sim.dapp.contracts[1001].escrow


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: the verdict keys outcomes on the nullifier hash")
def test_a_shared_nullifier_with_one_outcome_per_deposit_passes_the_verdict():
    """The real note settled and the decoy was refunded: one outcome each,
    under one nullifier hash."""
    sim = _shared_nullifier_sim()
    sim.revert_init("decoy")
    sim.advance(sim.config.window)
    sim.execute("decoy")
    assert sim.settled("real") and sim.reverted("decoy")
    verdict = next(v for v in standard_verdicts(sim) if v.name == "settle_xor_revert")
    assert verdict.passed, verdict.detail


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
