"""A halt delays a refund by one window, once: a deposit whose revert the
dApp's watcher halts is still refunded, and nothing stays in escrow."""

from anonbridge.actors import START_BALANCE
from anonbridge.chain import router_revert_initiate_source
from anonbridge.harness import ScenarioConfig, Simulation, run_scenario


def _revert_all(labels):
    """Deposit each label 1001 -> 1003, relay, sign, push the root, then
    mark and initiate the revert of each."""
    return ([{"op": "deposit", "wallet": "alice", "source": 1001, "dest": 1003,
              "label": d} for d in labels]
            + [{"op": "relay"}, {"op": "sign"}, {"op": "push_root"}]
            + [{"op": op, "deposit": d} for d in labels
               for op in ("revert_mark", "revert_init")])


def _halts(result) -> list:
    return [rec["reason"] for rec in result.transcript.records
            if rec.get("op") == "revert_halted"]


def test_a_revert_halted_by_the_rate_rule_is_refunded_one_window_later():
    script = _revert_all(["a", "b"]) + [
        {"op": "halt"},                 # b trips a rate of one per period
        {"op": "advance", "blocks": 100},
        {"op": "execute", "deposit": "a"},
        {"op": "execute", "deposit": "b", "expect": "WindowActive"},
        {"op": "halt"},                 # b was judged once: nothing new
        {"op": "advance", "blocks": 100},
        {"op": "execute", "deposit": "b"},
    ]
    result = run_scenario(ScenarioConfig(seed=4, name="halted-revert-refunded",
                                         dapp={"max_reverts_per_period": 1},
                                         script=script))
    assert result.passed, [v for v in result.verdicts if not v.passed]
    assert _halts(result) == ["rate_threshold"]
    sim = result.sim
    assert sim.reverted("a") and sim.reverted("b")
    assert sim.wallets["alice"].balance == START_BALANCE
    assert sim.chains[1001].router.pending_reverts == {}


def test_every_revert_over_the_rate_is_refunded_within_two_windows():
    # seven reverts in one period under a rate of three: the first three
    # are let through, the last four are halted and wait one more window
    labels = [f"d{i}" for i in range(7)]
    script = _revert_all(labels) + [{"op": "halt"}, {"op": "advance", "blocks": 100}]
    script += [{"op": "execute", "deposit": d} for d in labels[:3]]
    script += [{"op": "execute", "deposit": d, "expect": "WindowActive"}
               for d in labels[3:]]
    script += [{"op": "advance", "blocks": 100}]
    script += [{"op": "execute", "deposit": d} for d in labels[3:]]
    result = run_scenario(ScenarioConfig(seed=5, name="revert-load",
                                         dapp={"max_reverts_per_period": 3},
                                         script=script))
    assert result.passed, [v for v in result.verdicts if not v.passed]
    assert _halts(result) == ["rate_threshold"] * 4
    sim = result.sim
    assert all(sim.reverted(d) for d in labels)
    assert sim.wallets["alice"].balance == START_BALANCE
    assert sim.dapp.contracts[1001].escrow == {}


def test_a_direct_initiation_opens_the_routers_window_and_is_halted():
    """A revert opened by a direct contract call gets the window the Router
    was deployed with, so the dApp's watcher can still halt it."""
    sim = Simulation(ScenarioConfig(seed=6, name="direct-initiation",
                                    dapp={"max_value_per_revert": 0}, script=[]))
    d = sim.deposit("alice", 1001, 1003)
    sim.relay()
    sim.sign()
    sim.push_root()
    sim.revert_mark(d)
    src = sim.chains[1001]
    proof = sim.deposits[d].revert
    end = router_revert_initiate_source(src, sim.chains[1003], proof)
    assert end == src.height + sim.config.window
    nh = proof.public.nullifier_hash
    assert src.router.pending_reverts[nh].window_end == end
    assert sim.halt() == [(1001, nh, "value_threshold")]
    assert src.router.pending_reverts[nh].window_end == end + sim.config.window
