"""Ways an honest deposit still strands, measured in ROADMAP ("Measured at
this re-anchor"). Each test runs the measured script and asserts the
honest outcome. A strand still open is a strict xfail that names today's
error, so the change that fixes its ROADMAP item must remove the marker,
and any other failure shows as a failure; a closed strand passes unmarked
and keeps its fix: (e1) since the Mixer's event-inclusion check, (e4) since
a Router takes a root from anyone, if the Mixer holds it. An
attacker's direct contract call is wrapped in ``suppress(SimError)``,
since it may raise once the item lands.
"""

import contextlib

import pytest

from anonbridge.chain import (
    Event,
    mixer_store_signature,
    mixer_submit,
    router_update_root,
    unwords,
    words,
)
from anonbridge.errors import ConstraintViolation, SimError, UnknownRoot
from anonbridge.harness import ScenarioConfig, Simulation


def make_sim():
    return Simulation(ScenarioConfig(seed=0, name="strand", wallets=["alice"], script=[]))


def settle(sim, label):
    sim.withdraw(label)
    assert sim.settled(label)


def test_altered_relay_does_not_strand_the_deposit():
    """(e1): an event altered on the way to the Mixer is refused there, as
    the source never published it, so the honest relay still inserts the
    deposit (ROADMAP item 12's inclusion check)."""
    sim = make_sim()
    d = sim.deposit("alice", 1001, 1003)
    ev = sim.chains[1001].event_log[-1]
    c, tpc, src = unwords(ev.payload)
    with contextlib.suppress(SimError):
        mixer_submit(sim.mixer_chain,
                     Event("deposit", words(c, tpc + 1, src), ev.block),
                     sim.chains[1001])
    sim.relay()
    sim.sign()
    sim.push_root()
    settle(sim, d)


def test_oracle_outage_before_the_push_does_not_strand_the_deposit():
    """(e4): the oracle goes offline between relay and push, so no Router
    holds the root the wallet proves against; the user pushes the Mixer's
    current root, to the Mixer's chain first, and settles (ROADMAP item 18)."""
    sim = make_sim()
    d = sim.deposit("alice", 1001, 1003)
    sim.relay()
    sim.sign()
    sim.go_offline("oracle")
    assert sim.push_root() is None
    sim.withdraw(d, expect="UnknownRoot")
    root = sim.mixer_chain.mixer.tree.root
    for cid in (sim.config.multiplexer, 1003):
        router_update_root(sim.chains[cid], root, sim.mixer_chain)
    settle(sim, d)


@pytest.mark.xfail(strict=True, raises=ConstraintViolation,
                   reason="ROADMAP item 2: a signature stored first blocks settlement (hole b)")
def test_presigned_leaf_still_settles():
    sim = make_sim()
    d = sim.deposit("alice", 1001, 1003)
    sim.relay()
    with contextlib.suppress(SimError):
        mixer_store_signature(sim.mixer_chain, 0, bytes(64))
    sim.sign()
    sim.push_root()
    settle(sim, d)


@pytest.mark.xfail(strict=True, raises=UnknownRoot,
                   reason="ROADMAP item 4: a relay after the push leaves the wallet's root unknown")
def test_withdraw_after_a_later_relay_settles_first_time():
    sim = make_sim()
    a = sim.deposit("alice", 1001, 1003)
    sim.relay()
    sim.sign()
    sim.push_root()
    sim.deposit("alice", 1001, 1003)
    sim.relay()
    settle(sim, a)
