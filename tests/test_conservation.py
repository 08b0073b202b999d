"""Every builtin run and every scenario file conserves value and settles
each nullifier hash at most once across chains (ROADMAP aim 3). These are
tests, not verdicts: ``standard_verdicts`` and the pins do not change."""

import json
from pathlib import Path

import pytest

from anonbridge.actors import START_BALANCE
from anonbridge.harness import BUILTINS, ScenarioConfig, builtin_config, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SEEDS = range(20)


def check_run(config: ScenarioConfig) -> None:
    """Wallet balances plus every escrow of every dApp contract on every
    chain equal the opening balances, and no ``settled`` event payload
    appears twice."""
    sim = run_scenario(config).sim
    held = sum(wallet.balance for wallet in sim.wallets.values())
    escrowed = sum(value for chain in sim.chains.values()
                   for contract in chain.dapps.values()
                   for value, _ in contract.escrow.values())
    where = f"{config.name} seed {config.seed}"
    assert held + escrowed == START_BALANCE * len(sim.wallets), where
    settled = [ev.payload for chain in sim.chains.values()
               for ev in chain.event_log if ev.kind == "settled"]
    assert len(settled) == len(set(settled)), where


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_conserves_value_and_settles_once(name):
    for seed in SEEDS:
        check_run(builtin_config(name, seed=seed))


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_scenario_file_conserves_value_and_settles_once(path):
    check_run(ScenarioConfig.from_dict(json.loads(path.read_text())))
