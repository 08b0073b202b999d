"""The scenario examples documented in README.md stay runnable, and its
proof and event wire sizes are those of real proofs and events."""

import re
from pathlib import Path

from anonbridge import chain as chain_mod
from anonbridge.harness import ScenarioConfig, Simulation, run_scenario

README = Path(__file__).resolve().parent.parent / "README.md"
CHAIN = Path(chain_mod.__file__)


def test_every_readme_json_example_runs_and_passes():
    examples = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert examples
    for text in examples:
        result = run_scenario(ScenarioConfig.from_json(text))
        assert result.passed, [v for v in result.verdicts if not v.passed]


def _settled_and_marked():
    """One deposit settled and one marked for revert, 1001 -> 1003, under
    a dApp rule that halts every revert."""
    sim = Simulation(ScenarioConfig(seed=0, name="readme", script=[],
                                    dapp={"max_value_per_revert": 0}))
    settled, reverted = sim.deposit("alice", 1001, 1003), sim.deposit("alice", 1001, 1003)
    sim.relay()
    sim.sign()
    sim.push_root()
    sim.withdraw(settled)
    sim.revert_mark(reverted)
    return sim, settled, reverted


def test_proof_wire_sizes_are_those_of_real_proofs():
    documented = dict(re.findall(r"Serialized (settlement|revert) proof \((\d+) bytes\)",
                                 README.read_text()))
    sim, settled, reverted = _settled_and_marked()
    proofs = {"settlement": sim.deposits[settled].settlement,
              "revert": sim.deposits[reverted].revert}
    assert documented == {kind: str(len(proof.serialize())) for kind, proof in proofs.items()}


def test_event_wire_sizes_are_those_of_real_events():
    """Every kind a contract emits is documented, at the size a run that
    settles, and marks, initiates, halts and executes a revert emits it."""
    kinds = {"Deposit": "deposit", "Leaf inserted": "leaf_inserted",
             "Mixer signature": "signature_stored", "Root update": "root_update",
             "Settled": "settled", "Revert mark": "revert_marked",
             "Revert initiated": "revert_initiated", "Revert halted": "revert_halted",
             "Revert executed": "revert_executed"}
    documented = {kinds[name]: int(size) for name, size in re.findall(
        r"^(\w[\w ]*?) event \((\d+) bytes", README.read_text(), re.M)}
    assert set(documented) == set(re.findall(r'emit\("(\w+)"', CHAIN.read_text()))
    sim, _, reverted = _settled_and_marked()
    sim.revert_init(reverted)
    assert sim.halt()  # the dApp rule of value 0 halts it, a window's delay
    sim.advance(2 * sim.config.window)
    sim.execute(reverted)
    sizes = {(ev.kind, len(ev.payload)) for c in sim.chains.values() for ev in c.event_log}
    assert sizes == set(documented.items())
