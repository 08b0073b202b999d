"""The scenario examples documented in README.md stay runnable, and its
proof wire sizes are those of real proofs."""

import re
from pathlib import Path

from anonbridge.harness import ScenarioConfig, Simulation, run_scenario

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_readme_json_example_runs_and_passes():
    examples = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert examples
    for text in examples:
        result = run_scenario(ScenarioConfig.from_json(text))
        assert result.passed, [v for v in result.verdicts if not v.passed]


def _settled_and_marked():
    """One deposit settled and one marked for revert, 1001 -> 1003."""
    sim = Simulation(ScenarioConfig(seed=0, name="readme", script=[]))
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
    kinds = {"Deposit": "deposit", "Mixer signature": "signature_stored",
             "Revert mark": "revert_marked"}
    documented = {kinds[name]: int(size) for name, size in re.findall(
        r"^(Deposit|Mixer signature|Revert mark) event \((\d+) bytes", README.read_text(), re.M)}
    assert set(documented) == set(kinds.values())
    sim, _, _ = _settled_and_marked()
    sizes = {(ev.kind, len(ev.payload)) for c in sim.chains.values() for ev in c.event_log
             if ev.kind in documented}
    assert sizes == set(documented.items())
