"""Byte-identity pins: every builtin's transcript digest, op counts and
verdicts at seeds 0-2, and the depth sweep, against a checked-in fixture.

The fixture holds what ``compute_pins()`` returned before the tree began
to defer its hashing; a host-side optimisation must leave every figure
unchanged. It is regenerated only by hand, after a deliberate protocol
change:

    PYTHONPATH=src:tests python -c "import json, test_pins; \\
        print(json.dumps(test_pins.compute_pins(), indent=1, sort_keys=True))" \\
        > tests/fixtures/builtin_pins.json
"""

import json
from pathlib import Path

from anonbridge.harness import BUILTINS, builtin_config, run_scenario, sweep_depths

SEEDS = (0, 1, 2)
SWEEP = [4, 8, 16]


def compute_pins() -> dict:
    builtins = {}
    for name in sorted(BUILTINS):
        for seed in SEEDS:
            result = run_scenario(builtin_config(name, seed=seed))
            builtins[f"{name}/{seed}"] = {
                "digest": result.transcript.digest(),
                "metrics": result.metrics,
                "verdicts": [[v.name, v.passed, v.detail] for v in result.verdicts],
            }
    return {"builtins": builtins, "sweep_depths": sweep_depths(SWEEP)}


def test_builtins_and_sweep_match_the_pins():
    with open(Path(__file__).parent / "fixtures" / "builtin_pins.json") as fh:
        pinned = json.load(fh)
    got = json.loads(json.dumps(compute_pins()))
    assert sorted(got["builtins"]) == sorted(pinned["builtins"])
    for key, pins in pinned["builtins"].items():
        assert got["builtins"][key] == pins, key
    assert got["sweep_depths"] == pinned["sweep_depths"]
