"""Byte-identity pins: every builtin's and every ``scenarios/*.json``
script's transcript digest, op counts and verdicts at seeds 0-2, and the
depth sweep, against checked-in fixtures.

A host-side optimisation or a refactor must leave every figure unchanged.
The fixtures are regenerated only by hand, after a deliberate protocol
change; CHANGES.md says what each regeneration moved:

    PYTHONPATH=src:tests python -c "import json, test_pins; \\
        print(json.dumps(test_pins.compute_pins(), indent=1, sort_keys=True))" \\
        > tests/fixtures/builtin_pins.json
    PYTHONPATH=src:tests python -c "import json, test_pins; \\
        print(json.dumps(test_pins.compute_script_pins(), indent=1, sort_keys=True))" \\
        > tests/fixtures/script_pins.json

The last regeneration followed the Router's root check: a Router takes
only a root the Mixer holds, so ``oracle_forged_root``'s push is refused
with ``UnknownRoot`` and its check became ``forged_root_refused_by_router``.
Only that builtin's ``digest`` and ``verdicts`` moved, at each seed; every
``metrics`` entry, every sweep row and every script pin stayed the same.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from anonbridge.harness import (
    BUILTINS,
    ScenarioConfig,
    builtin_config,
    run_scenario,
    sweep_depths,
)

SEEDS = (0, 1, 2)
SWEEP = [4, 8, 16]
FIXTURES = Path(__file__).parent / "fixtures"
SCRIPTS = Path(__file__).parent.parent / "scenarios"
SRC = Path(__file__).resolve().parent.parent / "src"

# both pin sets, computed in a fresh interpreter
BOTH_PINS = """
import json, test_pins
print(json.dumps({"builtin_pins.json": test_pins.compute_pins(),
                  "script_pins.json": test_pins.compute_script_pins()}))
"""


def _pin(result) -> dict:
    return {
        "digest": result.transcript.digest(),
        "metrics": result.metrics,
        "verdicts": [[v.name, v.passed, v.detail] for v in result.verdicts],
    }


def compute_pins() -> dict:
    builtins = {f"{name}/{seed}": _pin(run_scenario(builtin_config(name, seed=seed)))
                for name in sorted(BUILTINS) for seed in SEEDS}
    return {"builtins": builtins, "sweep_depths": sweep_depths(SWEEP)}


def compute_script_pins() -> dict:
    pins = {}
    for path in sorted(SCRIPTS.glob("*.json")):
        data = json.loads(path.read_text())
        for seed in SEEDS:
            config = ScenarioConfig.from_dict(dict(data, seed=seed))
            pins[f"{path.name}/{seed}"] = _pin(run_scenario(config))
    return pins


def _load(name: str):
    with open(FIXTURES / name) as fh:
        return json.load(fh)


def test_builtins_and_sweep_match_the_pins():
    pinned = _load("builtin_pins.json")
    got = json.loads(json.dumps(compute_pins()))
    assert sorted(got["builtins"]) == sorted(pinned["builtins"])
    for key, pins in pinned["builtins"].items():
        assert got["builtins"][key] == pins, key
    assert got["sweep_depths"] == pinned["sweep_depths"]


def test_scenario_scripts_match_the_pins():
    pinned = _load("script_pins.json")
    got = json.loads(json.dumps(compute_script_pins()))
    assert sorted(got) == sorted(pinned)
    for key, pins in pinned.items():
        assert got[key] == pins, key


def test_pins_record_only_passing_verdicts():
    pinned = list(_load("builtin_pins.json")["builtins"].items())
    pinned += _load("script_pins.json").items()
    for key, pins in pinned:
        for name, passed, detail in pins["verdicts"]:
            assert passed is True, (key, name, detail)


def test_pins_hold_under_optimize():
    """``python -O`` strips every ``assert``, so no charge, check or
    verified proof may hide in one: both pin sets come out the same."""
    path = os.pathsep.join([str(SRC), str(Path(__file__).resolve().parent)])
    proc = subprocess.run([sys.executable, "-O", "-c", BOTH_PINS],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    for name, got in json.loads(proc.stdout).items():
        pinned = _load(name)
        assert sorted(got) == sorted(pinned), name
        for key, pins in pinned.items():
            assert got[key] == pins, (name, key)
