"""Byte-identity pins: every builtin's and every ``scenarios/*.json``
script's transcript digest, op counts and verdicts at seeds 0-2, and the
depth sweep, against checked-in fixtures.

``builtin_pins.json`` holds what ``compute_pins()`` returned before the
tree began to defer its hashing; ``script_pins.json`` holds what
``compute_script_pins()`` returned before the script interpreter became
a dispatch by name. Both were regenerated three times since. The first
time, the wallet stopped re-hashing the TPC on every proof build: that
moved only the ``keccak_blocks`` of ``router_withdraw``,
``router_revert_mark`` and ``total``, by 2 per proof built. The second
time, the config lost its revert cool-down and revert fee fields and the
oracle's censored-dApp flag: that moved only the digests, since every
header embeds the config; no op count, verdict or sweep row changed. The
third time, the seeded RNG moved from keccak256 to uncharged blake2b:
every key, note and payload changed, so every digest moved; the
``keccak_blocks`` of each call that drew (``router_deposit``,
``forged_settlement_attempt``) and of ``total`` dropped; and the
seed-chosen interleavings (``double_spend/1``, ``withdraw_revert_race/0``
and ``/2``) changed their per-op counts and verdict details. Every
verdict still passed and no sweep row changed. The builtin pins alone were
regenerated a fourth time, when the source Router began to refuse a revert
without the destination's mark (``NotMarked``): ``settle_then_revert``
swapped its watcher pass and check for ``go_offline`` and
``no_revert_pending``, and ``withdraw_revert_race/1``'s digest moved; no
total op count changed. Both were regenerated a fifth time, when the
revert proof made the TPC public and the destination Router stopped
re-folding the Merkle path in ``router_revert_mark_destination``: only
``router_revert_mark``'s ``permutations`` and ``total``'s
``permutations`` moved, each down by the depth (16) for every mark that
reaches the TPC check -- 28 figures in ``custody_total_outage/0-2``,
``oracle_censorship/0-2``, ``withdraw_revert_race/0`` and ``/2``,
``all_actions.json/0-2`` and ``revert_after_censorship.json/0-2``. No
digest, verdict, sweep row or other count moved. Both were regenerated a
sixth time, when each contract call came to take one ``Simulation`` path
and leave one record shape: the oracle's forged settlement became the
``forge_settlement`` action, set-up registers through ``register_dapp``,
which logs its ``caller``, and the grafted withdraw logs ``deposit`` and
``via_oracle``. Only 9 digests moved: ``dapp_hash_squat/0-2`` and
``wrong_dapp_call/0-2``, whose call records gained those fields, and
``all_actions.json/0-2``, whose header embeds a script that names the new
action. No op count, verdict or sweep row moved. Both were regenerated a
seventh time, when the transcript came to log what the chains emit: after
each call, ``Simulation._call`` logs one ``event`` record per new chain
event (its payload as 64-character hex words), the Mixer publishes each
stored signature as a ``signature_stored`` event, the five hand-kept
event records went, and the oracle's relay decisions, a censored routed
withdraw and the watcher's halt reason became ``action`` records. 45 of
the 48 digests moved; ``dapp_hash_squat/0-2``, which emit no event, kept
theirs. No op count, verdict or sweep row moved. The builtin pins alone
were regenerated an eighth time, when ``withdraw_grafted`` came to build
its honest proof inside its ``router_withdraw`` call instead of beside
it: 12 figures moved, all in ``wrong_dapp_call/0-2``'s
``per_op.router_withdraw``, where ``permutations`` went 20 -> 40,
``keccak_blocks`` 2 -> 4, ``sig_verifies`` 1 -> 2 and
``constraint_evals`` 19 -> 38. No digest, ``total``, verdict or sweep row
moved. Both were regenerated a ninth time, when each withdraw outcome
came to take one path: a routed withdraw the oracle network refuses is a
failed ``router_withdraw`` call with ``Censored`` (no ``withdraw_censored``
action follows it), and the ``replay`` oracle submits each deposit event
twice through the relay's one dedupe, its second a ``relay_rejected``
action (no ``replay_accepted``/``replay_rejected``). Exactly 9 digests
moved: ``oracle_censorship/0-2`` and ``oracle_replay/0-2`` in
``builtin_pins.json``, and ``revert_after_censorship.json/0-2``, whose
script gained ``"expect": "Censored"``, in ``script_pins.json``. The
grafted withdraw became ``withdraw(graft_key=...)`` with
``wrong_dapp_call/0-2`` byte-identical. No op count, verdict or sweep row
moved. Both were regenerated a tenth time, when the destination Router's
``revert_marked`` event came to publish nullifier hash || commitment
(64 bytes, was the nullifier hash alone) and the source Router came to
open a revert window only over that published event, no longer reading
the destination Router's ``nullifier_reverted``. Exactly the 14 digests of
the runs that mark moved: ``custody_total_outage/0-2``,
``oracle_censorship/0-2``, ``withdraw_revert_race/0`` and ``/2``,
``all_actions.json/0-2`` and ``revert_after_censorship.json/0-2``. No op
count, verdict or sweep row moved. A host-side optimisation or a refactor
must leave every figure unchanged. The fixtures are regenerated only by hand, after
a deliberate protocol change:

    PYTHONPATH=src:tests python -c "import json, test_pins; \\
        print(json.dumps(test_pins.compute_pins(), indent=1, sort_keys=True))" \\
        > tests/fixtures/builtin_pins.json
    PYTHONPATH=src:tests python -c "import json, test_pins; \\
        print(json.dumps(test_pins.compute_script_pins(), indent=1, sort_keys=True))" \\
        > tests/fixtures/script_pins.json
"""

import json
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
