"""Property: a config one field away from a working one runs or is refused
with ``ConfigInvalid``; it never crashes the run with another exception."""

import contextlib
import copy
import json
from dataclasses import fields
from pathlib import Path

from hypothesis import given, settings, strategies as st

from anonbridge.errors import ConfigInvalid
from anonbridge.harness import BUILTINS, ScenarioConfig, builtin_config, run_scenario
from anonbridge.harness.config import ACTION_FIELDS, DAPP_FIELDS, ORACLE_FIELDS

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# every builtin's config and every scenario file, as plain JSON data
BASES = ([json.loads(builtin_config(name).to_json()) for name in sorted(BUILTINS)]
         + [json.loads(path.read_text()) for path in sorted(SCENARIOS.glob("*.json"))])

TOP_FIELDS = sorted(f.name for f in fields(ScenarioConfig))
SECTION_FIELDS = {"dapp": sorted(DAPP_FIELDS), "oracle": sorted(ORACLE_FIELDS)}

# known chain ids (1001-1003), unknown ones, and values of every JSON kind
POOL = [None, True, False, 0, -1, 2**256, 1001, 1002, 1003, 1005, 9999,
        "", "d0", "alice", "oracle", "zz", [], [1001], ["alice"], [1001, 1003],
        {}, {"mode": "replay"}, 1.5]


@st.composite
def mutated_configs(draw) -> dict:
    """A base config with one top-level, script-action or dapp/oracle
    field set to a value from ``POOL``."""
    data = copy.deepcopy(draw(st.sampled_from(BASES)))
    value = draw(st.sampled_from(POOL))
    places = ["top", "section"] + (["action"] if data.get("script") else [])
    place = draw(st.sampled_from(places))
    if place == "top":
        data[draw(st.sampled_from(TOP_FIELDS))] = value
    elif place == "section":
        section = draw(st.sampled_from(sorted(SECTION_FIELDS)))
        data[section] = dict(data.get(section) or {})
        data[section][draw(st.sampled_from(SECTION_FIELDS[section]))] = value
    else:
        action = draw(st.sampled_from(data["script"]))
        names = sorted(set(ACTION_FIELDS[action["op"]]) | {"op", "expect"})
        action[draw(st.sampled_from(names))] = value
    return data


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mutated_configs())
def test_a_one_field_mutation_runs_or_is_config_invalid(data):
    with contextlib.suppress(ConfigInvalid):
        run_scenario(ScenarioConfig.from_dict(data))
