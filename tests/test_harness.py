"""Scenario runner, config validation, transcripts, linkability, CLI."""

import ast
import dataclasses
import hashlib
import inspect
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import anonbridge.harness
from anonbridge import actors, hashing, keccak, ops
from anonbridge.chain import mixer_submit, unwords
from anonbridge.circuit import SETTLEMENT, SettlementWitness
from anonbridge.errors import ConfigInvalid, ConstraintViolation
from anonbridge.field import P
from anonbridge.harness import (
    ATTACK_MATRIX,
    BUILTINS,
    ScenarioConfig,
    Transcript,
    analyze_linkability,
    builtin_config,
    run_scenario,
    sweep_depths,
)
from anonbridge.harness import linkability, scenarios, simulation
from anonbridge.harness.cli import main
from anonbridge.harness.config import ACTION_FIELDS, DAPP_FIELDS, ORACLE_FIELDS
from anonbridge.harness.linkability import oracle_view, source_view
from anonbridge.harness.scenarios import standard_verdicts
from anonbridge.harness.simulation import Simulation, UnexpectedOutcome
from anonbridge.harness.transcript import RECORD_ENCODER
from anonbridge.merkle import MAX_DEPTH, MerklePath, zero_node


def script_config(script, seed=1, **over):
    return ScenarioConfig(seed=seed, name="scripted", script=script, **over)


SCENARIO_FILES = sorted(
    (Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))


@pytest.mark.parametrize("package", [anonbridge.harness])
def test_every_export_resolves(package):
    # a deletion that leaves its name in ``__all__`` fails here, not on
    # a user's ``from anonbridge.harness import *``
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert not missing, missing


# a transcript written before two config fields were removed: replaying it
# must name them
OLD_TRANSCRIPT = (Path(__file__).parent / "fixtures"
                  / "transcript_with_removed_fields.jsonl").read_text()
REMOVED_FIELDS = sorted(
    set(json.loads(json.loads(OLD_TRANSCRIPT.splitlines()[0])["config"]))
    - {f.name for f in dataclasses.fields(ScenarioConfig)})

HAPPY_SCRIPT = [
    {"op": "deposit", "wallet": "alice", "source": 1001, "dest": 1003, "label": "d0"},
    {"op": "relay"},
    {"op": "sign"},
    {"op": "push_root"},
    {"op": "withdraw", "deposit": "d0"},
]


class TestConfig:
    def test_vocabulary_is_closed(self):
        assert set(ACTION_FIELDS) == {
            "deposit", "sign", "relay", "push_root", "withdraw", "forge_settlement",
            "revert_mark", "revert_init", "halt", "execute", "advance", "go_offline",
        }

    def test_json_round_trip(self):
        cfg = script_config(HAPPY_SCRIPT)
        again = ScenarioConfig.from_json(cfg.to_json())
        assert again == cfg

    @pytest.mark.parametrize("mutation,field", [
        ({"chains": [1001, 1001, 1002], "multiplexer": 1002}, "duplicate"),
        ({"chains": [5, 1002, 1003]}, "tier"),
        ({"multiplexer": 1009}, "multiplexer"),
        ({"merkle_depth": 0}, "depth"),
        ({"merkle_depth": 33}, "depth"),
        ({"script": [{"op": "steal"}]}, "vocabulary"),
        ({"script": None}, "exactly one"),
        ({"script": HAPPY_SCRIPT, "builtin": "double_spend"}, "exactly one"),
    ])
    def test_invalid_configs(self, mutation, field):
        params = dict(script=HAPPY_SCRIPT)
        params.update(mutation)
        with pytest.raises(ConfigInvalid):
            ScenarioConfig(seed=1, **params).validate()

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigInvalid):
            ScenarioConfig.from_dict({"seed": 1, "script": [], "bogus": 1})

    def test_config_fields_are_exactly_these(self):
        """Every scenario knob is listed here: a new one comes with an edit
        of this test."""
        assert [f.name for f in dataclasses.fields(ScenarioConfig)] == [
            "seed", "name", "chains", "multiplexer", "merkle_depth", "window",
            "wallets", "oracle", "dapp", "script", "builtin"]
        assert list(ORACLE_FIELDS) == ["mode", "censor_chain"]
        assert list(DAPP_FIELDS) == [
            "max_reverts_per_period", "period_blocks", "max_value_per_revert"]

    def test_builtin_configs_own_their_lists(self):
        a, b = builtin_config("double_spend"), builtin_config("oracle_replay")
        assert a.chains is not b.chains
        assert a.wallets is not b.wallets
        assert b.oracle is not builtin_config("oracle_replay").oracle

    def test_unknown_builtin_rejected(self):
        with pytest.raises(ConfigInvalid):
            builtin_config("nonexistent")

    @pytest.mark.parametrize("override,message", [
        ({"chains": 5}, "field 'chains' must be list, got 5"),
        ({"wallets": 7}, "field 'wallets' must be list, got 7"),
    ], ids=["chains_not_a_list", "wallets_not_a_list"])
    def test_malformed_builtin_config_is_config_invalid(self, override, message):
        """``run_scenario`` validates a builtin's config before it checks
        what the driver needs, so a mistyped field is not a TypeError."""
        config = builtin_config("settlement_happy_path", **override)
        with pytest.raises(ConfigInvalid) as info:
            run_scenario(config)
        assert str(info.value) == message

    @pytest.mark.parametrize("oracle", [{"bogus": 1}, {"relay_period": 3},
                                        {"forged_root": 5}])
    def test_unknown_oracle_fields_rejected(self, oracle):
        with pytest.raises(ConfigInvalid, match="unknown oracle config fields"):
            Simulation(script_config([], oracle=oracle))

    @pytest.mark.parametrize("dapp,field", [
        ({"max_reverts_per_period": "1"}, "dapp.max_reverts_per_period"),
        ({"max_value_per_revert": True}, "dapp.max_value_per_revert"),
        ({"k": 1}, "unknown dapp config fields"),
        ({"period_blocks": 1.5}, "dapp.period_blocks"),
        ({"bogus": 1}, "unknown dapp config fields"),
    ])
    def test_dapp_fields_checked(self, dapp, field):
        with pytest.raises(ConfigInvalid, match=field):
            script_config([], dapp=dapp).validate()

    @pytest.mark.parametrize("mutation,message", [
        ({"script": [dict(HAPPY_SCRIPT[0], wallet="mallory")]},
         "action 0 (deposit): field 'wallet' names unknown 'mallory'"),
        ({"script": HAPPY_SCRIPT[:4] + [{"op": "withdraw", "deposit": "d9"}]},
         "action 4 (withdraw): field 'deposit' names no deposit made so far: 'd9'"),
        ({"script": [{"op": "deposit", "wallet": "alice", "dest": 1003}]},
         "action 0 (deposit): missing field 'source'"),
        ({"seed": "seven"}, "field 'seed' must be int, got 'seven'"),
        ({"script": [{"op": "advance", "blocks": "ten"}]},
         "action 0 (advance): field 'blocks' must be int, got 'ten'"),
        ({"script": [{"op": "relay", "chian": 1001}]},
         "action 0 (relay): unknown field 'chian'"),
        ({"script": [{"op": "advance", "blocks": 0}]},
         "action 0 (advance): field 'blocks' must be at least 1, got 0"),
        ({"script": [{"op": "advance", "blocks": -3}]},
         "action 0 (advance): field 'blocks' must be at least 1, got -3"),
        ({"dapp": {"period_blocks": "x"}},
         "field 'dapp.period_blocks' must be int, got 'x'"),
        ({"dapp": {"max_reverts_per_period": True}},
         "field 'dapp.max_reverts_per_period' must be int, got True"),
        ({"merkle_depth": True}, "field 'merkle_depth' must be int, got True"),
        ({"oracle": {"mode": "honset"}},
         "field 'oracle.mode' must be one of honest, forge_root, censor_dapp, "
         "censor_chain, replay, got 'honset'"),
        ({"script": HAPPY_SCRIPT[:4] + [
            {"op": "withdraw", "deposit": "d0", "reuse_proof": True}]},
         "action 4 (withdraw): deposit 'd0' has no settlement proof to reuse; "
         "withdraw it first"),
        ({"script": [HAPPY_SCRIPT[0], HAPPY_SCRIPT[0]]},
         "action 1 (deposit): label 'd0' is already taken"),
        ({"script": [dict(HAPPY_SCRIPT[0], label="d1"),
                     dict(HAPPY_SCRIPT[0], label=None)]},
         "action 1 (deposit): label 'd1' is already taken"),
        ({"script": [dict(HAPPY_SCRIPT[0], label=None, expect="InvalidValue",
                          value=-1),
                     HAPPY_SCRIPT[0]]},
         "action 1 (deposit): label 'd0' is already taken"),
        ({"script": [dict(HAPPY_SCRIPT[0], dest=1005)]},
         "action 0 (deposit): field 'dest' names unknown 1005"),
        ({"script": HAPPY_SCRIPT[:4] + [dict(HAPPY_SCRIPT[4], actor="wallet")]},
         "action 4 (withdraw): unknown field 'actor'"),
        ({"window": 0}, "field 'window' must be at least 1, got 0"),
        ({"chains": [1002], "script": []},
         "field 'chains' must list at least two chains, got [1002]"),
        ({"oracle": {"mode": "censor_chain", "censor_chain": 1005}},
         "field 'oracle.censor_chain' names unknown 1005"),
        ({"oracle": {"mode": "censor_chain"}},
         "field 'oracle.censor_chain' names unknown 0"),
        ({"oracle": {"mode": "censor_dapp", "censor_dapp": True}},
         "unknown oracle config fields: ['censor_dapp']"),
        ({"dapp": {"scheme": "single"}}, "unknown dapp config fields: ['scheme']"),
        ({"wallets": [[1]], "script": []},
         "field 'wallets' must list strings, got [[1]]"),
        ({"wallets": ["alice", "alice"]},
         "duplicate wallet names in ['alice', 'alice']"),
        ({"script": [dict(HAPPY_SCRIPT[0], payload="zz")]},
         "action 0 (deposit): field 'payload' is not hex"),
        ({"script": HAPPY_SCRIPT[:2] + [
            {"op": "forge_settlement", "chain": 1005}]},
         "action 2 (forge_settlement): unknown field 'chain'"),
        ({"script": [dict(HAPPY_SCRIPT[0], source=1005)]},
         "action 0 (deposit): field 'source' names unknown 1005"),
        ({"script": HAPPY_SCRIPT[:1] + [
            {"op": "revert_mark", "deposit": "d0", "chain": 1005}]},
         "action 1 (revert_mark): field 'chain' names unknown 1005"),
        ({"script": HAPPY_SCRIPT[:1] + [
            {"op": "revert_init", "deposit": "d0", "chain": 1005}]},
         "action 1 (revert_init): field 'chain' names unknown 1005"),
        ({"script": [{"op": "advance", "chain": 1005}]},
         "action 0 (advance): field 'chain' names unknown 1005"),
        ({"script": [{"op": "go_offline", "actor": "mallory"}]},
         "action 0 (go_offline): field 'actor' names unknown 'mallory'"),
        ({"script": HAPPY_SCRIPT[:1] + [{"op": "execute", "deposit": "d0"}]},
         "action 1 (execute): deposit 'd0' has no revert proof; "
         "revert_mark or revert_init it first"),
        ({"script": HAPPY_SCRIPT[:4] + [
            {"op": "forge_settlement", "deposit": "d0", "reuse_proof": True}]},
         "action 4 (forge_settlement): unknown field 'deposit'"),
        ({"dapp": {"period_blocks": -5, "max_reverts_per_period": -1}},
         "field 'dapp.period_blocks' must be at least 1, got -5"),
        ({"dapp": {"period_blocks": 0}},
         "field 'dapp.period_blocks' must be at least 1, got 0"),
        ({"dapp": {"max_reverts_per_period": -1}},
         "field 'dapp.max_reverts_per_period' must be at least 0, got -1"),
        ({"dapp": {"max_value_per_revert": -1}},
         "field 'dapp.max_value_per_revert' must be at least 0, got -1"),
        ({"oracle": {"mode": "honest", "censor_chain": 1001}},
         "field 'oracle.censor_chain' is read only in mode 'censor_chain', "
         "got mode 'honest'"),
        ({"oracle": {"censor_chain": 1001}},
         "field 'oracle.censor_chain' is read only in mode 'censor_chain', "
         "got mode 'honest'"),
        ({"chains": [1001, "x"]},
         "field 'chains' must list integers, got [1001, 'x']"),
    ], ids=["unknown_wallet", "undefined_label", "missing_field", "string_seed",
            "mistyped_field", "unknown_field", "zero_blocks", "negative_blocks",
            "mistyped_dapp_field", "boolean_dapp_count", "boolean_depth",
            "unknown_oracle_mode", "reuse_proof_before_any_proof",
            "duplicate_label", "label_taken_by_default_name",
            "label_of_failed_deposit", "unknown_dest", "unknown_withdraw_actor",
            "zero_window", "one_chain", "unknown_censored_chain",
            "censor_chain_left_out", "censor_dapp_flag", "threshold_scheme",
            "unhashable_wallet", "duplicate_wallet", "non_hex_payload",
            "oracle_withdraw_unknown_chain", "unknown_source",
            "revert_mark_unknown_chain", "revert_init_unknown_chain",
            "advance_unknown_chain", "unknown_offline_actor",
            "execute_before_any_revert_proof", "oracle_withdraw_given_a_deposit",
            "negative_period", "zero_period", "negative_rate_limit",
            "negative_value_limit", "censor_chain_under_honest",
            "censor_chain_without_mode", "non_integer_chain"])
    def test_malformed_input_is_config_invalid(self, tmp_path, capsys,
                                               mutation, message):
        data = {"seed": 1, "name": "malformed", "script": HAPPY_SCRIPT}
        data.update(mutation)
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(data))
        assert main(["run", str(scenario)]) == 2
        assert capsys.readouterr().err == f"error: ConfigInvalid: {message}\n"


class TestScriptInterpreter:
    @pytest.mark.parametrize("op", sorted(ACTION_FIELDS))
    def test_every_action_is_a_simulation_method(self, op):
        """An action's fields are read from its method's signature, so each
        must be typed as a JSON value a script can give (an unannotated
        parameter would refuse every value as "must be _empty"), and the
        method must take ``expect=None`` (without it a script's ``expect``
        would crash with TypeError, not ConfigInvalid)."""
        params = inspect.signature(getattr(Simulation, op)).parameters
        assert "expect" in params and params["expect"].default is None
        assert set(ACTION_FIELDS[op].values()) <= {str, int, bool}

    def test_all_actions_script_uses_every_action_and_field(self):
        """``scenarios/all_actions.json`` uses every action and every field,
        so a new action or parameter comes with a use there."""
        path = next(p for p in SCENARIO_FILES if p.name == "all_actions.json")
        script = json.loads(path.read_text())["script"]
        used = {(action["op"], name) for action in script for name in action}
        assert {action["op"] for action in script} == set(ACTION_FIELDS)
        assert {(op, name) for op, names in ACTION_FIELDS.items() for name in names} <= used

    def test_null_field_means_default(self):
        """A null field runs as if it were left out; only the header, which
        embeds the config as written, tells the two transcripts apart."""
        nulls = {"payload": None, "version": None, "value": None}
        script = [dict(HAPPY_SCRIPT[0], **nulls)] + HAPPY_SCRIPT[1:] + [
            {"op": "withdraw", "deposit": "d0", "chain": None,
             "claim_dest": None, "via_oracle": None, "tamper_payload": None,
             "reuse_proof": True, "expect": "DoubleSpend"},
            {"op": "advance", "blocks": None, "chain": None, "expect": None},
        ]
        omitted = [{k: v for k, v in a.items() if v is not None} for a in script]
        with_nulls = run_scenario(script_config(script))
        without = run_scenario(script_config(omitted))
        assert with_nulls.passed and without.passed
        assert with_nulls.metrics == without.metrics
        assert with_nulls.transcript.records[1:] == without.transcript.records[1:]

    def test_happy_script_delivers(self):
        result = run_scenario(script_config(HAPPY_SCRIPT))
        assert result.passed
        assert result.sim.settled("d0")

    def test_settled_is_per_deposit_not_per_payload(self):
        """Two deposits with one payload: only the withdrawn one settled."""
        same = {"op": "deposit", "wallet": "alice", "source": 1001, "dest": 1003,
                "payload": "ab" * 32}
        script = [dict(same, label="a"), dict(same, label="b"), {"op": "relay"},
                  {"op": "sign"}, {"op": "push_root"},
                  {"op": "withdraw", "deposit": "a"}]
        result = run_scenario(script_config(script))
        assert result.passed
        assert result.sim.settled("a")
        assert not result.sim.settled("b")

    def test_same_chain_deposit_is_refused(self):
        """A message goes to another chain: a deposit whose destination is
        its source takes its label, escrows nothing and emits nothing."""
        same = {"op": "deposit", "wallet": "alice", "source": 1001, "dest": 1001}
        result = run_scenario(script_config([dict(same, expect="WrongChain")]))
        assert result.passed, [v for v in result.verdicts if not v.passed]
        sim = result.sim
        assert sim.next_label() == "d1" and not sim.deposits
        assert sim.wallets["alice"].balance == 100
        assert sim.dapp.contracts[1001].escrow == {}
        assert not [ev for chain in sim.chains.values() for ev in chain.event_log
                    if ev.kind == "deposit"]
        # unexpected, the refusal ends the run with a verdict, not a traceback
        result = run_scenario(script_config([same]))
        failed = [v for v in result.verdicts if not v.passed]
        assert [v.name for v in failed] == ["scenario_completed"]
        assert failed[0].detail.startswith("WrongChain:")

    def test_expect_mismatch_fails_the_run(self):
        script = HAPPY_SCRIPT[:-1] + [
            {"op": "withdraw", "deposit": "d0", "expect": "DoubleSpend"},
        ]
        result = run_scenario(script_config(script))
        failed = [v for v in result.verdicts if not v.passed]
        assert failed and failed[0].name == "scenario_completed"

    def test_expect_satisfied_keeps_running(self):
        script = HAPPY_SCRIPT + [
            {"op": "withdraw", "deposit": "d0", "reuse_proof": True,
             "expect": "DoubleSpend"},
        ]
        assert run_scenario(script_config(script)).passed

    def test_each_action_is_judged_when_it_runs(self):
        """A malformed action after an unexpected failure is never reached:
        the run fails its verdict and raises nothing."""
        script = [HAPPY_SCRIPT[0], {"op": "withdraw", "deposit": "d0"},
                  {"op": "advance", "blocks": 0}]
        result = run_scenario(script_config(script))
        failed = [v for v in result.verdicts if not v.passed]
        assert [v.name for v in failed] == ["scenario_completed"]
        assert failed[0].detail.startswith("UnknownCommitment:")

    def test_unexpected_error_is_a_failed_verdict_not_a_crash(self):
        script = [{"op": "withdraw", "deposit": "missing"}]
        with pytest.raises(ConfigInvalid):
            # unknown label is a harness-usage bug, not a protocol outcome
            run_scenario(script_config(script))
        script = [
            {"op": "deposit", "wallet": "alice", "source": 1001, "dest": 1003,
             "label": "d0"},
            {"op": "withdraw", "deposit": "d0"},  # no relay: UnknownCommitment
        ]
        result = run_scenario(script_config(script))
        assert not result.passed


class TestDepositValue:
    @pytest.mark.parametrize("value", [-1, 101])
    def test_value_outside_balance_is_rejected(self, value):
        script = [dict(HAPPY_SCRIPT[0], value=value, expect="InvalidValue")]
        result = run_scenario(script_config(script))
        assert result.passed, [v for v in result.verdicts if not v.passed]
        sim = result.sim
        assert sim.wallets["alice"].balance == 100
        assert sim.dapp.contracts[1001].escrow == {}
        assert not [ev for ev in sim.chains[1001].event_log if ev.kind == "deposit"]

    @pytest.mark.parametrize("value", [0, 100])
    def test_value_within_balance_is_accepted(self, value):
        script = [dict(HAPPY_SCRIPT[0], value=value)] + HAPPY_SCRIPT[1:]
        result = run_scenario(script_config(script))
        assert result.passed, [v for v in result.verdicts if not v.passed]
        assert result.sim.wallets["alice"].balance == 100 - value
        assert result.sim.settled("d0")


class TestReplayDeterminism:
    @pytest.mark.parametrize("name", ["settlement_happy_path", "withdraw_revert_race",
                                      "oracle_censorship"])
    def test_same_seed_identical_transcripts(self, name):
        a = run_scenario(builtin_config(name, seed=11))
        b = run_scenario(builtin_config(name, seed=11))
        assert a.transcript.to_jsonl() == b.transcript.to_jsonl()
        assert a.transcript.digest() == b.transcript.digest()

    def test_different_seeds_diverge(self):
        a = run_scenario(builtin_config("settlement_happy_path", seed=1))
        b = run_scenario(builtin_config("settlement_happy_path", seed=2))
        assert a.transcript.digest() != b.transcript.digest()

    def test_metrics_deterministic(self):
        a = run_scenario(builtin_config("double_spend", seed=4)).metrics
        b = run_scenario(builtin_config("double_spend", seed=4)).metrics
        assert a == b
        assert all(v >= 0 for v in a["total"].values())


class TestOpCounter:
    def test_simulations_count_independently(self):
        a = Simulation(script_config([]))
        a.deposit("alice", 1001, 1003)
        a.relay()
        a.sign()
        before = a.metrics_report()
        Simulation(script_config([], seed=2)).deposit("alice", 1001, 1003)
        sweep_depths([4])
        assert a.metrics_report() == before
        assert before["total"]["permutations"] > 0

    def test_innermost_block_is_charged(self):
        ops.charge("permutations")  # outside every block: goes nowhere
        with ops.counting() as outer:
            ops.charge("permutations")
            with ops.counting() as inner:
                ops.charge("keccak_blocks", 3)
            ops.charge("sig_verifies")
        assert outer.as_dict() == {"permutations": 1, "keccak_blocks": 0,
                                   "sig_verifies": 1, "constraint_evals": 0,
                                   "proof_verifies": 0}
        assert inner.keccak_blocks == 3 and inner.permutations == 0

    def test_misspelled_kind_is_refused_and_charges_nothing(self):
        with ops.counting() as c:
            with pytest.raises(AttributeError, match="'OpCounts' object has no "
                                                     "attribute 'permutation'"):
                ops.charge("permutation")
        assert c == ops.OpCounts()

    @staticmethod
    def _assert_total_is_set_up_plus_calls(result):
        """``total`` is the sum over operations plus the set-up charge: the
        Mixer tree's ``merkle_depth`` zero-node permutations, nothing else."""
        per_op = result.metrics["per_op"].values()
        outside = {kind: spent - sum(counts[kind] for counts in per_op)
                   for kind, spent in result.metrics["total"].items()}
        assert outside == {**ops.OpCounts().as_dict(),
                           "permutations": result.config.merkle_depth}

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_builtin_total_is_set_up_plus_calls(self, name, seed):
        self._assert_total_is_set_up_plus_calls(
            run_scenario(builtin_config(name, seed=seed)))

    @pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: p.name)
    def test_script_total_is_set_up_plus_calls(self, path):
        self._assert_total_is_set_up_plus_calls(
            run_scenario(ScenarioConfig.from_json(path.read_text())))

    def test_only_set_up_and_calls_enter_the_counter_and_table(self):
        """``Simulation`` enters ``ops.counting`` and ``ops.hash_table`` in
        ``__init__`` and ``_call`` alone: no action spends outside a call."""
        tree = ast.parse(Path(simulation.__file__).read_text())

        def entries(node) -> list:
            return sorted(n.lineno for n in ast.walk(node)
                          if isinstance(n, ast.Attribute)
                          and isinstance(n.value, ast.Name) and n.value.id == "ops"
                          and n.attr in ("counting", "hash_table"))

        cls = next(n for n in tree.body
                   if isinstance(n, ast.ClassDef) and n.name == "Simulation")
        allowed = sorted(line for f in cls.body if isinstance(f, ast.FunctionDef)
                         and f.name in ("__init__", "_call") for line in entries(f))
        assert allowed and entries(tree) == allowed


def _run_state(name: str) -> tuple:
    result = run_scenario(builtin_config(name, seed=1))
    sim = result.sim
    return (sim.ops, result.metrics, sim.hash_table, result.transcript.digest(),
            [(v.name, v.passed, v.detail) for v in result.verdicts])


class TestZeroNodeCache:
    """A run that derives the zero nodes and one that finds them derived
    charge, hash and log the same."""

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_cold_and_warm_runs_are_identical(self, name):
        zero_node.cache_clear()
        cold = _run_state(name)
        assert cold == _run_state(name)

    def test_forged_tree_leaves_no_zero_pair_in_the_table(self):
        # the oracle builds its forged tree inside a contract call
        zero_node.cache_clear()
        sim = run_scenario(builtin_config("oracle_forged_root", seed=1)).sim
        depth = sim.config.merkle_depth
        assert sim.oracle.forged_root
        pairs = {(zero_node(level), zero_node(level)) for level in range(depth)}
        assert not pairs & sim.hash_table.keys()

    def test_sweep_rows_cold_and_warm(self):
        zero_node.cache_clear()
        cold = sweep_depths([4, 8, 16])
        assert cold == sweep_depths([4, 8, 16])
        assert [row["setup_permutations"] for row in cold] == [4, 8, 16]


def _settled(seed=0, depth=16):
    """A simulation that has settled one deposit, and its label."""
    sim = Simulation(script_config([], seed=seed, merkle_depth=depth))
    label = sim.deposit("alice", 1001, 1003)
    sim.relay()
    sim.sign()
    sim.push_root()
    sim.withdraw(label)
    return sim, label


class TestPermutationTable:
    def test_table_hits_are_charged(self):
        # the withdraw's path hashes were all computed by the relay's insert
        result = run_scenario(builtin_config("settlement_happy_path", seed=0))
        depth = result.sim.config.merkle_depth
        assert depth == 16
        per_op = result.metrics["per_op"]
        assert per_op["router_withdraw"]["permutations"] == depth + 4
        assert per_op["oracle_relay"]["permutations"] == depth

    def test_withdraw_reuses_the_relay_hashes(self):
        sim = Simulation(script_config([], seed=0, merkle_depth=16))
        label = sim.deposit("alice", 1001, 1003)
        sim.relay()
        sim.sign()
        sim.push_root()
        before = _permutation_keys(sim.hash_table)
        sim.withdraw(label)
        # only the nullifier hash is new; the commitment and the path are hits
        assert _permutation_keys(sim.hash_table) - before == 1
        assert sim.metrics["router_withdraw"].permutations == 16 + 4

    @pytest.mark.parametrize("depth", [16, 20])
    def test_revert_mark_charges_its_proof_and_no_second_path(self, depth):
        # the built proof's commit, nullifier hash and path; the Router
        # compares TPCs and re-folds no path
        sim = Simulation(script_config([], seed=0, merkle_depth=depth))
        label = sim.deposit("alice", 1001, 1003)
        sim.relay()
        sim.push_root()
        sim.revert_mark(label)
        mark = sim.metrics["router_revert_mark"]
        assert (mark.permutations, mark.constraint_evals) == (depth + 4, depth + 2)
        assert sim.chains[1003].router.nullifier_reverted

    @pytest.mark.parametrize("depth", [8, 16])
    def test_forged_settlement_forges_once(self, depth):
        # the first attempt commits (2), inserts (d), takes the path (d),
        # hashes the nullifier (1) and proves (d + 3); every later one only
        # proves, against the root the first forged
        sim = Simulation(script_config([], seed=0, merkle_depth=depth,
                                       oracle={"mode": "forge_root"}))
        expected = {"permutations": 3 * depth + 6, "constraint_evals": depth + 3,
                    "sig_verifies": 1, "keccak_blocks": 0}
        for _ in range(3):
            before = sim.metrics.get("forged_settlement_attempt", ops.OpCounts()).as_dict()
            sim.forge_settlement(expect="ConstraintViolation:signature")
            after = sim.metrics["forged_settlement_attempt"].as_dict()
            assert {kind: after[kind] - before[kind] for kind in expected} == expected
            expected["permutations"] = depth + 3

    def test_forged_settlement_after_push_root_proves_against_the_pushed_root(self):
        sim = Simulation(script_config([], seed=0, merkle_depth=16,
                                       oracle={"mode": "forge_root"}))
        sim.deposit("alice", 1001, 1003)
        sim.relay()
        sim.sign()
        sim.forge_settlement(expect="ConstraintViolation:signature")
        sim.push_root()
        entries = len(sim.hash_table)
        permutations = sim.metrics["forged_settlement_attempt"].permutations
        sim.forge_settlement(expect="ConstraintViolation:signature")
        assert len(sim.hash_table) == entries
        assert sim.metrics["forged_settlement_attempt"].permutations - permutations == 19
        assert all(sim.oracle.forged_root in c.router.known_roots
                   for c in sim.chains.values())

    def test_tampered_witness_fails_with_warm_table(self):
        sim, label = _settled()
        rec = sim.deposits[label]
        note = rec.note
        public = rec.settlement.public
        tree = sim.mixer_chain.mixer.tree
        index = sim.mixer_chain.mixer.commitments[rec.commitment]
        path = tree.path(index)
        witness = SettlementWitness(note.nullifier, note.secret, path, rec.source,
                                    sim.mixer_chain.mixer.leaf_signatures[index])
        elements = list(path.elements)
        elements[3] = (elements[3] + 1) % P
        bad_path = replace(witness, path=MerklePath(elements, path.index))
        bad_nullifier = replace(witness, nullifier=note.nullifier + 1)
        with ops.hash_table(sim.hash_table):
            sim.proofs.prove(SETTLEMENT, witness, public)
            with pytest.raises(ConstraintViolation) as exc:
                sim.proofs.prove(SETTLEMENT, bad_path, public)
            assert exc.value.constraint == "merkle_path"
            with pytest.raises(ConstraintViolation) as exc:
                sim.proofs.prove(SETTLEMENT, bad_nullifier, public)
            assert exc.value.constraint == "nullifier_hash"

    def test_tables_are_per_simulation_and_per_call(self):
        a, _ = _settled(seed=1)
        b, _ = _settled(seed=2)
        assert a.hash_table is not b.hash_table
        assert a.hash_table and b.hash_table
        assert a.hash_table.keys().isdisjoint(b.hash_table)
        # after a call returns, no table is active
        hashing.permute(7, 11)
        keccak.keccak256(b"outside")
        for key in ((7, 11), b"outside"):
            assert key not in a.hash_table and key not in b.hash_table


def _permutation_keys(table: dict) -> int:
    return sum(isinstance(key, tuple) for key in table)


def _two_deposits(depth=16):
    """Two relayed, signed deposits 1001 -> 1003 under a pushed root."""
    sim = Simulation(script_config([], seed=0, merkle_depth=depth))
    labels = [sim.deposit("alice", 1001, 1003) for _ in range(2)]
    sim.relay()
    sim.sign()
    sim.push_root()
    return sim, labels


@pytest.mark.parametrize("depth", [16, 20])
def test_per_call_charges_are_closed_forms_in_the_depth(depth):
    # (permutations, keccak blocks, signature verifies, constraint
    # evaluations, proof verifies) of one call each; the pins hold depth
    # 16 alone, and the benchmark runs at 20
    sim, (settle, revert) = _two_deposits(depth)
    sim.withdraw(settle)
    sim.revert_mark(revert)
    sim.revert_init(revert)
    d = depth
    expected = {
        "router_withdraw": (d + 4, 6, 1, d + 3, 1),
        "router_revert_mark": (d + 4, 6, 0, d + 2, 1),
        "router_revert_initiate": (0, 2, 0, 0, 1),
    }
    assert {op: tuple(sim.metrics[op].as_dict().values())
            for op in expected} == expected


class TestKeccakTable:
    """The Router's recomputes of the obfuscated data and the TPC hit the
    simulation's hash table. The proof MAC is keyed BLAKE2b, not keccak:
    it stays out of the table and the verifier recomputes it."""

    def test_deposit_adds_only_its_two_hash_inputs(self):
        # the obfuscated data and the TPC input; the wallet's note draw
        # is harness randomness and stays out of the table
        sim = Simulation(script_config([], seed=0))
        before = {key for key in sim.hash_table if isinstance(key, bytes)}
        sim.deposit("alice", 1001, 1003)
        new = {key for key in sim.hash_table if isinstance(key, bytes)} - before
        assert len(new) == 2

    def test_withdraw_adds_no_keccak_input(self):
        sim, (label, _) = _two_deposits()
        before = {key for key in sim.hash_table if isinstance(key, bytes)}
        sim.withdraw(label)
        assert sim.settled(label)
        new = {key for key in sim.hash_table if isinstance(key, bytes)} - before
        assert new == set()
        assert sim.deposits[label].settlement.attestation not in sim.hash_table.values()

    def test_keccak_permutations_run_only_for_new_inputs(self, monkeypatch):
        runs = 0
        real = keccak._keccak_f

        def counted(state):
            nonlocal runs
            runs += 1
            real(state)

        monkeypatch.setattr(keccak, "_keccak_f", counted)
        sim, (settle, revert) = _two_deposits()
        # (call, its op, keccak-f runs, keccak blocks charged); without the
        # table each call runs one keccak-f per block it is charged, less
        # the proof MAC's two, which keyed BLAKE2b computes
        for call, op, n_runs, blocks in [
            (lambda: sim.withdraw(settle), "router_withdraw", 0, 6),
            (lambda: sim.revert_mark(revert), "router_revert_mark", 0, 6),
            (lambda: sim.revert_init(revert), "router_revert_initiate", 0, 2),
        ]:
            runs = 0
            call()
            assert (runs, sim.metrics[op].keccak_blocks) == (n_runs, blocks), op

    def test_tampered_payload_fails_with_warm_table(self):
        sim, (first, second) = _two_deposits()
        sim.withdraw(first)
        sim.withdraw(second, tamper_payload=True, expect="TpcMismatch")
        sim.withdraw(second)
        assert sim.settled(first) and sim.settled(second)

    def test_zeroed_attestation_fails_verify_with_warm_table(self):
        sim, label = _settled()
        proof = sim.deposits[label].settlement
        with ops.hash_table(sim.hash_table):
            assert sim.proofs.verify(SETTLEMENT, proof)  # recomputed, not looked up
            assert not sim.proofs.verify(
                SETTLEMENT, replace(proof, attestation=bytes(32)))

    def test_revert_mark_to_wrong_chain_fails_with_warm_table(self):
        sim, (first, second) = _two_deposits()
        sim.revert_mark(first)
        sim.revert_mark(second, chain=1002, expect="TpcMismatch")
        sim.revert_mark(second)


def _warm_zero_nodes():
    """Derive every zero node now: each is derived once per process, under
    no table, by whichever run first needs it."""
    for level in range(MAX_DEPTH + 1):
        zero_node(level)


@pytest.fixture
def untabled(monkeypatch):
    """Count the hash-core calls that find no active table."""
    _warm_zero_nodes()
    count = [0]
    real = ops.tabled

    def counted(key, compute, *args):
        count[0] += ops.active_table() is None
        return real(key, compute, *args)

    monkeypatch.setattr(ops, "tabled", counted)
    return count


def _computed_permutations(monkeypatch) -> list:
    """Count the ``hashing.permute`` calls the active table misses."""
    _warm_zero_nodes()
    count = [0]
    real = hashing.permute

    def counted(x_left, x_right):
        table = ops.active_table()
        count[0] += table is None or (x_left, x_right) not in table
        return real(x_left, x_right)

    monkeypatch.setattr(hashing, "permute", counted)
    return count


class TestNoUntabledHashes:
    """Every hash of a run goes through its simulation's table, which
    every call runs under, a grafted withdraw's proof build included."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_builtin(self, untabled, name, seed):
        run_scenario(builtin_config(name, seed=seed))
        assert untabled[0] == 0

    @pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: p.name)
    def test_script(self, untabled, path):
        assert len(SCENARIO_FILES) == 3
        run_scenario(ScenarioConfig.from_json(path.read_text()))
        assert untabled[0] == 0

    def test_wrong_dapp_call_proof_is_all_hits(self, monkeypatch):
        # the honest proof a graft_key withdraw builds inside its call finds
        # every hash in the table: one deposit at depth 16 computes
        # 2 + 1 + 16 permutations, nothing more
        computed = _computed_permutations(monkeypatch)
        run_scenario(builtin_config("wrong_dapp_call", seed=7))
        assert computed[0] == 19

    def test_no_table_after_a_failing_script(self):
        script = HAPPY_SCRIPT + [{"op": "withdraw", "deposit": "d0",
                                  "expect": "TpcMismatch"}]
        result = run_scenario(script_config(script))
        completed = [v for v in result.verdicts if v.name == "scenario_completed"]
        assert [v.passed for v in completed] == [False]
        assert ops.active_table() is None

    def test_no_table_after_a_config_invalid_script(self):
        script = [{"op": "withdraw", "deposit": "never_made"}]
        with pytest.raises(ConfigInvalid, match="names no deposit"):
            run_scenario(script_config(script))
        assert ops.active_table() is None


class TestSweepTable:
    @pytest.mark.parametrize("depth", [4, 8, 16])
    def test_measure_depth_computes_each_hash_once(self, monkeypatch, depth):
        # commitment 2, nullifier hash 1, insert fold d; the proof's
        # recomputes of all three are hits, still charged
        computed = _computed_permutations(monkeypatch)
        row = sweep_depths([depth])[0]
        assert computed[0] == depth + 3
        assert row["prove_permutations"] == depth + 3
        assert ops.active_table() is None


class TestProofMissing:
    """Reusing or executing a proof that was never built is refused before
    the call, as a script and a direct caller alike meet it."""

    def test_withdraw_reusing_a_missing_settlement_proof(self):
        sim, (label, _) = _two_deposits()
        before = _state(sim)
        with pytest.raises(ConfigInvalid) as info:
            sim.withdraw(label, reuse_proof=True)
        assert str(info.value) == (f"deposit {label!r} has no settlement proof "
                                   f"to reuse; withdraw it first")
        assert _state(sim) == before
        sim.withdraw(label)
        assert sim.settled(label)

    def test_execute_without_a_revert_proof(self):
        sim, (label, _) = _two_deposits()
        before = _state(sim)
        with pytest.raises(ConfigInvalid) as info:
            sim.execute(label)
        assert str(info.value) == (f"deposit {label!r} has no revert proof; "
                                   f"revert_mark or revert_init it first")
        assert _state(sim) == before


def _state(sim: Simulation) -> tuple:
    """What a refused action must leave as it was."""
    return (
        {name: (w.balance, dict(w.notes)) for name, w in sim.wallets.items()},
        {cid: dict(c.escrow) for cid, c in sim.dapp.contracts.items()},
        {cid: list(c.event_log) for cid, c in sim.chains.items()},
        dict(sim.deposits),
        RECORD_ENCODER.encode(sim.transcript.records),
        sim.next_label(),
    )


class TestDepositLabels:
    """The ``Simulation`` alone decides which labels are taken and which
    deposit a label names; a script and a driver meet the same refusals."""

    def test_taken_label_is_refused_before_anything_happens(self):
        sim = Simulation(script_config([], seed=0))
        assert sim.deposit("alice", 1001, 1003, label="x") == "x"
        before = _state(sim)
        with pytest.raises(ConfigInvalid) as info:
            sim.deposit("alice", 1001, 1003, label="x")
        assert str(info.value) == "label 'x' is already taken"
        assert _state(sim) == before
        assert sim.wallets["alice"].balance == 99

    @pytest.mark.parametrize("op", ["withdraw", "revert_mark", "revert_init",
                                    "execute"])
    def test_unknown_label_is_config_invalid(self, op):
        sim, _ = _two_deposits()
        before = _state(sim)
        with pytest.raises(ConfigInvalid) as info:
            getattr(sim, op)("nope")
        assert str(info.value) == ("field 'deposit' names no deposit made so "
                                   "far: 'nope'")
        assert _state(sim) == before


class TestActionNames:
    """The ``Simulation`` alone judges the wallet, chain and actor names an
    action gives, for any caller: an unknown one is refused before any
    label, note, call or record."""

    @pytest.mark.parametrize("op,args,kwargs,message", [
        ("deposit", ("alice", 1001, 1009), {}, "field 'dest' names unknown 1009"),
        ("deposit", ("alice", 1009, 1003), {}, "field 'source' names unknown 1009"),
        ("deposit", ("mallory", 1001, 1003), {},
         "field 'wallet' names unknown 'mallory'"),
        ("advance", (0,), {}, "field 'blocks' must be at least 1, got 0"),
        ("advance", (), {"chain": 1009}, "field 'chain' names unknown 1009"),
        ("withdraw", ("d0",), {"chain": 1009}, "field 'chain' names unknown 1009"),
        ("revert_mark", ("d0",), {"chain": 1009}, "field 'chain' names unknown 1009"),
        ("revert_init", ("d0",), {"chain": 1009}, "field 'chain' names unknown 1009"),
        ("go_offline", ("x",), {}, "field 'actor' names unknown 'x'"),
    ], ids=["unknown_dest", "unknown_source", "unknown_wallet", "zero_blocks",
            "advance_unknown_chain", "withdraw_unknown_chain",
            "revert_mark_unknown_chain", "revert_init_unknown_chain",
            "unknown_offline_actor"])
    def test_unknown_name_is_refused_before_anything_happens(self, op, args,
                                                            kwargs, message):
        sim, _ = _two_deposits()
        before = _state(sim)
        with pytest.raises(ConfigInvalid) as info:
            getattr(sim, op)(*args, **kwargs)
        assert str(info.value) == message
        assert _state(sim) == before
        assert not sim.oracle.offline and not sim.dapp.offline

    @pytest.mark.parametrize("fields,first", [
        ({"deposit": "d0"}, "deposit"),
        ({"chain": 1003}, "chain"),
        ({"claim_dest": 1001}, "claim_dest"),
        ({"verifying_key": "6b" * 32}, "verifying_key"),
        ({"via_oracle": True}, "via_oracle"),
        ({"tamper_payload": True}, "tamper_payload"),
        ({"reuse_proof": True}, "reuse_proof"),
        ({"deposit": "nope", "reuse_proof": True, "chain": 1003, "claim_dest": 1001,
          "via_oracle": True, "tamper_payload": True,
          "expect": "ConstraintViolation:signature"}, "deposit"),
    ], ids=["deposit", "chain", "claim_dest", "verifying_key", "via_oracle",
            "tamper_payload", "reuse_proof", "all_but_the_key"])
    def test_oracle_withdraw_refuses_each_field_it_does_not_read(self, fields,
                                                               first):
        """The oracle's forged settlement is the ``forge_settlement`` action,
        which reads no field: a script giving it a wallet withdraw's field
        is refused before the run starts, and the method takes none."""
        script = HAPPY_SCRIPT[:4] + [dict(op="forge_settlement", **fields)]
        with pytest.raises(ConfigInvalid) as info:
            script_config(script).validate()
        assert str(info.value) == (f"action 4 (forge_settlement): unknown field "
                                   f"{first!r}")
        params = inspect.signature(Simulation.forge_settlement).parameters
        assert list(params) == ["self", "expect"]

    @pytest.mark.parametrize("key", ["verifying_key", "graft_key"])
    def test_python_only_withdraw_keys_stay_out_of_scripts(self, key):
        """``withdraw`` takes a key to prove against and one to graft on,
        but a script cannot name either: it is refused before the run."""
        script = HAPPY_SCRIPT[:4] + [{"op": "withdraw", "deposit": "d0", key: "6b" * 32}]
        with pytest.raises(ConfigInvalid) as info:
            script_config(script).validate()
        assert str(info.value) == f"action 4 (withdraw): unknown field {key!r}"
        assert key in inspect.signature(Simulation.withdraw).parameters

    def test_builtins_reach_the_contracts_only_through_actions(self):
        tree = ast.parse(Path(scenarios.__file__).read_text())
        back_doors = [node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr == "_call"]
        back_doors += [alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) for alias in node.names
                       if alias.name.startswith(("router_", "mixer_"))
                       or alias.name == "Proof"]
        assert back_doors == []

    def test_calls_take_the_function_not_a_forwarding_thunk(self):
        """A thunk that only forwards plain values to one function is a
        wrapper: the action hands ``_call`` that function and its arguments.
        A thunk whose arguments hold a call does work inside the call and stays."""
        def forwards(call):
            """One call whose arguments make no call."""
            return isinstance(call, ast.Call) and not any(
                isinstance(n, ast.Call) for arg in call.args + [k.value for k in call.keywords]
                for n in ast.walk(arg))

        tree = ast.parse(Path(simulation.__file__).read_text())
        thunks = []
        for method in ast.walk(tree):
            if not isinstance(method, ast.FunctionDef):
                continue
            nested = {f.name: f for f in ast.walk(method)
                      if isinstance(f, ast.FunctionDef) and f is not method}
            for call in ast.walk(method):
                if not (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr == "_call"):
                    continue
                for arg in call.args + [k.value for k in call.keywords]:
                    if isinstance(arg, ast.Lambda):
                        body = arg.body
                    elif isinstance(arg, ast.Name) and arg.id in nested:
                        stmts = nested[arg.id].body
                        if len(stmts) != 1 or not isinstance(stmts[0], ast.Return):
                            continue
                        body = stmts[0].value
                    else:
                        continue
                    if forwards(body):
                        thunks.append(f"{method.name}:{arg.lineno}")
        assert thunks == []

    def test_only_call_logs_chain_events(self):
        """``_call`` logs every event the chains emit, so no action logs one
        by hand."""
        tree = ast.parse(Path(simulation.__file__).read_text())
        sites = [method.name for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for method in cls.body if isinstance(method, ast.FunctionDef)
                 for call in ast.walk(method)
                 if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                 and call.func.attr == "log" and call.args
                 and isinstance(call.args[0], ast.Constant) and call.args[0].value == "event"]
        assert sites == ["_call"]


class TestTranscript:
    def test_indices_and_jsonl(self, tmp_path):
        t = Transcript()
        t.log("a", x=1)
        t.log("b", y="z")
        assert [r["i"] for r in t.records] == [0, 1]
        path = tmp_path / "t.jsonl"
        path.write_bytes(t.to_jsonl())
        loaded = Transcript.load(path)
        assert (loaded.records, loaded.lines) == (t.records, t.lines)

    def test_lines_are_the_records_encoded(self):
        """Each record's line is its canonical encoding, made as it was
        logged, in every builtin at seeds 0-2 and every scenario file."""
        configs = [builtin_config(name, seed=seed)
                   for name in sorted(BUILTINS) for seed in (0, 1, 2)]
        configs += [ScenarioConfig.from_json(path.read_text())
                    for path in SCENARIO_FILES]
        for config in configs:
            transcript = run_scenario(config).transcript
            encoded = [RECORD_ENCODER.encode(r) for r in transcript.records]
            assert transcript.lines == encoded, (config.name, config.seed)
            decoded = [json.loads(line) for line in transcript.lines]
            assert transcript.records == decoded, (config.name, config.seed)

    def test_each_record_is_kept_once_as_its_line(self):
        """After a full run the transcript keeps no record dict: it holds
        ``lines`` and ``classes`` alone, and the classes hold the very
        ``str`` objects of ``lines``, each line in one class, its own."""
        transcript = run_scenario(script_config(traffic_script(6))).transcript
        assert set(vars(transcript)) == {"lines", "classes"}
        grouped = [line for lines in transcript.classes.values() for line in lines]
        assert sorted(map(id, grouped)) == sorted(map(id, transcript.lines))
        for (kind, op, chain), lines in transcript.classes.items():
            for record in map(json.loads, lines):
                assert (record["kind"], record.get("op"), record.get("chain")) \
                    == (kind, op, chain)

    def test_digest_sensitive_to_content(self):
        t1, t2 = Transcript(), Transcript()
        t1.log("a", x=1)
        t2.log("a", x=2)
        assert t1.digest() != t2.digest()

    def test_each_op_has_one_call_record_shape(self):
        """A contract call reaches the chains by one ``Simulation`` path, so
        every ``call`` record of one op carries the same fields, in every
        builtin at seeds 0-2 and every scenario file."""
        configs = [builtin_config(name, seed=seed)
                   for name in sorted(BUILTINS) for seed in (0, 1, 2)]
        configs += [ScenarioConfig.from_json(path.read_text())
                    for path in SCENARIO_FILES]
        shapes: dict = {}
        for config in configs:
            for record in run_scenario(config).transcript.records:
                if record["kind"] == "call":
                    shapes.setdefault(record["op"], set()).add(tuple(sorted(record)))
        assert "router_register_dapp" in shapes and "router_withdraw" in shapes
        assert {op: sorted(keys) for op, keys in shapes.items() if len(keys) > 1} == {}

    def test_every_withdraw_that_ran_settled(self):
        """A ``router_withdraw`` call that succeeds is one a Router ran: a
        ``settled`` event on its chain follows it before the next call, in
        every builtin at seeds 0-2 and every scenario file. A refusal, the
        oracle network's ``Censored`` included, is a failed call."""
        configs = [builtin_config(name, seed=seed)
                   for name in sorted(BUILTINS) for seed in (0, 1, 2)]
        configs += [ScenarioConfig.from_json(path.read_text())
                    for path in SCENARIO_FILES]
        for config in configs:
            open_withdraw = None  # the last ok router_withdraw, until it settles
            for record in run_scenario(config).transcript.records + [{"kind": "call"}]:
                if record["kind"] == "call":
                    assert open_withdraw is None, (config.name, config.seed, open_withdraw)
                    if record.get("op") == "router_withdraw" and record["ok"]:
                        open_withdraw = record
                elif (open_withdraw is not None and record["op"] == "settled_event"
                      and record["chain"] == open_withdraw["chain"]):
                    open_withdraw = None

    def test_event_records_are_the_chains_event_logs(self):
        """Every event a chain emits reaches the transcript once, in emission
        order, as an ``event`` record of its block and its payload's 32-byte
        words, in every builtin and every scenario file at seeds 0-2."""
        configs = [builtin_config(name, seed=seed)
                   for name in sorted(BUILTINS) for seed in (0, 1, 2)]
        configs += [ScenarioConfig.from_dict(dict(json.loads(path.read_text()), seed=seed))
                    for path in SCENARIO_FILES for seed in (0, 1, 2)]
        for config in configs:
            result = run_scenario(config)
            events = [r for r in result.transcript.records if r["kind"] == "event"]
            assert {r["chain"] for r in events} <= set(result.sim.chains)
            for cid, chain in result.sim.chains.items():
                logged = [(r["op"], r["block"], r["payload"])
                          for r in events if r["chain"] == cid]
                emitted = [(f"{ev.kind}_event", ev.block,
                            [ev.payload[k:k + 32].hex() for k in range(0, len(ev.payload), 32)])
                           for ev in chain.event_log]
                assert logged == emitted, (config.name, config.seed, cid)


HIDDEN_FIELDS = ("payload", "dest_chain_id", "salt", "secret", "nullifier")


def naive_linkability(records, secrets):
    """The analyzer's report by one ``bytes.count`` per secret and view."""
    def blob(rs):
        return "\n".join(json.dumps(r, sort_keys=True, separators=(",", ":"))
                         for r in rs).encode()

    # a deposit's chain id and a Mixer leaf index are public last words
    public_last = {"deposit_event", "leaf_inserted_event", "signature_stored_event"}
    scanned = [dict(r, payload=r["payload"][:-1]) if r.get("op") in public_last
               else r for r in records]
    oracle = blob(oracle_view(scanned))
    revert = blob(r for r in records if "revert" in str(r.get("op", "")))
    report = {"deposits": [], "violations": 0, "expected_leakage": []}
    for sec in secrets:
        source = blob(source_view(scanned, sec["source_chain"]))
        entry = {"label": sec["label"],
                 "oracle_view": {n: oracle.count(sec[n].encode()) for n in HIDDEN_FIELDS},
                 "source_view": {n: source.count(sec[n].encode()) for n in HIDDEN_FIELDS}}
        report["violations"] += (sum(entry["oracle_view"].values())
                                 + sum(entry["source_view"].values()))
        hits = revert.count(sec["commitment"].encode())
        if hits:
            report["expected_leakage"].append({"label": sec["label"],
                                               "commitment_hits": hits})
        report["deposits"].append(entry)
    return report


def transcript_of(records):
    """A transcript that logs each of ``records`` in turn."""
    transcript = Transcript()
    for record in records:
        transcript.log(**record)
    return transcript


def traffic_script(n):
    """``n`` deposits alternating 1001 -> 1003 and 1003 -> 1001, all settled."""
    deposits = [{"op": "deposit", "wallet": "alice", "source": 1001 + 2 * (k % 2),
                 "dest": 1003 - 2 * (k % 2), "label": f"d{k}"} for k in range(n)]
    return deposits + [{"op": "relay"}, {"op": "sign"}, {"op": "push_root"}] + [
        {"op": "withdraw", "deposit": f"d{k}"} for k in range(n)]


def bytes_count_calls(fn) -> int:
    """Calls of ``bytes.count`` made while ``fn()`` runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if (event == "c_call" and getattr(arg, "__name__", None) == "count"
                and isinstance(getattr(arg, "__self__", None), bytes)):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


class TestLinkability:
    def test_empty_transcript_empty_report(self):
        report = analyze_linkability(Transcript(), [])
        assert report == {"deposits": [], "violations": 0, "expected_leakage": []}

    def test_happy_path_clean(self):
        result = run_scenario(builtin_config("settlement_happy_path", seed=2))
        report = analyze_linkability(result.transcript, result.sim.secrets_for_analysis())
        assert report["violations"] == 0
        assert report["expected_leakage"] == []

    def test_revert_reports_expected_commitment_leakage(self):
        result = run_scenario(builtin_config("custody_total_outage", seed=2))
        report = analyze_linkability(result.transcript, result.sim.secrets_for_analysis())
        assert report["violations"] == 0
        assert [e["label"] for e in report["expected_leakage"]] == ["d0"]

    def test_public_leaf_index_words_are_not_scanned(self):
        """A Mixer leaf index, the last word of a ``leaf_inserted`` and a
        ``signature_stored`` event, is public: from 1001 on it equals a
        destination chain id, and the scan must not count it. The same word
        elsewhere in those payloads is a leak."""
        result = run_scenario(builtin_config("settlement_happy_path", seed=2))
        secrets = result.sim.secrets_for_analysis()
        index = secrets[0]["dest_chain_id"]
        planted = [("leaf_inserted_event", ["11" * 32, index]),
                   ("signature_stored_event", ["22" * 32, "33" * 32, index])]

        def report(words_of):
            transcript = transcript_of(result.transcript.records + [
                {"kind": "event", "op": op, "chain": result.sim.mixer_chain.chain_id,
                 "block": 0, "payload": words_of(words)} for op, words in planted])
            got = analyze_linkability(transcript, secrets)
            assert got == naive_linkability(transcript.records, secrets)
            return got

        assert report(lambda words: words)["violations"] == 0
        moved = report(lambda words: words[-1:] + words[:-1])
        assert moved["deposits"][0]["oracle_view"]["dest_chain_id"] == 2

    def test_public_last_word_is_read_off_its_line(self):
        """The analyzer reads a public last word off the end of its line:
        for every such event in every builtin at seeds 0-2 and every
        scenario file, taking that word for a secret finds it once fewer
        than its line holds it."""
        configs = [builtin_config(name, seed=seed)
                   for name in sorted(BUILTINS) for seed in (0, 1, 2)]
        configs += [ScenarioConfig.from_json(path.read_text())
                    for path in SCENARIO_FILES]
        public_last = {"deposit_event", "leaf_inserted_event", "signature_stored_event"}
        read = set()
        for config in configs:
            for line in run_scenario(config).transcript.lines:
                record = json.loads(line)
                if record.get("op") not in public_last:
                    continue
                word = record["payload"][-1]
                secret = dict.fromkeys(HIDDEN_FIELDS + ("commitment",), word)
                secret.update(label="d", source_chain=record["chain"])
                report = analyze_linkability(transcript_of([record]), [secret])
                want = dict.fromkeys(HIDDEN_FIELDS, line.count(word) - 1)
                got = report["deposits"][0]
                assert (got["oracle_view"], got["source_view"]) == (want, want), \
                    (config.name, config.seed, line)
                read.add(record["op"])
        assert read == public_last

    def test_public_last_word_elsewhere_in_its_class_is_counted(self):
        """A public last word takes back only its own hit: the same word
        elsewhere in records of the same class, the same record included,
        still counts."""
        result = run_scenario(builtin_config("settlement_happy_path", seed=2))
        secrets = result.sim.secrets_for_analysis()
        d = secrets[0]["dest_chain_id"]
        transcript = transcript_of(result.transcript.records + [
            {"kind": "event", "op": op, "chain": 1002, "block": 0, "payload": words}
            for op, words in [("leaf_inserted_event", ["11" * 32, d]),
                              ("settled_event", [d]),
                              ("signature_stored_event", [d, d])]])
        report = analyze_linkability(transcript, secrets)
        assert report == naive_linkability(transcript.records, secrets)
        assert report["deposits"][0]["oracle_view"]["dest_chain_id"] == 2

    def test_event_payloads_are_scanned_at_word_boundaries(self):
        """An event payload is a list of 32-byte words, so a 64-character
        value split across two words is never one hex run and is not
        counted; the same value within one word is."""
        result = run_scenario(builtin_config("settlement_happy_path", seed=2))
        secrets = result.sim.secrets_for_analysis()
        salt = secrets[0]["salt"]

        def salt_hits(words):
            transcript = transcript_of(result.transcript.records + [
                {"kind": "event", "op": "settled_event", "chain": 1002, "block": 0,
                 "payload": words}])
            report = analyze_linkability(transcript, secrets)
            assert report == naive_linkability(transcript.records, secrets)
            return report["deposits"][0]["oracle_view"]["salt"]

        assert salt_hits(["e" * 32 + salt[:32], salt[32:] + "e" * 32]) == 0
        assert salt_hits(["e" * 64, salt]) == 1

    def test_planted_leak_is_caught(self):
        result = run_scenario(builtin_config("settlement_happy_path", seed=2))
        secrets = result.sim.secrets_for_analysis()
        transcript = result.transcript
        transcript.log("event", op="oracle_relay", chain=1002, oops=secrets[0]["salt"])
        report = analyze_linkability(transcript, secrets)
        assert report["violations"] > 0

    TWO_WAY_SCRIPT = [
        {"op": "deposit", "wallet": "alice", "source": 1001, "dest": 1003, "label": "d0"},
        {"op": "deposit", "wallet": "alice", "source": 1003, "dest": 1001, "label": "d1"},
        {"op": "relay"},
        {"op": "sign"},
        {"op": "push_root"},
        {"op": "withdraw", "deposit": "d0"},
        {"op": "withdraw", "deposit": "d1"},
    ]

    def test_two_way_traffic_is_clean(self):
        # each destination chain id is the public source chain id of the
        # deposit events emitted on that chain
        result = run_scenario(script_config(self.TWO_WAY_SCRIPT))
        verdict = {v.name: v for v in result.verdicts}["no_hidden_field_leakage"]
        assert verdict.passed, verdict.detail

    def test_scripted_payload_in_header_is_clean(self):
        # the header embeds the config, so a scripted payload appears there
        payload = "ab" * 32
        script = [dict(HAPPY_SCRIPT[0], payload=payload)] + HAPPY_SCRIPT[1:]
        result = run_scenario(script_config(script))
        assert payload in result.transcript.records[0]["config"]
        verdict = {v.name: v for v in result.verdicts}["no_hidden_field_leakage"]
        assert verdict.passed, verdict.detail

    @pytest.mark.parametrize("record,view", [
        # a user-direct op on d0's source chain: only the source view sees it
        ({"kind": "call", "op": "router_withdraw", "chain": 1001}, "source_view"),
        # on d0's destination chain, but not a deposit event
        ({"kind": "event", "op": "oracle_relay", "chain": 1003}, "oracle_view"),
    ])
    def test_planted_dest_id_is_caught(self, record, view):
        result = run_scenario(script_config(self.TWO_WAY_SCRIPT))
        secrets = result.sim.secrets_for_analysis()
        result.transcript.log(**record, oops=secrets[0]["dest_chain_id"])
        report = analyze_linkability(result.transcript, secrets)
        assert report["deposits"][0][view]["dest_chain_id"] > 0

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_matches_per_secret_count(self, name):
        result = run_scenario(builtin_config(name, seed=0))
        transcript, secrets = result.transcript, result.sim.secrets_for_analysis()
        assert (analyze_linkability(transcript, secrets)
                == naive_linkability(transcript.records, secrets))

    def test_planted_words_count_as_bytes_count_does(self):
        result = run_scenario(script_config(self.TWO_WAY_SCRIPT))
        secrets = result.sim.secrets_for_analysis()
        s0, s1 = secrets
        transcript = transcript_of(result.transcript.records + [
            # odd offset inside a longer hex run
            {"kind": "event", "op": "oracle_relay", "chain": 1002,
             "oops": "abc" + s0["salt"] + s1["payload"][:9]},
            # between hex-letter neighbours, twice in one run
            {"kind": "call", "op": "router_withdraw", "chain": 1001,
             "oops": "f" + s0["secret"] + s0["secret"] + "e"},
            # a revert record repeating a commitment inside one run
            {"kind": "event", "op": "revert_relay", "chain": 1003,
             "x": "d" + s1["commitment"] * 3, "y": s0["commitment"][:63]},
        ])
        report = analyze_linkability(transcript, secrets)
        assert report == naive_linkability(transcript.records, secrets)
        d0 = report["deposits"][0]
        assert d0["oracle_view"]["salt"] == 1
        assert d0["source_view"]["secret"] == 2
        assert report["expected_leakage"] == [{"label": "d1", "commitment_hits": 3}]

    def test_self_overlapping_word_counts_non_overlapping(self):
        result = run_scenario(builtin_config("settlement_happy_path", seed=0))
        secret = dict(result.sim.secrets_for_analysis()[0], payload="ab" * 32,
                      source_chain=1001)
        transcript = transcript_of([{"kind": "event", "op": "oracle_relay",
                                     "chain": 1001, "p": "ab" * 64}])
        report = analyze_linkability(transcript, [secret])
        assert report == naive_linkability(transcript.records, [secret])
        assert report["deposits"][0]["oracle_view"]["payload"] == 2

    @pytest.mark.parametrize("length", [65, 127, 128])
    def test_word_at_every_offset_of_a_run(self, length):
        result = run_scenario(script_config(self.TWO_WAY_SCRIPT))
        secrets = result.sim.secrets_for_analysis()
        s0, s1 = secrets
        for offset in range(length - 64 + 1):
            def planted(word):  # ``word`` at ``offset`` of a hex run
                return "e" * offset + word + "e" * (length - 64 - offset)
            transcript = transcript_of(result.transcript.records + [
                {"kind": "event", "op": "oracle_relay", "chain": 1002,
                 "oops": planted(s0["salt"])},
                {"kind": "event", "op": "revert_relay", "chain": 1003,
                 "x": planted(s1["commitment"])},
            ])
            report = analyze_linkability(transcript, secrets)
            assert report == naive_linkability(transcript.records, secrets), offset
            assert report["deposits"][0]["oracle_view"]["salt"] == 1
            assert report["expected_leakage"] == [{"label": "d1", "commitment_hits": 1}]

    @pytest.mark.parametrize("field,value", [
        ("salt", "ab" * 31),             # too short
        ("payload", "AB" * 32),          # upper case
        ("commitment", "0x" + "1" * 62),
        ("nullifier", "1" * 65),
    ], ids=["short", "upper_case", "prefixed", "long"])
    def test_non_word_secret_raises(self, field, value):
        result = run_scenario(builtin_config("settlement_happy_path", seed=0))
        secret = dict(result.sim.secrets_for_analysis()[0], **{field: value})
        with pytest.raises(ValueError, match="64-character lowercase hex word"):
            analyze_linkability(result.transcript, [secret])

    @pytest.mark.parametrize("deposits", [1, 6])
    def test_each_observed_record_encoded_once(self, monkeypatch, deposits):
        """Each record is encoded once, as it is logged: a second verdict
        pass, the transcript file and its digest encode nothing again."""
        encode, encoded = RECORD_ENCODER.encode, []

        def counting_encode(obj):
            encoded.append(obj)
            return encode(obj)

        monkeypatch.setattr(RECORD_ENCODER, "encode", counting_encode)
        result = run_scenario(script_config(traffic_script(deposits)))
        standard_verdicts(result.sim)
        result.transcript.to_jsonl()
        result.transcript.digest()
        assert encoded == result.transcript.records

    def test_count_calls_do_not_grow_with_deposits(self):
        calls = []
        for deposits in (1, 6):
            result = run_scenario(script_config(traffic_script(deposits)))
            transcript = result.transcript
            secrets = result.sim.secrets_for_analysis()
            assert analyze_linkability(transcript, secrets)["violations"] == 0
            calls.append(bytes_count_calls(lambda: analyze_linkability(transcript, secrets)))
        assert calls[0] == calls[1]
        # the profile sees the calls a leak makes
        leaked = transcript_of(transcript.records + [
            {"kind": "event", "op": "oracle_relay", "chain": 1002,
             "oops": "a" + secrets[0]["salt"]}])
        assert bytes_count_calls(lambda: analyze_linkability(leaked, secrets)) > calls[0]

    def test_classification_does_not_grow_with_records(self, monkeypatch):
        runs = [run_scenario(script_config(traffic_script(deposits))) for deposits in (2, 6)]
        views, classified = linkability._views, []

        def counting_views(record, source_chains):
            classified.append(record)
            return views(record, source_chains)

        monkeypatch.setattr(linkability, "_views", counting_views)
        calls = []
        for result in runs:
            classified.clear()
            analyze_linkability(result.transcript, result.sim.secrets_for_analysis())
            calls.append(len(classified))
        assert len(runs[0].transcript.records) < len(runs[1].transcript.records)
        assert calls[0] == calls[1]

    def test_failing_verdict_names_the_leak(self):
        result = run_scenario(builtin_config("settlement_happy_path", seed=2))
        sim = result.sim
        salt = sim.secrets_for_analysis()[0]["salt"]
        sim.transcript.log("event", op="oracle_relay", chain=1002, oops=salt)
        verdict = {v.name: v for v in standard_verdicts(sim)}["no_hidden_field_leakage"]
        assert not verdict.passed
        assert verdict.detail == "violations=1; d0.salt oracle_view=1 source_view=0"

    @pytest.mark.parametrize("payload,detail", [
        (bytes(95), "payload length 95"),
        (bytes(64) + (1002).to_bytes(32, "big"), "source chain field mismatch"),
    ], ids=["short_payload", "other_source_chain"])
    def test_planted_deposit_event_fails_minimality(self, payload, detail):
        sim = run_scenario(builtin_config("settlement_happy_path", seed=2)).sim
        sim.chains[1001].emit("deposit", payload)
        verdict = {v.name: v for v in standard_verdicts(sim)}["deposit_minimality"]
        assert not verdict.passed
        assert verdict.detail == detail


class TestBuiltins:
    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_every_builtin_passes(self, name):
        result = run_scenario(builtin_config(name, seed=0))
        assert result.passed, [v for v in result.verdicts if not v.passed]

    def test_oracle_replay_fails_when_the_mixer_takes_the_replay(self, monkeypatch):
        """A Mixer that forgets its commitments stores the replayed event
        again: the relay inserts it as a second leaf and both checks fail."""
        def forgetful(chain, event, source):
            chain.mixer.commitments.pop(unwords(event.payload)[0], None)
            return mixer_submit(chain, event, source)

        monkeypatch.setattr(actors, "mixer_submit", forgetful)
        result = run_scenario(builtin_config("oracle_replay", seed=0))
        assert {v.name for v in result.verdicts if not v.passed} == {
            "replay_rejected", "single_leaf"}
        ops_logged = [r.get("op") for r in result.transcript.records]
        assert ops_logged.count("leaf_inserted_event") == 2
        assert "relay_rejected" not in ops_logged

    def test_published_is_every_event_emitted(self):
        """``Chain.published``, which the Mixer's inclusion check reads, is
        kept as each event is emitted: after every builtin it holds exactly
        the (kind, payload) of each chain's event log."""
        for name in sorted(BUILTINS):
            for chain in run_scenario(builtin_config(name, seed=0)).sim.chains.values():
                assert chain.published == {(ev.kind, ev.payload) for ev in chain.event_log}

    def test_attack_matrix_has_nine(self):
        assert len(ATTACK_MATRIX) == 9
        assert set(ATTACK_MATRIX) <= set(BUILTINS)


# every driver deposits from wallet alice on chain 1001 to 1003: a builtin
# config lacking one is refused with what it lacks, before the driver runs
UNRUNNABLE = {
    "no_alice": ({"wallets": ["bob"]}, "needs wallet 'alice', got ['bob']"),
    "no_dest_chain": ({"chains": [1001, 1002]},
                      "needs chains 1001 and 1003, got [1001, 1002]"),
    "no_source_chain": ({"chains": [1002, 1003]},
                        "needs chains 1001 and 1003, got [1002, 1003]"),
}


class TestCli:
    def test_run_builtin_exit_zero(self, capsys):
        assert main(["run", "settlement_happy_path", "--seed", "5"]) == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_run_scenario_file_and_outputs(self, tmp_path, capsys):
        cfg = script_config(HAPPY_SCRIPT)
        import dataclasses, json as _json

        scenario = tmp_path / "s.json"
        scenario.write_text(_json.dumps(dataclasses.asdict(cfg)))
        out = tmp_path / "out"
        assert main(["run", str(scenario), "--out", str(out)]) == 0
        assert (out / "transcript.jsonl").exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert "total" in metrics and "per_op" in metrics

    def test_failing_scenario_exit_one(self, tmp_path):
        cfg = script_config(HAPPY_SCRIPT[:-1] + [
            {"op": "withdraw", "deposit": "d0", "expect": "DoubleSpend"},
        ])
        import dataclasses, json as _json

        scenario = tmp_path / "bad.json"
        scenario.write_text(_json.dumps(dataclasses.asdict(cfg)))
        assert main(["run", str(scenario)]) == 1

    @pytest.mark.parametrize("content", [None, b"\xff\xfe"],
                             ids=["directory", "not_utf8"])
    def test_run_of_unreadable_scenario_exits_two(self, tmp_path, capsys, content):
        path = tmp_path / "s.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: ConfigInvalid: cannot read {str(path)!r}: ")

    @pytest.mark.parametrize("argv", [["run", "nosuch"], ["attacks"]],
                             ids=["run_unknown_target", "attacks_without_names"])
    def test_malformed_invocation_exits_two(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigInvalid: ") and err.count("\n") == 1

    @pytest.mark.parametrize("data,message", [
        pytest.param({"builtin": "nosuch"}, "unknown builtin scenario 'nosuch'",
                     id="unknown_builtin"),
        # double_spend's rows keep their bare ids
        *[pytest.param({"builtin": name, **fields}, f"builtin {name!r} {need}",
                       id=case if name == "double_spend" else f"{name}-{case}")
          for name in BUILTINS for case, (fields, need) in UNRUNNABLE.items()],
    ])
    def test_builtin_file_the_driver_cannot_run_exits_two(self, tmp_path, capsys,
                                                         data, message):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(data))
        assert main(["run", str(scenario)]) == 2
        assert capsys.readouterr().err == f"error: ConfigInvalid: {message}\n"

    @pytest.mark.parametrize("name", ["oracle_replay", "oracle_forged_root",
                                      "oracle_censorship"])
    def test_builtin_file_takes_the_builtin_defaults(self, tmp_path, capsys, name):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"builtin": name}))
        assert main(["run", str(scenario)]) == 0
        assert "[FAIL]" not in capsys.readouterr().out

    def test_attacks_seed_flag_reaches_the_run(self, tmp_path, capsys):
        digests = []
        for seed in (9, 0):
            out = tmp_path / str(seed)
            assert main(["attacks", "double_spend", "--seed", str(seed),
                         "--out", str(out)]) == 0
            written = (out / "double_spend" / "transcript.jsonl").read_bytes()
            digests.append(hashlib.sha256(written).hexdigest())
        expected = run_scenario(builtin_config("double_spend", seed=9)).transcript.digest()
        assert digests[0] == expected != digests[1]

    def test_attacks_all_with_names_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["attacks", "--all", "double_spend", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == ("error: ConfigInvalid: "
                                "pass either --all or scenario names\n")

    def test_attacks_unknown_name_runs_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["attacks", "double_spend", "nosuch", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == "error: ConfigInvalid: unknown builtin scenario 'nosuch'\n"

    def test_attacks_bad_seed_exits_two(self, capsys):
        assert main(["attacks", "double_spend", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: ConfigInvalid: field 'seed' must be in [0, 2^256), got -1\n")

    def test_seed_flag_overrides_the_scenario_file_seed(self, tmp_path, capsys):
        source = Path(__file__).resolve().parent.parent / "scenarios" / "happy_path.json"
        reseeded = tmp_path / "s.json"
        reseeded.write_text(json.dumps(dict(json.loads(source.read_text()), seed=5)))
        digests = []
        for argv in ([str(source), "--seed", "5"], [str(reseeded)], [str(source)]):
            capsys.readouterr()
            assert main(["run", *argv, "--out", str(tmp_path / "out")]) == 0
            digests.append(capsys.readouterr().out.split("\n")[0])
        assert digests[0] == digests[1] != digests[2]
        assert digests[0].startswith("transcript digest ce3ffa94")

    def test_scenario_file_that_is_not_json_exits_two(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text("not json")
        assert main(["run", str(scenario)]) == 2
        assert capsys.readouterr().err == (
            "error: ConfigInvalid: config is not valid JSON: "
            "Expecting value: line 1 column 1 (char 0)\n")

    def test_replay_round_trip(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "double_spend", "--seed", "9", "--out", str(out)]) == 0
        assert main(["replay", str(out / "transcript.jsonl")]) == 0
        assert "digest matches" in capsys.readouterr().out

    def test_replay_reencodes_other_json_whitespace(self, tmp_path, capsys):
        """A transcript file written with other JSON whitespace and key
        order holds the same records, so it replays to the same digest."""
        out = tmp_path / "out"
        assert main(["run", "double_spend", "--seed", "9", "--out", str(out)]) == 0
        path = out / "transcript.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        path.write_text("".join(json.dumps(dict(reversed(r.items()))) + "\n\n"
                                for r in records))
        assert main(["replay", str(path)]) == 0
        assert "[PASS] replay: transcript digest matches" in capsys.readouterr().out

    def test_replay_of_records_without_indices_fails(self, tmp_path, capsys):
        """A loaded record is kept as the file holds it: one whose ``i`` was
        stripped is not given one again, so the digest differs."""
        out = tmp_path / "out"
        assert main(["run", "double_spend", "--seed", "9", "--out", str(out)]) == 0
        path = out / "transcript.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        path.write_text("".join(json.dumps({k: v for k, v in r.items() if k != "i"}) + "\n"
                                for r in records))
        assert main(["replay", str(path)]) == 1
        assert "[FAIL] replay: transcript digest differs" in capsys.readouterr().out

    def test_replay_detects_tampering(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "settlement_happy_path", "--seed", "9", "--out", str(out)])
        path = out / "transcript.jsonl"
        with open(path, "a") as fh:
            fh.write('{"i":999,"kind":"event","op":"bogus"}\n')
        assert main(["replay", str(path)]) == 1

    @pytest.mark.parametrize("content,named", [
        (None, ""), ("not json\n", ""), ("", ""), ("[1]\n", ""),
        ('{"i":0,"kind":"header","config":"{}"}\n[1]\n', "not a JSON object"),
        ('{"i":0,"kind":"header","config":"{}"}\n{"i":1,"kind":"call","chain":[1]}\n',
         "unhashable"),
        ('{"i":0,"kind":"call"}\n', ""),
        ('{"i":0,"kind":"header","config":"5"}\n', ""),
        (OLD_TRANSCRIPT, f"unknown config fields: {REMOVED_FIELDS}"),
        (json.dumps({"i": 0, "kind": "header", "config": json.dumps({
            "script": [{"op": "withdraw", "actor": "oracle"}]})}) + "\n",
         "action 0 (withdraw): unknown field 'actor'"),
    ], ids=["missing", "not_json", "empty", "not_a_record", "not_a_record_after_header",
            "unhashable_chain", "no_header",
            "config_not_an_object", "config_with_removed_field",
            "withdraw_with_an_actor"])
    def test_replay_of_unreadable_transcript_exits_two(self, tmp_path, capsys,
                                                        content, named):
        path = tmp_path / "transcript.jsonl"
        if content is not None:
            path.write_text(content)
        assert main(["replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    @pytest.mark.parametrize("argv,subdir", [
        (["run", "settlement_happy_path"], None),
        (["sweep", "--depths", "4"], None),
        (["attacks", "--all"], ATTACK_MATRIX[0]),
    ], ids=["run", "sweep", "attacks"])
    def test_out_naming_a_file_exits_two(self, tmp_path, capsys, argv, subdir):
        path = tmp_path / "taken"
        path.write_text("keep\n")
        assert main(argv + ["--out", str(path)]) == 2
        named = path / subdir if subdir else path
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {str(named)!r}: ")
        assert err.count("\n") == 1
        assert path.read_text() == "keep\n"

    def test_sweep_prints_table(self, capsys):
        assert main(["sweep", "--depths", "2,4"]) == 0
        out = capsys.readouterr().out
        assert "insert_permutations" in out

    @pytest.mark.parametrize("depths", ["a", "4,x", "0", "4,33", ""])
    def test_sweep_rejects_bad_depths(self, capsys, depths):
        assert main(["sweep", "--depths", depths]) == 2
        assert capsys.readouterr().err == (
            f"error: ConfigInvalid: field 'depths' must list integers in "
            f"1..{MAX_DEPTH}, got {depths!r}\n")

    @pytest.mark.parametrize("flag_seed, bad", [
        ("-1", -1),
        (str(1 << 256), 1 << 256),
    ], ids=["flag_negative", "flag_2_256"])
    def test_sweep_rejects_bad_seed(self, capsys, flag_seed, bad):
        assert main(["sweep", "--depths", "4", "--seed", flag_seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: ConfigInvalid: field 'seed' must be in [0, 2^256), got {bad}\n")

    def test_attacks_all(self, capsys):
        assert main(["attacks", "--all"]) == 0
        out = capsys.readouterr().out
        for name in ATTACK_MATRIX:
            assert name in out
