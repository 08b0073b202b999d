"""Scenario configuration: the replayable description of a run.

A scenario is either a declarative script over the fixed action
vocabulary (the keys of ``ACTION_FIELDS``, read from the ``Simulation``
method signatures) or a named builtin driver; both replay
deterministically from (config, seed).
"""

import inspect
import json
from dataclasses import dataclass, field, asdict, fields

from ..actors import ORACLE_MODES, OraclePolicy, ResilienceRules
from ..dact import validate_chain_id
from ..errors import ChainIdOutOfTier, ConfigInvalid
from ..merkle import MAX_DEPTH
from .simulation import Simulation

_PARAMETERS = {op: inspect.signature(getattr(Simulation, op)).parameters for op in (
    "deposit", "sign", "relay", "push_root", "withdraw", "forge_settlement",
    "revert_mark", "revert_init", "halt", "execute", "advance", "go_offline")}
# action -> its fields besides "op" and "expect", with their types: its
# method's parameters before any ``*`` bar ``self``; a hex ``bytes`` is a ``str``
ACTION_FIELDS = {op: {p.name: str if p.annotation is bytes else p.annotation
                      for p in params.values() if p.kind is p.POSITIONAL_OR_KEYWORD
                      and p.name not in ("self", "expect")}
                 for op, params in _PARAMETERS.items()}
ACTION_VOCABULARY = set(ACTION_FIELDS)

# the fields the "dapp" and "oracle" sections take, with their types: those
# of ResilienceRules and OraclePolicy
DAPP_FIELDS = {f.name: f.type for f in fields(ResilienceRules)}
ORACLE_FIELDS = {f.name: f.type for f in fields(OraclePolicy)}


def _is_a(value, kind: type) -> bool:
    """``isinstance``, except that a boolean is not an ``int`` here: a JSON
    ``true`` where a number belongs is a mistake, not the number 1."""
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def check_seed(seed: int) -> None:
    """Reject a seed ``SeededRng`` cannot take: it encodes the seed as 32
    unsigned bytes."""
    if not 0 <= seed < 1 << 256:
        raise ConfigInvalid(f"field 'seed' must be in [0, 2^256), got {seed}")


def _check_action(i: int, action) -> None:
    """Reject a script action of the wrong shape; what its fields name or
    hold is judged when it runs (``scenarios._run_script``)."""
    if not isinstance(action, dict):
        raise ConfigInvalid(f"action {i}: must be an object, got {action!r}")
    op = action.get("op")
    if not isinstance(op, str) or op not in ACTION_FIELDS:
        raise ConfigInvalid(f"action {i}: unknown action {op!r}")
    where = f"action {i} ({op})"
    types = dict(ACTION_FIELDS[op], op=str, expect=str)
    for name, value in action.items():
        if name not in types:
            raise ConfigInvalid(f"{where}: unknown field {name!r}")
        if value is not None and not _is_a(value, types[name]):
            raise ConfigInvalid(f"{where}: field {name!r} must be "
                                f"{types[name].__name__}, got {value!r}")
    for name in ACTION_FIELDS[op]:
        if _PARAMETERS[op][name].default is inspect.Parameter.empty \
                and action.get(name) is None:
            raise ConfigInvalid(f"{where}: missing field {name!r}")


def _check_section(section: str, values: dict, types: dict) -> None:
    """Reject an unknown or mistyped field of the dapp or oracle section."""
    unknown = set(values) - set(types)
    if unknown:
        raise ConfigInvalid(f"unknown {section} config fields: {sorted(unknown)}")
    for name, value in values.items():
        if not _is_a(value, types[name]):
            raise ConfigInvalid(f"field '{section}.{name}' must be "
                                f"{types[name].__name__}, got {value!r}")


@dataclass
class ScenarioConfig:
    seed: int = 0
    name: str = "scenario"
    chains: list = field(default_factory=lambda: [1001, 1002, 1003])
    multiplexer: int = 1002
    merkle_depth: int = 16
    window: int = 100
    wallets: list = field(default_factory=lambda: ["alice"])
    oracle: dict = field(default_factory=dict)   # OraclePolicy fields
    dapp: dict = field(default_factory=dict)     # ResilienceRules fields
    script: list = None                          # declarative action list
    builtin: str = None                          # or a builtin driver name

    def validate(self) -> "ScenarioConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if not (_is_a(value, f.type) or value is None and f.default is None):
                raise ConfigInvalid(f"field {f.name!r} must be "
                                    f"{f.type.__name__}, got {value!r}")
        check_seed(self.seed)
        if not all(_is_a(cid, int) for cid in self.chains):
            raise ConfigInvalid(f"field 'chains' must list integers, got {self.chains!r}")
        try:
            for cid in self.chains:
                validate_chain_id(cid)
        except ChainIdOutOfTier as exc:
            raise ConfigInvalid(str(exc)) from exc
        if self.multiplexer not in self.chains:
            raise ConfigInvalid("multiplexer must be one of the configured chains")
        if len(set(self.chains)) != len(self.chains):
            raise ConfigInvalid("duplicate chain ids")
        if len(self.chains) < 2:
            # the dApp's global hash is over its addresses on the other chains
            raise ConfigInvalid(f"field 'chains' must list at least two chains, "
                                f"got {self.chains!r}")
        if not all(isinstance(name, str) for name in self.wallets):
            raise ConfigInvalid(f"field 'wallets' must list strings, got {self.wallets!r}")
        if len(set(self.wallets)) != len(self.wallets):
            raise ConfigInvalid(f"duplicate wallet names in {self.wallets!r}")
        if not 1 <= self.merkle_depth <= MAX_DEPTH:
            raise ConfigInvalid(f"merkle_depth must be in 1..{MAX_DEPTH}")
        if self.window < 1:
            raise ConfigInvalid(f"field 'window' must be at least 1, got {self.window}")
        _check_section("dapp", self.dapp, DAPP_FIELDS)
        rules = asdict(ResilienceRules(**self.dapp))
        for name, least in (("period_blocks", 1), ("max_reverts_per_period", 0),
                            ("max_value_per_revert", 0)):
            if rules[name] < least:
                raise ConfigInvalid(f"field 'dapp.{name}' must be at least {least}, "
                                    f"got {rules[name]}")
        _check_section("oracle", self.oracle, ORACLE_FIELDS)
        policy = OraclePolicy(**self.oracle)
        if policy.mode not in ORACLE_MODES:
            raise ConfigInvalid(f"field 'oracle.mode' must be one of "
                                f"{', '.join(ORACLE_MODES)}, got {policy.mode!r}")
        if policy.mode != "censor_chain" and "censor_chain" in self.oracle:
            raise ConfigInvalid(f"field 'oracle.censor_chain' is read only in mode "
                                f"'censor_chain', got mode {policy.mode!r}")
        if policy.mode == "censor_chain" and policy.censor_chain not in self.chains:
            raise ConfigInvalid(f"field 'oracle.censor_chain' names unknown "
                                f"{policy.censor_chain!r}")
        if (self.script is None) == (self.builtin is None):
            raise ConfigInvalid("exactly one of script/builtin must be set")
        for i, action in enumerate(self.script or []):
            _check_action(i, action)
        return self

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigInvalid(f"config must be a JSON object, got {data!r}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigInvalid(f"unknown config fields: {sorted(unknown)}")
        return cls(**data).validate()

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)
