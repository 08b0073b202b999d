"""Scenario runner, builtin attack library, and invariant verdicts."""

import copy
from dataclasses import dataclass

from ..actors import START_BALANCE
from ..chain import words
from ..errors import ConfigInvalid, SimError
from .config import ScenarioConfig
from .linkability import analyze_linkability
from .simulation import Simulation, Verdict

SOURCE, DEST = 1001, 1003


@dataclass
class RunResult:
    config: ScenarioConfig
    transcript: object
    metrics: dict
    verdicts: list
    sim: Simulation

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


# -- standard invariant verdicts ------------------------------------------------

def _check_settle_xor_revert(sim: Simulation) -> Verdict:
    """No deposit both settled on its destination and refunded on its
    source, as ``Simulation.settled`` and ``reverted`` judge it; a failure
    names those deposits' labels."""
    bad = [label for label in sim.deposits
           if sim.settled(label) and sim.reverted(label)]
    return Verdict("settle_xor_revert", not bad, str(bad) if bad else "")


def _check_deposit_minimality(sim: Simulation) -> Verdict:
    """Deposit events are exactly the words (commitment, tpc, source chain)."""
    for chain in sim.chains.values():
        source_word = words(chain.chain_id)
        for ev in chain.event_log:
            if ev.kind != "deposit":
                continue
            if len(ev.payload) != 96:
                return Verdict("deposit_minimality", False,
                               f"payload length {len(ev.payload)}")
            if ev.payload[64:] != source_word:
                return Verdict("deposit_minimality", False,
                               "source chain field mismatch")
    return Verdict("deposit_minimality", True)


def _check_linkability(sim: Simulation) -> Verdict:
    """No hidden field in the oracle or source-chain view; a failure names
    the first deposit and field that leaked and its count in each view."""
    report = analyze_linkability(sim.transcript, sim.secrets_for_analysis())
    detail = f"violations={report['violations']}"
    for entry in report["deposits"]:
        oracle, source = entry["oracle_view"], entry["source_view"]
        leaked = [name for name in oracle if oracle[name] or source[name]]
        if leaked:
            name = leaked[0]
            detail += (f"; {entry['label']}.{name} oracle_view={oracle[name]}"
                       f" source_view={source[name]}")
            break
    return Verdict("no_hidden_field_leakage", report["violations"] == 0, detail)


def standard_verdicts(sim: Simulation) -> list:
    return [
        _check_settle_xor_revert(sim),
        _check_deposit_minimality(sim),
        _check_linkability(sim),
    ]


# -- builtin scenarios -----------------------------------------------------------

def _drive_happy_path(sim: Simulation) -> str:
    d = sim.deposit("alice", SOURCE, DEST)
    sim.relay()
    sim.sign()
    sim.push_root()
    return d


def settlement_happy_path(sim: Simulation):
    d = _drive_happy_path(sim)
    sim.withdraw(d)
    sim.check("payload_delivered", sim.settled(d))


def double_spend(sim: Simulation):
    """Resubmitting a settled proof must fail, whatever happens in between."""
    d = _drive_happy_path(sim)
    sim.withdraw(d)
    # a seed-chosen amount of unrelated activity between the two submissions
    r = sim.rng.child("interleave").py_random()
    fillers = [
        lambda: sim.advance(r.randint(1, 5)),
        lambda: sim.deposit("alice", SOURCE, DEST),
        lambda: (sim.relay(), sim.sign(), sim.push_root()),
    ]
    for _ in range(r.randint(0, 4)):
        r.choice(fillers)()
    sim.withdraw(d, reuse_proof=True, expect="DoubleSpend")
    sim.relay()
    sim.push_root()  # fresh root so the revert attempt fails on the spend flag
    sim.revert_mark(d, expect="DoubleSpend")
    sim.check("double_spend_rejected", True)
    sim.check("payload_delivered_once",
              sim.dapp.contracts[DEST].received_payloads.count(
                  sim.deposits[d].payload) == 1)


def oracle_forged_root(sim: Simulation):
    """A forged root settles nothing: no Router takes a root the Mixer never
    held, and the proof cannot be built without the dApp's leaf signature."""
    sim.deposit("alice", SOURCE, DEST)
    sim.relay()
    sim.sign()
    sim.forge_settlement(expect="ConstraintViolation:signature")
    forged = sim.oracle.forged_root
    sim.push_root(expect="UnknownRoot")  # policy forge_root: offers the forged root
    sim.forge_settlement(expect="ConstraintViolation:signature")
    sim.check("forged_root_refused_by_router",
              all(forged not in c.router.known_roots for c in sim.chains.values()))
    settled_events = [ev for c in sim.chains.values()
                      for ev in c.event_log if ev.kind == "settled"]
    sim.check("no_forged_settlement", not settled_events)


def oracle_censorship(sim: Simulation):
    """Oracles drop the relayed withdraw; the user reverts without them."""
    d = _drive_happy_path(sim)
    sim.withdraw(d, via_oracle=True, expect="Censored")
    sim.check("withdraw_censored", True)
    sim.check("not_settled", not sim.settled(d))
    sim.revert_mark(d)
    sim.revert_init(d)
    sim.halt()  # honest revert: inside the value and rate rules, no halt
    sim.advance(sim.config.window)
    sim.execute(d)
    wallet = sim.wallets["alice"]
    sim.check("funds_recovered", wallet.balance == START_BALANCE)


def custody_total_outage(sim: Simulation):
    """Oracles and dApp die after root sync and destination mark; the
    revert still executes at window expiry."""
    d = _drive_happy_path(sim)
    sim.revert_mark(d)
    sim.go_offline("oracle")
    sim.go_offline("dapp")
    sim.revert_init(d)
    halts = sim.halt()  # offline dApp issues nothing
    sim.advance(sim.config.window)
    sim.execute(d)
    sim.check("funds_recovered", sim.wallets["alice"].balance == START_BALANCE)
    sim.check("no_halt_issued", not halts)


def dapp_hash_squat(sim: Simulation):
    """Stealing another dApp's global hash fails: the Router recomputes
    the hash and requires the caller to be part of the address array."""
    victim = sim.dapp
    attacker = sim.deploy_extra_dapp("attacker")
    home_cid = sim.config.chains[0]
    victim_home = victim.contracts[home_cid].address
    victim_others = [victim.contracts[c].address
                     for c in sim.config.chains if c != home_cid]

    # attacker's own contract claims the victim's array
    sim.register_dapp(DEST, attacker.contracts[DEST].address, victim_others,
                      attacker.verifying_key, home=victim_home,
                      expect="Unauthorized")
    # exact duplicate of the victim's registration
    sim.register_dapp(DEST, victim.contracts[DEST].address, victim_others,
                      attacker.verifying_key, home=victim_home,
                      expect="AlreadyRegistered")
    ok = all(
        c.router.dapp_registry.get(victim.ghash) == victim.contracts[cid].address
        for cid, c in sim.chains.items()
    )
    sim.check("victim_registration_intact", ok)


def unsigned_leaf_settlement(sim: Simulation):
    d = sim.deposit("alice", SOURCE, DEST)
    sim.relay()
    sim.push_root()  # nobody signs
    sim.withdraw(d, expect="SignatureMissing")
    sim.check("not_settled", not sim.settled(d))


def settle_then_revert(sim: Simulation):
    """Double spend through the settlement-revert logic, stopped by the
    contracts alone: no mark after settlement, no window without a mark."""
    d = _drive_happy_path(sim)
    sim.withdraw(d)
    sim.revert_mark(d, expect="DoubleSpend")
    sim.go_offline("dapp")
    sim.revert_init(d, expect="NotMarked")
    sim.check("no_revert_pending", not sim.chains[SOURCE].router.pending_reverts)
    sim.advance(sim.config.window)
    sim.execute(d, expect="NoPending")
    sim.check("settled_not_reverted",
              sim.settled(d) and not sim.reverted(d))


def withdraw_revert_race(sim: Simulation):
    """Seed-chosen interleaving of settle and revert attempts; exactly one
    of the two outcomes must win."""
    d = _drive_happy_path(sim)
    r = sim.rng.child("race").py_random()
    settle_steps = [lambda: sim.withdraw(d)]
    revert_steps = [
        lambda: sim.revert_mark(d),
        lambda: sim.revert_init(d),
        sim.halt,
        lambda: sim.advance(sim.config.window),
        # a last watcher pass before execution
        lambda: (sim.halt(), sim.execute(d)),
    ]
    merged = []
    while settle_steps or revert_steps:
        pool = []
        if settle_steps:
            pool.append(settle_steps)
        if revert_steps:
            pool.append(revert_steps)
        merged.append(r.choice(pool).pop(0))
    for step in merged:
        try:
            step()
        except SimError:
            pass  # rejections are the mechanism under test
    settled, reverted = sim.settled(d), sim.reverted(d)
    sim.check("exactly_one_outcome", settled != reverted,
              f"settled={settled} reverted={reverted}")


def wrong_chain_withdraw(sim: Simulation):
    d = _drive_happy_path(sim)
    sim.withdraw(d, chain=SOURCE, expect="TpcMismatch")
    sim.withdraw(d, claim_dest=SOURCE, expect="WrongChain")
    sim.withdraw(d)
    sim.check("honest_withdraw_still_works", sim.settled(d))


def payload_tamper(sim: Simulation):
    d = _drive_happy_path(sim)
    sim.withdraw(d, tamper_payload=True, expect="TpcMismatch")
    sim.withdraw(d)
    sim.check("original_payload_delivered", sim.settled(d))


def wrong_dapp_call(sim: Simulation):
    """A proof bound to dApp A can never invoke dApp B."""
    other = sim.deploy_extra_dapp("dapp_b")
    d = _drive_happy_path(sim)
    # proving against B's key fails: B never signed the leaf
    sim.withdraw(d, verifying_key=other.verifying_key,
                 expect="ConstraintViolation:signature")
    # grafting B's key onto a valid proof breaks the TPC recomputation
    sim.withdraw(d, graft_key=other.verifying_key, expect="TpcMismatch")
    sim.check("no_cross_dapp_delivery",
              not other.contracts[DEST].received_payloads)


def oracle_replay(sim: Simulation):
    """Replayed deposit events bounce off the mixer's commitment dedupe."""
    sim.deposit("alice", SOURCE, DEST)
    actions = sim.relay()  # policy replay: submits each event twice
    rejected = [act for act in actions if act[0] == "relay_rejected"]
    sim.check("replay_rejected",
              bool(rejected) and "DuplicateCommitment" in rejected[0])
    sim.check("single_leaf", len(sim.mixer_chain.mixer.tree.leaves) == 1)


BUILTINS = {
    "settlement_happy_path": (settlement_happy_path, {}),
    "double_spend": (double_spend, {}),
    "oracle_forged_root": (oracle_forged_root, {"oracle": {"mode": "forge_root"}}),
    "oracle_censorship": (oracle_censorship, {"oracle": {"mode": "censor_dapp"}}),
    "custody_total_outage": (custody_total_outage, {}),
    "dapp_hash_squat": (dapp_hash_squat, {}),
    "unsigned_leaf_settlement": (unsigned_leaf_settlement, {}),
    "settle_then_revert": (settle_then_revert, {}),
    "withdraw_revert_race": (withdraw_revert_race, {}),
    "wrong_chain_withdraw": (wrong_chain_withdraw, {}),
    "payload_tamper": (payload_tamper, {}),
    "oracle_replay": (oracle_replay, {"oracle": {"mode": "replay"}}),
    "wrong_dapp_call": (wrong_dapp_call, {}),
}

# the nine adversarial scenarios of the attack matrix
ATTACK_MATRIX = [
    "oracle_forged_root",
    "oracle_censorship",
    "dapp_hash_squat",
    "unsigned_leaf_settlement",
    "double_spend",
    "withdraw_revert_race",
    "wrong_chain_withdraw",
    "payload_tamper",
    "wrong_dapp_call",
]


def builtin_config(name: str, /, seed: int = 0, **overrides) -> ScenarioConfig:
    """The builtin's config: a copy of its ``BUILTINS`` defaults under
    ``overrides``, which may also set the config's ``name``."""
    if name not in BUILTINS:
        raise ConfigInvalid(f"unknown builtin scenario {name!r}")
    _, defaults = BUILTINS[name]
    return ScenarioConfig(**{"seed": seed, "name": name, "builtin": name,
                             **copy.deepcopy(defaults), **overrides})


# -- declarative script interpreter -----------------------------------------------

def _run_script(sim: Simulation, script: list) -> None:
    """Run a script whose shape ``ScenarioConfig.validate`` accepted: each
    action calls the ``Simulation`` method of its name with its non-null
    fields as keywords, ``payload`` decoded from hex (a payload not in hex
    is refused here). The ``Simulation`` judges the names, labels and proofs
    an action asks for as it runs; each refusal names the action."""
    for i, action in enumerate(script):
        fields = {name: value for name, value in action.items() if value is not None}
        op = fields.pop("op")
        try:
            if "payload" in fields:
                try:
                    fields["payload"] = bytes.fromhex(fields["payload"])
                except ValueError:
                    raise ConfigInvalid("field 'payload' is not hex") from None
            getattr(sim, op)(**fields)
        except ConfigInvalid as exc:
            raise ConfigInvalid(f"action {i} ({op}): {exc}") from None


def _check_builtin(config: ScenarioConfig) -> None:
    """Reject a builtin config its driver could not run: every driver
    deposits from wallet ``alice`` on ``SOURCE`` to ``DEST``."""
    if config.builtin not in BUILTINS:
        raise ConfigInvalid(f"unknown builtin scenario {config.builtin!r}")
    if not {SOURCE, DEST} <= set(config.chains):
        raise ConfigInvalid(f"builtin {config.builtin!r} needs chains {SOURCE} "
                            f"and {DEST}, got {config.chains!r}")
    if "alice" not in config.wallets:
        raise ConfigInvalid(f"builtin {config.builtin!r} needs wallet 'alice', "
                            f"got {config.wallets!r}")


def run_scenario(config: ScenarioConfig) -> RunResult:
    """Execute a scenario; deterministic in (config, seed). The
    ``Simulation`` validates the config before a builtin's is checked."""
    sim = Simulation(config)
    if config.builtin is not None:
        _check_builtin(config)
    try:
        if config.builtin is not None:
            driver, _ = BUILTINS[config.builtin]
            driver(sim)
        else:
            _run_script(sim, config.script)
    except ConfigInvalid:
        raise  # malformed input, not a protocol outcome
    except SimError as exc:
        sim.check("scenario_completed", False, f"{type(exc).__name__}: {exc}")
    sim.verdicts.extend(standard_verdicts(sim))
    sim.transcript.log("verdicts", results=[
        {"name": v.name, "passed": v.passed} for v in sim.verdicts
    ])
    return RunResult(config, sim.transcript, sim.metrics_report(), sim.verdicts, sim)
