"""anonbridge benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload bridge_mixed --seed 1 --seconds 20 --trace 0

Every action waits for the previous one. The program is driven only
through ``Simulation`` action methods, ``run_scenario``/``builtin_config``
and ``standard_verdicts``, with inputs generated from ``--seed``. Results
are checked against ``tests/_reference.py`` and protocol properties (see
``checks.py``). The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
See README.md for the workloads, the metrics and the named fault.
"""

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CHAINS = [1001, 1002, 1003]
MUX = 1002
# every ordered pair of distinct chains: traffic in all directions
DIRECTIONS = [(s, d) for s in CHAINS for d in CHAINS if s != d]
START_BALANCE = 100        # the Wallet default
WALLETS = [f"w{i:02d}" for i in range(12)]
DEPTH = 20
BATCH = 12                 # two deposits per direction per batch
BRIDGE_BATCHES = 12        # 144 settled messages per round
REVERT_BATCHES = 8         # 96 recovered deposits per round
SETUP_REPEATS = 25
VERDICT_PASSES = 3
# host-speed calibration: nominal seconds of one sample, and how often to
# take one; see README, "Host-speed calibration"
CAL_NOMINAL_S = 0.0025
CAL_PERIOD_S = 0.05
CAL_WINDOW = 3
# verdicts are scaled by a serialization yardstick instead: nominal seconds
SER_NOMINAL_S = 0.004

# the analyzer fault every bridge_mixed and revert_flood round hits; see README
NAMED_FAULT = "no_hidden_field_leakage"

END_TO_END = [
    ("setup_s", "s"),
    ("cycles_per_s", "1/s"),
    ("call_ms_p50", "ms"),
    ("call_ms_p95", "ms"),
    ("verdict_s", "s"),
    ("peak_rss_mb", "MB"),
]

MODULES = ["keccak", "hashing", "rng", "merkle", "signing", "dact", "circuit",
           "chain", "actors", "harness", "check", "bench"]

# (metric, span name, quantity, unit)
LAYER_SPANS = [
    ("keccak.keccak256.us_per_call", "keccak.keccak256", "us_per_call", "us"),
    ("keccak.keccak256.calls_per_msg", "keccak.keccak256", "calls_per_msg", "count"),
    ("hashing.permute.us_per_call", "hashing.permute", "us_per_call", "us"),
    ("hashing.permute.calls_per_msg", "hashing.permute", "calls_per_msg", "count"),
    ("merkle.insert.us_per_call", "merkle.insert", "us_per_call", "us"),
    ("merkle.path.ms_per_call", "merkle.path", "ms_per_call", "ms"),
    ("merkle.verify_path.ms_per_call", "merkle.verify_path", "ms_per_call", "ms"),
    ("chain.router_revert_mark_destination.ms_per_call",
     "chain.router_revert_mark_destination", "ms_per_call", "ms"),
    ("circuit.prove_revert.ms_per_call", "circuit.prove_revert", "ms_per_call", "ms"),
    ("circuit.prove_settlement.ms_per_call", "circuit.prove_settlement",
     "ms_per_call", "ms"),
    ("circuit.verify.us_per_call", "circuit.verify", "us_per_call", "us"),
    ("chain.router_withdraw.ms_per_call", "chain.router_withdraw", "ms_per_call", "ms"),
    ("signing.verify.us_per_call", "signing.verify", "us_per_call", "us"),
    ("signing.sign.us_per_call", "signing.sign", "us_per_call", "us"),
    ("dact.obfuscate.calls_per_msg", "dact.obfuscate", "calls_per_msg", "count"),
    ("dact.trustless_public_commitment.calls_per_msg",
     "dact.trustless_public_commitment", "calls_per_msg", "count"),
    ("chain.mixer_submit.ms_per_call", "chain.mixer_submit", "ms_per_call", "ms"),
    ("actors.relay.self_ms_per_call", "actors.relay", "self_ms_per_call", "ms"),
    ("actors.scan_and_sign.self_ms_per_call", "actors.scan_and_sign",
     "self_ms_per_call", "ms"),
    ("actors.build_settlement.self_ms_per_call", "actors.build_settlement",
     "self_ms_per_call", "ms"),
    ("actors.watch_reverts.self_ms_per_call", "actors.watch_reverts",
     "self_ms_per_call", "ms"),
    ("harness.analyze_linkability.s", "harness.analyze_linkability", "s_per_call", "s"),
    ("harness.transcript_log.us_per_call", "harness.transcript_log", "us_per_call", "us"),
    ("harness.simulation_init.ms", "harness.simulation_init", "ms_per_call", "ms"),
    ("rng.bytes.calls_per_scenario", "rng.bytes", "calls_per_scenario", "count"),
]
OP_COUNTS = ["permutations", "keccak_blocks", "sig_verifies", "constraint_evals",
             "proof_verifies"]
PER_LAYER = (
    [(m, u) for m, _, _, u in LAYER_SPANS]
    + [(f"ops.{k}_per_msg", "count") for k in OP_COUNTS]
    + [(f"{m}.self_s", "s") for m in MODULES]
    + [("trace.overhead_s", "s"), ("trace.traced_s", "s"), ("trace.untraced_s", "s")]
)


# -- program loading -------------------------------------------------------------

def load_program() -> SimpleNamespace:
    """Import anonbridge afresh, dropping any copy already imported."""
    for name in [n for n in sys.modules
                 if n == "anonbridge" or n.startswith("anonbridge.")]:
        del sys.modules[name]
    importlib.import_module("anonbridge")
    scenarios = importlib.import_module("anonbridge.harness.scenarios")
    return SimpleNamespace(
        scenarios=scenarios,
        Simulation=importlib.import_module("anonbridge.harness.simulation").Simulation,
        ScenarioConfig=importlib.import_module("anonbridge.harness.config").ScenarioConfig,
    )


def topology(prog, seed: int):
    """The bridge_mixed / revert_flood chain topology, with no script."""
    return prog.ScenarioConfig(
        seed=seed, name="perfbench", chains=list(CHAINS), multiplexer=MUX,
        merkle_depth=DEPTH, wallets=list(WALLETS), script=[],
    )


# -- per-run accounting ------------------------------------------------------------

class Tally:
    """Timings, counts and check results of one run.

    Timings are kept raw and scaled, so that a shared host running slower
    for a while does not read as a slower program (see README, "Host-speed
    calibration"). Calibration samples are taken between cycle calls, at
    least every ``CAL_PERIOD_S``; each cycle call's raw time is scaled by
    ``CAL_NOMINAL_S / mean(the CAL_WINDOW samples either side of it)``.
    """

    def __init__(self):
        self.times: dict = {}      # action -> scaled seconds, closed rounds
        self.raw: dict = {}        # action -> raw seconds, closed rounds
        self.cycle_s = 0.0         # scaled seconds in cycle actions
        self.raw_cycle_s = 0.0
        self.units = 0             # settled messages / recovered deposits / scenarios
        self.msgs = 0              # accepted deposits
        self.sims = 0
        self.ops = dict.fromkeys(OP_COUNTS, 0)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list = []
        self._round: list = []     # open round: (action, raw s, samples before)
        self._cal: list = []       # calibration samples of the open round
        self.cal_all: list = []    # every calibration sample of the run
        self._last_cal = perf_counter()

    def timed(self, action: str, fn, *args, **kwargs):
        """One cycle call; scaled when its round closes."""
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        self._round.append((action, perf_counter() - t0, len(self._cal)))
        if perf_counter() - self._last_cal >= CAL_PERIOD_S:
            self.calibrate()
        return result

    def timed_apart(self, action: str, fn, *args):
        """Timed apart from the message cycle (verdicts), and scaled by the
        serialization yardstick taken either side of it."""
        before = serialization_sample()
        t0 = perf_counter()
        result = fn(*args)
        raw = perf_counter() - t0
        after = serialization_sample()
        self.raw.setdefault(action, []).append(raw)
        self.times.setdefault(action, []).append(raw * 2 * SER_NOMINAL_S / (before + after))
        return result

    def calibrate(self) -> None:
        self._cal.append(calibration_sample(len(self._cal)))
        self.cal_all.append(self._cal[-1])
        self._last_cal = perf_counter()

    def close_round(self) -> None:
        for _ in range(CAL_WINDOW):
            self.calibrate()
        cal = self._cal
        for action, raw, before in self._round:
            near = cal[max(before - CAL_WINDOW, 0):before + CAL_WINDOW]
            scaled = raw * CAL_NOMINAL_S / statistics.mean(near)
            self.raw.setdefault(action, []).append(raw)
            self.times.setdefault(action, []).append(scaled)
            self.raw_cycle_s += raw
            self.cycle_s += scaled
        self._round, self._cal = [], []

    def add_ops(self, report: dict) -> None:
        for k in OP_COUNTS:
            self.ops[k] += report["total"][k]

    def judge(self, results: list, leak_scan_ok: bool) -> None:
        """Count verdicts and checks; only the named fault may fail."""
        for name, ok, detail in results:
            self.attempted += 1
            if ok:
                continue
            self.failed += 1
            # the analyzer's false positive: our own scan found no hidden
            # field, and the destination chain id only in the destination's
            # deposit events, so its violations are all those public words
            if name == NAMED_FAULT and leak_scan_ok:
                continue
            self.correct = False
            self.problems.append(f"{name}: {detail}")


def calibration_sample(counter: int) -> float:
    """Seconds taken by a fixed piece of reference hashing, in the program's
    mix of sponge permutations and keccak: a yardstick of host speed."""
    import _reference as ref

    t0 = perf_counter()
    for i in range(4):
        ref.permute(counter + i, i)
    ref.keccak256(bytes([counter % 256]) * 96)
    return perf_counter() - t0


_SER_RECORDS = [{"i": k, "kind": "event", "op": "deposit_event", "chain": 1001 + k % 3,
                 "payload": f"{k:064x}" * 3, "block": k} for k in range(600)]


def serialization_sample() -> float:
    """Seconds taken to serialize and byte-scan a fixed transcript-like
    record list, the work verdicts do: a yardstick for verdict times."""
    t0 = perf_counter()
    blob = "\n".join(json.dumps(r, sort_keys=True, separators=(",", ":"))
                     for r in _SER_RECORDS).encode()
    blob.count(b"ff" * 32)
    return perf_counter() - t0


def verdict_triples(verdicts) -> list:
    return [(v.name, v.passed, v.detail) for v in verdicts]


# -- workloads ----------------------------------------------------------------------

def message_plan(rng: random.Random, batches: int) -> list:
    """Per batch: deposits (wallet, source, dest, payload, value) in a
    seed-shuffled order with every direction twice, and the order in which
    their follow-up calls are made."""
    plan = []
    for _ in range(batches):
        dirs = DIRECTIONS * (BATCH // len(DIRECTIONS))
        rng.shuffle(dirs)
        batch = [(rng.choice(WALLETS), s, d, rng.randbytes(32), rng.randint(1, 3))
                 for s, d in dirs]
        follow = list(range(BATCH))
        rng.shuffle(follow)
        plan.append((batch, follow))
    return plan


def deposit_batch(sim, tally, batch, payloads=None) -> tuple:
    labels = []
    for wallet, src, dst, payload, value in batch:
        labels.append(tally.timed("deposit", sim.deposit, wallet, src, dst,
                                  payload=payload, value=value))
        if payloads is not None:
            payloads.setdefault(dst, []).append(payload)
    # the oracle relays chain by chain in id order, each in emission order
    relay_order = [labels[i] for i in sorted(range(len(batch)),
                                             key=lambda i: batch[i][1])]
    return labels, relay_order


def timed_verdicts(prog, tally, sim) -> list:
    """``standard_verdicts`` at round end. The verdicts only read the
    simulation, so they are timed over several passes for a steadier median;
    the first pass's results are the ones judged."""
    verdicts = tally.timed_apart("verdict", prog.scenarios.standard_verdicts, sim)
    for _ in range(VERDICT_PASSES - 1):
        tally.timed_apart("verdict", prog.scenarios.standard_verdicts, sim)
    return verdicts


def bridge_round(prog, tally, rng, checks) -> None:
    sim = prog.Simulation(topology(prog, rng.getrandbits(64)))
    tally.sims += 1
    plan = message_plan(rng, BRIDGE_BATCHES)
    payloads: dict = {}
    relay_order = []
    for batch, follow in plan:
        labels, order = deposit_batch(sim, tally, batch, payloads)
        relay_order += order
        tally.timed("relay", sim.relay)
        tally.timed("sign", sim.sign)
        tally.timed("push_root", sim.push_root)
        for i in follow:
            tally.timed("withdraw", sim.withdraw, labels[i])
    n = BRIDGE_BATCHES * BATCH
    tally.units += n
    tally.msgs += n
    tally.attempted += n
    tally.add_ops(sim.metrics_report())
    verdicts = timed_verdicts(prog, tally, sim)
    tally.close_round()
    leak = checks.leakage_scan(sim)
    tally.judge(verdict_triples(verdicts) + [
        leak,
        checks.mixer_root(sim, relay_order, DEPTH),
        checks.spent_sets(sim),
        checks.delivered_once(sim, payloads),
        checks.value_conserved(sim, START_BALANCE),
    ], leak[1])


def revert_round(prog, tally, rng, checks) -> None:
    sim = prog.Simulation(topology(prog, rng.getrandbits(64)))
    tally.sims += 1
    plan = message_plan(rng, REVERT_BATCHES)
    halts = []
    for batch, follow in plan:
        labels, _ = deposit_batch(sim, tally, batch)
        tally.timed("relay", sim.relay)
        tally.timed("push_root", sim.push_root)
        for i in follow:
            tally.timed("revert_mark", sim.revert_mark, labels[i])
            tally.timed("revert_init", sim.revert_init, labels[i])
        halts += tally.timed("halt", sim.halt) or []
        tally.timed("advance", sim.advance, sim.config.window)
        for i in follow:
            tally.timed("execute", sim.execute, labels[i])
    n = REVERT_BATCHES * BATCH
    tally.units += n
    tally.msgs += n
    tally.attempted += n
    tally.add_ops(sim.metrics_report())
    verdicts = timed_verdicts(prog, tally, sim)
    tally.close_round()
    leak = checks.leakage_scan(sim)
    tally.judge(verdict_triples(verdicts) + [
        leak,
        checks.refunded(sim, START_BALANCE),
        checks.nothing_settled(sim),
        checks.revert_flags(sim),
        checks.no_halts(halts),
    ], leak[1])


def scenario_round(prog, tally, rng, checks) -> None:
    """Every builtin once at one seed, then one of them again for its digest."""
    seed = rng.getrandbits(64)
    names = list(prog.scenarios.BUILTINS)
    digests = {}
    for name in names:
        config = prog.scenarios.builtin_config(name, seed=seed)
        result = tally.timed("scenario", prog.scenarios.run_scenario, config)
        tally.sims += 1
        tally.units += 1
        tally.msgs += len(result.sim.deposits)
        tally.add_ops(result.metrics)
        digests[name] = result.transcript.digest()
        # the verdicts alone, timed apart from the scenario that ran them
        tally.timed_apart("verdict", prog.scenarios.standard_verdicts, result.sim)
        failing = [v.name for v in result.verdicts if not v.passed]
        leak = checks.leakage_scan(result.sim)
        ok = not failing and leak[1]
        tally.judge([(f"scenario:{name}", ok, f"{failing} {leak[2]}")], leak[1])
    tally.close_round()
    name = rng.choice(names)
    again = prog.scenarios.run_scenario(prog.scenarios.builtin_config(name, seed=seed))
    tally.sims += 1
    tally.msgs += len(again.sim.deposits)
    tally.add_ops(again.metrics)
    same = again.transcript.digest() == digests[name]
    tally.judge([(f"replay:{name}", same, "transcript digest differs")], True)


WORKLOADS = {
    "bridge_mixed": (bridge_round, "withdraw"),
    "revert_flood": (revert_round, "revert_mark"),
    "scenario_matrix": (scenario_round, "scenario"),
}


def setup_config(prog, workload: str, seed: int):
    if workload == "scenario_matrix":
        return prog.scenarios.builtin_config(next(iter(prog.scenarios.BUILTINS)),
                                             seed=seed)
    return topology(prog, seed)


def measure_setup(workload: str, seed: int) -> tuple:
    """Import anonbridge and build the workload's first simulation, several
    times from a fresh import; returns the last program and the times."""
    load_program()  # warm: bytecode cache and third-party imports
    times = []
    samples = iter(range(2 * CAL_WINDOW * SETUP_REPEATS))
    for _ in range(SETUP_REPEATS):
        # the dropped copy of the program from the set-up before is garbage
        # that a fresh process would not have to collect
        gc.collect()
        before = [calibration_sample(next(samples)) for _ in range(CAL_WINDOW)]
        t0 = perf_counter()
        prog = load_program()
        prog.Simulation(setup_config(prog, workload, seed))
        raw = perf_counter() - t0
        # scaled like the rounds, by the samples either side of it
        after = [calibration_sample(next(samples)) for _ in range(CAL_WINDOW)]
        times.append(raw * CAL_NOMINAL_S / statistics.mean(before + after))
    return prog, times


def run_rounds(prog, workload, seed, checks, tally, seconds=None, rounds=None) -> int:
    """Whole rounds until ``seconds`` have passed or ``rounds`` are done."""
    round_fn, _ = WORKLOADS[workload]
    t_end = perf_counter() + seconds if seconds is not None else None
    done = 0
    while (done < rounds) if rounds is not None else (done == 0 or perf_counter() < t_end):
        rng = random.Random(f"{workload}/{seed}/{done}")
        try:
            round_fn(prog, tally, rng, checks)
        except Exception:  # noqa: BLE001 - reported in the result, run stops
            traceback.print_exc(file=sys.stderr)
            tally.correct = False
            tally.failed += 1
            tally.attempted += 1
            tally.problems.append("round raised")
            break
        done += 1
    return done


# -- metrics ------------------------------------------------------------------------

def p95(values: list) -> float:
    return statistics.quantiles(values, n=20)[18]


def end_to_end(workload: str, tally: Tally, setup_times: list) -> dict:
    call = WORKLOADS[workload][1]
    calls = tally.times[call]
    values = {
        "setup_s": statistics.median(setup_times),
        "cycles_per_s": tally.units / tally.cycle_s,
        "call_ms_p50": statistics.median(calls) * 1e3,
        "call_ms_p95": p95(calls) * 1e3,
        "verdict_s": statistics.median(tally.times["verdict"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def detail_line(workload: str, tally: Tally) -> str:
    """Per-action medians, scaled and raw, for people reading the log."""
    parts = [f"{workload}: {tally.units} units in {tally.cycle_s:.2f} s scaled"
             f" ({tally.raw_cycle_s:.2f} s raw) of cycle calls"]
    for action, values in sorted(tally.times.items()):
        parts.append(f"{action}_ms_p50={statistics.median(values) * 1e3:.3f}"
                     f" (raw {statistics.median(tally.raw[action]) * 1e3:.3f}, n={len(values)})")
    return "  ".join(parts)


def per_layer(summary: dict, mod_self: dict, tally: Tally,
              traced_s: float, untraced_s: float) -> dict:
    sims = max(tally.sims, 1)
    msgs = max(tally.msgs, 1)
    scale = {"us_per_call": 1e6, "ms_per_call": 1e3, "s_per_call": 1.0,
             "self_ms_per_call": 1e3}
    values = {}
    for metric, span, quantity, _ in LAYER_SPANS:
        entry = summary.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        calls = entry["calls"]
        if quantity == "calls_per_msg":
            values[metric] = calls / msgs
        elif quantity == "calls_per_scenario":
            values[metric] = calls / sims
        elif calls == 0:
            values[metric] = 0.0  # the workload never calls it
        elif quantity == "self_ms_per_call":
            values[metric] = entry["self_s"] / calls * 1e3
        else:
            values[metric] = entry["total_s"] / calls * scale[quantity]
    for k in OP_COUNTS:
        values[f"ops.{k}_per_msg"] = tally.ops[k] / msgs
    for m in MODULES:
        values[f"{m}.self_s"] = mod_self.get(m, 0.0)
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.traced_s"] = traced_s
    values["trace.untraced_s"] = untraced_s
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


# -- entry point ----------------------------------------------------------------------

def import_paths() -> None:
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "anonbridge" / "__init__.py").is_file():
        sys.exit(f"perfbench: program sources not found under {src}")
    if not (tests / "_reference.py").is_file():
        sys.exit(f"perfbench: reference implementation not found under {tests}")
    sys.path[:0] = [str(HERE), str(src), str(tests)]


def traced_run(workload: str, seed: int, seconds: float) -> tuple:
    """Untraced for half the time, then the same rounds again traced.

    Both passes start from a fresh import of the program and of the
    reference, so they do identical work from identical caches. The
    untraced wall time is rescaled by the ratio of the two passes'
    calibration means before the difference is taken.
    """
    import checks
    import spans

    tally = Tally()
    load_program()  # warm: bytecode cache and third-party imports
    importlib.reload(checks.ref)
    prog = load_program()
    t0 = perf_counter()
    rounds = run_rounds(prog, workload, seed, checks, tally, seconds=seconds / 2)
    untraced_s = perf_counter() - t0

    traced = Tally()
    importlib.reload(checks.ref)
    prog = load_program()
    rec = spans.Recorder()
    undo = spans.install(rec)
    check_fns = ["leakage_scan", "mixer_root", "spent_sets", "delivered_once",
                 "value_conserved", "refunded", "nothing_settled", "revert_flags",
                 "no_halts"]
    originals = {fn: getattr(checks, fn) for fn in check_fns}
    for fn in check_fns:
        setattr(checks, fn, rec.wrap(f"check.{fn}", originals[fn]))
    root = rec.enter("bench.run")
    try:
        traced_rounds = run_rounds(prog, workload, seed, checks, traced, rounds=rounds)
    finally:
        rec.exit(root)
        spans.uninstall(undo)
        for fn, original in originals.items():
            setattr(checks, fn, original)
    combined = Tally()
    combined.attempted = tally.attempted + traced.attempted
    combined.failed = tally.failed + traced.failed
    combined.correct = tally.correct and traced.correct
    combined.problems = tally.problems + traced.problems
    if not rounds or traced_rounds < rounds:
        return combined, {}  # a round raised: no like-for-like timings
    traced_s = rec.spans[root][2] - rec.spans[root][1]
    # the untraced pass's time at the host speed the traced pass saw
    untraced_s *= statistics.mean(traced.cal_all) / statistics.mean(tally.cal_all)

    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    rec.write(out_dir / f"{workload}-seed{seed}.jsonl")
    summary = spans.summarize(rec.spans)
    mod_self = spans.module_self_times(summary)
    print("module self time, traced pass: " + "  ".join(
        f"{m}={mod_self.get(m, 0.0):.3f}s" for m in MODULES)
        + f"  sum={sum(mod_self.values()):.3f}s wall={traced_s:.3f}s"
        f" untraced={untraced_s:.3f}s rounds={rounds}")
    metrics = per_layer(summary, mod_self, traced, traced_s, untraced_s)
    return combined, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    import_paths()

    if args.trace:
        tally, metrics = traced_run(args.workload, args.seed, args.seconds)
    else:
        import checks

        prog, setup_times = measure_setup(args.workload, args.seed)
        tally = Tally()
        done = run_rounds(prog, args.workload, args.seed, checks, tally,
                          seconds=args.seconds)
        # no closed round, no timings: the result still says what failed
        metrics = {}
        if done:
            print(detail_line(args.workload, tally))
            metrics = end_to_end(args.workload, tally, setup_times)
    for problem in tally.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
