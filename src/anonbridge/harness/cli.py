"""Command line entry point.

Subcommands:
    run <scenario.json | builtin-name>   execute one scenario
    sweep --depths 4,8,16                cost/capacity sweep over tree depths
    attacks --all                        run the builtin attack matrix
    replay <transcript.jsonl>            re-execute a transcript's config and
                                         confirm the digest matches

Exit status is 0 iff every verdict passed, and 2 when a scenario file or
a transcript to replay cannot be read, a scenario is neither a file nor
a builtin, ``attacks`` names no scenario, the config, a script action,
a sweep depth or a seed is malformed (a seed must be in [0, 2^256), for
``sweep`` too), a transcript has no header, or ``--out`` cannot be
written (it names an existing file, say). ANONBRIDGE_SEED overrides the
scenario seed.
"""

import argparse
import json
import os
import sys
from pathlib import Path

from ..errors import ConfigInvalid
from ..merkle import MAX_DEPTH
from .config import ScenarioConfig, check_seed
from .metrics import sweep_depths
from .scenarios import ATTACK_MATRIX, BUILTINS, builtin_config, run_scenario
from .transcript import Transcript


def _env_seed(default):
    raw = os.environ.get("ANONBRIDGE_SEED")
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigInvalid(f"ANONBRIDGE_SEED must be an integer, got {raw!r}") from None


def _load_config(target: str, seed) -> ScenarioConfig:
    path = Path(target)
    if path.exists():
        try:
            text = path.read_text()
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8
            raise ConfigInvalid(f"cannot read {target!r}: {exc}") from None
        config = ScenarioConfig.from_json(text)
        if config.builtin in BUILTINS:
            # the builtin's defaults, as builtin_config gives them, under
            # the file's own fields
            config = builtin_config(config.builtin, **json.loads(text))
        if seed is not None:
            config.seed = seed
        return config.validate()
    if target in BUILTINS:
        return builtin_config(target, seed=seed if seed is not None else 0)
    raise ConfigInvalid(f"{target!r} is neither a scenario file nor a builtin "
                        f"(builtins: {', '.join(sorted(BUILTINS))})")


class OutputUnwritable(Exception):
    """An ``--out`` directory or file could not be written."""


def _write_files(out_dir, files: dict) -> None:
    """Write each name -> bytes into ``out_dir``, making the directory."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, data in files.items():
            (out / name).write_bytes(data)
    except OSError as exc:
        path = str(exc.filename or out)
        raise OutputUnwritable(f"cannot write {path!r}: {exc.strerror or exc}") from None


def _as_json(value) -> bytes:
    return (json.dumps(value, indent=2) + "\n").encode()


def _write_outputs(result, out_dir) -> None:
    _write_files(out_dir, {"transcript.jsonl": result.transcript.to_jsonl(),
                           "metrics.json": _as_json(result.metrics)})


def _print_verdicts(name: str, verdicts) -> bool:
    ok = True
    for v in verdicts:
        mark = "PASS" if v.passed else "FAIL"
        detail = f"  ({v.detail})" if v.detail and not v.passed else ""
        print(f"[{mark}] {name}: {v.name}{detail}")
        ok &= v.passed
    return ok


def cmd_run(args) -> int:
    config = _load_config(args.scenario, _env_seed(args.seed))
    result = run_scenario(config)
    if args.out:
        _write_outputs(result, args.out)
        print(f"transcript digest {result.transcript.digest()}")
    return 0 if _print_verdicts(config.name, result.verdicts) else 1


def cmd_sweep(args) -> int:
    try:
        depths = [int(d) for d in args.depths.split(",")]
    except ValueError:
        depths = []
    if not depths or not all(1 <= d <= MAX_DEPTH for d in depths):
        print(f"error: --depths must list integers in 1..{MAX_DEPTH}, "
              f"got {args.depths!r}", file=sys.stderr)
        return 2
    seed = _env_seed(args.seed) or 0
    check_seed(seed)
    rows = sweep_depths(depths, seed=seed)
    cols = list(rows[0])
    print("  ".join(f"{c:>20}" for c in cols))
    for row in rows:
        print("  ".join(f"{row[c]:>20}" for c in cols))
    if args.out:
        _write_files(args.out, {"sweep.json": _as_json(rows)})
    return 0


def cmd_attacks(args) -> int:
    seed = _env_seed(args.seed) or 0
    names = ATTACK_MATRIX if args.all else args.names
    if not names:
        raise ConfigInvalid("pass --all or scenario names")
    ok = True
    for name in names:
        result = run_scenario(builtin_config(name, seed=seed))
        ok &= _print_verdicts(name, result.verdicts)
        if args.out:
            _write_outputs(result, Path(args.out) / name)
    return 0 if ok else 1


def cmd_replay(args) -> int:
    try:
        original = Transcript.load(args.transcript)
    except (OSError, ValueError, TypeError) as exc:  # not JSON objects of hashable class
        raise ConfigInvalid(f"cannot read {args.transcript!r}: {exc}") from None
    header = json.loads(original.lines[0]) if original.lines else None
    if not (isinstance(header, dict) and header.get("kind") == "header"
            and isinstance(header.get("config"), str)):
        raise ConfigInvalid(f"{args.transcript!r} has no header record")
    config = ScenarioConfig.from_json(header["config"])
    result = run_scenario(config)
    match = result.transcript.digest() == original.digest()
    print(f"[{'PASS' if match else 'FAIL'}] replay: transcript digest "
          f"{'matches' if match else 'differs'}")
    ok = _print_verdicts(config.name, result.verdicts) and match
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anonbridge",
        description="Deterministic simulator for an anonymous cross-chain "
                    "message protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a scenario file or builtin")
    p.add_argument("scenario")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="directory for transcript/metrics")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="cost/capacity sweep over tree depths")
    p.add_argument("--depths", required=True, help="comma-separated, e.g. 4,8,16")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("attacks", help="run builtin attack scenarios")
    p.add_argument("--all", action="store_true")
    p.add_argument("names", nargs="*")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_attacks)

    p = sub.add_parser("replay", help="re-execute a saved transcript")
    p.add_argument("transcript")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigInvalid as exc:
        print(f"error: ConfigInvalid: {exc}", file=sys.stderr)
        return 2
    except OutputUnwritable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
