"""Steadiness check: run each workload repeatedly, one seed per run, and
report each end-to-end metric's median and quartiles against its bound.

    python3 perfbench/steady.py --runs 10

Every workload in BENCHMARK.json runs ``--runs`` times, with seeds 1, 2, ...
and BENCHMARK.json's run length; the bounds come from there too. A metric's
spread is the distance between the first and third quartile of its values
(as ``statistics.quantiles(values, n=4)`` gives them) as a share of their
median. ``steady`` means the spread is below a third of the bound. The
share of failed operations must be the same in every run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)

    all_steady = True
    summary = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in range(1, args.runs + 1):
            res = run_once(workload, seed, spec["run_seconds"])
            results.append(res)
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} {values}",
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{workload}: all correct={correct}, failed shares={sorted(shares)}")
        all_steady &= correct and len(shares) == 1
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            steady = spread < bound / 3
            all_steady &= steady
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": spread, "bound": bound}
            print(f"  {name:14s} median {med:12.5f} {metric['unit']:4s} "
                  f"q1 {q1:12.5f} q3 {q3:12.5f} spread {spread:7.2%} "
                  f"bound {bound:5.0%} {'steady' if steady else 'NOT STEADY'}")
    print(json.dumps({"steady": all_steady, "workloads": summary}))
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
