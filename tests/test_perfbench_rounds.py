"""One round of each benchmark workload runs and passes the benchmark's own
checks, which read the program's state and its transcript: a change that
breaks what they read fails here, not only in a benchmark run. No wall
time is asserted."""

import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# run in a fresh interpreter, since ``load_program`` drops anonbridge from
# ``sys.modules``; ``import_paths`` gives the benchmark's own ``sys.path``
ONE_ROUND_EACH = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run
run.import_paths()
import checks
results = {}
for workload in sorted(run.WORKLOADS):
    tally = run.Tally()
    done = run.run_rounds(run.load_program(), workload, 1, checks, tally, rounds=1)
    results[workload] = {"done": done, "correct": tally.correct,
                         "failed": tally.failed, "problems": tally.problems}
print(json.dumps(results))
"""


def test_one_round_of_each_workload_is_correct():
    proc = subprocess.run([sys.executable, "-c", ONE_ROUND_EACH, str(PERFBENCH)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(results) == ["bridge_mixed", "revert_flood", "scenario_matrix"]
    for workload, result in results.items():
        assert result["done"] == 1, (workload, proc.stderr)
        assert result["correct"] and result["failed"] == 0, (workload, result)
