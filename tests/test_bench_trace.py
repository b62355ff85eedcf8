"""A short traced benchmark run of the continuation workload is correct.

bench/run.py ends a run "correct": false when an output misses its
reference or differs from pass 0, and, in a traced run, when the
per-layer counts differ between passes (state kept from one call to the
next, such as a cache keyed by the workload's reused paths, does that).
Such a run still exits 0, so this test reads its last line.  The benchmark
is only run, never changed.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_continuation_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "continuation", "--seconds", "0.3",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, (last["attempted"], last["failed"], proc.stderr[-2000:])
    assert last["failed"] == 0
