#!/usr/bin/env python3
"""twistlab benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload suite|series|continuation|cli \\
        --seed N --seconds S --trace 0|1

Run from the repository root; twistlab is imported from ./src.  Whole
passes over the workload's items repeat until S seconds have gone by.
The outputs of every pass are then checked (see checks.py), and the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones, with wall times rescaled to a fixed machine speed (see
calibrate.py); with --trace 1 they are the per-layer ones of a traced run.
Result and trace files, which also hold the raw wall times, go to
bench/_work/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
WORKLOAD_NAMES = ("suite", "series", "continuation", "cli")
# Set-up is timed in this many fresh processes and the median reported.
SETUP_REPEATS = 5
# `import twistlab` is timed in this many fresh interpreters (traced runs).
IMPORT_REPEATS = 5

clock = time.perf_counter


def _import_twistlab():
    sys.path.insert(0, str(SRC))
    import twistlab
    if Path(twistlab.__file__).resolve().parent != SRC / "twistlab":
        raise SystemExit(f"twistlab was imported from {twistlab.__file__}, not {SRC}")


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Seconds to import twistlab and build the workload's inputs, raw and
    rescaled."""
    t0 = clock()
    _import_twistlab()
    from workloads import WORKLOADS
    WORKLOADS[workload].build(seed, ROOT)
    raw = clock() - t0
    import calibrate
    cal = calibrate.KERNEL
    return raw, calibrate.rescale([raw], [cal.sample(raw)], cal)[0]


def _child(args: list[str], env=None) -> str:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)} failed:\n{proc.stderr}")
    return proc.stdout


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median raw and rescaled set-up seconds over fresh processes."""
    probes = [json.loads(_child([str(HERE / "run.py"), "--setup-probe", "--workload",
                                 workload, "--seed", str(seed)]))
              for _ in range(SETUP_REPEATS)]
    return tuple(statistics.median(p[i] for p in probes) for i in (0, 1))


def import_ms() -> float:
    code = ("import time; t = time.perf_counter(); import twistlab; "
            "print(1e3 * (time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return statistics.median(float(_child(["-c", code], env)) for _ in range(IMPORT_REPEATS))


def tail(values: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten items above it, and
    its nearest-rank value."""
    n = len(values)
    pct = (100 * (n - 10)) // n
    rank = math.ceil(pct * n / 100)
    return pct, sorted(values)[rank - 1]


def summary(times: list[list[float]]) -> tuple[list[float], list[float]]:
    """Pass times, and each item's median over the passes, from per-pass
    item times."""
    return ([sum(ts) for ts in times],
            [statistics.median(ts[i] for ts in times) for i in range(len(times[0]))])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time set-up once; print raw and rescaled seconds")
    args = ap.parse_args(argv)
    if not (SRC / "twistlab" / "__init__.py").is_file():
        print(f"error: no twistlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0

    traced = bool(args.trace)
    setup_raw, setup_s = (None, None) if traced else setup_seconds(args.workload, args.seed)

    _import_twistlab()
    import tracing
    from workloads import WORKLOADS, Cli
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
    wl = WORKLOADS[args.workload]
    inputs = wl.build(args.seed, ROOT)
    setup_stats = tracer.snapshot() if traced else None
    run_pass = wl.run_pass
    if wl is Cli:
        Cli.write_files(inputs)
        if traced:
            run_pass = Cli.replay_pass

    # A traced cli run replays its calls in this process, so it takes
    # kernel samples like the other workloads.
    import calibrate
    cal = calibrate.START if wl is Cli and not traced else calibrate.KERNEL
    samples: list[float] = []

    def settle(seconds):
        samples.append(cal.sample(seconds))
        return seconds

    passes, pass_stats = [], []
    start = clock()
    while True:
        passes.append(run_pass(inputs, settle))
        if traced:
            pass_stats.append(tracer.snapshot())
        if clock() - start >= args.seconds:
            break
    if wl is Cli and not traced:
        peak_kb = inputs.child_peak_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # Checks, outside every timed interval.
    import checks
    first = [out for _, out in passes[0]]
    messages = checks.CHECKS[args.workload](inputs, first)
    known = ({i for i, c in enumerate(inputs.calls) if c.known_fault}
             if wl is Cli else set())
    failed, correct = 0, True
    for p, items in enumerate(passes):
        for i, (_, out) in enumerate(items):
            msg = messages[i] if out == first[i] else "output differs from the first pass"
            if msg is None:
                continue
            failed += 1
            if i not in known:
                correct = False
            if p == 0:
                print(f"{'known fault' if i in known else 'FAILED'}: item {i}: {msg}",
                      file=sys.stderr)
    if traced and any(tracing.counts_of(s) != tracing.counts_of(pass_stats[0])
                      for s in pass_stats):
        print("FAILED: per-layer counts differ between passes", file=sys.stderr)
        correct = False
    if wl is Cli:
        shutil.rmtree(inputs.workdir, ignore_errors=True)

    raw_times = [[t for t, _ in items] for items in passes]
    flat = calibrate.rescale([t for ts in raw_times for t in ts], samples, cal)
    n = len(raw_times[0])
    pass_times, per_item = summary([flat[k:k + n] for k in range(0, len(flat), n)])
    record = {"passes": len(passes), "pass_s": pass_times, "item_s": per_item}
    if traced:
        values = tracing.report(setup_stats, pass_stats, import_ms())
        metrics = {k: {"value": v, "unit": tracing.metric_unit(k)} for k, v in values.items()}
        print(f"traced pass_s {statistics.median(pass_times):.4f} (rescaled) over "
              f"{len(passes)} passes", file=sys.stderr)
    else:
        pct, tail_s = tail(per_item)
        raw_passes, raw_items = summary(raw_times)
        record["raw"] = {"setup_s": setup_raw, "pass_s": statistics.median(raw_passes),
                         "item_p50_ms": 1e3 * statistics.median(raw_items),
                         "item_tail_ms": 1e3 * tail(raw_items)[1]}
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": statistics.median(pass_times), "unit": "s"},
            "item_p50_ms": {"value": 1e3 * statistics.median(per_item), "unit": "ms"},
            "item_tail_ms": {"value": 1e3 * tail_s, "unit": "ms"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
        print(f"{len(per_item)} items per pass, {len(passes)} passes, tail is p{pct}",
              file=sys.stderr)
    result = {"correct": correct, "attempted": sum(len(items) for items in passes),
              "failed": failed, "metrics": metrics}
    WORK.mkdir(exist_ok=True)
    kind = "trace" if traced else "result"
    (WORK / f"{kind}-{args.workload}-{args.seed}.json").write_text(
        json.dumps(dict(result, **record), indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
