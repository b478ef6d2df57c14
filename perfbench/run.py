"""coxforge benchmark: exact queries against the public API in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; only the standard library and ``src/`` are
used.  One client sends each query after the previous answer, in one
process and one thread.  Every measurement runs in a fresh worker process
(perfbench/worker.py), so caches and peak memory belong to one workload.

With ``--trace 0`` the workload runs for S seconds, and set-up is timed
again in SETUP_PROBES more fresh processes, half of them before that run and
half after, so the host's drift over the run evens out; the end-to-end
metrics are printed as a table and, on the last line, as JSON.  With
``--trace 1`` the first passes of the seed are answered once untraced and
once traced, each in a fresh process; the layer metrics of the traced run and
the tracing overhead are printed the same way, and the spans go to
perfbench/out/.

Every answer is checked; a wrong or raised answer makes ``correct`` false
and the exit code 1.  Exit code 2 means the run could not start (bad
arguments, or no ``src/coxforge`` under the working directory).
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("generation", "high_degree", "invariants", "lattice")
SETUP_PROBES = 8
TAIL_MIN_BEYOND = 10
# every worker of a run must end within this many seconds of its start
RUN_BUDGET_S = 175.0


class WorkerError(RuntimeError):
    pass


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (the inclusive method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_percentile(min_samples: int) -> float:
    """The highest percentile, in hundredths, with TAIL_MIN_BEYOND samples
    beyond it in the fewest samples any run of the workload takes, so every
    run of a workload reports the same percentile however many passes it
    makes."""
    return max(50.0, math.floor(10000.0 * (1.0 - TAIL_MIN_BEYOND / min_samples)) / 100.0)


def compile_sources(root: Path) -> bool:
    """Byte-compile coxforge and the benchmark into their __pycache__.

    Workers then import from bytecode, as from an installed package, even
    where the environment forbids writing caches, and set-up time and memory
    do not depend on which run compiled first."""
    return all(compileall.compile_dir(d, quiet=1) for d in (root / "src" / "coxforge", HERE))


def spawn(root: Path, deadline: float, mode: str, workload: str, seed: int,
          seconds: float) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # the same set iteration orders, so the same work, in every run of a seed
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), mode, workload, str(seed), str(seconds)],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker still running {RUN_BUDGET_S:.0f} s into the run") from None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise WorkerError(f"{mode} worker exited {proc.returncode} without a result") from None


def timed_run(root: Path, deadline: float, args) -> tuple:
    def probe() -> dict:
        return spawn(root, deadline, "setup", args.workload, args.seed, 0)

    probes = [probe() for _ in range(SETUP_PROBES // 2)]
    main = spawn(root, deadline, "timed", args.workload, args.seed, args.seconds)
    probes += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    setups = [main["setup_s"]] + [r["setup_s"] for r in probes]
    lat = main["latencies_ms"]
    tail_p = tail_percentile(main["min_samples"])
    tail = percentile(lat, tail_p)
    runs = [main] + probes
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    rows = [
        ("pass_s", statistics.median(main["pass_s"]), "s",
         f"median of {len(main['pass_s'])} passes"),
        ("query_p50_ms", statistics.median(lat), "ms", f"{len(lat)} queries"),
        ("query_tail_ms", tail, "ms",
         f"p{tail_p:g}, {sum(1 for v in lat if v > tail)} of {len(lat)} queries beyond it"),
        ("setup_s", statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        ("peak_rss_mb", main["peak_rss_mib"], "MiB",
         f"worker high-water mark after {main['rss_after_passes']} passes"),
        ("failed_frac", failed / attempted, "ratio", f"{failed} of {attempted} queries"),
    ]
    # failed_frac is 0 on a correct run, so it is carried by "failed" and
    # "attempted" rather than as a metric
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows
               if name != "failed_frac"}
    return rows, metrics, attempted, failed


def traced_run(root: Path, deadline: float, args) -> tuple:
    plain = spawn(root, deadline, "fixed", args.workload, args.seed, args.seconds)
    traced = spawn(root, deadline, "traced", args.workload, args.seed, args.seconds)
    overhead = statistics.median(traced["pass_s"]) - statistics.median(plain["pass_s"])
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, reported in traced["layers"] if reported}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    rows = [(name, value, unit, "" if reported else "printed only")
            for name, value, unit, reported in traced["layers"]]
    rows.append(("trace.overhead_s", overhead, "s",
                 "traced minus untraced median pass on the same inputs"))
    rows.append(("trace.spans", traced["spans"], "count", traced["spans_file"]))
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    rows.append(("failed_frac", failed / attempted, "ratio", f"{failed} of {attempted} queries"))
    return rows, metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    root = Path.cwd()
    if not (root / "src" / "coxforge" / "__init__.py").is_file():
        print(f"no src/coxforge under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    if not compile_sources(root):
        print("benchmark aborted: the sources do not compile", file=sys.stderr)
        return 1
    try:
        rows, metrics, attempted, failed = (traced_run if args.trace else timed_run)(
            root, deadline, args)
    except WorkerError as err:
        print(f"benchmark aborted: {err}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          "closed loop, 1 client, 1 thread")
    for name, value, unit, note in rows:
        print(f"  {name:<48} {value:>16.6f} {unit:<11} {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
