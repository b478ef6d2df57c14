"""Deterministic work counters of the generation benchmark's section queries.

    PYTHONPATH=src python3 tools/section_counters.py [--seed 1] [--pass 0]

Run from the repository root.  It builds the benchmark's generation workload
(perfbench/workloads.py), answers its warm-up queries and then the queries of
one pass, in order, and prints one JSON object with these counts for the
warm-up and for the pass:

  eliminations       calls of `linalg.echelon` from the section layer;
  condition_cells    rows x width over those eliminations;
  walks              chamber walks of `h0`'s rule (r = n + 3 only);
  walk_reflections   simple reflections over those walks;
  dims               calls of that rule, `section_spaces._dim`, from `h0`
                     and from every span state;
  dims_without_elimination
                     those answered with no elimination: by the degree and
                     multiplicity test after the walk, or by the echelon
                     slot;
  span_states        span states the generation tests solve (the
                     constants are not counted).

The counters are module attributes replaced from here; the package holds no
counting code, and tests/test_tools.py runs this script on seed 1, pass 0,
so a renamed private name fails there.  The counts repeat exactly from run
to run for a given seed and pass.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from coxforge import section_spaces as ss  # noqa: E402

import workloads  # noqa: E402

COUNTERS = ("eliminations", "condition_cells", "walks", "walk_reflections",
            "dims", "dims_without_elimination", "span_states")


class Counts:
    def __init__(self):
        self.now = dict.fromkeys(COUNTERS, 0)
        self.in_test = self.in_h0 = False


def install(counts: Counts):
    echelon, walk, dim = ss.echelon, ss._walk, ss._dim
    h0, generation_test = ss.h0, ss.generation_test

    def counted_echelon(rows, ncols):
        counts.now["eliminations"] += 1
        counts.now["condition_cells"] += len(rows) * ncols
        return echelon(rows, ncols)

    class ReflectionPairs(tuple):
        # a walk applies a move's v pairs once per reflection
        def __iter__(self):
            counts.now["walk_reflections"] += 1
            return super().__iter__()

    def counted_walk(x, moves):
        counts.now["walks"] += 1
        return walk(x, tuple((f, ReflectionPairs(v)) for f, v in moves))

    def counted_dim(k, mults, cfg):
        before = counts.now["eliminations"]
        res = dim(k, mults, cfg)
        counts.now["dims"] += 1
        counts.now["dims_without_elimination"] += counts.now["eliminations"] == before
        counts.now["span_states"] += counts.in_test and not counts.in_h0
        return res

    def counted_h0(d, cfg):
        counts.in_h0 = True
        try:
            return h0(d, cfg)
        finally:
            counts.in_h0 = False

    def counted_generation_test(d, cfg, cap=None):
        counts.in_test = True
        try:
            return generation_test(d, cfg, cap)
        finally:
            counts.in_test = False

    ss.echelon, ss._walk, ss._dim = counted_echelon, counted_walk, counted_dim
    ss.h0, ss.generation_test = counted_h0, counted_generation_test


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pass", dest="pass_no", type=int, default=0)
    args = parser.parse_args(argv)
    counts = Counts()
    install(counts)
    workload = workloads.make("generation", args.seed)
    report = {"seed": args.seed, "pass": args.pass_no}
    for phase, queries in (("warm_up", workload.warm_up_queries()),
                           ("pass", workload.queries(args.pass_no))):
        counts.now = dict.fromkeys(COUNTERS, 0)
        for query in queries:
            if not query.check(query.run()):
                print(f"wrong answer: {query.label}", file=sys.stderr)
                return 1
        report[phase] = counts.now
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
