"""Deterministic work counters of the lattice benchmark's membership queries.

    PYTHONPATH=src python3 tools/lattice_counters.py [--seed 1] [--pass 0]

Run from the repository root.  It builds the benchmark's lattice workload
(perfbench/workloads.py), answers its warm-up queries and then the queries of
one pass, in order, and prints one JSON object with these counts for the
warm-up and for the pass:

  membership_calls   calls of eff_membership;
  members            those answering True;
  walks              chamber walks (f1+ and f2+ included, once per context);
  walk_reflections   simple reflections over all walks;
  scan_fallbacks     eff_membership calls that scanned a nef orbit;
  curves_scanned     orbit curves dotted by those scans;
  orbit_nodes        tuples closed by the Weyl-orbit BFS, over every caller
                     (a capped closure counts cap + 1).

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

from coxforge import blowup_divisors as bd  # noqa: E402
from coxforge import root_system as rsys  # noqa: E402
from coxforge.errors import CapExceeded  # noqa: E402

import workloads  # noqa: E402

COUNTERS = ("membership_calls", "members", "walks", "walk_reflections",
            "scan_fallbacks", "curves_scanned", "orbit_nodes")


class Counts:
    def __init__(self):
        self.now = dict.fromkeys(COUNTERS, 0)
        self.in_membership = False
        self.scanned = False


def install(counts: Counts):
    membership = bd.eff_membership
    nef_orbit = bd._nef_orbit
    orbit = rsys._orbit
    walk = bd._walk

    def counted_membership(d, cap=None):
        counts.in_membership, counts.scanned = True, False
        try:
            res = membership(d, cap)
        finally:
            counts.in_membership = False
        counts.now["membership_calls"] += 1
        counts.now["members"] += res.member
        counts.now["scan_fallbacks"] += counts.scanned
        return res

    class ScannedOrbit(tuple):
        def __iter__(self):
            for g in super().__iter__():
                counts.now["curves_scanned"] += 1
                yield g

    def counted_nef_orbit(ctx, curve, cap):
        found = nef_orbit(ctx, curve, cap)
        if not counts.in_membership:
            return found
        counts.scanned = True
        return ScannedOrbit(found)

    def counted_orbit(start, moves, cap, what):
        try:
            found = orbit(start, moves, cap, what)
        except CapExceeded:
            counts.now["orbit_nodes"] += cap + 1
            raise
        counts.now["orbit_nodes"] += len(found)
        return found

    class ReflectionPairs(tuple):
        # a walk applies a move's v pairs once per reflection
        def __iter__(self):
            counts.now["walk_reflections"] += 1
            return super().__iter__()

    def counted_walk(x, moves):
        counts.now["walks"] += 1
        return walk(x, tuple((f, ReflectionPairs(v)) for f, v in moves))

    bd.eff_membership = counted_membership
    bd._nef_orbit = counted_nef_orbit
    rsys._orbit = bd._orbit = counted_orbit
    bd._walk = counted_walk


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pass", dest="pass_no", type=int, default=0)
    args = parser.parse_args(argv)
    counts = Counts()
    install(counts)
    workload = workloads.make("lattice", args.seed)
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
