"""Deterministic work counters of the invariants benchmark's queries.

    PYTHONPATH=src python3 tools/invariant_counters.py [--seed 1] [--pass 0]

Run from the repository root.  It builds the benchmark's invariants workload
(perfbench/workloads.py), answers its warm-up queries and then the queries of
one pass, in order, and prints one JSON object with these counts for the
warm-up and for the pass:

  determinants       calls of `build_F`;
  determinant_terms  terms over those determinants;
  derivation_pairs   (term, y_i) pairs, i <= r, with y_i in the term, over
                     the polynomials `is_invariant` is asked about: the
                     work of each derivation D_1, D_2;
  term_passes        passes over a determinant's terms made inside
                     `is_invariant` and `torus_weight` (through
                     `divisor_class_of`), counted by a dict subclass put in
                     place of the determinant's `terms`.

A query that checks a determinant asks `is_invariant` and `divisor_class_of`
of it; a perturbed query asks `is_invariant` of F + y_i, a new polynomial
whose terms are not counted.  The counters are module attributes replaced
from here; the package holds no counting code, and tests/test_tools.py runs
this script on seed 1, pass 0, so a renamed name fails there.  The counts
repeat exactly from run to run for a given seed and pass.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from coxforge import nagata_invariants as ni  # noqa: E402

import workloads  # noqa: E402

COUNTERS = ("determinants", "determinant_terms", "derivation_pairs", "term_passes")


class Counts:
    def __init__(self):
        self.now = dict.fromkeys(COUNTERS, 0)
        self.inside = False


def install(counts: Counts):
    build_F, is_invariant, torus_weight = ni.build_F, ni.is_invariant, ni.torus_weight

    def counted(method):
        def wrapper(self, *args):
            counts.now["term_passes"] += counts.inside
            return method(self, *args)
        return wrapper

    class Terms(dict):
        # each way of walking a dict, counted while a check runs
        __iter__ = counted(dict.__iter__)
        items = counted(dict.items)
        keys = counted(dict.keys)
        values = counted(dict.values)

    def inside(func, *args):
        counts.inside = True
        try:
            return func(*args)
        finally:
            counts.inside = False

    def counted_build_F(index_set, np, cap=None):
        f = build_F(index_set, np, cap)
        counts.now["determinants"] += 1
        counts.now["determinant_terms"] += len(f.terms)
        object.__setattr__(f, "terms", Terms(f.terms))
        return f

    def counted_is_invariant(p, np):
        ys = [j for j, v in enumerate(p.vars)
              if v.startswith("y_") and 1 <= int(v[2:]) <= np.r]
        counts.now["derivation_pairs"] += sum(
            1 for exps in dict.keys(p.terms) for j in ys if exps[j])
        return inside(is_invariant, p, np)

    def counted_torus_weight(p, r=None):
        return inside(torus_weight, p, r)

    ni.build_F, ni.is_invariant, ni.torus_weight = (
        counted_build_F, counted_is_invariant, counted_torus_weight)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pass", dest="pass_no", type=int, default=0)
    args = parser.parse_args(argv)
    counts = Counts()
    install(counts)
    workload = workloads.make("invariants", args.seed)
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
