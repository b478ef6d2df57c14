"""Deterministic work counters of one benchmark workload's queries.

    PYTHONPATH=src python3 tools/counters.py {generation,high_degree,invariants,lattice} [--seed 1] [--pass 0]

Run from the repository root.  It builds the named workload of the benchmark
(perfbench/workloads.py), answers its warm-up queries and then the queries of
one pass, in order, and prints one JSON object with the workload's counts for
the warm-up and for the pass.

generation, the section queries:
  eliminations       calls of `linalg.echelon` from the section layer, the
                     exact route;
  condition_cells    rows x width over those eliminations;
  walks              chamber walks of `h0`'s rule (r = n + 3, n >= 3 only);
  walk_reflections   simple reflections over those walks;
  dims               calls of that rule, `section_spaces._dim`, from `h0`
                     and from every span state;
  dims_without_elimination
                     those answered with no elimination or modular kernel:
                     by the peeling rule (n = 2), by the degree and
                     multiplicity test after the walk, or by the echelon
                     slot;
  span_states        span states the generation tests solve (the
                     constants are not counted).

high_degree, the large section spaces: eliminations, condition_cells,
  walks, dims and dims_without_elimination as for generation; here the
  eliminations come from `form_space` and `section_of` too, which on P^2
  eliminate only the nef class left by peeling.  Shapes past the section
  layer's gate take the modular route instead:
  modular_kernels    calls of `linalg.modular_kernel` from the section layer;
  primes_tried       primes those calls reduced their rows by;
  fallbacks          those calls that no prime certified, answered by an
                     exact elimination (calls of `linalg.echelon` while
                     one runs).

invariants, the determinant queries:
  determinants       calls of `build_F`;
  determinant_terms  terms over those determinants;
  derivation_pairs   (term, y_i) pairs, i <= r, with y_i in the term, over
                     the polynomials `is_invariant` is asked about: the
                     work of each derivation D_1, D_2;
  term_passes        passes over a determinant's terms made inside
                     `is_invariant` and `torus_weight` (through
                     `divisor_class_of`), counted by a dict subclass put in
                     place of the determinant's `terms`.

  A query that checks a determinant asks `is_invariant` and
  `divisor_class_of` of it; a perturbed query asks `is_invariant` of
  F + y_i, a new polynomial whose terms are not counted.

lattice, the membership queries:
  membership_calls   calls of eff_membership;
  members            those answering True;
  walks              chamber walks (f1+ and f2+ included, once per context);
  walk_reflections   simple reflections over all walks;
  scan_fallbacks     eff_membership calls that scanned a nef orbit;
  curves_scanned     orbit curves dotted by those scans;
  orbit_nodes        tuples closed by the Weyl-orbit BFS, over every caller
                     (a capped closure counts cap + 1).

The package holds no counting code: the counters replace module attributes
from here, and tests/test_tools.py pins seed 1, pass 0, so a renamed
private name fails there.  Counts repeat exactly for a given seed and pass.
One process counts one workload: generation and lattice count walks on
different `_walk` bindings and share the cache of `blowup_divisors._chamber`.
"""

from __future__ import annotations

import argparse
from collections import Counter
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from coxforge import blowup_divisors as bd  # noqa: E402
from coxforge import linalg  # noqa: E402
from coxforge import nagata_invariants as ni  # noqa: E402
from coxforge import root_system as rsys  # noqa: E402
from coxforge import section_spaces as ss  # noqa: E402
from coxforge.errors import CapExceeded  # noqa: E402

import workloads  # noqa: E402


def flagged(flags: set, name: str, func):
    """func, with `name` in flags while it runs."""
    def wrapper(*args, **kwargs):
        flags.add(name)
        try:
            return func(*args, **kwargs)
        finally:
            flags.discard(name)
    return wrapper


def counted_walk(now: Counter, walk):
    """`walk`, counting the walks and their simple reflections."""
    class ReflectionPairs(tuple):
        # a walk applies a move's v pairs once per reflection
        def __iter__(self):
            now["walk_reflections"] += 1
            return super().__iter__()

    def wrapper(x, moves):
        now["walks"] += 1
        return walk(x, tuple((f, ReflectionPairs(v)) for f, v in moves))
    return wrapper


def install_generation(now: Counter, flags: set):
    echelon, dim, modular_kernel = ss.echelon, ss._dim, ss.modular_kernel
    kernel_mod, fallback = linalg._kernel_mod, linalg.echelon

    def counted_echelon(rows, ncols):
        now["eliminations"] += 1
        now["condition_cells"] += len(rows) * ncols
        return echelon(rows, ncols)

    def counted_modular_kernel(rows, ncols):
        now["modular_kernels"] += 1
        return modular_kernel(rows, ncols)

    def counted_kernel_mod(rows, ncols, p):
        now["primes_tried"] += 1
        return kernel_mod(rows, ncols, p)

    def counted_fallback(rows, ncols):
        now["fallbacks"] += "modular" in flags
        return fallback(rows, ncols)

    def counted_dim(k, mults, cfg):
        before = now["eliminations"] + now["modular_kernels"]
        res = dim(k, mults, cfg)
        now["dims"] += 1
        now["dims_without_elimination"] += now["eliminations"] + now["modular_kernels"] == before
        now["span_states"] += "test" in flags and "h0" not in flags
        return res

    ss.echelon, ss._walk, ss._dim = counted_echelon, counted_walk(now, ss._walk), counted_dim
    ss.modular_kernel = flagged(flags, "modular", counted_modular_kernel)
    linalg._kernel_mod, linalg.echelon = counted_kernel_mod, counted_fallback
    ss.h0 = flagged(flags, "h0", ss.h0)
    ss.generation_test = flagged(flags, "test", ss.generation_test)


def install_invariants(now: Counter, flags: set):
    build_F, is_invariant = ni.build_F, flagged(flags, "inside", ni.is_invariant)

    def counted(method):
        def wrapper(self, *args):
            now["term_passes"] += "inside" in flags
            return method(self, *args)
        return wrapper

    class Terms(dict):
        # each way of walking a dict, counted while a check runs
        __iter__ = counted(dict.__iter__)
        items = counted(dict.items)
        keys = counted(dict.keys)
        values = counted(dict.values)

    def counted_build_F(index_set, np, cap=None):
        f = build_F(index_set, np, cap)
        now["determinants"] += 1
        now["determinant_terms"] += len(f.terms)
        object.__setattr__(f, "terms", Terms(f.terms))
        return f

    def counted_is_invariant(p, np):
        ys = [j for j, v in enumerate(p.vars)
              if v.startswith("y_") and 1 <= int(v[2:]) <= np.r]
        now["derivation_pairs"] += sum(
            1 for exps in dict.keys(p.terms) for j in ys if exps[j])
        return is_invariant(p, np)

    ni.build_F, ni.is_invariant = counted_build_F, counted_is_invariant
    ni.torus_weight = flagged(flags, "inside", ni.torus_weight)


def install_lattice(now: Counter, flags: set):
    nef_orbit, orbit = bd._nef_orbit, rsys._orbit
    membership = flagged(flags, "membership", bd.eff_membership)

    def counted_membership(d, cap=None):
        flags.discard("scanned")
        res = membership(d, cap)
        now["membership_calls"] += 1
        now["members"] += res.member
        now["scan_fallbacks"] += "scanned" in flags
        return res

    class ScannedOrbit(tuple):
        def __iter__(self):
            for g in super().__iter__():
                now["curves_scanned"] += 1
                yield g

    def counted_nef_orbit(ctx, curve, cap):
        found = nef_orbit(ctx, curve, cap)
        if "membership" not in flags:
            return found
        flags.add("scanned")
        return ScannedOrbit(found)

    def counted_orbit(start, moves, cap, what):
        try:
            found = orbit(start, moves, cap, what)
        except CapExceeded:
            now["orbit_nodes"] += cap + 1
            raise
        now["orbit_nodes"] += len(found)
        return found

    bd.eff_membership, bd._nef_orbit = counted_membership, counted_nef_orbit
    rsys._orbit = bd._orbit = counted_orbit
    bd._walk = counted_walk(now, bd._walk)


WORKLOADS = {
    "generation": (install_generation, (
        "eliminations", "condition_cells", "walks", "walk_reflections",
        "dims", "dims_without_elimination", "span_states")),
    "high_degree": (install_generation, (
        "eliminations", "condition_cells", "walks", "dims", "dims_without_elimination",
        "modular_kernels", "primes_tried", "fallbacks")),
    "invariants": (install_invariants, (
        "determinants", "determinant_terms", "derivation_pairs", "term_passes")),
    "lattice": (install_lattice, (
        "membership_calls", "members", "walks", "walk_reflections",
        "scan_fallbacks", "curves_scanned", "orbit_nodes")),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pass", dest="pass_no", type=int, default=0)
    args = parser.parse_args(argv)
    install, names = WORKLOADS[args.workload]
    now = Counter()
    install(now, set())
    workload = workloads.make(args.workload, args.seed)
    report = {"seed": args.seed, "pass": args.pass_no}
    for phase, queries in (("warm_up", workload.warm_up_queries()),
                           ("pass", workload.queries(args.pass_no))):
        now.clear()
        for query in queries:
            if not query.check(query.run()):
                print(f"wrong answer: {query.label}", file=sys.stderr)
                return 1
        report[phase] = {name: now[name] for name in names}
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
