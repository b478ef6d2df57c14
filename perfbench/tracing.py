"""Span tracing of coxforge's layers from outside the package.

The package binds names at import (``from .linalg import rank``), so a
wrapper must replace a function in every module namespace that holds it, and
a method on its class.  `Tracer.install` does both for the functions in
`TARGETS`; `Tracer.uninstall` puts the originals back.

Each call becomes a span kept in memory: name, start, end, parent span and
query id.  A span's self time is its duration minus the time its child spans
cover, the child's bookkeeping included, so tracing cost lands in no layer's
self time.  Counts that describe the work (matrix cells, input bits, orbit
nodes, term pairs) are taken after the call, outside the timed interval.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from functools import update_wrapper
from pathlib import Path
from time import perf_counter

from coxforge.errors import CapExceeded
from coxforge.multipoly import MultiPoly


def _bits(v) -> int:
    return abs(v.numerator).bit_length() + v.denominator.bit_length() - 1


def _rank(stats, args, result, exc):
    rows = args[0]
    ncols = len(rows[0]) if rows else 0
    stats["cells"] += len(rows) * ncols
    stats["input_bits"] += sum(_bits(v) for row in rows for v in row)
    if exc is None and result == ncols:
        stats["full_col"] += 1


def _nullspace(stats, args, result, exc):
    stats["cells"] += len(args[0]) * args[1]


def _h0(stats, args, result, exc):
    if result == 0:
        stats["zero"] += 1


def _mul(stats, args, result, exc):
    left, right = args
    right_terms = len(right.terms) if isinstance(right, MultiPoly) else int(bool(right))
    stats["term_pairs"] += len(left.terms) * right_terms


def _build_f(stats, args, result, exc):
    if exc is None:
        stats["terms_out"] += len(result.terms)


def _nodes(stats, args, result, exc):
    # a capped search visited cap + 1 nodes before it stopped
    if isinstance(exc, CapExceeded):
        stats["nodes"] += exc.cap + 1
    elif exc is None:
        stats["nodes"] += len(result)


def _membership(stats, args, result, exc):
    if exc is None and result.member:
        stats["member"] += 1


# (module, attribute or Class.method, span name, counter hook)
TARGETS = (
    ("linalg", "rank", "linalg.rank", _rank),
    ("linalg", "nullspace", "linalg.nullspace", _nullspace),
    ("section_spaces", "h0", "section_spaces.h0", _h0),
    ("section_spaces", "generation_test", "section_spaces.generation_test", None),
    ("section_spaces", "section_of", "section_spaces.section_of", None),
    ("section_spaces", "form_space", "section_spaces.form_space", None),
    ("section_spaces", "mult_at_point", "section_spaces.mult_at_point", None),
    ("section_spaces", "mult_along_curve", "section_spaces.mult_along_curve", None),
    ("multipoly", "MultiPoly.__init__", "multipoly.init", None),
    ("multipoly", "MultiPoly.__mul__", "multipoly.mul", _mul),
    ("multipoly", "MultiPoly.__add__", "multipoly.add", None),
    ("multipoly", "MultiPoly.substitute", "multipoly.substitute", None),
    ("multipoly", "MultiPoly.deriv", "multipoly.deriv", None),
    ("nagata_invariants", "build_F", "nagata_invariants.build_F", _build_f),
    ("nagata_invariants", "is_invariant", "nagata_invariants.is_invariant", None),
    ("root_system", "weyl_orbit", "root_system.weyl_orbit", _nodes),
    ("root_system", "weights_of_irrep", "root_system.weights_of_irrep", _nodes),
    ("root_system", "reflect", "root_system.reflect", None),
    ("root_system", "degree_one_divisors", "root_system.degree_one_divisors", None),
    ("picard_lattice", "pairing", "picard_lattice.pairing", None),
    ("picard_lattice", "intersect", "picard_lattice.intersect", None),
    ("blowup_divisors", "eff_membership", "blowup_divisors.eff_membership", _membership),
    ("blowup_divisors", "decompose_degree1", "blowup_divisors.decompose_degree1", None),
    ("blowup_divisors", "enumerate_minimal", "blowup_divisors.enumerate_minimal", None),
)


# counts beyond calls, per span: (metric suffix, unit, better, kind, counter);
# kind "per_pass" divides the counter by the passes, "share" by the calls,
# and "per_query" divides the calls by the queries
EXTRAS = {
    "linalg.rank": (("cells", "count", "lower", "per_pass", "cells"),
                    ("input_bits", "bits", "lower", "per_pass", "input_bits"),
                    ("full_col_share", "ratio", "higher", "share", "full_col")),
    "linalg.nullspace": (("cells", "count", "lower", "per_pass", "cells"),),
    "section_spaces.h0": (("zero_share", "ratio", "higher", "share", "zero"),
                          ("calls_per_query", "calls/query", "lower", "per_query", "calls")),
    "multipoly.mul": (("term_pairs", "count", "lower", "per_pass", "term_pairs"),),
    "nagata_invariants.build_F": (("terms_out", "count", "lower", "per_pass", "terms_out"),),
    "root_system.weyl_orbit": (("nodes", "count", "lower", "per_pass", "nodes"),),
    "root_system.weights_of_irrep": (("nodes", "count", "lower", "per_pass", "nodes"),),
    "blowup_divisors.eff_membership": (("member_share", "ratio", "higher", "share", "member"),),
}


def layer_metric_specs():
    """(name, unit, better) of every layer metric a traced run reports.

    Counts are per pass.  self_share is a span's self time over the wall time
    of the traced passes: a layer a workload never calls reads 0, a count
    rather than a time.  Self times in seconds are printed beside them.
    """
    for span in (t[2] for t in TARGETS):
        yield f"{span}.calls", "count", "lower"
        yield f"{span}.self_share", "ratio", "lower"
        for suffix, unit, better, _, _ in EXTRAS.get(span, ()):
            yield f"{span}.{suffix}", unit, better


class Tracer:
    """Wraps the `TARGETS` and records one span per call while installed."""

    def __init__(self):
        self.names = [t[2] for t in TARGETS]
        self.stats = {name: Counter() for name in self.names}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_query = array("i")
        self.query_id = -1
        self._stack = []
        self._origin = perf_counter()
        self._restore = []

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "coxforge" or name.startswith("coxforge.")]
        for nid, (module, attr, name, hook) in enumerate(TARGETS):
            owner = sys.modules[f"coxforge.{module}"]
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
                func = vars(owner)[method]
                holders = [owner]
            else:
                func = getattr(owner, method)
                holders = modules
            wrapper = self._wrap(nid, func, self.stats[name], hook)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is func:
                        self._restore.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()

    def _wrap(self, nid, func, stats, hook):
        stack = self._stack
        origin = self._origin
        tracer = self

        def wrapper(*args, **kwargs):
            entered = perf_counter()
            idx = len(tracer.span_name)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_query.append(tracer.query_id)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            result = exc = None
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer.span_start[idx] = start - origin
                tracer.span_end[idx] = end - origin
                stats["calls"] += 1
                stats["self_s"] += (end - start) - frame[1]
                if hook is not None:
                    hook(stats, args, result, exc)
                if stack:
                    stack[-1][1] += perf_counter() - entered

        update_wrapper(wrapper, func)
        return wrapper

    def layer_rows(self, passes: int, queries: int, traced_s: float) -> list:
        """[name, value, unit, reported] for every span, in TARGETS order, over
        `passes` traced passes that answered `queries` queries in `traced_s`
        wall seconds; the self_s rows are printed but not reported."""
        rows = []
        for span in self.names:
            stats = self.stats[span]
            calls = stats["calls"]
            rows.append([f"{span}.calls", calls / passes, "count", True])
            rows.append([f"{span}.self_s", stats["self_s"] / passes, "s", False])
            rows.append([f"{span}.self_share", stats["self_s"] / traced_s, "ratio", True])
            for suffix, unit, _, kind, counter in EXTRAS.get(span, ()):
                if kind == "per_pass":
                    value = stats[counter] / passes
                elif kind == "share":
                    value = stats[counter] / calls if calls else 0.0
                else:
                    value = stats[counter] / queries
                rows.append([f"{span}.{suffix}", value, unit, True])
        return rows

    def write_spans(self, path: Path):
        """Gzipped, one tab-separated line per span; starts and ends are seconds since
        the tracer was made, parent is a line number (0-based) or -1."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart_s\tend_s\tparent\tquery\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_query[i]}\n")

