"""Smoke test of the counter script under tools/."""

import json
import os
from pathlib import Path
import subprocess
import sys

ROOT = Path(__file__).resolve().parents[1]


def run_tool(workload: str) -> dict:
    """The JSON report of tools/counters.py on one workload, seed 1, pass 0."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "counters.py"), workload,
                           "--seed", "1", "--pass", "0"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_lattice_counters_seed_1_pass_0():
    # the counts BENCH_16.json records for the lattice workload, seed 1, pass 0
    report = run_tool("lattice")
    assert report["pass"] == {"membership_calls": 920, "members": 767, "walks": 920,
                              "walk_reflections": 8837, "scan_fallbacks": 153,
                              "curves_scanned": 1759, "orbit_nodes": 6278}
    assert report["warm_up"] == {"membership_calls": 3, "members": 3, "walks": 9,
                                 "walk_reflections": 0, "scan_fallbacks": 0,
                                 "curves_scanned": 0, "orbit_nodes": 0}


def test_section_counters_seed_1_pass_0():
    # the counts BENCH_22.json records for the generation workload, seed 1,
    # pass 0.  h0 on P^2 peels and builds no condition, so the eliminations
    # and walks are P^3's and the generators' sections; dims and
    # span_states count the span recurrence's work
    report = run_tool("generation")
    assert report["pass"] == {"eliminations": 140, "condition_cells": 8624, "walks": 158,
                              "walk_reflections": 1567, "dims": 3282,
                              "dims_without_elimination": 3233, "span_states": 2444}
    assert report["warm_up"] == {"eliminations": 62, "condition_cells": 5732, "walks": 114,
                                 "walk_reflections": 1184, "dims": 187,
                                 "dims_without_elimination": 165, "span_states": 140}


def test_invariant_counters_seed_1_pass_0():
    # the counts BENCH_20.json records for the invariants workload, seed 1,
    # pass 0: 192 determinant queries on r = 7 and r = 8, and 2 perturbed
    # ones.  `is_invariant` and `torus_weight` walk a determinant's terms
    # twice, once each, and once for I = {i}, whose F_I = x_i has no y to
    # derive: 2 * 192 - 15 passes, where one in `is_invariant`, one per
    # pair and two for the bidegree made r + 3 per query, 2,048 in all
    report = run_tool("invariants")
    assert report["pass"] == {"determinants": 194, "determinant_terms": 1379,
                              "derivation_pairs": 2766, "term_passes": 369}
    assert report["warm_up"] == {"determinants": 10, "determinant_terms": 14,
                                 "derivation_pairs": 8, "term_passes": 8}
