"""Smoke test of the scripts under tools/."""

import json
import os
from pathlib import Path
import subprocess
import sys

ROOT = Path(__file__).resolve().parents[1]


def test_lattice_counters_seed_1_pass_0():
    # the counts BENCH_16.json records for the lattice workload, seed 1, pass 0
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "lattice_counters.py"),
                           "--seed", "1", "--pass", "0"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["pass"] == {"membership_calls": 920, "members": 767, "walks": 920,
                              "walk_reflections": 8837, "scan_fallbacks": 153,
                              "curves_scanned": 1759, "orbit_nodes": 6278}
    assert report["warm_up"]["orbit_nodes"] == 0
