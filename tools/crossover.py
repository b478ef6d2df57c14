"""Crossover table of the section layer's two kernel routes.

    PYTHONPATH=src python3 tools/crossover.py [--repeat 3]

Run from the repository root.  For a fixed list of condition matrices on
`PointConfig.random` (seed 7), near-square ones and ones with kernels of
about 1/8, 1/4 and 1/2 of the width, it times the exact route
(`linalg.echelon`, then `RowEchelon.kernel`) and the modular one
(`linalg.modular_kernel`), checks that both give the same kernel, and
prints one JSON object per matrix: its class, rows, width, cells,
kernel-size bound max(width - rows, 0), h0, the best of `--repeat` times
of each route in ms (the exact one without and with the kernel), and
whether `section_spaces`' gate sends the shape down the modular route.
A last object gives the largest elimination of the benchmark's generation
workload (warm-up and passes 0-2 at seeds 1, 13 and 29): its width, its
cells and whether any of its shapes passes the gate.  The gate,
`section_spaces._modular`, is read off this table.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from coxforge import section_spaces as ss  # noqa: E402
from coxforge.linalg import echelon, modular_kernel  # noqa: E402

import workloads  # noqa: E402

# (n, r, d): the ambient, points and degree of each set of classes
SHAPES = (
    (2, 5, 4), (2, 5, 6), (2, 5, 9), (2, 5, 12), (2, 6, 14), (2, 7, 16),
    (3, 6, 3), (3, 7, 3), (3, 6, 4), (3, 6, 5), (3, 7, 5), (3, 8, 6),
    (4, 7, 2), (4, 7, 3), (4, 7, 4), (4, 8, 4),
)


def rows_at(n: int, m: int) -> int:
    """The conditions of multiplicity m at one point of P^n."""
    return comb(m - 1 + n, n)


def classes(n: int, r: int, d: int):
    """Four multiplicity vectors of degree d: the near-square one, with the
    fewest rows >= width, and those with rows nearest 7/8, 3/4 and 1/2 of
    the width; each uniform but for its last few points, one less."""
    width = comb(d + n, n)
    cands = [(a,) * s + (a - 1,) * (r - s) for a in range(1, d + 1) for s in range(1, r + 1)]
    size = {m: sum(rows_at(n, a) for a in m) for m in cands}
    square = min((m for m in cands if size[m] >= width), key=size.get)
    return [square] + [min(cands, key=lambda m: abs(size[m] - width * k // 8)) for k in (7, 6, 4)]


def best_ms(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return round(min(times) * 1e3, 3)


def generation_shapes() -> set:
    """(rows, width) of every elimination of the generation workload's
    warm-up and passes 0-2 at seeds 1, 13 and 29."""
    shapes, exact = set(), ss.echelon

    def seen(rows, ncols):
        shapes.add((len(rows), ncols))
        return exact(rows, ncols)

    ss.echelon = seen
    try:
        for seed in (1, 13, 29):
            work = workloads.make("generation", seed)
            for query in work.warm_up_queries() + [q for p in range(3) for q in work.queries(p)]:
                query.run()
    finally:
        ss.echelon = exact
    return shapes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    for n, r, d in SHAPES:
        cfg = ss.PointConfig.random(n, r, 7)
        width = len(ss.monomial_exponents(n, d))
        for m in classes(n, r, d):
            rows = ss._condition_rows(d, m, cfg)
            want = tuple(echelon(rows, width).kernel())
            assert modular_kernel(rows, width) == want, (n, r, d, m)
            cells, bound = len(rows) * width, max(width - len(rows), 0)
            print(json.dumps({
                "n": n, "r": r, "d": d, "m": list(m), "rows": len(rows), "width": width,
                "cells": cells, "kernel_bound": bound, "h0": len(want),
                "exact_rank_ms": best_ms(lambda: echelon(rows, width), args.repeat),
                "exact_kernel_ms": best_ms(lambda: echelon(rows, width).kernel(), args.repeat),
                "modular_ms": best_ms(lambda: modular_kernel(rows, width), args.repeat),
                "modular_gate": ss._modular(len(rows), width),
            }))
    shapes = generation_shapes()
    print(json.dumps({
        "workload": "generation", "shapes": len(shapes),
        "max_width": max(w for _, w in shapes), "max_cells": max(r * w for r, w in shapes),
        "modular_gate": any(ss._modular(r, w) for r, w in shapes),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
