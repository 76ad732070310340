#!/usr/bin/env python3
"""Benchmark the compiled CDCL engine against the pure-Python fallback.

Workloads: cutting-stock feasibility formulas at and just below the
optimum, random 3-SAT near the phase transition, and a pigeonhole
refutation.  Each formula is loaded as ``solve_instance`` loads it: each
block whole, as the ``Block`` that ``check_block`` made before timing
starts, in one ``add_block`` call.  Loading and solving are timed apart.
Usage::

    python benchmarks/bench_engines.py [--repeat N] [--quick]
"""

from __future__ import annotations

import argparse
import random
import time

from cutstock.encoding import encode_formula
from cutstock.model import Instance, ItemType
from cutstock.satcore import available_engines
from cutstock.satcore.engine import check_block


def packing_formula(k: int, rotation: bool):
    inst = Instance(
        10, 10,
        (ItemType(4, 3, 6), ItemType(3, 3, 4), ItemType(5, 2, 4), ItemType(2, 2, 6)),
        name="bench",
    )
    _, formula = encode_formula(inst, k, rotation, symmetry_breaking=True)
    return formula


def packing_refutation():
    # eight 4x4 and four 3x3 on 7x7 sheets: seven sheets are not enough
    inst = Instance(7, 7, (ItemType(4, 4, 8), ItemType(3, 3, 4)), name="bench-unsat")
    _, formula = encode_formula(inst, 7, symmetry_breaking=True)
    return formula


def random_3sat(seed: int, n: int, ratio: float = 4.26):
    rng = random.Random(seed)
    clauses = []
    for _ in range(int(n * ratio)):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return n, clauses


def pigeonhole(pigeons: int, holes: int):
    var = lambda i, j: (i - 1) * holes + j
    clauses = [[var(i, j) for j in range(1, holes + 1)] for i in range(1, pigeons + 1)]
    for j in range(1, holes + 1):
        for i1 in range(1, pigeons + 1):
            for i2 in range(i1 + 1, pigeons + 1):
                clauses.append([-var(i1, j), -var(i2, j)])
    return pigeons * holes, clauses


def workloads(quick: bool):
    f3 = packing_formula(3, rotation=False)
    f3r = packing_formula(3, rotation=True)
    fu = packing_refutation()
    yield "packing k=3 (SAT)", f3.num_vars, f3.blocks
    yield "packing k=3 rot (SAT)", f3r.num_vars, f3r.blocks
    yield "packing k=7 (UNSAT)", fu.num_vars, fu.blocks
    sizes = (120,) if quick else (120, 160)
    for n in sizes:
        for seed in (1, 2):
            vn, clauses = random_3sat(seed, n)
            yield f"3-SAT n={n} seed={seed}", vn, [check_block(clauses, [()])]
    php = (7, 6) if quick else (8, 7)
    n, clauses = pigeonhole(*php)
    yield f"pigeonhole {php[0]}->{php[1]} (UNSAT)", n, [check_block(clauses, [()])]


def run(engine_cls, num_vars, blocks, repeat):
    """Verdict and the best load and solve times over repeat runs."""
    load = solve = float("inf")
    verdict = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        solver = engine_cls(num_vars)
        for block in blocks:
            solver.add_block(block)
        t1 = time.perf_counter()
        result = solver.solve()
        load = min(load, t1 - t0)
        solve = min(solve, time.perf_counter() - t1)
        verdict = result.status
    return verdict, load, solve


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3, help="take the best of N runs")
    parser.add_argument("--quick", action="store_true", help="smaller workloads")
    args = parser.parse_args()

    engines = available_engines()
    if "compiled" not in engines:
        print("note: compiled engine not built; benchmarking the fallback only")
    names = list(engines)
    width = 28
    header = f"{'workload':<{width}}{'verdict':>8}" + "".join(
        f"{name + ' ' + part:>16}" for name in names for part in ("load", "solve")
    )
    if len(names) == 2:
        header += f"{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for label, num_vars, blocks in workloads(args.quick):
        times = {}
        verdicts = set()
        for name, cls in engines.items():
            verdict, load, solve = run(cls, num_vars, blocks, args.repeat)
            times[name] = (load, solve)
            verdicts.add(verdict)
        assert len(verdicts) == 1, f"engines disagree on {label}: {verdicts}"
        row = f"{label:<{width}}{verdicts.pop():>8}" + "".join(
            f"{seconds:>15.4f}s" for name in names for seconds in times[name]
        )
        if len(names) == 2:
            row += f"{sum(times['python']) / sum(times['compiled']):>9.1f}x"
        print(row)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
