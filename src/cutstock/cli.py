"""Command-line front end: solve, encode, verify, bench and render.

Exit codes for ``solve``: 0 optimal, 10 feasible (no optimality proof),
20 unknown, 2 bad input.  ``bench`` writes per-run CSV rows and prints a
summary table aggregated per configuration; it can also re-aggregate an
existing rows file; a run that raises gives a row with status ``error``,
and then ``bench`` exits with 1.  The ``CUTSTOCK_SOLVER_CMD`` environment
variable supplies a default external MaxSAT solver command.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import functools
import itertools
import os
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

from .bounds import area_lower_bound
from .encoding import EncodeConfig, encode_formula
from .model import (
    InstanceError,
    SolutionError,
    expand_demands,
    parse_instance,
    read_solution,
    write_solution,
)
from .render import render_solution
from .satcore.dimacs import format_dimacs, format_wcnf
from .search import (
    FEASIBLE,
    INFEASIBLE_MODEL_ERROR,
    OPTIMAL,
    STRATEGIES,
    UNKNOWN,
    config_name,
    soft_unused_sheets,
    solve_instance,
)
from .verify import verify_solution

_EXIT_BY_STATUS = {OPTIMAL: 0, FEASIBLE: 10, UNKNOWN: 20, INFEASIBLE_MODEL_ERROR: 1}


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _load_instance(path: str, rotation: bool):
    return parse_instance(_read(path), name=Path(path).stem, rotation=rotation)


# ----------------------------------------------------------------------
# solve


def cmd_solve(args) -> int:
    started = time.perf_counter()
    try:
        instance = _load_instance(args.input, args.rotation)
    except (OSError, InstanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    solver_cmd = args.solver_cmd or os.environ.get("CUTSTOCK_SOLVER_CMD")
    outcome = solve_instance(
        instance,
        strategy=args.strategy,
        rotation=args.rotation,
        symmetry_breaking=args.sb,
        time_limit=args.time_limit,
        solver_cmd=solver_cmd,
        started=started,
    )
    print(f"{outcome.status} k={outcome.best_k}")
    for key, value in outcome.record().items():
        print(f"{key}={value}")
    if args.out and outcome.best_solution is not None:
        Path(args.out).write_text(write_solution(outcome.best_solution))
        print(f"solution written to {args.out}")
    if args.svg and outcome.best_solution is not None:
        for sheet, text in render_solution(instance, outcome.best_solution).items():
            path = f"{args.svg}_sheet{sheet}.svg"
            Path(path).write_text(text)
            print(f"rendered {path}")
    return _EXIT_BY_STATUS.get(outcome.status, 1)


# ----------------------------------------------------------------------
# encode


def cmd_encode(args) -> int:
    if args.sheets < 1:
        print("error: sheet count must be >= 1", file=sys.stderr)
        return 2
    try:
        instance = _load_instance(args.input, args.rotation)
    except (OSError, InstanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    copies = expand_demands(instance)
    config = EncodeConfig(args.sheets, args.rotation, args.sb)
    vm, formula = encode_formula(copies, instance, config)
    if args.format == "dimacs":
        text = format_dimacs(formula.num_vars, formula.clauses)
    else:
        lower = area_lower_bound(instance)
        text = format_wcnf(formula.num_vars, formula.clauses, soft_unused_sheets(vm, lower))
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


# ----------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    try:
        instance = _load_instance(args.input, args.rotation)
        solution = read_solution(_read(args.solution), instance)
    except (OSError, InstanceError, SolutionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = verify_solution(instance, solution, args.rotation)
    print(report)
    return 0 if report.ok else 1


# ----------------------------------------------------------------------
# render


def cmd_render(args) -> int:
    try:
        instance = _load_instance(args.input, args.rotation)
        solution = read_solution(_read(args.solution), instance)
    except (OSError, InstanceError, SolutionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = verify_solution(instance, solution, args.rotation)
    if not report.ok:
        print(f"refusing to render an invalid solution:\n{report}", file=sys.stderr)
        return 1
    for sheet, text in render_solution(instance, solution).items():
        path = f"{args.out}_sheet{sheet}.svg"
        Path(path).write_text(text)
        print(path)
    return 0


# ----------------------------------------------------------------------
# bench

ROW_FIELDS = ["instance", "config", "status", "k", "vars", "clauses", "ttb"]
ERROR = "error"  # row status of a run that raised or whose worker died


@dataclass
class BenchMetrics:
    config: str
    n_opt: int
    n_feas: int
    avg_ttb: float | None
    total_vars_k: float  # x 10^3
    total_clauses_m: float  # x 10^6
    gap_percent: float | None


def _run_one(job) -> dict:
    path, strategy, rotation, sb, time_limit, solver_cmd = job
    instance = _load_instance(path, rotation)
    outcome = solve_instance(
        instance,
        strategy=strategy,
        rotation=rotation,
        symmetry_breaking=sb,
        time_limit=time_limit,
        solver_cmd=solver_cmd,
    )
    return {
        "instance": instance.name,
        "config": outcome.config,
        "status": outcome.status,
        "k": outcome.best_k,
        "vars": outcome.max_vars,
        "clauses": outcome.max_clauses,
        "ttb": f"{outcome.time_to_best:.3f}",
    }


def _pooled(pool, job):
    """result() for the job run in a process pool.  A worker that dies breaks
    the pool and fails every job not yet done with it, whether it ran or not,
    so such a job runs again alone in a fresh one-worker pool: only the job
    whose own worker dies gets an error row."""
    try:
        future = pool.submit(_run_one, job)
    except BrokenProcessPool:  # the pool broke before this job was queued
        future = None

    def result():
        if future is not None:
            try:
                return future.result()
            except BrokenProcessPool:
                pass
        with concurrent.futures.ProcessPoolExecutor(max_workers=1) as alone:
            return alone.submit(_run_one, job).result()

    return result


def _row(job, result) -> dict:
    """The row that result() returns for the job, or an error row if it raises."""
    try:
        return result()
    except Exception as exc:  # the job raised, or its worker died (BrokenProcessPool)
        path, strategy, rotation, sb = job[:4]
        name, config = Path(path).stem, config_name(strategy, rotation, sb)
        print(f"error: {name} {config}: {exc!r}", file=sys.stderr)
        return dict(dict.fromkeys(ROW_FIELDS, ""), instance=name, config=config, status=ERROR)


def read_bks(path: str) -> dict[str, int]:
    bks = {}
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            name, value = row[0].strip(), row[1].strip()
            if not value.lstrip("-").isdigit():
                continue  # header line
            bks[name] = int(value)
    return bks


def aggregate_rows(rows: list[dict], bks: dict[str, int]) -> list[BenchMetrics]:
    """Fold per-run rows into one metrics row per configuration.

    A row counts as optimal when its status says so, and as feasible when
    its sheet count matches the best known value without a proof.  The gap
    averages (k - BKS) / BKS over every instance with a known BKS; the
    time-to-best averages over the optimal and feasible rows only.  Error
    rows are left out of every count, sum and gap.
    """
    configs: dict[str, list[dict]] = {}
    for row in rows:
        configs.setdefault(row["config"], []).append(row)
    out = []
    warned: set[str] = set()
    for config in sorted(configs, key=_config_sort_key):
        group = [row for row in configs[config] if row["status"] != ERROR]
        errors = len(configs[config]) - len(group)
        if errors:
            print(f"warning: {config}: {errors} errored runs left out", file=sys.stderr)
        n_opt = n_feas = 0
        ttbs: list[float] = []
        gaps: list[float] = []
        total_vars = total_clauses = 0
        for row in group:
            k = int(row["k"])
            total_vars += int(row["vars"])
            total_clauses += int(row["clauses"])
            best_known = bks.get(row["instance"])
            status = row["status"].lower()
            is_opt = status in ("opt", "optimal")
            is_feas = not is_opt and best_known is not None and k == best_known
            if is_opt:
                n_opt += 1
            if is_feas:
                n_feas += 1
            if is_opt or is_feas:
                ttb = row.get("ttb", "")
                if ttb not in ("", "--", None):
                    ttbs.append(float(ttb))
            if best_known is None:
                if row["instance"] not in warned:
                    warned.add(row["instance"])
                    print(
                        f"warning: no BKS entry for {row['instance']}; "
                        "excluded from the gap",
                        file=sys.stderr,
                    )
                continue
            gaps.append((k - best_known) / best_known * 100.0)
        out.append(
            BenchMetrics(
                config=config,
                n_opt=n_opt,
                n_feas=n_feas,
                avg_ttb=sum(ttbs) / len(ttbs) if ttbs else None,
                total_vars_k=total_vars / 1e3,
                total_clauses_m=total_clauses / 1e6,
                gap_percent=sum(gaps) / len(gaps) if gaps else None,
            )
        )
    return out


def _config_sort_key(name: str):
    modes = (False, True)
    order = [config_name(*c) for c in itertools.product(STRATEGIES, modes, modes)]
    return (order.index(name), name) if name in order else (len(order), name)


def format_metrics_table(metrics: list[BenchMetrics]) -> str:
    header = (
        f"{'Config':<16}{'#Opt':>6}{'#Feas':>7}{'AvgTTB(s)':>11}"
        f"{'Vars(1e3)':>11}{'Cls(1e6)':>10}{'Gap(%)':>8}"
    )
    lines = [header, "-" * len(header)]
    for m in metrics:
        ttb = f"{m.avg_ttb:.1f}" if m.avg_ttb is not None else "--"
        gap = f"{m.gap_percent:.2f}" if m.gap_percent is not None else "--"
        lines.append(
            f"{m.config:<16}{m.n_opt:>6}{m.n_feas:>7}{ttb:>11}"
            f"{m.total_vars_k:>11.1f}{m.total_clauses_m:>10.2f}{gap:>8}"
        )
    return "\n".join(lines)


def _expand_modes(value: str) -> list[bool]:
    return {"on": [True], "off": [False], "both": [False, True]}[value]


def cmd_bench(args) -> int:
    bks = read_bks(args.bks) if args.bks else {}
    if args.rows:
        with open(args.rows, newline="") as fh:
            rows = list(csv.DictReader(fh))
    else:
        if not args.dir:
            print("error: either --dir or --rows is required", file=sys.stderr)
            return 2
        paths = sorted(str(p) for p in Path(args.dir).glob("*.txt"))
        solver_cmd = args.solver_cmd or os.environ.get("CUTSTOCK_SOLVER_CMD")
        jobs = [
            (path, strategy, rotation, sb, args.time_limit, solver_cmd)
            for path in paths
            for strategy in args.strategies.split(",")
            for rotation in _expand_modes(args.rotation)
            for sb in _expand_modes(args.sb)
        ]
        if args.jobs > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
                results = [_pooled(pool, job) for job in jobs]
                rows = [_row(job, result) for job, result in zip(jobs, results)]
        else:
            rows = [_row(job, functools.partial(_run_one, job)) for job in jobs]
        rows.sort(key=lambda r: (r["instance"], _config_sort_key(r["config"])))
        for row in rows:
            status = row["status"]
            if status == ERROR:
                continue
            if status == OPTIMAL:
                row["status"] = "opt"
            elif bks.get(row["instance"]) == int(row["k"]):
                row["status"] = "feas"
            else:
                row["status"] = "timeout"
                row["ttb"] = ""
    if args.out_csv:
        with open(args.out_csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=ROW_FIELDS)
            writer.writeheader()
            writer.writerows(rows)
        print(f"rows written to {args.out_csv}")
    metrics = aggregate_rows(rows, bks)
    print(format_metrics_table(metrics))
    return 1 if any(row["status"] == ERROR for row in rows) else 0


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutstock",
        description="Exact SAT-based solver for 2D single stock size cutting stock",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="minimise the sheet count of one instance")
    solve.add_argument("--input", required=True)
    solve.add_argument("--strategy", choices=["sat", "inc", "maxsat"], default="sat")
    solve.add_argument("--rotation", action="store_true", help="allow 90-degree rotation")
    solve.add_argument("--sb", action="store_true", help="enable symmetry breaking")
    solve.add_argument("--time-limit", type=float, default=None)
    solve.add_argument("--solver-cmd", default=None, help="external WCNF solver template")
    solve.add_argument("--out", default=None, help="solution file path")
    solve.add_argument("--svg", default=None, help="SVG path prefix")
    solve.set_defaults(func=cmd_solve)

    encode = sub.add_parser("encode", help="export the formula for a fixed sheet count")
    encode.add_argument("--input", required=True)
    encode.add_argument("--sheets", type=int, required=True)
    encode.add_argument("--format", choices=["dimacs", "wcnf"], default="dimacs")
    encode.add_argument("--rotation", action="store_true")
    encode.add_argument("--sb", action="store_true")
    encode.add_argument("--out", default=None)
    encode.set_defaults(func=cmd_encode)

    verify = sub.add_parser("verify", help="check a solution file against its instance")
    verify.add_argument("--input", required=True)
    verify.add_argument("--solution", required=True)
    verify.add_argument("--rotation", action="store_true")
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="run or aggregate a benchmark")
    bench.add_argument("--dir", default=None, help="directory of instance .txt files")
    bench.add_argument("--rows", default=None, help="aggregate an existing rows CSV")
    bench.add_argument("--bks", default=None, help="CSV of instance,best-known-k")
    bench.add_argument("--strategies", default="sat,inc,maxsat")
    bench.add_argument("--rotation", choices=["on", "off", "both"], default="off")
    bench.add_argument("--sb", choices=["on", "off", "both"], default="off")
    bench.add_argument("--time-limit", type=float, default=None)
    bench.add_argument("--jobs", type=int, default=1)
    bench.add_argument("--solver-cmd", default=None)
    bench.add_argument("--out-csv", default=None)
    bench.set_defaults(func=cmd_bench)

    render = sub.add_parser("render", help="draw a verified solution as SVG files")
    render.add_argument("--input", required=True)
    render.add_argument("--solution", required=True)
    render.add_argument("--rotation", action="store_true")
    render.add_argument("--out", required=True, help="output path prefix")
    render.set_defaults(func=cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
