"""Command-line front end: solve, encode, verify, bench and render.

Every command ends with ``error: <reason>`` on stderr and exit 2 when an
input file cannot be read, decoded or parsed, an output path cannot be
written, or an argument cannot be used; ``main`` is the one place that
refuses.  Exit codes for ``solve``: 0 optimal, 10 feasible (no optimality
proof), 20 unknown, 1 a solver model that fails verification
(``INFEASIBLE_MODEL_ERROR``), 130 interrupted by Ctrl-C.  ``run``, the
``cutstock`` command, turns Ctrl-C into one ``interrupted`` line on stderr
and that exit; ``main`` lets the ``KeyboardInterrupt`` through.  ``bench``
writes per-run CSV rows and prints a summary table aggregated per
configuration; it can also re-aggregate an existing rows file.  Every
bench run is a job in a worker process, and ``--jobs`` (at least 1) sets
how many run at once; a job that raises, or whose worker dies, gives a row
with status ``error``, and then ``bench`` exits with 1.  The
``CUTSTOCK_SOLVER_CMD`` environment variable supplies a default external
MaxSAT solver command.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .bounds import area_lower_bound
from .encoding import encode_formula
from .model import (
    InstanceError,
    SolutionError,
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


class BadArgument(ValueError):
    """An argument, or the contents of a file it names, that the command
    cannot use."""


def _check_time_limit(time_limit: float | None) -> None:
    if time_limit is not None and not time_limit >= 0:  # nan too
        raise BadArgument("--time-limit must be a number >= 0")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise BadArgument(f"{path} is not UTF-8 text: {exc}") from None


def _load_instance(path: str, rotation: bool):
    return parse_instance(_read(path), name=Path(path).stem, rotation=rotation)


# ----------------------------------------------------------------------
# solve


def cmd_solve(args) -> int:
    _check_time_limit(args.time_limit)
    started = time.perf_counter()
    instance = _load_instance(args.input, args.rotation)
    if args.svg and not Path(args.svg).parent.is_dir():
        raise BadArgument(f"--svg {args.svg}: {Path(args.svg).parent} is not a directory")
    solver_cmd = args.solver_cmd or os.environ.get("CUTSTOCK_SOLVER_CMD")
    # opened first, so that a path it cannot write costs no solving, but not
    # emptied until there is a solution: a solve cut short keeps the old file
    with open(args.out, "a") if args.out else contextlib.nullcontext() as out:
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
        if out is not None:
            out.truncate(0)
            out.write(write_solution(outcome.best_solution))
            print(f"solution written to {args.out}")
    if args.svg:
        for sheet, text in render_solution(instance, outcome.best_solution).items():
            path = f"{args.svg}_sheet{sheet}.svg"
            Path(path).write_text(text)
            print(f"rendered {path}")
    return _EXIT_BY_STATUS.get(outcome.status, 1)


# ----------------------------------------------------------------------
# encode


def cmd_encode(args) -> int:
    if args.sheets < 1:
        raise BadArgument("sheet count must be >= 1")
    instance = _load_instance(args.input, args.rotation)
    # exactly_one grows with the square of the count, and more sheets than
    # copies are never needed
    copies = sum(t.demand for t in instance.types)
    if args.sheets > copies:
        raise BadArgument(f"sheet count {args.sheets} is above the {copies} copies of the input")
    # opened first, so that a path it cannot write costs no encoding, but not
    # emptied until the text is ready
    with open(args.out, "a") if args.out else contextlib.nullcontext(sys.stdout) as out:
        vm, formula = encode_formula(instance, args.sheets, args.rotation, args.sb)
        if args.format == "dimacs":
            text = format_dimacs(formula.num_vars, formula)
        else:
            lower = area_lower_bound(instance)
            text = format_wcnf(formula.num_vars, formula, soft_unused_sheets(vm, lower))
        if args.out:
            out.truncate(0)
        out.write(text)
    return 0


# ----------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    instance = _load_instance(args.input, args.rotation)
    solution = read_solution(_read(args.solution), instance)
    report = verify_solution(instance, solution, args.rotation)
    print(report)
    return 0 if report.ok else 1


# ----------------------------------------------------------------------
# render


def cmd_render(args) -> int:
    instance = _load_instance(args.input, args.rotation)
    solution = read_solution(_read(args.solution), instance)
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
    """Queue the job in a process pool; the function returned gives its row,
    or an error row if the job raises or its worker dies.  A worker that dies
    breaks the pool and fails every job not yet done with it, whether it ran
    or not, so such a job runs again alone in a fresh one-worker pool: only
    the job whose own worker dies gets an error row."""
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    try:
        future = pool.submit(_run_one, job)
    except BrokenProcessPool:  # the pool broke before this job was queued
        future = None

    def result() -> dict:
        try:
            if future is not None:
                try:
                    return future.result()
                except BrokenProcessPool:
                    pass
            with ProcessPoolExecutor(max_workers=1) as alone:
                return alone.submit(_run_one, job).result()
        except Exception as exc:  # the job raised, or its own worker died
            path, strategy, rotation, sb = job[:4]
            name, config = Path(path).stem, config_name(strategy, rotation, sb)
            print(f"error: {name} {config}: {exc!r}", file=sys.stderr)
            return dict(dict.fromkeys(ROW_FIELDS, ""), instance=name, config=config, status=ERROR)

    return result


def read_bks(path: str) -> dict[str, int]:
    """Instance name -> best known sheet count; BadArgument on a malformed line."""
    bks = {}
    reader = csv.reader(io.StringIO(_read(path)))
    try:
        for row in reader:
            if not row or row[0].strip().startswith("#"):
                continue
            if len(row) < 2:
                raise csv.Error("expected instance,best-known-k")
            name, value = row[0].strip(), row[1].strip()
            if not any(ch.isdigit() for ch in value):
                continue  # header line
            try:
                count = int(value)
            except ValueError:
                count = 0  # refused as a count below 1 is
            if count < 1:
                raise csv.Error(f"best-known value {value!r} is not a whole number of sheets >= 1")
            bks[name] = count
    except csv.Error as exc:
        raise BadArgument(f"{path} line {reader.line_num}: {exc}") from None
    return bks


def read_rows(path: str) -> list[dict]:
    """The rows of a bench CSV; BadArgument unless it has the ROW_FIELDS
    columns, and integer k, vars and clauses and a ttb that is a number,
    empty or ``--`` in every row but error rows."""
    reader = csv.DictReader(io.StringIO(_read(path)))
    try:
        if not set(ROW_FIELDS) <= set(reader.fieldnames or ()):
            raise BadArgument(f"{path}: expected the columns {','.join(ROW_FIELDS)}")
        rows = list(reader)
    except csv.Error as exc:  # a DictReader counts only the lines it has returned
        raise BadArgument(f"{path} line {reader.reader.line_num}: {exc}") from None
    for number, row in enumerate(rows, 1):
        if row["status"] == ERROR:
            continue
        for name in ("k", "vars", "clauses"):
            try:
                int(row[name])
            except (TypeError, ValueError):
                raise BadArgument(f"{path} row {number}: {name} {row[name]!r} is not an integer")
        ttb = row["ttb"]
        if ttb not in ("", "--", None):
            try:
                float(ttb)
            except ValueError:
                raise BadArgument(f"{path} row {number}: ttb {ttb!r} is not a number")
    return rows


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
    if args.jobs < 1:
        raise BadArgument("--jobs must be at least 1")
    _check_time_limit(args.time_limit)
    bks = read_bks(args.bks) if args.bks else {}
    rows = read_rows(args.rows) if args.rows else None
    if rows is None:
        if not args.dir:
            raise BadArgument("either --dir or --rows is required")
        if not Path(args.dir).is_dir():
            raise BadArgument(f"{args.dir} is not a directory")
        strategies = args.strategies.split(",")
        for strategy in strategies:
            if strategy not in STRATEGIES:
                raise BadArgument(f"--strategies: unknown strategy {strategy!r}; "
                                  f"pick from {','.join(STRATEGIES)}")
        paths = sorted(str(p) for p in Path(args.dir).glob("*.txt"))
        solver_cmd = args.solver_cmd or os.environ.get("CUTSTOCK_SOLVER_CMD")
        jobs = [
            (path, strategy, rotation, sb, args.time_limit, solver_cmd)
            for path in paths
            for strategy in strategies
            for rotation in _expand_modes(args.rotation)
            for sb in _expand_modes(args.sb)
        ]
    # opened before any job runs, so that a path it cannot write costs no solving
    with open(args.out_csv, "w", newline="") if args.out_csv else contextlib.nullcontext() as fh:
        if rows is None:
            # imported here: bench is the only command that uses a process pool
            from concurrent.futures import ProcessPoolExecutor

            # at most one worker per job, as a fork pool starts them all at once;
            # a pool needs one, and with no job it starts none
            with ProcessPoolExecutor(max_workers=min(args.jobs, len(jobs) or 1)) as pool:
                results = [_pooled(pool, job) for job in jobs]
                rows = [result() for result in results]
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
        if fh is not None:
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
    try:
        return args.func(args)
    except (OSError, UnicodeError, InstanceError, SolutionError, BadArgument) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """The ``cutstock`` command: ``main``, with Ctrl-C ending it as
    ``interrupted`` on stderr and exit 130 instead of a traceback."""
    try:
        return main()
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(run())
