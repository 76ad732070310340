#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ``cutstock.solve_instance``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload smallsheet --seed 1 --seconds 15 --trace 0

The seed makes the instances (see ``gen.py``); every instance's optimum is
known by construction and every answer is checked (see ``check.py``).
Solves run one after another in this process, in whole rounds over the
workload, until ``--seconds`` have passed.  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced and traced rounds alternate and the metrics are the
per-layer ones (see ``spans.py``).  A human-readable report goes to
standard error.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import check
import gen
from spans import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SMALL_CONFIGS = [(s, sb, rot) for s in ("sat", "inc", "maxsat")
                 for sb in (True, False) for rot in (False, True)]
SMALL_PAIRS = 270  # one tiling and one oversized instance each
BIG_CONFIGS = [("sat", True, False), ("sat", True, True), ("inc", True, False), ("inc", True, True)]
BIG_SHEETS = ((100, 60), (90, 60), (100, 70), (80, 60), (90, 70))
BIG_COUNT = 60
EXT_PAIRS = 40
TIME_LIMIT = 30.0  # per solve, far above any normal solve time
SETUP_REPEATS = 15
SPAN_TOLERANCE = 0.10  # layer spans must cover all but this share of wall_s

SETUP_CODE = """
import sys, time
start = time.perf_counter()
from cutstock import parse_instance
for path in sys.argv[1:]:
    with open(path) as fh:
        parse_instance(fh.read(), name=path)
print(time.perf_counter() - start)
"""


@dataclass
class Job:
    path: Path
    inst: dict
    strategy: str
    sb: bool
    rotation: bool
    external: bool = False


def make_jobs(workload: str, seed: int, folder: Path) -> list[Job]:
    rng = random.Random(f"{workload}/{seed}")
    jobs = []

    def add(inst: dict, strategy: str, sb: bool, rotation: bool, external: bool = False):
        path = folder / f"{len(jobs):03d}-{inst['construction']}.txt"
        path.write_text(gen.instance_text(inst))
        jobs.append(Job(path, inst, strategy, sb, rotation, external))

    if workload == "smallsheet":
        for i in range(SMALL_PAIRS):
            config = SMALL_CONFIGS[i % len(SMALL_CONFIGS)]
            add(gen.tiling(rng, 8, 8, 2, 4, 2), *config)
            add(gen.oversized(rng, 8, 5, 3, 6, 7, 1), *config)
    elif workload == "bigsheet":
        for i in range(BIG_COUNT):
            inst = gen.corner_tiling(rng, *BIG_SHEETS[i % len(BIG_SHEETS)], 2, 12)
            add(inst, *BIG_CONFIGS[i % len(BIG_CONFIGS)])
    else:  # external
        for i in range(EXT_PAIRS):
            rotation = i % 2 == 1
            add(gen.tiling(rng, 10, 10, 2, 4, 2), "maxsat", True, rotation, True)
            add(gen.oversized(rng, 10, 6, 3, 6, 7, 1), "maxsat", True, rotation, True)
    return jobs


def measure_setup(paths: list[Path]) -> float:
    """Median over fresh interpreters of importing cutstock and parsing every file."""
    argv = [sys.executable, "-c", SETUP_CODE, *map(str, paths)]
    times = []
    for attempt in range(SETUP_REPEATS + 1):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed:\n{proc.stderr}")
        if attempt:  # the first run only warms the file cache
            times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


class Round:
    def __init__(self):
        self.wall = 0.0
        self.ttb = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # OPTIMAL claimed, but the answer is wrong


def run_round(jobs, instances, solver_cmd: str, tracer: Tracer | None) -> Round:
    from cutstock import satcore, solve_instance

    engine = tracer.engine(satcore.Solver) if tracer else None
    rnd = Round()
    for job, instance in zip(jobs, instances):
        kwargs = dict(strategy=job.strategy, rotation=job.rotation,
                      symmetry_breaking=job.sb, time_limit=TIME_LIMIT,
                      solver_cmd=solver_cmd if job.external else None, engine=engine)
        outcome = None
        start = time.perf_counter()
        try:
            if tracer:
                with tracer.solve(job.strategy):
                    outcome = solve_instance(instance, **kwargs)
            else:
                outcome = solve_instance(instance, **kwargs)
        except Exception as exc:  # a crashing solve counts as failed
            problems = [f"raised {exc!r}"]
        rnd.wall += time.perf_counter() - start
        rnd.attempted += 1
        if outcome is not None:
            rnd.ttb += outcome.time_to_best
            problems = check.check(outcome, job.inst, job.rotation, internal=not job.external)
        if problems:
            rnd.failed += 1
            rnd.wrong += outcome is not None and outcome.status == "OPTIMAL"
            print(f"FAILED {job.path.name} {job.strategy} rot={job.rotation} "
                  f"sb={job.sb}: {'; '.join(problems[:3])}", file=sys.stderr)
    return rnd


def parse_all(texts, tracer: Tracer | None):
    from cutstock import parse_instance

    if tracer is None:
        return [parse_instance(text, name=name) for name, text in texts]
    with tracer.span("model.parse"):
        return [parse_instance(text, name=name) for name, text in texts]


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    sums = tracer.totals()
    total, selfs, counts = sums["total"], sums["self"], tracer.counts
    t = lambda name: total.get(name, 0.0)
    c = lambda name: counts.get(name, 0)
    search_self = sum(v for k, v in selfs.items() if k.startswith("search."))
    solve_s = t("satcore.solve")
    encode_s = t("encoding.encode")
    child_rss = 0.0
    if t("external.run"):
        child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {
        "model.parse_s": t("model.parse"),
        "bounds.ffd_s": t("bounds.ffd"),
        "encoding.encode_s": encode_s,
        "encoding.clauses_per_s": c("encoding.built_clauses") / encode_s if encode_s else 0.0,
        "encoding.builds": c("encoding.builds"),
        "encoding.clauses": c("encoding.clauses"),
        "encoding.vars": c("encoding.vars"),
        "encoding.link_share": (c("encoding.link_clauses") / c("encoding.built_clauses")
                                if c("encoding.built_clauses") else 0.0),
        "encoding.decode_s": t("encoding.decode"),
        "satcore.load_s": c("satcore.load_s"),
        "satcore.solve_s": solve_s,
        "satcore.calls": c("satcore.calls"),
        "satcore.conflicts": c("satcore.conflicts"),
        "satcore.decisions": c("satcore.decisions"),
        "satcore.propagations": c("satcore.propagations"),
        "satcore.props_per_s": c("satcore.propagations") / solve_s if solve_s else 0.0,
        "dimacs.wcnf_s": t("dimacs.wcnf"),
        "dimacs.wcnf_mb": c("dimacs.wcnf_mb"),
        "external.run_s": t("external.run"),
        "external.child_rss_mb": child_rss,
        "verify.check_s": t("verify.check"),
        "search.sat_s": t("search.sat"),
        "search.inc_s": t("search.inc"),
        "search.maxsat_s": t("search.maxsat"),
        "search.self_s": search_self,
        "trace.covered_share": 1.0 - search_self / wall if wall else 0.0,
    }


def unit_of(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_share", "share"), ("_mb", "MB"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("smallsheet", "bigsheet", "external"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cutstock" / "__init__.py").is_file():
        print(f"error: no cutstock sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    folder = OUT / f"{args.workload}-{args.seed}"
    folder.mkdir(parents=True, exist_ok=True)
    tmp = OUT / "tmp"
    tmp.mkdir(exist_ok=True)
    tempfile.tempdir = str(tmp)  # the external path writes its WCNF here
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    jobs = make_jobs(args.workload, args.seed, folder)
    setup_s = None if args.trace else measure_setup([j.path for j in jobs])

    from cutstock import satcore

    texts = [(j.path.name, j.path.read_text()) for j in jobs]
    instances = parse_all(texts, None)
    solver_cmd = f"{shlex.quote(sys.executable)} -m cutstock.satcore.extsolver_cli {{input}}"

    rounds: list[Round] = []
    traced: list[tuple[Round, Tracer]] = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(jobs, instances, solver_cmd, None))
        if args.trace:
            tracer = Tracer()
            with tracer.patched():
                parse_all(texts, tracer)
                rnd = run_round(jobs, instances, solver_cmd, tracer)
            traced.append((rnd, tracer))
        if time.perf_counter() - start >= args.seconds:
            break

    everything = rounds + [r for r, _ in traced]
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    wrong = sum(r.wrong for r in everything)
    print(f"engine: {satcore.ENGINE}; workload {args.workload}, seed {args.seed}: "
          f"{len(jobs)} solves per round, {len(rounds)} untraced and {len(traced)} "
          f"traced rounds, {failed} of {attempted} solves failed", file=sys.stderr)
    print("  round wall_s: " + " ".join(f"{r.wall:.3f}" for r in rounds), file=sys.stderr)

    if args.trace:
        metrics = trace_report(rounds, traced, args)
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r.wall for r in rounds),
            "ttb_s": statistics.median(r.ttb for r in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "wall_s": "s", "ttb_s": "s", "peak_rss_mb": "MB"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        for name, m in metrics.items():
            print(f"  {name:<12} {m['value']:12.4f} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def trace_report(rounds, traced, args) -> dict:
    plain_wall = statistics.median(r.wall for r in rounds)
    traced_wall = statistics.median(r.wall for r, _ in traced)
    per_round = [layer_metrics(tracer, rnd.wall) for rnd, tracer in traced]
    metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    metrics["trace.overhead_s"] = traced_wall - plain_wall

    rnd, tracer = traced[-1]
    sums = tracer.totals()
    print(f"  traced wall_s {traced_wall:.4f} s, untraced {plain_wall:.4f} s, "
          f"overhead {metrics['trace.overhead_s']:+.4f} s", file=sys.stderr)
    print(f"  {'span':<18} {'total_s':>10} {'self_s':>10} {'share':>7}", file=sys.stderr)
    for name in sorted(sums["total"], key=lambda n: -sums["self"][n]):
        print(f"  {name:<18} {sums['total'][name]:10.4f} {sums['self'][name]:10.4f} "
              f"{sums['self'][name] / rnd.wall:7.1%}", file=sys.stderr)
    covered = metrics["trace.covered_share"]
    verdict = "met" if covered >= 1 - SPAN_TOLERANCE else "NOT MET"
    print(f"  layer spans cover {covered:.1%} of traced wall_s; tolerance "
          f"{SPAN_TOLERANCE:.0%}: {verdict}", file=sys.stderr)

    path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
    with open(path, "w") as fh:
        for index, (_, tr) in enumerate(traced):
            for name, start, end, parent in tr.spans:
                fh.write(json.dumps({"round": index, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
    return {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
