"""Sheet-count minimisation: one search loop for all three strategies.

Every strategy computes the [lower, upper] window, keeps the FFD packing as
the incumbent witness, and tightens the window with feasibility queries
until it closes: a SAT answer for k sheets lowers upper, an UNSAT answer
raises lower to k + 1.  The strategies differ in two choices only:

- which k to ask: ``sat`` and ``inc`` bisect the window; ``maxsat``
  (model-improving linear search) asks about upper, then about one sheet
  fewer than its last model used;
- how to ask: ``sat`` encodes and loads a fresh formula for each k;
  ``inc`` and ``maxsat`` load the formula for the initial upper bound once,
  ``inc`` turning surplus sheets off with assumptions and ``maxsat`` with
  permanent unit clauses.

With an external WCNF solver command, ``maxsat`` asks its first question
of that solver: the formula for upper, with soft clauses preferring sheets
unused.  Its model is only an incumbent; the same formula is then loaded
and the loop goes on from the sheets that model used.  A call that gives
no model, or one that breaks a hard clause, leaves the question to the
engine.  A run ends in ``solve_instance`` when the window closes, the
engine answers UNKNOWN, the deadline passes (a ``TimeoutError``) or a model
fails to decode or verify (INFEASIBLE_MODEL_ERROR).  Only an engine UNSAT
raises lower, so a result is OPTIMAL only with a certificate: either the
best k equals the area lower bound, or the engine answered UNSAT for one
sheet fewer.

The deadline is checked between steps: the encoder checks it between
pairs of copies, loading between the formula's blocks, and the loop before
each solver call, which gets the time that remains.  A run so ends late
by at most one step that does not check, such as loading one block whole.
"""

from __future__ import annotations

import gc
import os
import tempfile
import time
from dataclasses import dataclass, field

from . import satcore
from .bounds import compute_bounds
from .encoding import EncodeConfig, decode_model, encode_formula
from .model import Instance, Solution, expand_demands, relabel_sheets
from .satcore import SAT, UNSAT
from .satcore.dimacs import format_wcnf
from .satcore.external import run_external
from .verify import verify_solution

OPTIMAL = "OPTIMAL"
FEASIBLE = "FEASIBLE"
UNKNOWN = "UNKNOWN"
INFEASIBLE_MODEL_ERROR = "INFEASIBLE_MODEL_ERROR"

STRATEGIES = ("sat", "inc", "maxsat")


def config_name(strategy: str, rotation: bool, sb: bool) -> str:
    name = {"sat": "CSP", "inc": "CSP_INC", "maxsat": "CSP_MS"}[strategy]
    if rotation:
        name += "_R"
    if sb:
        name += "_SB"
    return name


@dataclass
class CallRecord:
    k: int
    verdict: str
    elapsed: float


@dataclass
class SolveOutcome:
    status: str
    best_k: int
    best_solution: Solution
    time_to_best: float
    strategy: str
    rotation: bool
    symmetry_breaking: bool
    lower_bound: int
    calls: list[CallRecord] = field(default_factory=list)
    formula_builds: int = 0
    max_vars: int = 0
    max_clauses: int = 0
    backend: str = "internal"
    wall_time: float = 0.0
    detail: str = ""

    @property
    def upper_bound(self) -> int:
        return self.best_k  # the incumbent's sheet count

    @property
    def config(self) -> str:
        return config_name(self.strategy, self.rotation, self.symmetry_breaking)

    def record(self) -> dict:
        return {
            "status": self.status,
            "k": self.best_k,
            "lb": self.lower_bound,
            "ub": self.upper_bound,
            "strategy": self.strategy,
            "config": self.config,
            "rotation": int(self.rotation),
            "sb": int(self.symmetry_breaking),
            "ttb": round(self.time_to_best, 4),
            "calls": len(self.calls),
            "vars": self.max_vars,
            "clauses": self.max_clauses,
            "backend": self.backend,
            "elapsed": round(self.wall_time, 4),
        }


class _BadModel(Exception):
    """A model that does not decode, or whose packing fails verification;
    carries the decoder's error or the verification report."""


class _Run:
    """The only holder of one run's state.

    The window [lower, upper] holds the optimum.  lower starts at the area
    bound and rises only on an engine UNSAT for k, to k + 1; upper starts at
    the FFD count and falls only to the k of a verified model (maxsat: the
    sheets it used).  The incumbent best never uses more than upper sheets.
    A passed deadline raises TimeoutError, and a model that fails to
    decode or verify raises _BadModel.
    """

    def __init__(self, instance, strategy, rotation, sb, time_limit, engine, started):
        self.instance = instance
        self.strategy = strategy
        self.rotation = rotation
        self.sb = sb
        self.engine = engine or satcore.Solver
        self.started = started if started is not None else time.perf_counter()
        self.deadline = self.started + time_limit if time_limit is not None else None
        self.copies = expand_demands(instance)
        bounds = compute_bounds(instance, rotation)
        self.lower = bounds.lower
        self.upper = bounds.upper
        self.best = bounds.ffd_solution
        self.best_time = time.perf_counter() - self.started
        self.calls: list[CallRecord] = []
        self.builds = 0
        self.max_vars = 0
        self.max_clauses = 0
        self.backend = "internal"  # "external" once an external model is adopted

    def remaining(self) -> float | None:
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - time.perf_counter())

    def check_time(self) -> None:
        """Raise TimeoutError once the deadline has passed."""
        if self.deadline is not None and time.perf_counter() >= self.deadline:
            raise TimeoutError("time limit reached")

    def build(self, k: int):
        """Encode k sheets: (vm, formula)."""
        self.check_time()
        config = EncodeConfig(sheets=k, rotation=self.rotation, symmetry_breaking=self.sb)
        vm, formula = encode_formula(self.copies, self.instance, config, deadline=self.deadline)
        self.builds += 1
        self.max_vars = max(self.max_vars, formula.num_vars)
        self.max_clauses = max(self.max_clauses, formula.num_clauses)
        return vm, formula

    def load(self, formula):
        """A fresh engine holding the formula."""
        solver = self.engine(formula.num_vars)
        for block in formula.blocks:
            self.check_time()
            solver.add_block(block)
        return solver

    def adopt(self, model, vm) -> Solution:
        """Decode, compact and verify a model of the formula behind vm, and
        keep it when it beats the incumbent."""
        try:
            decoded = decode_model(model, vm, self.copies, self.instance)
        except RuntimeError as exc:  # a copy on no sheet or on two
            raise _BadModel(exc) from exc
        solution = relabel_sheets(decoded)
        report = verify_solution(self.instance, solution, self.rotation)
        if not report.ok:
            raise _BadModel(report)
        if solution.sheets_used < self.best.sheets_used:
            self.best = solution
            self.best_time = time.perf_counter() - self.started
        return solution

    def outcome(self, status: str, detail: str = "") -> SolveOutcome:
        return SolveOutcome(
            status=status,
            best_k=self.best.sheets_used,
            best_solution=self.best,
            time_to_best=self.best_time,
            strategy=self.strategy,
            rotation=self.rotation,
            symmetry_breaking=self.sb,
            lower_bound=self.lower,
            calls=self.calls,
            formula_builds=self.builds,
            max_vars=self.max_vars,
            max_clauses=self.max_clauses,
            backend=self.backend,
            wall_time=time.perf_counter() - self.started,
            detail=detail,
        )


def _search(run: _Run, solver_cmd: str | None) -> None:
    """Close the window with solver calls, or stop at an UNKNOWN answer."""
    first = True  # maxsat asks about upper itself once, unless the external model did
    disabled = run.upper + 1  # maxsat: sheets from here up are off for good
    if run.strategy != "sat" and run.lower < run.upper:
        vm, formula = run.build(run.upper)
        if solver_cmd and run.strategy == "maxsat":
            model = _external_model(run, solver_cmd, vm, formula)
            if model is not None:
                run.upper = run.adopt(model, vm).sheets_used
                run.backend = "external"
                first = False
        if run.lower < run.upper:
            solver = run.load(formula)
        formula = None  # only vm is read from here on
    while run.lower < run.upper:
        run.check_time()
        if run.strategy == "maxsat":
            k = run.upper if first else run.upper - 1
            first = False
        else:
            k = (run.lower + run.upper) // 2
        t0 = time.perf_counter()
        assumptions = []
        if run.strategy == "sat":
            solver = None  # one engine alive at a time
            vm, formula = run.build(k)
            solver = run.load(formula)
            formula = None
        elif run.strategy == "inc":
            assumptions = [-vm.used(j) for j in range(k + 1, vm.sheets + 1)]
        else:
            for j in range(k + 1, disabled):
                solver.add_clause([-vm.used(j)])
            disabled = k + 1
        result = solver.solve(assumptions=assumptions, time_limit=run.remaining())
        run.calls.append(CallRecord(k, result.status, time.perf_counter() - t0))
        if result.status == SAT:
            witness = run.adopt(result.model, vm)
            run.upper = witness.sheets_used if run.strategy == "maxsat" else k
        elif result.status == UNSAT:
            run.lower = k + 1
        else:
            break


def soft_unused_sheets(vm, lower: int) -> list[tuple[int, list[int]]]:
    """Unit-weight soft clauses preferring each sheet from `lower` up unused."""
    return [(1, [-vm.used(j)]) for j in range(lower, vm.sheets + 1)]


def _external_model(run: _Run, solver_cmd: str, vm, formula) -> list[bool] | None:
    """Hand the formula, with soft clauses preferring sheets unused, to the
    external WCNF solver: its model, or None when it gave none or one that
    breaks a hard clause."""
    wcnf = format_wcnf(formula.num_vars, formula, soft_unused_sheets(vm, run.lower))
    fd, path = tempfile.mkstemp(suffix=".wcnf", prefix="cutstock-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(wcnf)
        t0 = time.perf_counter()
        result = run_external(solver_cmd, path, formula.num_vars, time_limit=run.remaining())
        elapsed = time.perf_counter() - t0
    finally:
        os.unlink(path)
    model = result.model  # None unless the status is SAT
    if model is not None and not formula.satisfied_by(model):
        model, result.status = None, UNKNOWN  # not a model: no answer
    run.calls.append(CallRecord(run.upper, result.status, elapsed))
    return model


def solve_instance(
    instance: Instance,
    strategy: str = "sat",
    rotation: bool = False,
    symmetry_breaking: bool = False,
    time_limit: float | None = None,
    solver_cmd: str | None = None,
    engine=None,
    started: float | None = None,
) -> SolveOutcome:
    """Minimise the sheet count with the chosen strategy.

    strategy: 'sat' rebuilds a formula per midpoint, 'inc' reuses one solver
    with sheet-disabling assumptions, 'maxsat' improves models one sheet at
    a time, taking its first model from the WCNF solver solver_cmd when
    given.

    The cyclic garbage collector is paused for the run and the caller's
    setting restored afterwards, also when the run raises.  Nothing a solve
    builds (formulas, engines, models) holds a reference cycle, so a
    collection could free nothing: reference counting frees it all, and
    the pause only saves the collector's passes over the engine's lists.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
    instance.validate(rotation)
    collecting = gc.isenabled()
    gc.disable()
    try:
        run = _Run(instance, strategy, rotation, symmetry_breaking, time_limit, engine, started)
        try:
            _search(run, solver_cmd)
        except TimeoutError:
            pass  # the window stays where the deadline found it
        except _BadModel as bad:
            return run.outcome(INFEASIBLE_MODEL_ERROR, detail=str(bad))
        return run.outcome(OPTIMAL if run.best.sheets_used <= run.lower else FEASIBLE)
    finally:
        if collecting:
            gc.enable()
