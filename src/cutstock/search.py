"""Sheet-count minimisation: binary search (fresh or incremental) and MaxSAT.

All strategies share the same skeleton: compute the [lower, upper] window,
keep the FFD packing as the incumbent witness, and tighten the window with
feasibility queries.  A result is OPTIMAL only with a certificate: either
the best k equals the area lower bound, or an UNSAT verdict exists for one
sheet fewer.
"""

from __future__ import annotations

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

LOAD_CHECK_EVERY = 4096  # clauses loaded between deadline checks


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
    best_solution: Solution | None
    time_to_best: float
    strategy: str
    rotation: bool
    symmetry_breaking: bool
    lower_bound: int
    upper_bound: int
    calls: list[CallRecord] = field(default_factory=list)
    formula_builds: int = 0
    max_vars: int = 0
    max_clauses: int = 0
    backend: str = "internal"
    wall_time: float = 0.0
    detail: str = ""

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


class _Run:
    """Shared bookkeeping for one optimisation run."""

    def __init__(self, instance, strategy, rotation, sb, time_limit, engine, started, seed):
        self.instance = instance
        self.strategy = strategy
        self.rotation = rotation
        self.sb = sb
        self.engine = engine or satcore.Solver
        self.seed = seed
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
        self.proven_lower = self.lower
        self.fail_detail = ""

    def remaining(self) -> float | None:
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - time.perf_counter())

    def out_of_time(self) -> bool:
        return self.deadline is not None and time.perf_counter() >= self.deadline

    def build(self, k: int):
        """Encode k sheets: (vm, formula), or None when the deadline has passed."""
        if self.out_of_time():
            return None
        vm, formula = encode_formula(self.copies, self.instance, self._config(k))
        self.builds += 1
        self.max_vars = max(self.max_vars, formula.num_vars)
        self.max_clauses = max(self.max_clauses, formula.num_clauses)
        return vm, formula

    def _config(self, k: int) -> EncodeConfig:
        return EncodeConfig(sheets=k, rotation=self.rotation, symmetry_breaking=self.sb)

    def new_solver(self, k: int):
        """Encode k sheets into a fresh engine: (vm, solver), or None when
        the deadline passes before the formula is fully loaded."""
        built = self.build(k)
        if built is None:
            return None
        vm, formula = built
        solver = self.engine(formula.num_vars, self.seed)
        clauses = formula.clauses
        for start in range(0, len(clauses), LOAD_CHECK_EVERY):
            if self.out_of_time():
                return None
            for clause in clauses[start:start + LOAD_CHECK_EVERY]:
                solver.add_clause(clause)
        return vm, solver

    def take_witness(self, solution: Solution) -> Solution | None:
        """Compact, verify and adopt a decoded packing; None means bad model."""
        solution = relabel_sheets(solution)
        report = verify_solution(self.instance, solution, self.rotation)
        if not report.ok:
            self.fail_detail = str(report)
            return None
        if solution.sheets_used < self.best.sheets_used:
            self.best = solution
            self.best_time = time.perf_counter() - self.started
        return solution

    def outcome(self, status: str, backend: str = "internal", detail: str = "") -> SolveOutcome:
        return SolveOutcome(
            status=status,
            best_k=self.best.sheets_used if self.best is not None else 0,
            best_solution=self.best,
            time_to_best=self.best_time,
            strategy=self.strategy,
            rotation=self.rotation,
            symmetry_breaking=self.sb,
            lower_bound=self.proven_lower,
            upper_bound=self.best.sheets_used if self.best is not None else self.upper,
            calls=self.calls,
            formula_builds=self.builds,
            max_vars=self.max_vars,
            max_clauses=self.max_clauses,
            backend=backend,
            wall_time=time.perf_counter() - self.started,
            detail=detail,
        )

    def finish(self, backend: str = "internal") -> SolveOutcome:
        if self.best is not None and self.best.sheets_used <= self.proven_lower:
            return self.outcome(OPTIMAL, backend)
        if self.best is not None:
            return self.outcome(FEASIBLE, backend)
        return self.outcome(UNKNOWN, backend)


def _solve_binary_search(run: _Run, incremental: bool) -> SolveOutcome:
    lower, upper = run.lower, run.upper
    solver = None
    vm_top = None
    if incremental and lower < upper:
        loaded = run.new_solver(upper)
        if loaded is None:
            return run.finish()
        vm_top, solver = loaded
    while lower < upper:
        if run.out_of_time():
            run.proven_lower = lower
            return run.finish()
        mid = (lower + upper) // 2
        t0 = time.perf_counter()
        if incremental:
            assumptions = [-vm_top.used(j) for j in range(mid + 1, run.upper + 1)]
            result = solver.solve(assumptions=assumptions, time_limit=run.remaining())
            vm, config = vm_top, run._config(run.upper)
        else:
            loaded = run.new_solver(mid)
            if loaded is None:
                run.proven_lower = lower
                return run.finish()
            vm, fresh = loaded
            result = fresh.solve(time_limit=run.remaining())
            config = run._config(mid)
        run.calls.append(CallRecord(mid, result.status, time.perf_counter() - t0))
        if result.status == SAT:
            decoded = decode_model(result.model, vm, run.copies, run.instance, config)
            if run.take_witness(decoded) is None:
                return run.outcome(INFEASIBLE_MODEL_ERROR, detail=run.fail_detail)
            upper = mid
        elif result.status == UNSAT:
            lower = mid + 1
            run.proven_lower = lower
        else:
            run.proven_lower = lower
            return run.finish()
    run.proven_lower = lower
    return run.finish()


def _solve_maxsat_internal(run: _Run) -> SolveOutcome:
    if run.lower >= run.upper:
        return run.finish()
    loaded = run.new_solver(run.upper)
    if loaded is None:
        return run.finish()
    vm, solver = loaded
    config = run._config(run.upper)
    disabled = run.upper + 1
    while True:
        if run.out_of_time():
            return run.finish()
        t0 = time.perf_counter()
        result = solver.solve(time_limit=run.remaining())
        run.calls.append(CallRecord(disabled - 1, result.status, time.perf_counter() - t0))
        if result.status == SAT:
            decoded = decode_model(result.model, vm, run.copies, run.instance, config)
            witness = run.take_witness(decoded)
            if witness is None:
                return run.outcome(INFEASIBLE_MODEL_ERROR, detail=run.fail_detail)
            used = witness.sheets_used
            if used <= run.lower:
                run.proven_lower = run.lower
                return run.finish()
            # forbid every sheet index >= used, so the next model is smaller
            for j in range(used, disabled):
                solver.add_clause([-vm.used(j)])
            disabled = used
        elif result.status == UNSAT:
            run.proven_lower = disabled  # no packing into disabled-1 sheets
            return run.finish()
        else:
            return run.finish()


def soft_unused_sheets(vm, lower: int) -> list[tuple[int, list[int]]]:
    """Unit-weight soft clauses preferring each sheet from `lower` up unused."""
    return [(1, [-vm.used(j)]) for j in range(lower, vm.sheets + 1)]


def _solve_maxsat_external(run: _Run, solver_cmd: str) -> SolveOutcome | None:
    """Optimise via an external WCNF solver; None means fall back internally."""
    built = run.build(run.upper)
    if built is None:
        return run.finish()
    vm, formula = built
    config = run._config(run.upper)
    wcnf = format_wcnf(formula.num_vars, formula.clauses, soft_unused_sheets(vm, run.lower))
    fd, path = tempfile.mkstemp(suffix=".wcnf", prefix="cutstock-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(wcnf)
        t0 = time.perf_counter()
        result = run_external(solver_cmd, path, time_limit=run.remaining())
        run.calls.append(CallRecord(run.upper, result.status, time.perf_counter() - t0))
    finally:
        os.unlink(path)
    if result.status != SAT or not result.optimal or result.model is None:
        return None
    model = result.model
    if len(model) <= formula.num_vars:
        model = model + [False] * (formula.num_vars + 1 - len(model))
    decoded = decode_model(model, vm, run.copies, run.instance, config)
    witness = run.take_witness(decoded)
    if witness is None:
        return run.outcome(INFEASIBLE_MODEL_ERROR, backend="external", detail=run.fail_detail)
    run.proven_lower = witness.sheets_used  # the solver certified the optimum
    return run.finish(backend="external")


def solve_instance(
    instance: Instance,
    strategy: str = "sat",
    rotation: bool = False,
    symmetry_breaking: bool = False,
    time_limit: float | None = None,
    solver_cmd: str | None = None,
    engine=None,
    started: float | None = None,
    seed: int = 0,
) -> SolveOutcome:
    """Minimise the sheet count with the chosen strategy.

    strategy: 'sat' rebuilds a formula per midpoint, 'inc' reuses one solver
    with sheet-disabling assumptions, 'maxsat' optimises soft sheet-usage
    clauses (externally via solver_cmd when given, else by internal
    model-improving search).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
    instance.validate(rotation)
    run = _Run(
        instance, strategy, rotation, symmetry_breaking, time_limit, engine, started, seed
    )
    if strategy == "sat":
        return _solve_binary_search(run, incremental=False)
    if strategy == "inc":
        return _solve_binary_search(run, incremental=True)
    if run.lower >= run.upper:
        return run.finish()  # the FFD packing already meets the area bound
    if solver_cmd:
        external = _solve_maxsat_external(run, solver_cmd)
        if external is not None:
            return external
    return _solve_maxsat_internal(run)
