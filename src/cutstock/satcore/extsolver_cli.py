"""Standalone DIMACS solver speaking the conventional s/v/o output protocol.

Usage: ``python -m cutstock.satcore.extsolver_cli FILE [TIME_LIMIT]``

CNF and WCNF files take one path, whose ``p`` line says which it is; a CNF
is a WCNF without soft clauses.  The hard clauses go into one incremental
solver, once.  Each model is improved by linear SAT-UNSAT search: after the
first model, one sequential counter (Sinz 2005) as wide as that model's
cost counts the falsified soft clauses, and every later call adds the unit
clause "at most cost - 1" for the last model's cost.  The first UNSAT
proves the last model optimal.  Only unit-weight unit soft clauses are
supported (which is what this package exports).  TIME_LIMIT, in seconds,
bounds the whole run; when it runs out after a model, the last model is
printed with its ``o`` cost and ``s SATISFIABLE``, as MaxSAT solvers do.
Exit codes follow solver conventions: 10 satisfiable / optimum, 20
unsatisfiable, 0 unknown, 2 bad arguments or a file that cannot be read,
parsed or loaded (with ``error: REASON`` on stderr).

This doubles as a scriptable stand-in for third-party solvers, so the
external-adapter pipeline can be exercised without network access.
"""

from __future__ import annotations

import gc
import sys
import time

from .. import satcore
from .dimacs import DimacsError, parse_wcnf
from .engine import SAT, UNKNOWN


def _counter(solver, lits: list[int], width: int) -> list[int]:
    """Sequential counter over lits: output j is forced true whenever at
    least j + 1 of lits hold, for j < width."""
    row: list[int] = []
    for lit in lits:
        first = solver.add_vars(width)
        new = list(range(first, first + width))
        solver.add_clause([-lit, new[0]])
        for j, prev in enumerate(row):
            solver.add_clause([-prev, new[j]])
            if j + 1 < width:
                solver.add_clause([-lit, -prev, new[j + 1]])
        row = new
    return row


def solve(path: str, time_limit: float | None) -> int:
    """Print the verdict on a CNF or WCNF file; returns the exit code."""
    deadline = None if time_limit is None else time.perf_counter() + time_limit
    try:
        with open(path) as fh:
            num_vars, top, hard, soft = parse_wcnf(fh.read())
        if any(weight != 1 or len(lits) != 1 for weight, lits in soft):
            print("c only unit-weight unit soft clauses are supported")
            print("s UNKNOWN")
            return 0
        broken = [-lits[0] for _, lits in soft]  # true where a soft clause is falsified
        if not all(0 < abs(lit) <= num_vars for lit in broken):
            raise DimacsError(f"soft clause literal outside declared variables 1..{num_vars}")
        solver = satcore.Solver(num_vars)
        for clause in hard:
            solver.add_clause(clause)
    except (OSError, ValueError, OverflowError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2

    model, at_least = None, []
    while True:
        left = None if deadline is None else max(0.0, deadline - time.perf_counter())
        result = solver.solve(time_limit=left)
        if result.status != SAT:
            break
        model = result.model
        cost = sum(model[lit] if lit > 0 else not model[-lit] for lit in broken)
        if cost == 0:
            break
        if not at_least:
            at_least = _counter(solver, broken, cost)
        solver.add_clause([-at_least[cost - 1]])

    if model is None:
        if result.status == UNKNOWN:
            print("s UNKNOWN")
            return 0
        print("s UNSATISFIABLE")
        return 20
    if top is not None:
        print(f"o {cost}")
        print("s SATISFIABLE" if result.status == UNKNOWN else "s OPTIMUM FOUND")
    else:
        print("s SATISFIABLE")
    print("v " + " ".join(str(v if model[v] else -v) for v in range(1, num_vars + 1)) + " 0")
    return 10


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        time_limit = float(argv[1]) if len(argv) == 2 else None
    except ValueError:
        time_limit = -1.0  # refused below, as a negative limit is
    if not argv or len(argv) > 2 or not (time_limit is None or time_limit >= 0):
        print("usage: extsolver_cli FILE [TIME_LIMIT]", file=sys.stderr)
        return 2
    return solve(argv[0], time_limit)


if __name__ == "__main__":
    gc.disable()  # a short-lived process whose data holds no reference cycle
    sys.exit(main())
