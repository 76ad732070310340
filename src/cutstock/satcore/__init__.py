"""SAT substrate: embedded CDCL engine, DIMACS/WCNF export, external adapter.

Two interchangeable engines exist: the pure-Python reference
(``cutstock.satcore.engine``) and its hand-written C++ transliteration
(``cutstock.satcore._engine``, built from ``_engine.cpp`` on install when a
C++ compiler is present).  ``Solver`` is the compiled one when it can be
imported and the pure-Python one otherwise.
"""

from __future__ import annotations

from . import engine as _engine_py
from .dimacs import format_dimacs, format_wcnf, parse_dimacs, parse_wcnf
from .engine import SAT, UNKNOWN, UNSAT, SolveResult
from .external import ExternalResult, parse_solver_output, run_external

PurePythonSolver = _engine_py.Solver

try:
    from . import _engine as _engine_cy
except ImportError:
    CompiledSolver = None
    Solver, ENGINE = PurePythonSolver, "python"
else:
    CompiledSolver = Solver = _engine_cy.Solver
    ENGINE = "compiled"


def available_engines() -> dict[str, type]:
    """Engine name -> Solver class for everything importable here."""
    engines = {"python": PurePythonSolver}
    if CompiledSolver is not None:
        engines["compiled"] = CompiledSolver
    return engines


__all__ = [
    "SAT",
    "UNSAT",
    "UNKNOWN",
    "Solver",
    "SolveResult",
    "PurePythonSolver",
    "CompiledSolver",
    "ENGINE",
    "available_engines",
    "format_dimacs",
    "format_wcnf",
    "parse_dimacs",
    "parse_wcnf",
    "run_external",
    "parse_solver_output",
    "ExternalResult",
]
