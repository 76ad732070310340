"""SAT substrate: embedded CDCL engine, DIMACS/WCNF writer and reader, external adapter.

Two interchangeable engines exist: the pure-Python reference
(``cutstock.satcore.engine``) and its hand-written C++ transliteration
(``cutstock.satcore._engine``, built from ``_engine.cpp`` on install when a
C++ compiler is present).  They share the interface, verdicts, models,
statistics and trail order, but not the watch layer: the reference watches
the clauses of one block head as a single run.  ``Solver`` is the compiled
one when it can be imported and the pure-Python one otherwise.

The external adapter (``ExternalResult``, ``parse_solver_output``,
``run_external``) loads on first use, so the bundled MaxSAT bridge, which
needs only the engine and the DIMACS reader, never imports it.
"""

from __future__ import annotations

import importlib

from . import engine as _engine_py
from .dimacs import format_dimacs, format_wcnf, parse_wcnf
from .engine import SAT, UNKNOWN, UNSAT, SolveResult

PurePythonSolver = _engine_py.Solver

try:
    from . import _engine as _compiled
except ImportError:
    CompiledSolver = None
    Solver, ENGINE = PurePythonSolver, "python"
else:
    CompiledSolver = Solver = _compiled.Solver
    ENGINE = "compiled"


def available_engines() -> dict[str, type]:
    """Engine name -> Solver class for everything importable here."""
    engines = {"python": PurePythonSolver}
    if CompiledSolver is not None:
        engines["compiled"] = CompiledSolver
    return engines


_FROM_EXTERNAL = ("ExternalResult", "parse_solver_output", "run_external")


def __getattr__(name: str):
    if name not in _FROM_EXTERNAL and name != "external":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    external = importlib.import_module(".external", __name__)
    globals().update((n, getattr(external, n)) for n in _FROM_EXTERNAL)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


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
    "parse_wcnf",
    "run_external",
    "parse_solver_output",
    "ExternalResult",
]
