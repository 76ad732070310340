"""Exact 2D cutting stock solving via SAT: pack demanded copies of
rectangular item types onto identical sheets using as few sheets as
possible, with certified optimality.

Submodules load on first use (PEP 562): ``from cutstock import
parse_instance`` imports only ``cutstock.model``, and the bundled MaxSAT
bridge, ``cutstock.satcore.extsolver_cli``, imports only the engine and the
DIMACS reader.
"""

import importlib

__version__ = "0.1.0"

# home submodule -> the public names it gives this namespace
_EXPORTS = {
    "bounds": ("Bounds", "area_lower_bound", "compute_bounds", "ffd_solution"),
    "encoding": ("CnfFormula", "VarMap", "decode_model", "encode_formula"),
    "model": (
        "Copy",
        "Instance",
        "InstanceError",
        "ItemType",
        "Placement",
        "Solution",
        "SolutionError",
        "expand_demands",
        "format_instance",
        "parse_instance",
        "read_solution",
        "relabel_sheets",
        "write_solution",
    ),
    "search": ("SolveOutcome", "config_name", "solve_instance"),
    "verify": ("VerifyReport", "brute_force_optimal", "verify_solution"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "satcore"}  # reachable as attributes, as when imported eagerly

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
