"""The lazy package namespaces: every public name is the object its home
module defines, and each entry point loads only the modules it uses."""

import importlib
import os
import re
import subprocess
import sys

import pytest

import cutstock
from cutstock import satcore

SRC = os.path.dirname(os.path.dirname(cutstock.__file__))

# package -> home module -> public names it takes from there
HOMES = {
    "cutstock": {
        "bounds": ["Bounds", "area_lower_bound", "compute_bounds", "ffd_solution"],
        "encoding": ["CnfFormula", "EncodeConfig", "VarMap", "decode_model", "encode_formula"],
        "model": ["Copy", "Instance", "InstanceError", "ItemType", "Placement", "Solution",
                  "SolutionError", "expand_demands", "format_instance", "parse_instance",
                  "read_solution", "relabel_sheets", "write_solution"],
        "search": ["SolveOutcome", "config_name", "solve_instance"],
        "verify": ["VerifyReport", "brute_force_optimal", "verify_solution"],
    },
    "cutstock.satcore": {
        "engine": ["SAT", "UNSAT", "UNKNOWN", "SolveResult"],
        "dimacs": ["format_dimacs", "format_wcnf", "parse_wcnf"],
        "external": ["ExternalResult", "parse_solver_output", "run_external"],
    },
}
PACKAGES = pytest.mark.parametrize("package", [cutstock, satcore], ids=lambda p: p.__name__)


def run(code: str, *options: str) -> str:
    """What code prints in a new interpreter started with options."""
    proc = subprocess.run([sys.executable, *options, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def fresh(code: str) -> set[str]:
    """The cutstock modules loaded after code runs in a new interpreter."""
    code += "\nprint(*(m for m in __import__('sys').modules if m.split('.')[0] == 'cutstock'))"
    return set(run(code).split())


def test_bridge_loads_only_the_engine_and_the_dimacs_reader():
    loaded = fresh("import cutstock.satcore.extsolver_cli")
    assert "cutstock.satcore.external" not in loaded
    compiled = {"cutstock.satcore._engine"} & loaded  # present only when built
    assert loaded == {"cutstock", "cutstock.satcore", "cutstock.satcore.engine",
                      "cutstock.satcore.dimacs", "cutstock.satcore.extsolver_cli"} | compiled


def test_parse_instance_loads_only_the_model():
    assert fresh("from cutstock import parse_instance") == {"cutstock", "cutstock.model"}


@pytest.mark.parametrize("code", ["from cutstock import parse_instance",
                                  "import cutstock.satcore.extsolver_cli"])
def test_parse_and_bridge_load_no_heavy_stdlib_modules(code):
    # -S: no site hook preloads a module, so none can hide an import
    added = run(f"import sys\nbefore = set(sys.modules)\n{code}\n"
                "print(*set(sys.modules) - before)", "-S").split()
    assert not {"dataclasses", "inspect", "typing"} & set(added), added


def test_submodules_stay_reachable_as_attributes():
    fresh("import cutstock\n"
          "assert cutstock.search.solve_instance is cutstock.solve_instance\n"
          "assert cutstock.satcore.external.run_external is cutstock.satcore.run_external")


@PACKAGES
def test_public_names_are_their_home_modules_objects(package):
    homes = HOMES[package.__name__]
    for module, names in homes.items():
        home = importlib.import_module(f"{package.__name__}.{module}")
        for name in names:
            assert getattr(package, name) is getattr(home, name), name
    own = set(package.__all__) - {n for names in homes.values() for n in names}
    assert own <= {"Solver", "PurePythonSolver", "CompiledSolver", "ENGINE", "available_engines"}
    for name in own:
        assert getattr(package, name) is vars(package)[name]


@PACKAGES
def test_dir_and_star_import_cover_all(package):
    assert set(package.__all__) <= set(dir(package))
    scope = {}
    exec(f"from {package.__name__} import *", scope)
    assert all(scope[name] is getattr(package, name) for name in package.__all__)


def test_dir_lists_names_not_yet_loaded():
    fresh("import cutstock, cutstock.satcore as s\n"
          "assert set(cutstock.__all__) <= set(dir(cutstock))\n"
          "assert set(s.__all__) <= set(dir(s))\n"
          "assert 'cutstock.search' not in __import__('sys').modules")


@PACKAGES
def test_unknown_name_raises_attribute_error(package):
    message = f"module {package.__name__!r} has no attribute 'no_such_name'"
    with pytest.raises(AttributeError, match=re.escape(message)):
        package.no_such_name
