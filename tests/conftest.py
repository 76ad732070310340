"""Shared fixtures and helpers.

When ``g++`` and the Python headers are present, the committed
``src/cutstock/satcore/_engine.cpp`` is compiled once per session into a
temporary directory and served as ``cutstock.satcore._engine``, so every
engine-parametrised test runs on the compiled engine as well as on the
pure-Python one.  Nothing is written under ``src/``.  It is compiled with
the CI workflow's flags, standard C++14 with every warning an error, so
when the toolchain is present but the build fails or warns,
``test_compiled_engine_builds`` fails with g++'s error output.
"""

import atexit
import importlib.abc
import importlib.util
import os
import random
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import time
from typing import NamedTuple

import pytest


class _BuiltEngineFinder(importlib.abc.MetaPathFinder):
    """Finds the compiled engine at a path outside the source tree."""

    def __init__(self, path: str):
        self.path = path

    def find_spec(self, name, path=None, target=None):
        if name == "cutstock.satcore._engine":
            return importlib.util.spec_from_file_location(name, self.path)
        return None


class EngineBuild(NamedTuple):
    toolchain: bool  # g++ and the Python headers are present
    error: str | None  # g++'s error output when the build failed
    header: str  # line for the report header


def build_compiled_engine() -> EngineBuild:
    """Compile the committed engine source and serve it to later imports."""
    compiler = shutil.which("g++")
    include = sysconfig.get_paths()["include"]
    if compiler is None or not os.path.exists(os.path.join(include, "Python.h")):
        missing = "compiled engine not built: g++ or the Python headers are missing"
        return EngineBuild(False, None, missing)
    package = importlib.util.find_spec("cutstock").submodule_search_locations[0]
    source = os.path.join(package, "satcore", "_engine.cpp")
    folder = tempfile.mkdtemp(prefix="cutstock-engine-")
    atexit.register(shutil.rmtree, folder, ignore_errors=True)
    target = os.path.join(folder, "_engine" + sysconfig.get_config_var("EXT_SUFFIX"))
    started = time.perf_counter()
    proc = subprocess.run(
        [compiler, "-std=c++14", "-pedantic-errors", "-Wall", "-Werror", "-O2", "-shared",
         "-fPIC", f"-I{include}", source, "-o", target],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        error = proc.stderr[-2000:]
        return EngineBuild(True, error, f"compiled engine not built: g++ failed:\n{error}")
    sys.meta_path.insert(0, _BuiltEngineFinder(target))
    took = time.perf_counter() - started
    return EngineBuild(True, None, f"compiled engine built from _engine.cpp in {took:.1f}s")


def export_package_path() -> None:
    """Let child processes, such as the bundled external solver, import the
    same cutstock as the tests, whether it is installed or only on the
    ``pythonpath`` that pyproject.toml gives pytest."""
    package = importlib.util.find_spec("cutstock").submodule_search_locations[0]
    parts = [os.path.dirname(package), os.environ.get("PYTHONPATH")]
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in parts if p)


export_package_path()
# before anything imports cutstock.satcore, which looks for the compiled engine
ENGINE_BUILD = build_compiled_engine()

from cutstock.model import Instance, ItemType, parse_instance  # noqa: E402
from cutstock.satcore import available_engines  # noqa: E402

ENGINES = available_engines()

DEMO_TEXT = "6 4\n2\n3 2 3\n2 2 3\n"

# layout drawn in the worked example: five copies on sheet 1, one on sheet 2
DEMO_PLACEMENTS = [
    (0, 1, 1, 0, 0, 0),
    (0, 2, 1, 3, 0, 0),
    (0, 3, 2, 0, 0, 0),
    (1, 1, 1, 0, 2, 0),
    (1, 2, 1, 2, 2, 0),
    (1, 3, 1, 4, 2, 0),
]


def pytest_report_header(config):
    return [f"cutstock engines: {', '.join(sorted(ENGINES))}", ENGINE_BUILD.header]


@pytest.fixture(params=sorted(ENGINES))
def engine_cls(request):
    return ENGINES[request.param]


@pytest.fixture
def demo() -> Instance:
    return parse_instance(DEMO_TEXT, name="demo")


def random_instance(rng: random.Random, max_copies: int = 6, max_dim: int = 6) -> Instance:
    """Small instance where every type fits unrotated (valid in both modes).

    Sheet sides occasionally degenerate to 1 so the threshold-free
    coordinate paths get exercised too.
    """
    w = 1 if rng.random() < 0.05 else rng.randint(2, max_dim)
    h = 1 if rng.random() < 0.05 else rng.randint(2, max_dim)
    total = rng.randint(1, max_copies)
    types: list[ItemType] = []
    remaining = total
    while remaining > 0:
        demand = rng.randint(1, remaining)
        types.append(ItemType(rng.randint(1, w), rng.randint(1, h), demand))
        remaining -= demand
    return Instance(w, h, tuple(types), name=f"rand{rng.random():.6f}")


def random_cnf(rng: random.Random, max_vars: int = 20):
    """Random CNF in the style used for solver correctness checks."""
    n = rng.randint(3, max_vars)
    m = rng.randint(max(2, n // 2), int(4.5 * n))
    clauses = []
    for _ in range(m):
        size = rng.choice((1, 2, 3, 3))
        size = min(size, n)
        vs = rng.sample(range(1, n + 1), size)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return n, clauses
