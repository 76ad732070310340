import importlib
import itertools
import os
import random
import signal
import sys
import time

import pytest

from cutstock.satcore import (
    SAT,
    UNKNOWN,
    UNSAT,
    PurePythonSolver,
    available_engines,
    format_dimacs,
    format_wcnf,
    parse_dimacs,
    parse_solver_output,
    parse_wcnf,
    run_external,
)

from cutstock.encoding import EncodeConfig, encode_formula
from cutstock.model import expand_demands

from conftest import ENGINE_BUILD, random_cnf, random_instance


def enumerate_sat(n, clauses):
    for bits in itertools.product((False, True), repeat=n):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in clauses):
            return True
    return False


def satisfies(model, clauses):
    return all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses)


def php(pigeons, holes):
    """Pigeonhole formula: unsatisfiable when pigeons > holes, hard to refute."""
    var = lambda i, j: (i - 1) * holes + j
    cl = [[var(i, j) for j in range(1, holes + 1)] for i in range(1, pigeons + 1)]
    for j in range(1, holes + 1):
        for i1 in range(1, pigeons + 1):
            for i2 in range(i1 + 1, pigeons + 1):
                cl.append([-var(i1, j), -var(i2, j)])
    return pigeons * holes, cl


def test_unit_clause(engine_cls):
    s = engine_cls(1)
    s.add_clause([1])
    r = s.solve()
    assert r.status == SAT and r.model[1] is True


def test_contradictory_units(engine_cls):
    s = engine_cls(1)
    s.add_clause([1])
    s.add_clause([-1])
    assert s.solve().status == UNSAT


def test_all_assignments_excluded(engine_cls):
    s = engine_cls(2)
    for clause in ([1, 2], [-1, 2], [1, -2], [-1, -2]):
        s.add_clause(clause)
    assert s.solve().status == UNSAT


def test_variable_range_checked(engine_cls):
    s = engine_cls(2)
    with pytest.raises(ValueError):
        s.add_clause([3])
    with pytest.raises(ValueError):
        s.solve(assumptions=[5])


def test_tautology_and_duplicates_ignored(engine_cls):
    s = engine_cls(2)
    s.add_clause([1, -1])
    s.add_clause([2, 2])
    r = s.solve()
    assert r.status == SAT and r.model[2] is True


def test_random_formulas_vs_enumeration(engine_cls):
    rng = random.Random(2024)
    for _ in range(150):
        n, clauses = random_cnf(rng, max_vars=10)
        expected = enumerate_sat(n, clauses)
        s = engine_cls(n)
        for c in clauses:
            s.add_clause(c)
        r = s.solve()
        assert r.status == (SAT if expected else UNSAT)
        if r.status == SAT:
            assert satisfies(r.model, clauses)


def test_model_soundness_on_every_sat(engine_cls):
    rng = random.Random(99)
    for _ in range(60):
        n, clauses = random_cnf(rng, max_vars=16)
        s = engine_cls(n)
        for c in clauses:
            s.add_clause(c)
        r = s.solve()
        if r.status == SAT:
            assert satisfies(r.model, clauses)


def test_assumptions_match_fresh_units(engine_cls):
    """Solving under assumptions equals solving a fresh copy with unit clauses."""
    rng = random.Random(7)
    for _ in range(60):
        n, clauses = random_cnf(rng, max_vars=10)
        handle = engine_cls(n)
        for c in clauses:
            handle.add_clause(c)
        for _ in range(4):
            count = rng.randint(1, min(3, n))
            assumptions = [
                v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), count)
            ]
            fresh = engine_cls(n)
            for c in clauses:
                fresh.add_clause(c)
            for lit in assumptions:
                fresh.add_clause([lit])
            got = handle.solve(assumptions=assumptions)
            want = fresh.solve()
            assert got.status == want.status, (clauses, assumptions)
            if got.status == SAT:
                assert satisfies(got.model, clauses)
                assert all(got.model[abs(l)] == (l > 0) for l in assumptions)


def test_unsat_under_assumptions_keeps_learned_clauses(engine_cls):
    # needs search to refute, so clauses are learned and must survive
    n, clauses = php(6, 5)
    gate = n + 1
    s = engine_cls(n)
    s.add_vars(1)
    for c in clauses:
        s.add_clause(c + [gate])  # formula is UNSAT only when gate is false
    r = s.solve(assumptions=[-gate])
    assert r.status == UNSAT
    assert r.stats["conflicts"] > 0
    assert r.stats["learned"] > 0
    r2 = s.solve()
    assert r2.status == SAT and r2.model[gate] is True
    assert r2.stats["learned"] >= r.stats["learned"]


def test_determinism(engine_cls):
    rng = random.Random(3)
    n, clauses = random_cnf(rng, max_vars=18)
    runs = []
    for _ in range(2):
        s = engine_cls(n)
        for c in clauses:
            s.add_clause(c)
        r = s.solve()
        runs.append((r.status, r.model, r.stats))
    assert runs[0] == runs[1]


def test_conflict_budget_returns_unknown(engine_cls):
    n, clauses = php(7, 6)
    s = engine_cls(n)
    for c in clauses:
        s.add_clause(c)
    r = s.solve(conflict_limit=10)
    assert r.status == UNKNOWN
    assert s.solve().status == UNSAT


def test_live_clause_count_survives_reductions():
    n, clauses = php(8, 7)
    s = PurePythonSolver(n)
    for c in clauses:
        s.add_clause(c)
    s._max_learnts = 20.0  # reduce the learned-clause database early and often
    for budget in (300, 600):
        r = s.solve(conflict_limit=budget)
        assert r.stats["clauses"] == sum(1 for c in s._clauses if c is not None)
    assert any(c is None for c in s._clauses), "no clause was ever deleted"


def test_engines_are_lockstep():
    """The compiled engine is a transliteration of the reference: same
    verdicts, same models, same statistics, conflict for conflict, through
    restarts and learned-clause reductions too."""
    engines = available_engines()
    if len(engines) < 2:
        pytest.skip("compiled engine not built")
    rng = random.Random(31)
    for _ in range(60):
        n, clauses = random_cnf(rng, max_vars=16)
        runs = []
        for cls in engines.values():
            s = cls(n)
            for c in clauses:
                s.add_clause(c)
            r = s.solve()
            runs.append((r.status, r.model, r.stats))
        assert runs[0] == runs[1]
    # encoded packing formulas: assumption calls, then permanent unit clauses
    rng = random.Random(32)
    for _ in range(12):
        inst = random_instance(rng, max_copies=7, max_dim=7)
        k = rng.randint(1, 4)
        config = EncodeConfig(k, rng.random() < 0.5, rng.random() < 0.5)
        vm, formula = encode_formula(expand_demands(inst), inst, config)
        solvers = [cls(formula.num_vars) for cls in engines.values()]
        for s in solvers:
            for c in formula.clauses:
                s.add_clause(c)
        for m in range(k, 0, -1):
            assumptions = [-vm.used(j) for j in range(m + 1, k + 1)]
            for kwargs in ({"assumptions": assumptions}, {}):
                a, b = [s.solve(**kwargs) for s in solvers]
                assert (a.status, a.model, a.stats) == (b.status, b.model, b.stats)
            for s in solvers:
                s.add_clause([-vm.used(m)])
    # past a learned-clause reduction and 29 restarts, then an assumption call
    n, clauses = php(9, 8)
    runs = []
    for name, cls in sorted(engines.items()):
        s = cls(n)
        for c in clauses:
            s.add_clause(c)
        first = s.solve(conflict_limit=6000)
        second = s.solve(assumptions=[(i - 1) * 8 + i for i in range(1, 8)])  # pigeon i in hole i
        runs.append([(r.status, r.model, r.stats) for r in (first, second)])
        if name == "python":
            assert any(c is None for c in s._clauses), "no clause was ever deleted"
    assert [r[0] for r in runs[0]] == [UNKNOWN, UNSAT]
    assert runs[0] == runs[1]


def test_subclass_forwarding_init(engine_cls):
    """A subclass that forwards ``__init__`` works on either engine, and both
    engines show the same public names and statistics keys."""

    class CountingSolver(engine_cls):
        def __init__(self, num_vars=0):
            super().__init__(num_vars)
            self.calls = 0

        def solve(self, *args, **kwargs):
            self.calls += 1
            return super().solve(*args, **kwargs)

    s = CountingSolver(2)
    s.add_clause([1, 2])
    s.add_clause([-1])
    r = s.solve()
    assert (s.calls, s.num_vars, r.status, r.model[2]) == (1, 2, SAT, True)
    assert CountingSolver().num_vars == 0 and CountingSolver(num_vars=3).num_vars == 3
    public = lambda cls: {name for name in dir(cls(1)) if not name.startswith("_")}
    assert public(engine_cls) == public(PurePythonSolver)
    assert list(r.stats) == list(engine_cls(1).stats()) == list(PurePythonSolver(1).stats())


def test_compiled_engine_builds():
    """When g++ and the Python headers are present, _engine.cpp must build
    and import: a broken engine fails here instead of skipping its tests."""
    if not ENGINE_BUILD.toolchain:
        pytest.skip(ENGINE_BUILD.header)
    assert ENGINE_BUILD.error is None, f"g++ failed on _engine.cpp:\n{ENGINE_BUILD.error}"
    importlib.import_module("cutstock.satcore._engine")


# ----------------------------------------------------------------------
# DIMACS / WCNF


def test_format_dimacs_exact():
    assert format_dimacs(2, [[1, -2]]) == "p cnf 2 1\n1 -2 0\n"


def test_format_wcnf_exact():
    assert format_wcnf(2, [[1]], [(1, [-2])]) == "p wcnf 2 2 2\n2 1 0\n1 -2 0\n"


def test_dimacs_round_trip():
    rng = random.Random(17)
    n, clauses = random_cnf(rng)
    text = format_dimacs(n, clauses)
    n2, clauses2 = parse_dimacs(text)
    assert (n2, clauses2) == (n, clauses)


def test_wcnf_round_trip():
    hard = [[1, 2], [-1, 3]]
    soft = [(1, [-2]), (2, [-3])]
    n, top, hard2, soft2 = parse_wcnf(format_wcnf(3, hard, soft))
    assert n == 3 and top == 4
    assert hard2 == hard and soft2 == soft


# ----------------------------------------------------------------------
# external solver adapter (exercised against the bundled DIMACS bridge)

BRIDGE = f"{sys.executable} -m cutstock.satcore.extsolver_cli {{input}}"


def test_parse_solver_output_variants():
    sat = parse_solver_output("c hi\ns SATISFIABLE\nv 1 -2 0\n")
    assert sat.status == SAT and sat.model[1] is True and sat.model[2] is False
    bits = parse_solver_output("s OPTIMUM FOUND\no 3\nv 101\n")
    assert bits.status == SAT and bits.optimal and bits.cost == 3
    assert bits.model[1:4] == [True, False, True]
    assert parse_solver_output("s UNSATISFIABLE\n").status == UNSAT
    assert parse_solver_output("garbage\n").status == UNKNOWN


def test_external_sat_and_unsat(tmp_path):
    sat_file = tmp_path / "sat.cnf"
    sat_file.write_text(format_dimacs(1, [[1]]))
    result = run_external(BRIDGE, str(sat_file))
    assert result.status == SAT and result.model[1] is True

    unsat_file = tmp_path / "unsat.cnf"
    unsat_file.write_text(format_dimacs(1, [[1], [-1]]))
    assert run_external(BRIDGE, str(unsat_file)).status == UNSAT


def test_external_failure_is_unknown(tmp_path):
    missing = tmp_path / "nope.cnf"
    missing.write_text("p cnf 1 1\n1 0\n")
    result = run_external("definitely-not-a-solver-binary", str(missing))
    assert result.status == UNKNOWN
    assert result.diagnostic


def test_external_timeout_is_unknown(tmp_path):
    slow = tmp_path / "slow.cnf"
    slow.write_text("p cnf 1 1\n1 0\n")
    result = run_external("sleep 5", str(slow), time_limit=0.2)
    assert result.status == UNKNOWN
    assert "timeout" in result.diagnostic


def test_external_timeout_kills_grandchildren(tmp_path):
    """A solver that forks must not leave its children running after a timeout."""
    pid_file = tmp_path / "grandchild.pid"
    script = tmp_path / "forking-solver.sh"
    script.write_text(f"sleep 30 &\necho $! > {pid_file}\nwait\n")
    problem = tmp_path / "p.cnf"
    problem.write_text("p cnf 1 1\n1 0\n")
    result = run_external(f"sh {script}", str(problem), time_limit=1)
    assert result.status == UNKNOWN and "timeout" in result.diagnostic
    pid = int(pid_file.read_text())
    try:
        deadline = time.monotonic() + 5.0
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(pid), f"grandchild {pid} outlived the timeout"
    finally:
        if _running(pid):
            os.kill(pid, signal.SIGKILL)


def test_external_answer_not_held_by_leftover_child(tmp_path):
    """A solver that answers and exits while a child it started lives on is
    read at once, with or without a time limit, and the child is ended."""
    pid_file = tmp_path / "child.pid"
    script = tmp_path / "answer-and-leave.sh"
    script.write_text(f"sleep 30 &\necho $! > {pid_file}\necho 's UNSATISFIABLE'\n")
    problem = tmp_path / "p.cnf"
    problem.write_text("p cnf 1 1\n1 0\n")
    for limit in (2.0, None):
        started = time.monotonic()
        result = run_external(f"sh {script}", str(problem), time_limit=limit)
        took = time.monotonic() - started
        pid = int(pid_file.read_text())
        try:
            assert result.status == UNSAT, (limit, result)
            assert took < 1.5, (limit, took)
            deadline = time.monotonic() + 5.0
            while _running(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _running(pid), f"child {pid} outlived the solver"
        finally:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


def _running(pid: int) -> bool:
    """True while the process exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_external_agrees_with_embedded(tmp_path, engine_cls):
    rng = random.Random(23)
    for i in range(8):
        n, clauses = random_cnf(rng, max_vars=12)
        s = engine_cls(n)
        for c in clauses:
            s.add_clause(c)
        local = s.solve().status
        path = tmp_path / f"f{i}.cnf"
        path.write_text(format_dimacs(n, clauses))
        assert run_external(BRIDGE, str(path)).status == local


def test_bridge_wcnf_optimum(tmp_path):
    # hard: x1 required; softs prefer both false -> optimum cost 1
    path = tmp_path / "opt.wcnf"
    path.write_text(format_wcnf(2, [[1]], [(1, [-1]), (1, [-2])]))
    result = run_external(BRIDGE, str(path))
    assert result.status == SAT and result.optimal
    assert result.cost == 1
    assert result.model[1] is True and result.model[2] is False


def test_bridge_wcnf_hard_unsat(tmp_path):
    path = tmp_path / "un.wcnf"
    path.write_text(format_wcnf(1, [[1], [-1]], [(1, [-1])]))
    assert run_external(BRIDGE, str(path)).status == UNSAT
