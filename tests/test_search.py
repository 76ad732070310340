import gc
import importlib.util
import random
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from cutstock import satcore
from cutstock.bounds import compute_bounds
from cutstock.encoding import EncodeConfig, encode_formula
from cutstock.model import Instance, ItemType, expand_demands
from cutstock.satcore import SAT, UNKNOWN, UNSAT
from cutstock.search import OPTIMAL, config_name, solve_instance
from cutstock.verify import brute_force_optimal, verify_solution

from conftest import random_instance

BRIDGE = f"{sys.executable} -m cutstock.satcore.extsolver_cli {{input}}"


def test_config_names():
    assert config_name("sat", False, False) == "CSP"
    assert config_name("sat", True, False) == "CSP_R"
    assert config_name("inc", False, True) == "CSP_INC_SB"
    assert config_name("maxsat", True, True) == "CSP_MS_R_SB"


def test_demo_all_strategies(demo, engine_cls):
    for strategy in ("sat", "inc", "maxsat"):
        for rotation in (False, True):
            for sb in (False, True):
                out = solve_instance(
                    demo, strategy, rotation, sb, engine=engine_cls
                )
                assert out.status == OPTIMAL
                assert out.best_k == 2
                assert verify_solution(demo, out.best_solution, rotation).ok
                assert len(out.calls) == 0  # bounds coincide, no solver work


def test_lb_below_ub_single_call(engine_cls):
    # one 3x2 and one 2x2 on a 6x4 sheet: area bound 1, FFD needs 1 as well?
    inst = Instance(6, 4, (ItemType(3, 2, 1), ItemType(2, 2, 1)))
    bounds = compute_bounds(inst, False)
    assert bounds.lower == 1
    out = solve_instance(inst, "sat", engine=engine_cls)
    assert out.status == OPTIMAL and out.best_k == 1


def test_full_sheet_copies(engine_cls):
    inst = Instance(2, 2, (ItemType(2, 2, 3),))
    out = solve_instance(inst, "sat", engine=engine_cls)
    assert out.status == OPTIMAL and out.best_k == 3
    assert len(out.calls) == 0  # lower bound equals FFD here


def force_gap_instance():
    """FFD needs two sheets here but everything fits on one, so the window
    is open and at least one solver call happens."""
    return Instance(4, 4, (ItemType(1, 2, 3), ItemType(1, 4, 1), ItemType(3, 2, 1)))


def gap_3_4_instance():
    """Area bound 3, FFD 4 sheets, optimum 3: a formula of 4 sheets takes a
    few milliseconds to encode."""
    return Instance(10, 10, (ItemType(6, 4, 5), ItemType(4, 6, 4), ItemType(3, 5, 3)))


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
def test_solve_instance_restores_the_gc_setting(collecting):
    """The cyclic collector is paused during a run, and the caller's setting
    is back afterwards, also after a run that raises."""

    class Failing(satcore.PurePythonSolver):
        def solve(self, *args, **kwargs):
            assert not gc.isenabled()
            raise RuntimeError("engine failure")

    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        out = solve_instance(force_gap_instance(), "inc")
        assert out.status == OPTIMAL and len(out.calls) == 1
        assert gc.isenabled() == collecting
        with pytest.raises(RuntimeError, match="engine failure"):
            solve_instance(force_gap_instance(), "inc", engine=Failing)
        assert gc.isenabled() == collecting
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("strategy, solver_cmd, time_limit", [
    ("sat", None, None),
    ("inc", None, None),
    ("maxsat", None, None),
    ("maxsat", BRIDGE, None),
    ("inc", None, 0.001),
], ids=["sat", "inc", "maxsat", "maxsat-bridge", "deadline"])
def test_solves_leave_no_reference_cycles(strategy, solver_cmd, time_limit, engine_cls):
    """What the collector pause rests on: a solve builds no reference cycle,
    so a collection right after one finds nothing to free."""
    inst = gap_3_4_instance()
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        out = solve_instance(inst, strategy, solver_cmd=solver_cmd, time_limit=time_limit,
                             engine=engine_cls)
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
    if time_limit is None:
        assert out.status == OPTIMAL and out.best_k == 3
        assert out.backend == ("external" if solver_cmd else "internal")
    else:
        assert out.status == "FEASIBLE" and out.best_k == 4


def test_binary_search_runs_calls(engine_cls):
    inst = force_gap_instance()
    bounds = compute_bounds(inst, False)
    best = brute_force_optimal(inst, False)
    out = solve_instance(inst, "sat", engine=engine_cls)
    assert out.best_k == best and out.status == OPTIMAL
    if bounds.lower < bounds.upper:
        assert len(out.calls) >= 1


def test_incremental_builds_once(engine_cls):
    inst = force_gap_instance()
    bounds = compute_bounds(inst, False)
    assert bounds.lower < bounds.upper, "fixture must force at least one call"
    out = solve_instance(inst, "inc", engine=engine_cls)
    assert out.status == OPTIMAL
    assert out.formula_builds == 1
    assert len(out.calls) >= 1
    sat_outcome = solve_instance(inst, "sat", engine=engine_cls)
    assert sat_outcome.best_k == out.best_k
    assert sat_outcome.formula_builds == len(sat_outcome.calls)


def test_incremental_reuses_handle_across_iterations(engine_cls):
    # six 3x3 pieces on a 5x5 sheet: one per sheet, but the area bound says
    # three, so binary search needs two refutations on the same handle
    inst = Instance(5, 5, (ItemType(3, 3, 6),))
    bounds = compute_bounds(inst, False)
    assert (bounds.lower, bounds.upper) == (3, 6)
    out = solve_instance(inst, "inc", engine=engine_cls)
    assert out.status == OPTIMAL and out.best_k == 6
    assert out.formula_builds == 1
    assert len(out.calls) >= 2
    assert all(c.verdict == UNSAT for c in out.calls)


def test_cross_strategy_agreement_small_suite(engine_cls):
    rng = random.Random(77)
    for _ in range(8):
        inst = random_instance(rng, max_copies=5, max_dim=5)
        for rotation in (False, True):
            best = brute_force_optimal(inst, rotation)
            for strategy in ("sat", "inc", "maxsat"):
                for sb in (False, True):
                    out = solve_instance(inst, strategy, rotation, sb, engine=engine_cls)
                    assert out.status == OPTIMAL, (inst.name, strategy, out.status)
                    assert out.best_k == best, (inst.name, strategy, rotation, sb)
                    assert verify_solution(inst, out.best_solution, rotation).ok


def test_optimal_always_certified(engine_cls):
    rng = random.Random(88)
    for _ in range(10):
        inst = random_instance(rng)
        out = solve_instance(inst, "sat", engine=engine_cls)
        assert out.status == OPTIMAL
        area_lb = compute_bounds(inst, False).lower
        unsat_below = any(
            c.verdict == UNSAT and c.k == out.best_k - 1 for c in out.calls
        )
        assert out.best_k == area_lb or unsat_below
        assert out.lower_bound == out.best_k


def test_incremental_matches_fresh_verdicts(engine_cls):
    rng = random.Random(99)
    for _ in range(6):
        inst = random_instance(rng, max_copies=5, max_dim=5)
        copies = expand_demands(inst)
        for rotation in (False, True):
            bounds = compute_bounds(inst, rotation)
            if bounds.lower >= bounds.upper:
                continue
            config = EncodeConfig(bounds.upper, rotation, False)
            vm, formula = encode_formula(copies, inst, config)
            handle = engine_cls(formula.num_vars)
            for c in formula.clauses:
                handle.add_clause(c)
            for m in range(bounds.lower, bounds.upper + 1):
                assumptions = [-vm.used(j) for j in range(m + 1, bounds.upper + 1)]
                under = handle.solve(assumptions=assumptions).status
                _, fresh_formula = encode_formula(copies, inst, EncodeConfig(m, rotation, False))
                fresh = engine_cls(fresh_formula.num_vars)
                for c in fresh_formula.clauses:
                    fresh.add_clause(c)
                assert under == fresh.solve().status == (SAT if m >= brute_force_optimal(inst, rotation) else UNSAT)


def test_maxsat_external_backend(demo, engine_cls):
    inst = force_gap_instance()
    best = brute_force_optimal(inst, False)
    out = solve_instance(inst, "maxsat", solver_cmd=BRIDGE, engine=engine_cls)
    assert out.backend == "external"
    assert out.status == OPTIMAL and out.best_k == best
    assert verify_solution(inst, out.best_solution, False).ok


def test_maxsat_external_fallback(engine_cls):
    inst = force_gap_instance()
    best = brute_force_optimal(inst, False)
    out = solve_instance(inst, "maxsat", solver_cmd="no-such-binary-here", engine=engine_cls)
    assert out.backend == "internal"
    assert out.status == OPTIMAL and out.best_k == best


# prints "s OPTIMUM FOUND" with whatever model of the hard clauses it finds first
LYING_SOLVER = """
import sys
from cutstock.satcore.dimacs import parse_wcnf
from cutstock.satcore.engine import Solver
num_vars, _, hard, _ = parse_wcnf(open(sys.argv[1]).read())
solver = Solver(num_vars)
for clause in hard:
    solver.add_clause(clause)
model = solver.solve().model
print("o 0")
print("s OPTIMUM FOUND")
print("v " + " ".join(str(v if model[v] else -v) for v in range(1, num_vars + 1)) + " 0")
"""


def test_maxsat_external_optimum_is_certified(tmp_path, engine_cls):
    """An external model is an incumbent only: the loop refutes one sheet fewer."""
    script = tmp_path / "lying_solver.py"
    script.write_text(LYING_SOLVER)
    # two 12x12 sheets tiled exactly; FFD needs three
    inst = Instance(12, 12, (
        ItemType(10, 6, 1), ItemType(12, 4, 1), ItemType(6, 8, 1), ItemType(12, 3, 2),
        ItemType(6, 5, 1), ItemType(6, 3, 1), ItemType(2, 6, 1),
    ))
    out = solve_instance(inst, "maxsat", solver_cmd=f"{sys.executable} {script}", engine=engine_cls)
    assert (out.status, out.best_k, out.backend) == (OPTIMAL, 2, "external")
    assert [(c.k, c.verdict) for c in out.calls] == [(3, SAT), (2, SAT)]
    assert out.formula_builds == 1
    assert verify_solution(inst, out.best_solution, False).ok


def test_maxsat_external_takes_limits_too_long_to_wait_for():
    """A time limit past threading.TIMEOUT_MAX, inf among them, bounds
    nothing: the external solver runs to its end."""
    inst = Instance(12, 12, (
        ItemType(10, 6, 1), ItemType(12, 4, 1), ItemType(6, 8, 1), ItemType(12, 3, 2),
        ItemType(6, 5, 1), ItemType(6, 3, 1), ItemType(2, 6, 1),
    ))
    for limit in (float("inf"), 1e300):
        out = solve_instance(inst, "maxsat", time_limit=limit, solver_cmd=BRIDGE)
        assert (out.status, out.best_k, out.backend) == (OPTIMAL, 2, "external")


def test_maxsat_external_answer_without_refutation_is_feasible(engine_cls):
    """When the engine cannot refute one sheet fewer, the external optimum
    stays uncertified."""

    class Unknowing(engine_cls):
        def solve(self, *args, **kwargs):
            return satcore.SolveResult(UNKNOWN, None, self.stats())

    # two 3x3 squares need a sheet each; the area bound says one
    inst = Instance(5, 5, (ItemType(3, 3, 2),))
    assert compute_bounds(inst, False).lower == 1
    out = solve_instance(inst, "maxsat", solver_cmd=BRIDGE, engine=Unknowing)
    assert (out.status, out.best_k, out.backend) == ("FEASIBLE", 2, "external")
    assert [(c.k, c.verdict) for c in out.calls] == [(2, SAT), (1, UNKNOWN)]
    assert out.lower_bound == 1


def test_maxsat_external_non_model_is_no_answer(tmp_path, engine_cls):
    """A solver that claims an optimum with a model breaking the hard
    clauses gave no answer: the engine asks the first question itself."""
    script = tmp_path / "non_model.py"
    script.write_text('print("s OPTIMUM FOUND")\nprint("v 0")\n')
    inst = Instance(4, 4, (ItemType(1, 2, 3), ItemType(1, 4, 1), ItemType(3, 2, 1)))
    out = solve_instance(inst, "maxsat", solver_cmd=f"{sys.executable} {script}", engine=engine_cls)
    assert (out.status, out.best_k, out.backend) == (OPTIMAL, 1, "internal")
    assert [(c.k, c.verdict) for c in out.calls] == [(2, UNKNOWN), (2, SAT)]
    assert verify_solution(inst, out.best_solution, False).ok


def test_bench_engines_quick_run(monkeypatch, capsys):
    """benchmarks/bench_engines.py, which loads formulas block by block as
    the search does, runs its quick workloads on every built engine."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_engines.py"
    spec = importlib.util.spec_from_file_location("bench_engines", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(sys, "argv", [str(path), "--quick", "--repeat", "1"])
    assert bench.main() == 0
    out = capsys.readouterr().out
    assert all(f"{name} solve" in out for name in satcore.available_engines())
    assert "packing k=7 (UNSAT)" in out and "pigeonhole 7->6 (UNSAT)" in out


def test_timeout_returns_feasible_witness(engine_cls):
    inst = force_gap_instance()
    for strategy in ("sat", "inc", "maxsat"):
        out = solve_instance(inst, strategy, engine=engine_cls, time_limit=0.0)
        assert out.status == "FEASIBLE", strategy  # no time to improve on FFD
        assert out.formula_builds == 0, strategy
        assert out.best_solution is not None
        assert verify_solution(inst, out.best_solution, False).ok
        assert out.best_k == 2 and out.lower_bound == 1
    full = solve_instance(inst, "sat", engine=engine_cls, time_limit=60.0)
    assert full.status == OPTIMAL and full.best_k == 1


def test_deadline_stops_build_and_load(monkeypatch):
    """A passed deadline ends the run before encoding, or before loading."""
    from cutstock import search as search_mod

    inst = Instance(120, 120, (ItemType(61, 61, 6), ItemType(50, 20, 10)))
    counts = {"clauses": 0, "solves": 0}

    class Counting(satcore.Solver):
        def add_clause(self, lits):
            counts["clauses"] += 1
            super().add_clause(lits)

        def add_block(self, block):
            counts["clauses"] += len(block[0]) * len(block[1])
            super().add_block(block)

        def solve(self, *args, **kwargs):
            counts["solves"] += 1
            return super().solve(*args, **kwargs)

    started = time.perf_counter() - 2.0  # the deadline passed a second ago
    out = solve_instance(inst, "inc", engine=Counting, time_limit=1.0, started=started)
    assert (out.status, out.formula_builds, out.calls) == ("FEASIBLE", 0, [])
    assert counts == {"clauses": 0, "solves": 0}
    assert verify_solution(inst, out.best_solution, False).ok

    started = time.perf_counter()
    real_encode = search_mod.encode_formula

    def slow_encode(*args, **kwargs):
        result = real_encode(*args, **kwargs)
        time.sleep(max(0.0, started + 1.0 - time.perf_counter()) + 0.01)
        return result

    monkeypatch.setattr(search_mod, "encode_formula", slow_encode)
    out = solve_instance(inst, "inc", engine=Counting, time_limit=1.0, started=started)
    assert (out.status, out.formula_builds, out.calls) == ("FEASIBLE", 1, [])
    assert counts == {"clauses": 0, "solves": 0}


def test_deadline_passing_mid_load_stops_loading():
    """A deadline that passes while a block loads stops the loading before
    the next block: the run ends FEASIBLE without a solver call."""
    inst = Instance(5, 5, (ItemType(3, 3, 6),))  # window [3, 6]
    started = time.perf_counter()
    loaded = []

    class SlowFirstBlock(satcore.Solver):
        def add_block(self, block):
            if not loaded:
                time.sleep(max(0.0, started + 1.0 - time.perf_counter()) + 0.01)
            loaded.append(len(block[0]) * len(block[1]))
            super().add_block(block)

        def solve(self, *args, **kwargs):
            raise AssertionError("solved after the deadline")

    out = solve_instance(inst, "inc", engine=SlowFirstBlock, time_limit=1.0, started=started)
    assert (out.status, out.best_k, out.formula_builds, out.calls) == ("FEASIBLE", 6, 1, [])
    assert len(loaded) == 1
    assert verify_solution(inst, out.best_solution, False).ok


def test_deadline_after_unsat_keeps_its_lower_bound(engine_cls, monkeypatch):
    """A deadline that passes after an UNSAT answer ends the run FEASIBLE,
    with lower raised by that answer and nothing else."""
    from cutstock import search as search_mod

    inst = Instance(5, 5, (ItemType(3, 3, 6),))  # window [3, 6], one copy per sheet
    real_encode = search_mod.encode_formula
    started = time.perf_counter()
    builds = []

    def slow_second_encode(copies, instance, config, **kwargs):
        result = real_encode(copies, instance, config, **kwargs)
        builds.append(config.sheets)
        if len(builds) == 2:
            time.sleep(max(0.0, started + 1.0 - time.perf_counter()) + 0.01)
        return result

    monkeypatch.setattr(search_mod, "encode_formula", slow_second_encode)
    out = solve_instance(inst, "sat", engine=engine_cls, time_limit=1.0, started=started)
    assert (out.status, out.best_k, out.lower_bound, out.formula_builds) == ("FEASIBLE", 6, 5, 2)
    assert [(c.k, c.verdict) for c in out.calls] == [(4, UNSAT)] and builds == [4, 5]
    assert verify_solution(inst, out.best_solution, False).ok


def test_search_keeps_one_engine_and_no_formula_alive(engine_cls, monkeypatch):
    """sat drops each engine and formula before it builds the next; every
    strategy drops its formula once the engine holds it."""
    from cutstock import search as search_mod

    engines, formulas = [], []
    real_encode = search_mod.encode_formula

    def recording_encode(*args, **kwargs):
        vm, formula = real_encode(*args, **kwargs)
        formulas.append(weakref.ref(formula))
        return vm, formula

    class Single(engine_cls):
        def __init__(self, num_vars):
            assert all(ref() is None for ref in engines), "an earlier engine is alive"
            super().__init__(num_vars)
            engines.append(weakref.ref(self))

        def solve(self, *args, **kwargs):
            assert formulas and all(ref() is None for ref in formulas), "a formula is alive"
            return super().solve(*args, **kwargs)

    monkeypatch.setattr(search_mod, "encode_formula", recording_encode)
    # six 3x3 pieces on a 5x5 sheet: the window [3, 6] takes two refutations
    inst = Instance(5, 5, (ItemType(3, 3, 6),))
    out = solve_instance(inst, "sat", engine=Single)
    assert (out.status, out.best_k, out.formula_builds) == (OPTIMAL, 6, 2)
    assert [(c.k, c.verdict) for c in out.calls] == [(4, UNSAT), (5, UNSAT)]
    assert len(engines) == 2
    for strategy in ("inc", "maxsat"):
        engines.clear()
        out = solve_instance(inst, strategy, engine=Single)
        assert (out.status, out.best_k, out.formula_builds) == (OPTIMAL, 6, 1)
        assert len(engines) == 1 and len(out.calls) >= 1


# a 300x300 sheet and 30 random types of three copies each: at 11 sheets
# and with symmetry breaking this is 39.1M clauses, the order of the
# largest published instances, and encoding it takes seconds
PUBLISHED_SCALE = """
import random, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from cutstock.model import Instance, ItemType
from cutstock.search import solve_instance
rng = random.Random(7)
inst = Instance(300, 300, tuple(
    ItemType(rng.randint(20, 150), rng.randint(20, 150), 3) for _ in range(30)))
for strategy in ("inc", "sat"):
    start = time.perf_counter()
    out = solve_instance(inst, strategy, symmetry_breaking=True, time_limit=0.5)
    print(strategy, out.status, out.formula_builds, time.perf_counter() - start)
"""
DEADLINE_SLACK = 1.0  # seconds past the time limit a run may take to end


def test_deadline_holds_while_encoding_at_published_scale():
    """Under a 2 GiB address-space cap, a 0.5 s limit ends the run during
    its first encoding, with the FFD witness, instead of after it."""
    proc = subprocess.run([sys.executable, "-c", PUBLISHED_SCALE],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert [row[0] for row in rows] == ["inc", "sat"]
    for strategy, status, builds, elapsed in rows:
        assert (status, builds) == ("FEASIBLE", "0"), strategy
        assert float(elapsed) <= 0.5 + DEADLINE_SLACK, strategy


def test_corrupt_model_reported_not_trusted(engine_cls):
    """A solver returning bogus models must surface as a model error."""

    class LyingSolver:
        def __init__(self, num_vars):
            self.inner = engine_cls(num_vars)

        def add_clause(self, lits):
            self.inner.add_clause(lits)

        def add_block(self, block):
            self.inner.add_block(block)

        def solve(self, **kwargs):
            result = self.inner.solve(**kwargs)
            if result.status == "SAT":
                flipped = list(result.model)
                for v in range(1, len(flipped)):
                    flipped[v] = not flipped[v]
                # keep exactly-one sheet structure broken but decodable:
                # flipping everything leaves multiple sheet bits set or none
                result = type(result)(result.status, flipped, result.stats)
            return result

    # wholesale flipping breaks the one-sheet-per-copy invariant
    out = solve_instance(force_gap_instance(), "sat", engine=LyingSolver)
    assert out.status == "INFEASIBLE_MODEL_ERROR"
    assert "model puts copy c1,1 on 0 sheets" in out.detail
    assert [c.verdict for c in out.calls] == [SAT]


@pytest.mark.parametrize("strategy, solver_cmd", [
    ("sat", None),
    ("inc", None),
    ("maxsat", None),
    ("maxsat", BRIDGE),
], ids=["sat", "inc", "maxsat", "maxsat-bridge"])
def test_bad_decoded_placement_reported(strategy, solver_cmd, engine_cls, monkeypatch):
    """Decoded packings are verified, the external solver's too; the first
    one that fails ends the run honestly."""
    from cutstock import search as search_mod
    from cutstock.model import Placement, Solution

    real_decode = search_mod.decode_model

    def squashing_decode(model, vm, copies, instance):
        sol = real_decode(model, vm, copies, instance)
        piled = tuple(Placement(p.copy, 1, 0, 0, False) for p in sol.placements)
        return Solution(instance, piled)

    monkeypatch.setattr(search_mod, "decode_model", squashing_decode)
    out = solve_instance(force_gap_instance(), strategy, solver_cmd=solver_cmd, engine=engine_cls)
    assert out.status == "INFEASIBLE_MODEL_ERROR"
    assert "OVERLAP" in out.detail
    assert [c.verdict for c in out.calls] == [SAT]  # the first model, the bridge's if any


def test_rotation_never_hurts(engine_cls):
    rng = random.Random(111)
    for _ in range(6):
        inst = random_instance(rng)
        plain = solve_instance(inst, "sat", rotation=False, engine=engine_cls)
        rotated = solve_instance(inst, "sat", rotation=True, engine=engine_cls)
        assert rotated.best_k <= plain.best_k


def test_time_to_best_set(engine_cls):
    inst = force_gap_instance()
    out = solve_instance(inst, "inc", engine=engine_cls)
    assert 0.0 <= out.time_to_best <= out.wall_time + 1e-6
