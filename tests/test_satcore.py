import importlib
import itertools
import math
import os
import random
import signal
import subprocess
import sys
import time

import pytest

from cutstock.satcore import (
    SAT,
    UNKNOWN,
    UNSAT,
    PurePythonSolver,
    SolveResult,
    available_engines,
    extsolver_cli,
    format_dimacs,
    format_wcnf,
    parse_solver_output,
    parse_wcnf,
    run_external,
)

from cutstock import encoding as encoding_module
from cutstock.encoding import CnfFormula, EncodeConfig, encode_formula
from cutstock.model import Instance, ItemType, expand_demands
from cutstock.satcore import engine as engine_module
from cutstock.satcore.engine import Block, check_block
from cutstock.search import solve_instance

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
    # n+1 and -(n+1) name no variable, though a literal-indexed array would
    # read them as -n and n
    s = engine_cls(3)
    s.add_clause([1, 2])
    for lit in (4, -4):
        with pytest.raises(ValueError):
            s.add_clause([1, lit])
        with pytest.raises(ValueError):
            s.add_block(check_block([[1, 2], [-1, 3]], [[lit]]))
        with pytest.raises(ValueError):
            s.add_block(check_block([[2, lit]], [[3], [-1]]))
        with pytest.raises(ValueError):
            s.solve(assumptions=[1, lit])
    r = s.solve(assumptions=[-3])
    assert r.status == SAT and r.stats["clauses"] == 1
    assert (r.model[1] or r.model[2]) and not r.model[3]


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


INTERRUPTED_SOLVE = """
import importlib.util, sys, time
from cutstock.satcore.dimacs import parse_wcnf
name, path, cnf = sys.argv[1:]
spec = importlib.util.spec_from_file_location(name, path)
engine = importlib.util.module_from_spec(spec)
spec.loader.exec_module(engine)
n, _, clauses, _ = parse_wcnf(open(cnf).read())
s = engine.Solver(n)
for c in clauses:
    s.add_clause(c)
print("solving", flush=True)
try:
    s.solve()
except KeyboardInterrupt:
    print("interrupted", time.monotonic(), flush=True)
"""


def test_solve_without_limits_stops_on_ctrl_c(engine_cls, tmp_path):
    """SIGINT a second into a solve with no limit, on a pigeonhole formula
    that takes far longer to refute: KeyboardInterrupt within a second of
    the signal, by the system-wide monotonic clock that both processes
    read.  The child's exit after that has a longer wait of its own, which
    a loaded machine can need."""
    cnf = tmp_path / "php.cnf"
    cnf.write_text(format_dimacs(*php(12, 11)))
    module = sys.modules[engine_cls.__module__]
    proc = subprocess.Popen(
        [sys.executable, "-c", INTERRUPTED_SOLVE, module.__name__, module.__file__, str(cnf)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        assert proc.stdout.readline() == "solving\n"
        time.sleep(1)
        sent = time.monotonic()
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=10)
    finally:
        proc.kill()
        proc.wait()
    word, _, caught = out.partition(" ")
    assert word == "interrupted", err[-2000:]
    assert float(caught) - sent < 1


def test_declared_variable_count_is_bounded(engine_cls):
    """Both engines refuse a count that takes num_vars past 2**31 - 1, the
    compiled engine's index range, before allocating anything."""
    for count in (2**31, 4294967297, 2**70):
        with pytest.raises(ValueError):
            engine_cls(count)
    s = engine_cls(5)
    with pytest.raises(ValueError):
        s.add_vars(2**31 - 5)
    assert s.num_vars == 5 and s.add_vars(2) == 6 and s.num_vars == 7
    s.add_clause([7, -6])
    r = s.solve(assumptions=[6])
    assert r.status == SAT and r.model[7]


class ArgmaxCheckedSolver(PurePythonSolver):
    """Checks that every decision is the argmax of (activity, -v) over the
    unassigned variables."""

    def __init__(self, num_vars=0):
        super().__init__(num_vars)
        self.picks = []

    def _pick_branch_var(self):
        free = [v for v in range(1, self.num_vars + 1) if self._val[v] == -1]
        best = max(free, key=lambda v: (self._activity[v], -v), default=0)
        v = super()._pick_branch_var()
        assert v == best
        self.picks.append(v)
        return v


def test_decision_is_the_argmax_after_a_rescale_that_ties():
    """White-box, pure-Python engine: a rescale that rounds two different
    activities to one double leaves the tie to the smaller variable."""
    s = ArgmaxCheckedSolver(4)
    s._activity[1], s._activity[2], s._activity[3] = 1e-250, 3e-250, 1.0
    s._rescale()  # 1e-350 and 3e-350 both underflow to 0.0
    assert s._activity[1] == s._activity[2] == s._activity[4] == 0.0 < s._activity[3]
    assert s.solve().status == SAT
    assert s.picks == [3, 1, 2, 4, 0]  # 0: every variable assigned


def test_decisions_are_the_activity_argmax():
    """Every decision of a search through conflicts, restarts, assumption
    calls and added variables is the argmax of (activity, -v), on a formula
    with more variables than Python caches small ints for."""
    rng = random.Random(34)
    n = 300
    s = ArgmaxCheckedSolver(n)
    for _ in range(4 * n):
        s.add_clause([v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)])
    s.solve(conflict_limit=400)
    s.solve(assumptions=[1, -2, 3], conflict_limit=200)
    first = s.add_vars(20)
    for v in range(first, first + 19):
        s.add_clause([-v, v + 1, rng.randint(1, n)])
    s.solve(conflict_limit=200)
    stats = s.stats()
    assert stats["conflicts"] > 500 and stats["restarts"] > 0 and len(s.picks) > 1000


def test_engines_are_lockstep_across_rescales():
    """Two activity rescales, where a tie made by rounding would tell a
    stale heap order from the decision rule, keep the engines lockstep."""
    engines = available_engines()
    if len(engines) < 2:
        pytest.skip("compiled engine not built")
    n, clauses = php(9, 8)
    solvers = {name: cls(n) for name, cls in engines.items()}
    runs = []
    for s in solvers.values():
        for c in clauses:
            s.add_clause(c)
        first = s.solve(conflict_limit=9200)
        second = s.solve(assumptions=[1, 10], conflict_limit=300)
        runs.append([(r.status, r.model, r.stats) for r in (first, second)])
    assert runs[0] == runs[1]
    python = solvers["python"]
    conflicts = python.stats()["conflicts"]
    # var_inc grows by 1/0.95 per conflict and shrinks by 1e-100 per rescale
    rescales = (conflicts * math.log10(1 / 0.95) - math.log10(python._var_inc)) / 100
    assert round(rescales) >= 2


def test_live_clause_count_survives_reductions():
    """The clause count covers the arena's live entries and the clauses of
    runs not yet dissolved, and LBDs are kept for live learned clauses only,
    for a formula loaded clause by clause and a packing formula loaded block
    by block."""
    n, clauses = php(8, 7)
    by_clause = PurePythonSolver(n)
    for c in clauses:
        by_clause.add_clause(c)
    # seven 2x4 copies, at most two to a 4x4 sheet, do not fit on three
    inst = Instance(4, 4, (ItemType(2, 4, 7),))
    _, formula = encode_formula(expand_demands(inst), inst, EncodeConfig(3, rotation=True))
    by_block = PurePythonSolver(formula.num_vars)
    for block in formula.blocks:
        by_block.add_block(block)
    for s in (by_clause, by_block):
        s._max_learnts = 20.0  # reduce the learned-clause database early and often
        for budget in (300, 600):
            r = s.solve(conflict_limit=budget)
            pending = sum(len(bodies) for prefix, bodies in s._runs if prefix is not None)
            assert r.stats["clauses"] == sum(c is not None for c in s._clauses) + pending
            assert set(s._lbd) == set(s._learnt_refs)
            assert all(s._clauses[r] is not None for r in s._lbd)
        assert any(c is None for c in s._clauses), "no clause was ever deleted"
    runs = by_block._runs
    assert any(p is None for p, _ in runs) and any(p is not None for p, _ in runs)


def test_dissolved_runs_keep_their_crefs_only_while_watched():
    """A run has two watch entries: both until it dissolves, then one until
    a visit expands it into the run's clauses, then none, and a run with
    no entry left holds no crefs list."""
    inst = Instance(4, 4, (ItemType(2, 4, 7),))
    _, formula = encode_formula(expand_demands(inst), inst, EncodeConfig(3, rotation=True))
    s = PurePythonSolver(formula.num_vars)
    for block in formula.blocks:
        s.add_block(block)
    seen = set()
    for budget in (100, 300, 600):
        s.solve(conflict_limit=budget)
        entries = [0] * len(s._runs)
        for wl in s._watches:
            for cref in wl[::2]:
                if cref < 0:
                    entries[~cref] += 1
        for (prefix, rest), count in zip(s._runs, entries):
            if prefix is not None:
                assert count == 2
            elif count == 1:
                assert isinstance(rest, list) and rest
            else:
                assert count == 0 and rest is None
            seen.add(count)
    assert seen == {0, 1, 2}


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


def test_engines_are_lockstep_through_add_vars():
    """Variables declared between solves, as the bundled bridge declares
    its counter's, keep the engines lockstep call for call: a
    conflict-limited call, then 20 new variables with clauses over them, an
    assumption call and a call without limits, on random 3-SAT formulas."""
    engines = available_engines()
    if len(engines) < 2:
        pytest.skip("compiled engine not built")
    n = 100
    statuses = set()
    for seed in range(8, 16):
        runs = []
        for cls in engines.values():
            rng = random.Random(seed)
            s = cls(n)
            for _ in range(410):
                vs = rng.sample(range(1, n + 1), 3)
                s.add_clause([v if rng.random() < 0.5 else -v for v in vs])
            calls = [s.solve(conflict_limit=200)]
            first = s.add_vars(20)
            last = first + 19
            for v in range(first, last + 1):
                s.add_clause([-v, v + 1 if v < last else first, rng.randint(1, n)])
                s.add_clause([v, -rng.randint(1, n), rng.randint(first, last)])
            calls.append(s.solve(assumptions=[first, -(first + 7), 2]))
            calls.append(s.solve())
            runs.append([(r.status, r.model, r.stats) for r in calls])
        assert runs[0] == runs[1]
        statuses.update(status for status, _, _ in runs[0])
    assert statuses == {SAT, UNSAT, UNKNOWN}


def head_slices(blocks, size):
    """The blocks cut into blocks of at most size heads, in order."""
    return [check_block(heads[i:i + size], bodies)
            for heads, bodies, _, _ in blocks for i in range(0, len(heads), size)]


def test_engines_are_lockstep_through_add_block():
    """Encoded formulas loaded block by block, whole as the search loads
    them or cut into blocks of three heads, keep the engines lockstep call
    for call: assumption calls, permanent unit clauses, and a
    conflict-limited call that crosses a learned-clause reduction."""
    engines = available_engines()
    if len(engines) < 2:
        pytest.skip("compiled engine not built")

    def load(cls, num_vars, blocks):
        s = cls(num_vars)
        for block in blocks:
            s.add_block(block)
        return s

    def lockstep(solvers, **kwargs):
        a, b = [s.solve(**kwargs) for s in solvers]
        assert (a.status, a.model, a.stats) == (b.status, b.model, b.stats)
        return a

    rng = random.Random(33)
    for i in range(12):
        inst = random_instance(rng, max_copies=7, max_dim=7)
        k = rng.randint(1, 4)
        config = EncodeConfig(k, rng.random() < 0.5, rng.random() < 0.5)
        vm, formula = encode_formula(expand_demands(inst), inst, config)
        blocks = head_slices(formula.blocks, 3) if i % 2 else formula.blocks
        solvers = [load(cls, formula.num_vars, blocks) for cls in engines.values()]
        for m in range(k, 0, -1):
            lockstep(solvers, assumptions=[-vm.used(j) for j in range(m + 1, k + 1)])
            for s in solvers:
                s.add_clause([-vm.used(m)])
        lockstep(solvers)
    # seven 2x4 copies, at most two to a 4x4 sheet, do not fit on three
    inst = Instance(4, 4, (ItemType(2, 4, 7),))
    vm, formula = encode_formula(expand_demands(inst), inst, EncodeConfig(3, rotation=True))
    blocks = head_slices(formula.blocks, 5)
    solvers = [load(engines[name], formula.num_vars, blocks) for name in ("compiled", "python")]
    first = lockstep(solvers, conflict_limit=4500)
    assert first.status == UNKNOWN and first.stats["learned"] > 4000
    assert any(c is None for c in solvers[1]._clauses), "no clause was ever deleted"
    assert lockstep(solvers, assumptions=[-vm.used(3)]).status == UNSAT
    assert lockstep(solvers).status == UNSAT


# ----------------------------------------------------------------------
# block loading


def engine_state(s):
    """What loading can change, as far as the engine shows it: the
    statistics, plus the values, arena, watches, reasons, learned clauses
    and trail of the pure-Python one, up to a renaming of crefs.  A cref is
    only an identity, so clauses are numbered by first appearance along the
    watch lists, then the reasons, then the learned refs; arena entries
    that none of these name are compared as a sorted list.  Runs are
    expanded into what watching each clause on its own gives: one
    ``(clause, blocker)`` pair per clause in place of a run's watch entry,
    where a clause of a run that has not dissolved is ``prefix + body``."""
    state = [s.stats()]
    if isinstance(s, PurePythonSolver):
        names = {}  # cref, or (run entry, body index) -> number
        clauses = []  # number -> literals

        def name(key, lits):
            if key not in names:
                names[key] = len(clauses)
                clauses.append(lits)  # None for a deleted clause still watched
            return names[key]

        arena = lambda cref: name(cref, s._clauses[cref])
        watches = []
        for wl in s._watches:
            pairs = []
            for cref, blocker in zip(wl[::2], wl[1::2]):
                if cref >= 0:
                    refs = [arena(cref)]
                else:
                    prefix, rest = s._runs[~cref]
                    if prefix is None:
                        refs = [arena(r) for r in rest]
                    else:
                        refs = [name((cref, i), [*prefix, *body]) for i, body in enumerate(rest)]
                pairs += [(ref, blocker) for ref in refs]
            watches.append(pairs)
        reasons = [arena(r) if r >= 0 else r for r in s._reason]
        learnt = [arena(r) for r in s._learnt_refs]
        lbd = {arena(r): v for r, v in s._lbd.items()}
        unnamed = sorted(repr(c) for r, c in enumerate(s._clauses) if r not in names)
        state += [s._ok, s._val, clauses, unnamed, lbd, watches, reasons, learnt,
                  s._trail, s._qhead]
    return state


def keeps_block_rules(heads, bodies):
    """The block rules, spelled out on int literals: no head is empty, and
    no head together with all the bodies has literal 0 or a variable
    twice."""
    body_lits = [lit for body in bodies for lit in body]
    rows = [[*head, *body_lits] for head in heads] or [body_lits]
    return all(heads) and all(0 not in row and len(set(map(abs, row))) == len(row) for row in rows)


def add_block_two_ways(by_block, by_clause, heads, bodies):
    """The block through add_block on one engine and clause by clause
    through add_clause on the other: the same error, if any, and the same
    state after.  check_block refuses exactly the blocks that break the
    block rules, and those go clause by clause into both engines."""
    try:
        block = check_block(heads, bodies)
    except ValueError:
        block = None
    assert (block is not None) == keeps_block_rules(heads, bodies), (heads, bodies)
    by_clauses = lambda s: [s.add_clause([*h, *b]) for h in heads for b in bodies]
    errors = []
    for load in (
        (lambda: by_block.add_block(block)) if block is not None else (lambda: by_clauses(by_block)),
        lambda: by_clauses(by_clause),
    ):
        try:
            load()
            errors.append(None)
        except ValueError as exc:
            errors.append(str(exc))
    assert errors[0] == errors[1], (heads, bodies)
    assert engine_state(by_block) == engine_state(by_clause), (heads, bodies)
    return errors[0]


def solve_two_ways(by_block, by_clause, **kwargs):
    a, b = by_block.solve(**kwargs), by_clause.solve(**kwargs)
    assert (a.status, a.model, a.stats) == (b.status, b.model, b.stats)
    assert engine_state(by_block) == engine_state(by_clause)


def random_block(rng, n):
    """Heads and bodies over variables 1..n: either disjoint as the block
    rules ask, or drawn freely, with units, shared and repeated variables
    and tautologies."""
    signed = lambda vs: [v if rng.random() < 0.5 else -v for v in vs]
    if rng.random() < 0.5:
        order = rng.sample(range(1, n + 1), n)
        pool, rest = order[: n // 2], order[n // 2:]
        heads = [signed(rng.sample(pool, rng.randint(2, 3))) for _ in range(rng.randint(1, 4))]
        bodies = []
        while rest and len(bodies) < 5:
            size = rng.randint(0, 2)
            bodies.append(signed(rest[:size]))
            rest = rest[size:]
        return heads, bodies or [[]]
    pick = lambda: signed(rng.choices(range(1, n + 1), k=rng.randint(0, 3)))
    return ([pick() for _ in range(rng.randint(0, 3))],
            [pick() for _ in range(rng.randint(0, 3))])


def test_add_block_matches_add_clause_on_random_blocks(engine_cls):
    """Blocks on their own or after solves that left top-level assignments,
    with and without the conditions of the direct store, and blocks that
    check_block refuses."""
    rng = random.Random(71)
    kept = set()
    for _ in range(120):
        n = rng.randint(6, 14)
        by_block, by_clause = engine_cls(n), engine_cls(n)
        for _ in range(rng.randint(2, 12)):
            if rng.random() < 0.75:
                heads, bodies = random_block(rng, n)
                kept.add(keeps_block_rules(heads, bodies))
                add_block_two_ways(by_block, by_clause, heads, bodies)
            else:
                assumptions = [v if rng.random() < 0.5 else -v
                               for v in rng.sample(range(1, n + 1), rng.randint(0, 3))]
                solve_two_ways(by_block, by_clause, assumptions=assumptions)
        solve_two_ways(by_block, by_clause)
    assert kept == {True, False}


def test_add_block_matches_add_clause_on_encoded_formulas(engine_cls):
    """Every block of encoded formulas, k = 1 included, whose exactly-one
    units come before any link block; then solves, units and a link block
    loaded again after them."""
    rng = random.Random(72)
    for i in range(16):
        inst = random_instance(rng, max_copies=7, max_dim=7)
        k = 1 if i % 4 == 0 else rng.randint(2, 4)
        config = EncodeConfig(k, rng.random() < 0.5, rng.random() < 0.5)
        vm, formula = encode_formula(expand_demands(inst), inst, config)
        by_block, by_clause = engine_cls(formula.num_vars), engine_cls(formula.num_vars)
        for heads, bodies, _, _ in formula.blocks:
            add_block_two_ways(by_block, by_clause, heads, bodies)
        assert by_block.stats() == by_clause.stats()
        for m in range(k, 0, -1):
            solve_two_ways(by_block, by_clause,
                           assumptions=[-vm.used(j) for j in range(m + 1, k + 1)])
            add_block_two_ways(by_block, by_clause, [[-vm.used(m)]], [[]])
        for heads, bodies, _, _ in formula.blocks[1:2]:
            add_block_two_ways(by_block, by_clause, heads, bodies)
        solve_two_ways(by_block, by_clause)


@pytest.mark.parametrize("heads, bodies, raises", [
    ([[1, 2], [-3, 4]], [[5], [5, -6], [6]], False),  # bodies share variables 5 and 6
    ([[1, 2], [3, -3, 4]], [[5], [6]], False),  # a tautological head
    ([[1, 2], [3, 4]], [[5], [2, 6]], False),  # a body repeats a head variable
    ([[1], [2, 3]], [[4, 5]], False),  # a head too short to watch
    ([[1, 2], [3, 4]], [[5], [-99], [6]], True),  # a literal past the declared variables
    ([[1, 2], [0, 4]], [[5]], True),  # literal 0
])
def test_add_block_falls_back_clause_by_clause(engine_cls, heads, bodies, raises):
    """check_block refuses the first three blocks and the last, which
    break the block rules; the other two it accepts, and add_block loads
    them clause by clause.  Either way: the same error, after the same
    clauses went in, as add_clause on each clause gives (``raises``)."""
    by_block, by_clause = engine_cls(10), engine_cls(10)
    error = add_block_two_ways(by_block, by_clause, heads, bodies)
    assert (error is not None) == raises
    solve_two_ways(by_block, by_clause)


def test_add_block_matches_add_clause_after_learning_and_add_vars(engine_cls):
    """Blocks of one body and of none; blocks added after a solve that left
    learned clauses; variables declared after clauses and top-level units,
    then used by blocks and units."""
    n, clauses = php(6, 5)
    n += 1  # a gate: the pigeonhole clauses bind only when it is false
    clauses = [c + [n] for c in clauses]
    by_block, by_clause = engine_cls(n), engine_cls(n)
    add_block_two_ways(by_block, by_clause, clauses[:5], [[]])
    add_block_two_ways(by_block, by_clause, [[1, 2], [-3, 4, 5]], [])
    add_block_two_ways(by_block, by_clause, [[-1, -6], [-2, -7]], [[-8, 9]])
    for c in clauses[5:]:
        add_block_two_ways(by_block, by_clause, [c], [[]])
    solve_two_ways(by_block, by_clause, assumptions=[-n], conflict_limit=40)
    assert by_block.stats()["learned"] > 0
    if isinstance(by_block, PurePythonSolver):
        assert not by_block._trail  # so the block below takes the plain path
    for s in (by_block, by_clause):
        s.add_vars(4)
    add_block_two_ways(by_block, by_clause, [[1, -2], [3, n + 1]], [[n + 2], [-(n + 3), 7], [n + 4]])
    solve_two_ways(by_block, by_clause, assumptions=[-1, n + 3])
    # top-level units, then new variables whose slots sit among the old ones
    add_block_two_ways(by_block, by_clause, [[-(n + 4)], [n + 1]], [[]])
    for s in (by_block, by_clause):
        s.add_vars(3)
    add_block_two_ways(by_block, by_clause, [[n + 5, n + 4], [-(n + 7)]], [[]])
    add_block_two_ways(by_block, by_clause, [[-(n + 5), -(n + 6)]], [[-(n + 1)], [n + 7]])
    solve_two_ways(by_block, by_clause)
    r = by_block.solve()
    assert r.status == SAT and len(r.model) == n + 8
    assert [r.model[n + i] for i in (1, 4, 5, 6, 7)] == [True, False, True, False, False]


def test_check_block_returns_tuples_that_cannot_change():
    """A Block is made of int tuples and records its largest variable and
    whether every head can be watched; changing the lists it was made
    from changes nothing, and the Block itself cannot change."""
    heads, bodies = [[1, -2], [3, 4, -5]], [[6], [], [-7, 8]]
    block = check_block(heads, bodies)
    heads[0].append(9)
    bodies[0][0] = 9
    assert type(block) is Block
    assert block == (((1, -2), (3, 4, -5)), ((6,), (), (-7, 8)), 8, True)
    assert all(type(part) is tuple for part in (*block[:2], *block[0], *block[1]))
    with pytest.raises(TypeError):
        vars(block)
    with pytest.raises(AttributeError):
        block.max_var = 1
    with pytest.raises(TypeError):
        block[2] = 1
    with pytest.raises(TypeError):
        Block(block)
    assert check_block([[1], [2, 3]], [[]])[3] is False
    assert check_block([], [[]])[2] == 0
    for heads, bodies in (([[1, 0]], [[]]), ([[1, 2]], [[0]])):
        with pytest.raises(ValueError, match="literal 0"):
            check_block(heads, bodies)


@pytest.fixture
def check_calls(monkeypatch):
    """check_block, counted wherever the encoder and the engine call it."""
    calls = []

    def counted(heads, bodies):
        calls.append(1)
        return check_block(heads, bodies)

    monkeypatch.setattr(engine_module, "check_block", counted)
    monkeypatch.setattr(encoding_module, "check_block", counted)
    return calls


def test_solve_checks_each_block_once(engine_cls, check_calls, monkeypatch):
    """On the solve path every block is checked by the encoder, and the
    engine loads it without checking it again."""
    added = []
    add_block = CnfFormula.add_block
    monkeypatch.setattr(CnfFormula, "add_block",
                        lambda self, *args: added.append(1) or add_block(self, *args))
    # 60-unit sheets cut into a few large pieces: the area bound is 2 and
    # the optimum 3, so every strategy builds and loads a formula
    inst = Instance(60, 60, (ItemType(60, 20, 3), ItemType(30, 40, 2), ItemType(40, 30, 1)))
    for strategy, rotation, sb in (("sat", False, False), ("inc", True, True),
                                   ("maxsat", False, True)):
        added.clear()
        check_calls.clear()
        outcome = solve_instance(inst, strategy=strategy, rotation=rotation,
                                 symmetry_breaking=sb, engine=engine_cls)
        assert outcome.status == "OPTIMAL" and outcome.best_k == 3
        assert len(check_calls) == len(added) > 0


def test_add_block_checks_every_pair_it_did_not_check(check_calls):
    """add_block never checks a Block again, and heads and bodies equal to
    a Block's but made elsewhere load only once check_block has checked
    them into a Block of their own: add_block refuses them as they are."""
    block = check_block([[1, 2], [3, 4]], [[5], [-6]])
    assert len(check_calls) == 0  # the fixture counts only the calls below
    s = PurePythonSolver(6)
    s.add_block(block)
    assert len(check_calls) == 0 and len(s._runs) == 2
    for heads, bodies in ((block[0], block[1]), (((1, 2), (3, 4)), ((5,), (-6,))),
                          ([[1, 2], [3, 4]], [[5], [-6]])):
        s = PurePythonSolver(6)
        with pytest.raises(TypeError):
            s.add_block((heads, bodies))
        assert len(check_calls) == 0 and len(s._runs) == 0
        s.add_block(engine_module.check_block(heads, bodies))
        assert len(check_calls) == 1 and len(s._runs) == 2
        check_calls.clear()


def test_checked_heads_with_other_bodies_load_as_add_clause(engine_cls):
    """A Block's heads with bodies they were not checked with, which break
    the block rules or name undeclared variables, leave the engine exactly
    as add_clause on each clause would."""
    heads = check_block([[1, 2], [3, -4]], [[5], [6]])[0]
    for bodies in (((5,), (1,)), ((5, -5),), ((0,),), ((7,), (-99,)), ((5,), (5, 6))):
        by_block, by_clause = engine_cls(8), engine_cls(8)
        add_block_two_ways(by_block, by_clause, heads, bodies)
        solve_two_ways(by_block, by_clause)


def test_add_block_takes_only_blocks(engine_cls):
    """add_block raises TypeError, and changes nothing, for a raw pair, a
    plain tuple equal to a Block, or heads in a tuple subclass that carries
    bodies, max_var and wide in a writable ``__dict__``; a Block itself has
    no ``__dict__``.  A Block forged with ``tuple.__new__`` is refused
    too."""
    block = check_block([[1, 2], [-1, 3]], [[4], [-5]])

    class Token(tuple):
        pass

    token = Token(block[0])
    vars(token).update(bodies=block[1], max_var=5, wide=True)
    s = engine_cls(5)
    s.add_clause([1, 2, 3])
    before = engine_state(s)
    for wrong in (block[:2], tuple(block), token):
        with pytest.raises(TypeError):
            s.add_block(wrong)
        assert engine_state(s) == before
    with pytest.raises(TypeError):
        s.add_block(*block[:2])
    with pytest.raises((TypeError, ValueError)):
        s.add_block(tuple.__new__(Block, ()))
    assert engine_state(s) == before
    with pytest.raises(TypeError):
        vars(block)
    s.add_block(block)
    assert s.stats()["clauses"] == 5


def test_checked_blocks_cannot_mislead_the_engine(engine_cls):
    """check_block refuses literals that are not ints, so they never reach
    the engine; add_clause, which takes any integers, refuses a float with
    TypeError and stores nothing."""
    for heads, bodies in (([[1.0, 2]], [[3]]), ([[1, 2]], [[3.0]]), ([["1", 2]], [[3]])):
        with pytest.raises(ValueError, match="non-int literal"):
            check_block(heads, bodies)
    s = engine_cls(3)
    with pytest.raises(TypeError):
        s.add_clause([1.0, 2, 3])
    assert s.stats()["clauses"] == 0
    if engine_cls is PurePythonSolver:
        assert s._clauses == [] and not any(s._watches)


def test_link_blocks_are_watched_once_per_head(demo):
    """Loading an encoded formula watches every head of a block with two
    or more bodies once, not each of its clauses: one watch entry in each
    of two lists per head and per other stored clause."""
    for k, rotation, sb in ((2, False, False), (3, True, False), (3, False, True)):
        vm, formula = encode_formula(expand_demands(demo), demo, EncodeConfig(k, rotation, sb))
        s = PurePythonSolver(formula.num_vars)
        for block in formula.blocks:
            s.add_block(block)
        stored = s.stats()["clauses"]
        shared = sum(len(heads) * (len(bodies) - 1) for heads, bodies, _, _ in formula.blocks)
        assert shared > stored // 2
        assert sum(map(len, s._watches)) // 2 == 2 * (stored - shared)


def test_block_clauses_take_no_arena_slot_until_their_run_dissolves():
    """Loaded block by block, the arena holds exactly the clauses stored on
    their own, those of one-body blocks and of blocks that fall back clause
    by clause, as add_clause stores them, apart from the clauses of runs
    that dissolved.  No clause has an LBD.  The formula is loaded, then a
    unit, then the formula again, so that its blocks of two or more bodies
    fall back the second time."""
    rng = random.Random(74)
    for i in range(8):
        inst = random_instance(rng, max_copies=7, max_dim=7)
        while len(expand_demands(inst)) < 2:  # no link blocks without a pair of copies
            inst = random_instance(rng, max_copies=7, max_dim=7)
        config = EncodeConfig(rng.randint(2, 4), rng.random() < 0.5, rng.random() < 0.5)
        vm, formula = encode_formula(expand_demands(inst), inst, config)
        pieces = head_slices(formula.blocks, 3) if i % 2 else formula.blocks
        s = PurePythonSolver(formula.num_vars)
        twin = PurePythonSolver(formula.num_vars)
        stored = []  # what the twin stores for the pieces that make no runs
        kinds = set()
        for block in pieces + [check_block([[-vm.used(config.sheets)]], [[]])] + pieces:
            heads, bodies, _, _ = block
            runs, before = len(s._runs), len(twin._clauses)
            s.add_block(block)
            for head in heads:
                for body in bodies:
                    twin.add_clause(head + body)
            if len(s._runs) == runs:
                stored += twin._clauses[before:]
                kinds.add("fallback" if len(bodies) > 1 else "one body")
            else:
                assert len(s._runs) - runs == len(heads) and len(bodies) > 1
                kinds.add("runs")
        assert kinds == {"one body", "fallback", "runs"}
        # units propagate at top level, which can dissolve runs: their
        # clauses join the arena under the crefs the run lists
        dissolved = {r for prefix, refs in s._runs if prefix is None for r in refs}
        assert [c for r, c in enumerate(s._clauses) if r not in dissolved] == stored
        assert s._lbd == {}
        assert s.stats() == twin.stats()


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


def with_noise(rng, text):
    """text with comment and blank lines between its lines, and a SATLIB
    ``%`` trailer, whose ``0`` line is not an empty clause."""
    lines = []
    for line in text.splitlines():
        lines += rng.choice(([], ["c a comment"], [""], ["   ", "c", "\tc x 0"]))
        lines.append(line)
    return "\n".join(lines + ["%", "0", ""])


def test_dimacs_round_trip():
    rng = random.Random(17)
    for _ in range(50):
        n, clauses = random_cnf(rng)
        soft = [
            (rng.randint(1, 3), [rng.choice((1, -1)) * v for v in rng.sample(range(1, n + 1), 2)])
            for _ in range(rng.randint(0, 5))
        ]
        top = 1 + sum(weight for weight, _ in soft)
        assert parse_wcnf(with_noise(rng, format_dimacs(n, clauses))) == (n, None, clauses, [])
        assert parse_wcnf(with_noise(rng, format_wcnf(n, clauses, soft))) == (n, top, clauses, soft)


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
    sat = parse_solver_output("c hi\ns SATISFIABLE\nv 1 -2 0\n", 3)
    assert sat.status == SAT and sat.model == [False, True, False, False]
    bits = parse_solver_output("s OPTIMUM FOUND\no 3\nv 101\n", 3)
    assert bits.status == SAT
    assert bits.model == [False, True, False, True]
    assert parse_solver_output("s UNSATISFIABLE\n", 3).status == UNSAT
    assert parse_solver_output("garbage\n", 3).status == UNKNOWN


# solver output -> (status, model[1:] when SAT), for a problem over 4 variables
SOLVER_OUTPUTS = {
    "": (UNKNOWN, None),
    "\x00\xff garbage\nv\ns\no\n": (UNKNOWN, None),
    "s SATISFIABLE\n": (UNKNOWN, None),
    "s SATISFIABLE\nv\n": (UNKNOWN, None),
    "s MAYBE\nv 1 0\n": (UNKNOWN, None),
    "s UNKNOWN\n": (UNKNOWN, None),
    "s SATISFIABLE\nv 1 -2 3 -4 0\n": (SAT, [True, False, True, False]),
    "s SATISFIABLE\nv 1 -2\nv 3\nv 0\n": (SAT, [True, False, True, False]),
    "s SATISFIABLE\nv 4 0\n": (SAT, [False, False, False, True]),
    "s SATISFIABLE\nv 0\n": (SAT, [False, False, False, False]),
    "s OPTIMUM FOUND\nv 0110\n": (SAT, [False, True, True, False]),
    "s OPTIMUM FOUND\nv 01 10\n": (SAT, [False, True, True, False]),
    "s OPTIMUM FOUND\no 2\no 1\nv 1001\n": (SAT, [True, False, False, True]),
    "s OPTIMUM FOUND\no x\nv 1001\n": (SAT, [True, False, False, True]),
    # truncated: a bit string one short, literals without their 0
    "s OPTIMUM FOUND\nv 011\n": (UNKNOWN, None),
    "s SATISFIABLE\nv 1 -2 3\n": (UNKNOWN, None),
    # out of range or malformed: a variable above 4, a 0 before the end, huge literals
    "s SATISFIABLE\nv 1 10 0\n": (UNKNOWN, None),
    "s SATISFIABLE\nv 5 0\n": (UNKNOWN, None),
    "s SATISFIABLE\nv 1 0 2 0\n": (UNKNOWN, None),
    "s SATISFIABLE\nv 2000000000000 0\n": (UNKNOWN, None),
    "s SATISFIABLE\nv -2000000000000 0\n": (UNKNOWN, None),
    "s SATISFIABLE\nv 01101 0\n": (UNKNOWN, None),
    "s SATISFIABLE\nv 1 x 0\n": (UNKNOWN, None),
    "s SATISFIABLE\nv 1.5 0\n": (UNKNOWN, None),
    # contradictory
    "s SATISFIABLE\nv 1 -1 0\n": (UNKNOWN, None),
    "s SATISFIABLE\ns UNSATISFIABLE\nv 1 0\n": (UNKNOWN, None),
    "s OPTIMUM FOUND\ns UNKNOWN\nv 1111\n": (UNKNOWN, None),
    "s SATISFIABLE\nv 1 1 0\n": (SAT, [True, False, False, False]),
    "s UNSATISFIABLE\nv 1 0\no 3\n": (UNSAT, None),
}


@pytest.mark.parametrize("text", list(SOLVER_OUTPUTS))
def test_parse_solver_output_never_raises(text):
    status, values = SOLVER_OUTPUTS[text]
    result = parse_solver_output(text, 4)
    assert result.status == status
    if status == SAT:
        assert result.model == [False] + values
    else:
        assert result.model is None


def test_external_sat_and_unsat(tmp_path):
    sat_file = tmp_path / "sat.cnf"
    sat_file.write_text(format_dimacs(1, [[1]]))
    result = run_external(BRIDGE, str(sat_file), 1)
    assert result.status == SAT and result.model == [False, True]

    unsat_file = tmp_path / "unsat.cnf"
    unsat_file.write_text(format_dimacs(1, [[1], [-1]]))
    assert run_external(BRIDGE, str(unsat_file), 1).status == UNSAT


def test_external_failure_is_unknown(tmp_path):
    missing = tmp_path / "nope.cnf"
    missing.write_text("p cnf 1 1\n1 0\n")
    result = run_external("definitely-not-a-solver-binary", str(missing), 1)
    assert result.status == UNKNOWN
    assert result.diagnostic
    unbalanced = run_external('foo "bar', str(missing), 1)
    assert unbalanced.status == UNKNOWN
    assert "quotation" in unbalanced.diagnostic


def test_external_timeout_is_unknown(tmp_path):
    slow = tmp_path / "slow.cnf"
    slow.write_text("p cnf 1 1\n1 0\n")
    result = run_external("sleep 5", str(slow), 1, time_limit=0.2)
    assert result.status == UNKNOWN
    assert "timeout" in result.diagnostic


def test_external_timeout_kills_grandchildren(tmp_path):
    """A solver that forks must not leave its children running after a timeout."""
    pid_file = tmp_path / "grandchild.pid"
    script = tmp_path / "forking-solver.sh"
    script.write_text(f"sleep 30 &\necho $! > {pid_file}\nwait\n")
    problem = tmp_path / "p.cnf"
    problem.write_text("p cnf 1 1\n1 0\n")
    result = run_external(f"sh {script}", str(problem), 1, time_limit=1)
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
        result = run_external(f"sh {script}", str(problem), 1, time_limit=limit)
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
        assert run_external(BRIDGE, str(path), n).status == local


def test_bridge_wcnf_optimum(tmp_path, capsys):
    # hard: x1 required; softs prefer both false -> optimum cost 1
    path = tmp_path / "opt.wcnf"
    path.write_text(format_wcnf(2, [[1]], [(1, [-1]), (1, [-2])]))
    result = run_external(BRIDGE, str(path), 2)
    assert result.status == SAT
    assert result.model[1] is True and result.model[2] is False
    assert extsolver_cli.main([str(path)]) == 10
    assert "o 1" in capsys.readouterr().out.splitlines()


def test_external_bridge_error_is_unknown(tmp_path):
    path = tmp_path / "bad.cnf"
    path.write_text("p cnf 2 1\n1 3 0\n")
    result = run_external(BRIDGE, str(path), 2)
    assert result.status == UNKNOWN
    assert "(exit 2)" in result.diagnostic and "error: " in result.diagnostic


# files the bridge cannot read, parse or load; None: no file at all
MALFORMED = {
    "no p line": b"1 -2 0\n",
    "clause before p": b"1 0\np cnf 1 1\n",
    "two p lines": b"p cnf 1 1\np cnf 1 1\n1 0\n",
    "p cnf with 3 fields": b"p cnf 1\n1 0\n",
    "p wcnf without top": b"p wcnf 1 1\n1 1 0\n",
    "unknown format": b"p sat 1 1\n1 0\n",
    "non-integer token": b"p cnf 2 1\n1 x 0\n",
    "non-integer weight": b"p wcnf 2 1 2\nw 1 0\n",
    "non-integer count": b"p cnf two 1\n1 0\n",
    "no final 0": b"p cnf 2 1\n1 -2\n",
    "wcnf line without weight": b"p wcnf 2 1 2\n0\n",
    "literal beyond the count": b"p cnf 2 1\n1 3 0\n",
    "zero inside a clause": b"p cnf 2 1\n1 0 2 0\n",
    "huge literal": b"p cnf 2 1\n1 %d 0\n" % 2**70,
    "huge variable count": b"p cnf %d 1\n1 0\n" % 2**70,
    "variable count past 2**31 - 1": b"p cnf 4294967297 1\n1 0\n",
    "soft literal beyond the count": b"p wcnf 2 2 2\n2 1 0\n1 -3 0\n",
    "not text": b"p cnf 1 1\n\xff\xfe 0\n",
    "missing file": None,
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_bridge_refuses_malformed_file(name, tmp_path, capsys, monkeypatch, engine_cls):
    """Exit 2 with one error line on stderr and nothing on stdout."""
    monkeypatch.setattr("cutstock.satcore.Solver", engine_cls)
    path = tmp_path / "bad.wcnf"
    if MALFORMED[name] is not None:
        path.write_bytes(MALFORMED[name])
    assert extsolver_cli.main([str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_bridge_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    """A formula too large for memory ends like any file the bridge cannot load."""

    def no_memory(num_vars):
        raise MemoryError

    monkeypatch.setattr("cutstock.satcore.Solver", no_memory)
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 2 1\n1 2 0\n")
    assert extsolver_cli.main([str(path)]) == 2
    assert capsys.readouterr() == ("", "error: out of memory\n")


def test_bridge_reads_the_p_line_not_the_name(tmp_path, capsys):
    """A CNF named .wcnf and a WCNF named .cnf answer as under their own names."""
    texts = {"cnf": format_dimacs(2, [[1, 2], [-1, -2]]),
             "wcnf": format_wcnf(2, [[1, 2]], [(1, [-1]), (1, [-2])])}
    for kind, text in texts.items():
        answers = []
        for suffix in ("cnf", "wcnf"):
            path = tmp_path / f"f.{suffix}"
            path.write_text(text)
            answers.append((extsolver_cli.main([str(path)]), capsys.readouterr()))
        assert answers[0] == answers[1]
        code, (out, err) = answers[0]
        assert (code, err) == (10, "")
        assert ("o 1" in out.splitlines()) == (kind == "wcnf")


def test_bridge_wcnf_hard_unsat(tmp_path):
    path = tmp_path / "un.wcnf"
    path.write_text(format_wcnf(1, [[1], [-1]], [(1, [-1])]))
    assert run_external(BRIDGE, str(path), 1).status == UNSAT


def bridge_answer(capsys, path, *args):
    """(exit code, {line kind: rest of the line}) of an in-process bridge run."""
    code = extsolver_cli.main([str(path), *map(str, args)])
    return code, {line[0]: line[2:] for line in capsys.readouterr().out.splitlines()}


def test_bridge_refuses_bad_time_limit(tmp_path, capsys):
    path = tmp_path / "one.cnf"
    path.write_text(format_dimacs(1, [[1]]))
    for limit in ("abc", "-1", "nan"):
        assert extsolver_cli.main([str(path), limit]) == 2
        assert "usage" in capsys.readouterr().err
    assert extsolver_cli.main([str(path), "0"]) in (0, 10)


def write_improvable_wcnf(path):
    """A WCNF whose first model, with every decision false, has cost 3 of an
    optimum 1; returns its hard clauses."""
    hard = [[1, 2, 3, 4], [-1, -2]]
    path.write_text(format_wcnf(4, hard, [(1, [v]) for v in range(1, 5)]))
    return hard


def test_bridge_time_limit_bounds_the_whole_run(tmp_path, capsys, monkeypatch, engine_cls):
    monkeypatch.setattr("cutstock.satcore.Solver", engine_cls)
    n, hard = php(12, 11)
    path = tmp_path / "php.wcnf"
    path.write_text(format_wcnf(n, hard, [(1, [-v]) for v in range(1, n + 1)]))
    started = time.perf_counter()
    code, lines = bridge_answer(capsys, path, 0.5)
    assert (code, lines["s"]) == (0, "UNKNOWN")
    assert time.perf_counter() - started < 3.0

    limits = []

    class Slow(engine_cls):
        def solve(self, *args, time_limit=None, **kwargs):
            limits.append(time_limit)
            time.sleep(0.2)
            return super().solve(*args, time_limit=time_limit, **kwargs)

    monkeypatch.setattr("cutstock.satcore.Solver", Slow)
    write_improvable_wcnf(path)
    bridge_answer(capsys, path, 0.5)
    assert len(limits) > 1
    assert all(limit <= max(0.0, 0.5 - 0.2 * i) for i, limit in enumerate(limits)), limits


def test_bridge_keeps_its_model_when_time_runs_out(tmp_path, capsys, monkeypatch, engine_cls):
    """Time running out after a model prints that model with its cost and
    s SATISFIABLE, as MaxSAT solvers do, instead of s UNKNOWN."""
    calls = []

    class OutOfTime(engine_cls):
        def solve(self, *args, **kwargs):
            calls.append(None)
            if len(calls) == 2:  # the first improvement call
                return SolveResult(UNKNOWN, None, {})
            return super().solve(*args, **kwargs)

    monkeypatch.setattr("cutstock.satcore.Solver", OutOfTime)
    path = tmp_path / "improve.wcnf"
    hard = write_improvable_wcnf(path)
    code, lines = bridge_answer(capsys, path)
    assert (code, lines["s"], lines["o"]) == (10, "SATISFIABLE", "3")
    model = [False] * 5
    for tok in lines["v"].split()[:-1]:
        model[abs(int(tok))] = int(tok) > 0
    assert satisfies(model, hard)
    assert sum(not model[v] for v in range(1, 5)) == 3


def brute_force_cost(n, hard, soft_lits):
    """Fewest falsified unit soft clauses over models of hard, or None."""
    costs = [
        sum(bits[abs(l) - 1] != (l > 0) for l in soft_lits)
        for bits in itertools.product((False, True), repeat=n)
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in hard)
    ]
    return min(costs, default=None)


def test_bridge_optimum_matches_exhaustive_search(tmp_path, capsys, monkeypatch, engine_cls):
    """Random WCNFs over at most 9 variables: the bridge's verdict and cost
    are the exhaustive ones, and its model has the cost it prints."""
    statuses = []

    class Recording(engine_cls):
        def solve(self, *args, **kwargs):
            result = super().solve(*args, **kwargs)
            statuses.append(result.status)
            return result

    monkeypatch.setattr("cutstock.satcore.Solver", Recording)
    rng = random.Random(41)
    seen = set()
    path = tmp_path / "f.wcnf"
    for _ in range(200):
        n, hard = random_cnf(rng, max_vars=9)
        soft_lits = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(0, n + 2))]
        path.write_text(format_wcnf(n, hard, [(1, [lit]) for lit in soft_lits]))
        statuses.clear()
        code, lines = bridge_answer(capsys, path)
        best = brute_force_cost(n, hard, soft_lits)
        if best is None:
            assert (code, lines["s"]) == (20, "UNSATISFIABLE")
            seen.add("hard unsat")
            continue
        assert (code, lines["s"], int(lines["o"])) == (10, "OPTIMUM FOUND", best)
        model = [False] * (n + 1)
        for tok in lines["v"].split()[:-1]:
            model[abs(int(tok))] = int(tok) > 0
        assert satisfies(model, hard)
        assert sum(model[abs(l)] != (l > 0) for l in soft_lits) == best
        seen.add("cost 0" if best == 0 else "cost > 0")
        if statuses.count(SAT) > 1:
            seen.add("first model improved")
    assert seen == {"hard unsat", "cost 0", "cost > 0", "first model improved"}


def test_bridge_loads_hard_clauses_once(tmp_path, capsys, monkeypatch, engine_cls):
    """One solver per run, each hard clause added to it once, even when the
    first model is not optimal."""
    built, added, costs = [], [], []

    class Counting(engine_cls):
        def __init__(self, num_vars=0):
            super().__init__(num_vars)
            built.append(num_vars)

        def add_clause(self, lits):
            added.append(tuple(lits))
            return super().add_clause(lits)

        def solve(self, *args, **kwargs):
            result = super().solve(*args, **kwargs)
            if result.status == SAT:
                costs.append(sum(not result.model[v] for v in range(1, 5)))
            return result

    monkeypatch.setattr("cutstock.satcore.Solver", Counting)
    path = tmp_path / "improve.wcnf"
    hard = write_improvable_wcnf(path)
    code, lines = bridge_answer(capsys, path)
    assert (code, lines["s"], lines["o"]) == (10, "OPTIMUM FOUND", "1")
    assert costs[0] > 1  # the first model is not optimal
    assert built == [4]
    assert [c for c in added if all(abs(l) <= 4 for l in c)] == [tuple(c) for c in hard]
