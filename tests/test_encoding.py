import random
import subprocess
import sys

import pytest

from cutstock.bounds import compute_bounds
from cutstock.encoding import CnfFormula, EncodeConfig, VarMap, decode_model, encode_formula
from cutstock.model import Instance, ItemType, expand_demands
from cutstock.satcore import SAT, UNSAT, Solver, format_dimacs, format_wcnf
from cutstock.verify import brute_force_optimal, verify_solution

from conftest import random_instance


def closed_form_vars(n, k, w, h, rotation):
    return n * k + n * (w - 1) + n * (h - 1) + 2 * n * (n - 1) + k + (n if rotation else 0)


def solve_formula(formula, engine_cls=Solver, assumptions=()):
    s = engine_cls(formula.num_vars)
    for c in formula.clauses:
        s.add_clause(c)
    return s.solve(assumptions=assumptions)


def feasible(instance, k, rotation, sb, engine_cls=Solver):
    copies = expand_demands(instance)
    config = EncodeConfig(k, rotation, sb)
    vm, formula = encode_formula(copies, instance, config)
    result = solve_formula(formula, engine_cls)
    assert result.status in (SAT, UNSAT)
    if result.status == SAT:
        decoded = decode_model(result.model, vm, copies, instance)
        report = verify_solution(instance, decoded, rotation)
        assert report.ok, str(report)
        assert decoded.sheets_used <= k
    return result.status == SAT


def test_varmap_count_demo(demo):
    copies = expand_demands(demo)
    vm = VarMap(len(copies), demo.sheet_width, demo.sheet_height, EncodeConfig(2))
    assert vm.total == 122 == closed_form_vars(6, 2, 6, 4, False)
    vm_rot = VarMap(len(copies), demo.sheet_width, demo.sheet_height, EncodeConfig(2, rotation=True))
    assert vm_rot.total == 128


def test_varmap_count_minimal():
    inst = Instance(1, 1, (ItemType(1, 1, 1),))
    vm = VarMap(len(expand_demands(inst)), inst.sheet_width, inst.sheet_height, EncodeConfig(1))
    assert vm.total == 2  # one assignment var, one usage var


def test_varmap_is_bijection(demo):
    copies = expand_demands(demo)
    for config in (EncodeConfig(2), EncodeConfig(3, rotation=True)):
        vm = VarMap(len(copies), demo.sheet_width, demo.sheet_height, config)
        seen = set()
        n = len(copies)
        for c in range(n):
            for j in range(1, config.sheets + 1):
                seen.add(vm.sheet(c, j))
            for e in range(demo.sheet_width - 1):
                seen.add(vm.x_at_most(c, e))
            for f in range(demo.sheet_height - 1):
                seen.add(vm.y_at_most(c, f))
            for d in range(n):
                if c != d:
                    seen.add(vm.left(c, d))
                    seen.add(vm.below(c, d))
            if config.rotation:
                seen.add(vm.rot(c))
        for j in range(1, config.sheets + 1):
            seen.add(vm.used(j))
        assert seen == set(range(1, vm.total + 1))


def test_family_counts_demo(demo):
    copies = expand_demands(demo)
    _, formula = encode_formula(copies, demo, EncodeConfig(2))
    n, k, w, h = 6, 2, 6, 4
    assert formula.family_counts["exactly_one"] == n * (1 + k * (k - 1) // 2) == 12
    assert formula.family_counts["separation"] == k * n * (n - 1) // 2 == 30
    assert formula.family_counts["order"] == n * ((w - 2) + (h - 2)) == 36
    assert "sb_sheet_order" not in formula.family_counts


def test_family_counts_with_sb(demo):
    copies = expand_demands(demo)
    _, formula = encode_formula(copies, demo, EncodeConfig(3, symmetry_breaking=True))
    assert formula.family_counts["sb_sheet_order"] == 2  # k - 1
    # three pairs per type, both types
    assert formula.family_counts["sb_same_type"] == 6


def test_family_counts_random():
    rng = random.Random(4)
    for _ in range(20):
        inst = random_instance(rng)
        copies = expand_demands(inst)
        n = len(copies)
        k = rng.randint(1, 4)
        for rotation in (False, True):
            _, formula = encode_formula(copies, inst, EncodeConfig(k, rotation, True))
            w, h = inst.sheet_width, inst.sheet_height
            assert formula.family_counts["exactly_one"] == n * (1 + k * (k - 1) // 2)
            assert formula.family_counts.get("separation", 0) == k * n * (n - 1) // 2
            expected_order = n * (max(0, w - 2) + max(0, h - 2))
            assert formula.family_counts.get("order", 0) == expected_order
            if k > 1:
                assert formula.family_counts["sb_sheet_order"] == k - 1
            assert formula.num_vars == closed_form_vars(n, k, w, h, rotation)


def test_no_rotation_omits_rotation_vars(demo):
    copies = expand_demands(demo)
    vm, formula = encode_formula(copies, demo, EncodeConfig(2, rotation=False))
    with pytest.raises(AssertionError):
        vm.rot(0)
    assert formula.num_vars == 122


def test_demo_sat_at_two_unsat_at_one(demo, engine_cls):
    assert feasible(demo, 2, False, False, engine_cls)
    assert not feasible(demo, 1, False, False, engine_cls)


def test_single_cell(engine_cls):
    inst = Instance(1, 1, (ItemType(1, 1, 1),))
    copies = expand_demands(inst)
    config = EncodeConfig(1)
    vm, formula = encode_formula(copies, inst, config)
    result = solve_formula(formula, engine_cls)
    assert result.status == SAT
    decoded = decode_model(result.model, vm, copies, inst)
    assert decoded.placements[0].x == 0 and decoded.placements[0].y == 0


def test_two_wide_copies_unsat():
    inst = Instance(2, 1, (ItemType(2, 1, 2),))
    assert not feasible(inst, 1, False, False)
    assert feasible(inst, 2, False, False)


def test_rotation_changes_verdict():
    inst = Instance(4, 4, (ItemType(2, 4, 1), ItemType(4, 2, 1)))
    assert not feasible(inst, 1, False, False)
    assert feasible(inst, 1, True, False)
    assert feasible(inst, 1, True, True)


def test_square_rotation_pinned():
    inst = Instance(2, 2, (ItemType(2, 2, 1),))
    copies = expand_demands(inst)
    config = EncodeConfig(1, rotation=True, symmetry_breaking=True)
    vm, formula = encode_formula(copies, inst, config)
    assert [-vm.rot(0)] in formula.clauses
    result = solve_formula(formula)
    assert result.status == SAT and result.model[vm.rot(0)] is False


def test_orientation_pinned_when_only_one_fits():
    # 5x2 on a 6x4 sheet: rotated would need height 5 > 4
    inst = Instance(6, 4, (ItemType(5, 2, 1),))
    copies = expand_demands(inst)
    vm, formula = encode_formula(copies, inst, EncodeConfig(1, True, True))
    assert [-vm.rot(0)] in formula.clauses
    # 1x4 on a 3x4 sheet fits either way; 4x1 only rotated
    tall = Instance(3, 4, (ItemType(4, 1, 1),))
    cp = expand_demands(tall)
    vm2, f2 = encode_formula(cp, tall, EncodeConfig(1, True, True))
    assert [vm2.rot(0)] in f2.clauses


def test_wide_pair_never_side_by_side():
    inst = Instance(6, 4, (ItemType(4, 1, 2),))
    copies = expand_demands(inst)
    vm, formula = encode_formula(copies, inst, EncodeConfig(1, False, True))
    assert [-vm.left(0, 1)] in formula.clauses
    assert [-vm.left(1, 0)] in formula.clauses
    # still satisfiable by stacking
    assert solve_formula(formula).status == SAT


def test_clauses_well_formed(demo):
    cases = [(demo, EncodeConfig(2)), (demo, EncodeConfig(2, True, True)),
             (demo, EncodeConfig(1, False, True))]
    rng = random.Random(5)
    for _ in range(30):
        inst = random_instance(rng, max_copies=7, max_dim=8)
        cases.append((inst, EncodeConfig(rng.randint(1, 4), rng.random() < 0.5, rng.random() < 0.5)))
    for inst, config in cases:
        _, formula = encode_formula(expand_demands(inst), inst, config)
        for clause in formula.clauses:
            assert clause
            vars_in = [abs(l) for l in clause]
            assert len(set(vars_in)) == len(vars_in)
            assert all(1 <= v <= formula.num_vars for v in vars_in)
        assert sum(formula.family_counts.values()) == formula.num_clauses


def test_deterministic_output(demo):
    copies = expand_demands(demo)
    a = encode_formula(copies, demo, EncodeConfig(2, True, True))[1]
    b = encode_formula(copies, demo, EncodeConfig(2, True, True))[1]
    assert a.clauses == b.clauses and a.family_counts == b.family_counts


def test_blocks_hold_the_clauses_in_order():
    """Counters, clause list and model check all read the blocks alike."""
    rng = random.Random(6)
    for _ in range(20):
        inst = random_instance(rng, max_copies=6, max_dim=7)
        config = EncodeConfig(rng.randint(1, 4), rng.random() < 0.5, rng.random() < 0.5)
        _, formula = encode_formula(expand_demands(inst), inst, config)
        clauses = formula.clauses
        assert format_dimacs(formula.num_vars, formula) == format_dimacs(formula.num_vars, clauses)
        soft = [(1, [-v]) for v in range(1, 4)]
        assert format_wcnf(formula.num_vars, formula, soft) == format_wcnf(formula.num_vars, clauses, soft)
        assert formula.num_clauses == len(clauses) == sum(formula.family_counts.values())
        for _ in range(5):
            model = [False] + [rng.random() < 0.5 for _ in range(formula.num_vars)]
            holds = all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses)
            assert formula.satisfied_by(model) == holds
        result = solve_formula(formula)
        assert result.status == UNSAT or formula.satisfied_by(result.model)


@pytest.mark.parametrize(
    "heads, bodies, count",
    [
        # plain clauses, the block (clauses, [[]])
        ([[1, 2], [-1, 3], [4]], [[]], 3),
        ([[1, 2], []], [[]], None),  # an empty clause
        ([[1, 2, 1]], [[]], None),  # a variable twice in a clause
        ([[1, -1]], [[]], None),  # ... with opposite signs
        # heads times shared bodies
        ([[1, 2], [-1, 3]], [[4], [-5, 6]], 4),
        ([[]], [[4], [5]], None),  # an empty head
        ([[1, 2, -2]], [[4], [5]], None),  # a variable twice in a head
        ([[1, 2]], [[4, -4]], None),  # ... in a body
        ([[1, 2]], [[4], [4, 5]], None),  # ... among the bodies
        ([[1, 2]], [[4], [-4]], None),  # ... with opposite signs
        ([[1, 2], [3, 5]], [[4], [5]], None),  # in a head and a body
        ([[1.0, 2]], [[3]], None),  # a literal that is not an int
    ],
)
def test_add_block_rejects_malformed_blocks(heads, bodies, count):
    """A block is accepted and counted only when every clause it stands
    for is non-empty, free of repeated variables and made of ints."""
    formula = CnfFormula(6)
    if count is None:
        with pytest.raises(ValueError, match="empty clause|repeated variable|non-int literal"):
            formula.add_block("family", heads, bodies)
        assert (formula.blocks, formula.num_clauses, formula.family_counts) == ([], 0, {})
    else:
        formula.add_block("family", heads, bodies)
        assert [block[:2] for block in formula.blocks] == [
            (tuple(map(tuple, heads)), tuple(map(tuple, bodies)))]
        assert formula.num_clauses == len(formula.clauses) == count
        assert formula.family_counts == {"family": count}


REFUSE_UNDER_O = """
from cutstock.encoding import CnfFormula
for heads, bodies in (([[1, 2, 1]], [[]]), ([[1, 2]], [[4], [4, 5]]), ([[1.0, 2]], [[3]])):
    try:
        CnfFormula(6).add_block("family", heads, bodies)
    except ValueError as exc:
        print(exc)
"""


def test_add_block_checks_survive_python_O():
    """The block checks are not asserts: python -O still refuses a
    malformed block, float literals included."""
    proc = subprocess.run([sys.executable, "-O", "-c", REFUSE_UNDER_O],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines() == ["repeated variable in clause"] * 2 + [
        "non-int literal in clause"]


def test_decode_rejects_inconsistent_model(demo):
    copies = expand_demands(demo)
    config = EncodeConfig(2)
    vm, formula = encode_formula(copies, demo, config)
    result = solve_formula(formula)
    assert result.status == SAT
    broken = list(result.model)
    for j in range(1, 3):
        broken[vm.sheet(0, j)] = False  # first copy now on no sheet at all
    with pytest.raises(RuntimeError, match="0 sheets"):
        decode_model(broken, vm, copies, demo)


def test_unit_width_sheet(engine_cls):
    # width 1 leaves no x-threshold variables; everything stacks vertically
    inst = Instance(1, 4, (ItemType(1, 2, 3),))
    assert feasible(inst, 2, False, False, engine_cls)
    assert not feasible(inst, 1, False, False, engine_cls)
    assert feasible(inst, 2, True, True, engine_cls)


def test_demo_assumption_forces_one_sheet(demo, engine_cls):
    # disabling the second sheet through an assumption is a one-sheet test:
    # unsatisfiable by area, and the handle stays usable afterwards
    copies = expand_demands(demo)
    config = EncodeConfig(2)
    vm, formula = encode_formula(copies, demo, config)
    handle = engine_cls(formula.num_vars)
    for clause in formula.clauses:
        handle.add_clause(clause)
    assert handle.solve(assumptions=[-vm.used(2)]).status == UNSAT
    again = handle.solve()
    assert again.status == SAT
    assert again.stats["learned"] > 0


def test_feasibility_matches_oracle_small_suite(engine_cls):
    rng = random.Random(21)
    for _ in range(12):
        inst = random_instance(rng, max_copies=5, max_dim=5)
        for rotation in (False, True):
            best = brute_force_optimal(inst, rotation)
            for sb in (False, True):
                for k in range(max(1, best - 1), min(best + 1, len(expand_demands(inst))) + 1):
                    assert feasible(inst, k, rotation, sb, engine_cls) == (k >= best), (
                        inst, rotation, sb, k, best,
                    )


def test_sb_preserves_verdicts():
    rng = random.Random(22)
    for _ in range(10):
        inst = random_instance(rng, max_copies=5, max_dim=5)
        for rotation in (False, True):
            bounds = compute_bounds(inst, rotation)
            for k in range(bounds.lower, bounds.upper + 1):
                assert feasible(inst, k, rotation, False) == feasible(inst, k, rotation, True)


def test_model_space_decodes_to_exactly_the_valid_packings():
    """Enumerate all models of a tiny formula: every decode must verify,
    and together they must cover every geometrically valid packing."""
    inst = Instance(2, 1, (ItemType(1, 1, 2),))
    copies = expand_demands(inst)
    config = EncodeConfig(2)
    vm, formula = encode_formula(copies, inst, config)
    solver = Solver(formula.num_vars)
    for clause in formula.clauses:
        solver.add_clause(clause)
    packings = set()
    models = 0
    while True:
        result = solver.solve()
        if result.status == UNSAT:
            break
        models += 1
        assert models < 20000, "blocking loop runaway"
        decoded = decode_model(result.model, vm, copies, inst)
        assert verify_solution(inst, decoded, False).ok
        packings.add(tuple((p.sheet, p.x, p.y) for p in decoded.placements))
        solver.add_clause(
            [-(v if result.model[v] else -v) for v in range(1, formula.num_vars + 1)]
        )
    # two unit squares, two sheets, two cells per sheet: each copy picks
    # (sheet, x) freely except both on the same cell -> 16 - 4 combos
    assert len(packings) == 12


def test_feasibility_monotone_in_k():
    rng = random.Random(23)
    for _ in range(8):
        inst = random_instance(rng, max_copies=4, max_dim=5)
        prev = False
        for k in range(1, 5):
            now = feasible(inst, k, False, False)
            assert now or not prev  # once SAT, stays SAT
            prev = now
