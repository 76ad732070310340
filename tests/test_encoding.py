import ast
import random
import subprocess
import sys
import tracemalloc

import pytest

from cutstock.bounds import compute_bounds
from cutstock.encoding import CnfFormula, VarMap, decode_model, encode_formula
from cutstock.model import Instance, ItemType, expand_demands
from cutstock.satcore import SAT, UNSAT, Solver, format_dimacs, format_wcnf
from cutstock.satcore.engine import Block, Row, check_block, check_row, link_block
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
    vm, formula = encode_formula(instance, k, rotation, sb)
    result = solve_formula(formula, engine_cls)
    assert result.status in (SAT, UNSAT)
    if result.status == SAT:
        decoded = decode_model(result.model, vm)
        report = verify_solution(instance, decoded, rotation)
        assert report.ok, str(report)
        assert decoded.sheets_used <= k
    return result.status == SAT


def test_varmap_count_demo(demo):
    vm = VarMap(demo, 2)
    assert vm.total == 122 == closed_form_vars(6, 2, 6, 4, False)
    vm_rot = VarMap(demo, 2, rotation=True)
    assert vm_rot.total == 128


def test_varmap_count_minimal():
    inst = Instance(1, 1, (ItemType(1, 1, 1),))
    vm = VarMap(inst, 1)
    assert vm.total == 2  # one assignment var, one usage var


@pytest.mark.parametrize("build", [encode_formula, VarMap])
def test_sheet_count_below_one_is_refused(demo, build):
    with pytest.raises(ValueError, match=r"^sheet count must be >= 1$"):
        build(demo, 0)


def test_varmap_is_bijection(demo):
    for vm in (VarMap(demo, 2), VarMap(demo, 3, rotation=True)):
        seen = set()
        n = len(vm.copies)
        for c in range(n):
            for j in range(1, vm.sheets + 1):
                seen.add(vm.sheet(c, j))
            for e in range(demo.sheet_width - 1):
                seen.add(vm.x_at_most(c, e))
            for f in range(demo.sheet_height - 1):
                seen.add(vm.y_at_most(c, f))
            for d in range(n):
                if c != d:
                    seen.add(vm.left(c, d))
                    seen.add(vm.below(c, d))
            if vm.rotation:
                seen.add(vm.rot(c))
        for j in range(1, vm.sheets + 1):
            seen.add(vm.used(j))
        assert seen == set(range(1, vm.total + 1))


def test_family_counts_demo(demo):
    _, formula = encode_formula(demo, 2)
    n, k, w, h = 6, 2, 6, 4
    assert formula.family_counts["exactly_one"] == n * (1 + k * (k - 1) // 2) == 12
    assert formula.family_counts["separation"] == k * n * (n - 1) // 2 == 30
    assert formula.family_counts["order"] == n * ((w - 2) + (h - 2)) == 36
    assert "sb_sheet_order" not in formula.family_counts


def test_family_counts_with_sb(demo):
    _, formula = encode_formula(demo, 3, symmetry_breaking=True)
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
            _, formula = encode_formula(inst, k, rotation, True)
            w, h = inst.sheet_width, inst.sheet_height
            assert formula.family_counts["exactly_one"] == n * (1 + k * (k - 1) // 2)
            assert formula.family_counts.get("separation", 0) == k * n * (n - 1) // 2
            expected_order = n * (max(0, w - 2) + max(0, h - 2))
            assert formula.family_counts.get("order", 0) == expected_order
            if k > 1:
                assert formula.family_counts["sb_sheet_order"] == k - 1
            assert formula.num_vars == closed_form_vars(n, k, w, h, rotation)


def test_no_rotation_omits_rotation_vars(demo):
    vm, formula = encode_formula(demo, 2, rotation=False)
    with pytest.raises(AssertionError):
        vm.rot(0)
    assert formula.num_vars == 122


def test_demo_sat_at_two_unsat_at_one(demo, engine_cls):
    assert feasible(demo, 2, False, False, engine_cls)
    assert not feasible(demo, 1, False, False, engine_cls)


def test_single_cell(engine_cls):
    inst = Instance(1, 1, (ItemType(1, 1, 1),))
    vm, formula = encode_formula(inst, 1)
    result = solve_formula(formula, engine_cls)
    assert result.status == SAT
    decoded = decode_model(result.model, vm)
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
    vm, formula = encode_formula(inst, 1, rotation=True, symmetry_breaking=True)
    assert [-vm.rot(0)] in formula.clauses
    result = solve_formula(formula)
    assert result.status == SAT and result.model[vm.rot(0)] is False


def test_orientation_pinned_when_only_one_fits():
    # 5x2 on a 6x4 sheet: rotated would need height 5 > 4
    inst = Instance(6, 4, (ItemType(5, 2, 1),))
    vm, formula = encode_formula(inst, 1, True, True)
    assert [-vm.rot(0)] in formula.clauses
    # 1x4 on a 3x4 sheet fits either way; 4x1 only rotated
    tall = Instance(3, 4, (ItemType(4, 1, 1),))
    vm2, f2 = encode_formula(tall, 1, True, True)
    assert [vm2.rot(0)] in f2.clauses


def test_wide_pair_never_side_by_side():
    inst = Instance(6, 4, (ItemType(4, 1, 2),))
    vm, formula = encode_formula(inst, 1, False, True)
    assert [-vm.left(0, 1)] in formula.clauses
    assert [-vm.left(1, 0)] in formula.clauses
    # still satisfiable by stacking
    assert solve_formula(formula).status == SAT


def test_clauses_well_formed(demo):
    cases = [(demo, 2, False, False), (demo, 2, True, True), (demo, 1, False, True)]
    rng = random.Random(5)
    for _ in range(30):
        inst = random_instance(rng, max_copies=7, max_dim=8)
        cases.append((inst, rng.randint(1, 4), rng.random() < 0.5, rng.random() < 0.5))
    for case in cases:
        _, formula = encode_formula(*case)
        for clause in formula.clauses:
            assert clause
            vars_in = [abs(l) for l in clause]
            assert len(set(vars_in)) == len(vars_in)
            assert all(1 <= v <= formula.num_vars for v in vars_in)
        assert sum(formula.family_counts.values()) == formula.num_clauses


def test_deterministic_output(demo):
    a = encode_formula(demo, 2, True, True)[1]
    b = encode_formula(demo, 2, True, True)[1]
    assert a.clauses == b.clauses and a.family_counts == b.family_counts


def test_blocks_hold_the_clauses_in_order():
    """Counters, clause list and model check all read the blocks alike."""
    rng = random.Random(6)
    for _ in range(20):
        inst = random_instance(rng, max_copies=6, max_dim=7)
        _, formula = encode_formula(inst, rng.randint(1, 4), rng.random() < 0.5, rng.random() < 0.5)
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


EMPTY = "empty clause emitted"
REPEAT = "repeated variable in clause"
NON_INT = "non-int literal in clause"
ZERO = "literal 0 in clause"


@pytest.mark.parametrize(
    "heads, bodies, expected",
    [
        # plain clauses, the block (clauses, [[]])
        ([[1, 2], [-1, 3], [4]], [[]], 3),
        ([[1, 2], []], [[]], EMPTY),  # an empty clause
        ([[1, 2, 1]], [[]], REPEAT),  # a variable twice in a clause
        ([[1, -1]], [[]], REPEAT),  # ... with opposite signs
        # heads times shared bodies
        ([[1, 2], [-1, 3]], [[4], [-5, 6]], 4),
        ([[]], [[4], [5]], EMPTY),  # an empty head
        ([[1, 2, -2]], [[4], [5]], REPEAT),  # a variable twice in a head
        ([[1, 2]], [[4, -4]], REPEAT),  # ... in a body
        ([[1, 2]], [[4], [4, 5]], REPEAT),  # ... among the bodies
        ([[1, 2]], [[4], [-4]], REPEAT),  # ... with opposite signs
        ([[1, 2], [3, 5]], [[4], [5]], REPEAT),  # in a head and a body
        ([[1.0, 2]], [[3]], NON_INT),  # a literal that is not an int
        ([[1, 2]], [[0]], ZERO),  # literal 0 only in a body
        ([[1, 2]], [[True]], NON_INT),  # a bool, which is no int literal
        ([[1, 2]], [[-2], [3]], REPEAT),  # in a head and a body, opposite signs
        ([[1, 2, 7], [3, 4, 7]], [[5], [6]], 4),  # a variable shared by two heads
        ([], [[4], [5]], 0),  # no heads
        ([[1, 2]], [], 0),  # no bodies
        # the first broken rule names the error
        ([[], [1.0]], [[]], NON_INT),
        ([[1, 1], []], [[0], [0]], REPEAT),
        ([[1, 2], []], [[1]], EMPTY),
        ([[1, 0]], [[0]], REPEAT),
        ([[1, 0]], [[2]], ZERO),
    ],
    # a refused case's id ends in None, as a clause count's ends in the count
    ids=lambda value: "None" if isinstance(value, str) else None,
)
def test_add_block_rejects_malformed_blocks(heads, bodies, expected):
    """A block is accepted and counted only when every clause it stands
    for is non-empty, free of repeated variables and made of ints; the
    message of a refusal names the first rule it breaks."""
    formula = CnfFormula(7)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as refused:
            formula.add_block("family", heads, bodies)
        assert str(refused.value) == expected
        assert (formula.blocks, formula.num_clauses, formula.family_counts) == ([], 0, {})
    else:
        formula.add_block("family", heads, bodies)
        kept = [(tuple(map(tuple, heads)), tuple(map(tuple, bodies)))] if expected else []
        assert [block[:2] for block in formula.blocks] == kept
        assert formula.num_clauses == len(formula.clauses) == expected
        assert formula.family_counts == ({"family": expected} if expected else {})


REFUSE_UNDER_O = """
from cutstock.encoding import CnfFormula
for heads, bodies in (([[1, 2, 1]], [[]]), ([[1, 2]], [[4], [4, 5]]), ([[1.0, 2]], [[3]]),
                      ([[1, 2]], [[0]])):
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
    assert proc.stdout.splitlines() == [REPEAT, REPEAT, NON_INT, ZERO]


def link_bodies(at_c, not_at_d, extent, limit):
    """The bodies of a link block as the encoder spelled them out before
    link_block made them."""
    # x_d >= extent even when x_c = 0; a copy too long to fit leaves the
    # bare head, which forbids the relation outright
    bodies = [(not_at_d[extent - 1],)] if extent < limit else [()]
    # x_c > e forces x_d > e + extent ...
    bodies += zip(at_c, not_at_d[extent:])
    # ... which past the last threshold is impossible
    if extent < limit:
        bodies.append((at_c[limit - extent - 1],))
    return bodies


def test_link_block_is_check_block_of_the_link_bodies():
    """On sides 1 to 9, with every extent up to two past the side, and with
    either row numbered first, link_block returns the Block check_block
    makes of the same heads and bodies: a side of 1 has empty rows and an
    extent at or past the side leaves the bare head.  The bodies share the
    rows' int objects."""
    heads = [(-1, -3, -5), (-2, -4, -5)]
    for side in range(1, 10):
        low = check_row(range(10, 10 + side - 1))
        high = check_row(range(10 + side - 1, 10 + 2 * (side - 1)))
        for at, other in ((low, high), (high, low)):
            not_at = check_row(-v for v in other)
            for extent in range(1, side + 3):
                for hs in (heads, [(-6,), *heads]):
                    block = link_block(hs, at, not_at, extent)
                    assert type(block) is Block
                    assert block == check_block(hs, link_bodies(at, not_at, extent, side))
                    bodies = block[1]
                    if extent < side:
                        assert bodies[0][0] is not_at[extent - 1] and bodies[-1][0] is at[-extent]
                    else:
                        assert bodies == ((),)


def test_rows_are_checked_and_cannot_change():
    """check_row makes a Row of int literals of one sign over consecutive
    variables, ascending, and refuses anything else; a Row is an int tuple
    with no ``__dict__``, and nothing else makes one."""
    assert check_row(range(3, 6)) == (3, 4, 5) and type(check_row([])) is Row
    assert check_row([-7, -8]) == (-7, -8)
    for lits in ([1, 3], [2, 1], [1, -2], [-2, -1], [0, 1], [0], [-1, 0]):
        with pytest.raises(ValueError, match="one sign over consecutive"):
            check_row(lits)
    for lits in ([1.0, 2.0], [True], ["1"]):
        with pytest.raises(ValueError, match="non-int literal"):
            check_row(lits)
    row = check_row([4, 5])
    with pytest.raises(TypeError):
        vars(row)
    with pytest.raises(TypeError):
        Row([4, 5])
    with pytest.raises(TypeError):
        Block(row)


ROWS = "rows not made by check_row"
SHIFT = "shift is not an int >= 1"

# heads, at, not_at, shift, then a clause count or what refuses the block;
# a row written ("row", first, count, sign) is made by check_row
LINK_CASES = [
    ([[-1, -2, -3], [-10, -11, -3]], ("row", 4, 3, 1), ("row", 7, 3, -1), 1, 8),
    ([[-1, -2, -3]], ("row", 7, 3, 1), ("row", 4, 3, -1), 2, 3),  # at numbered after not_at
    ([[-1, -2, -3]], ("row", 4, 3, 1), ("row", 7, 3, -1), 4, 1),  # the bare head
    ([[-1, -2, -3]], ("row", 4, 0, 1), ("row", 7, 0, -1), 1, 1),  # a side of 1: empty rows
    ([], ("row", 4, 3, 1), ("row", 7, 3, -1), 1, 0),  # no heads
    # rows that overlap
    ([[-1, -2]], ("row", 4, 3, 1), ("row", 6, 3, -1), 1, ("ValueError", REPEAT)),
    ([[-1, -2]], ("row", 4, 3, 1), ("row", 4, 3, -1), 1, ("ValueError", REPEAT)),
    ([[-1, -2]], ("row", 6, 3, 1), ("row", 4, 3, -1), 4, ("ValueError", REPEAT)),
    # a head variable inside a row, also where the bodies would not use it
    ([[-1, 5]], ("row", 4, 3, 1), ("row", 7, 3, -1), 1, ("ValueError", REPEAT)),
    ([[-1, -2], [-9, 3]], ("row", 4, 3, 1), ("row", 7, 3, -1), 1, ("ValueError", REPEAT)),
    ([[-1, 6]], ("row", 4, 3, 1), ("row", 7, 3, -1), 4, ("ValueError", REPEAT)),
    # rows not made by check_row
    ([[-1, -2]], (4, 5, 6), ("row", 7, 3, -1), 1, ("TypeError", ROWS)),
    ([[-1, -2]], ("row", 4, 3, 1), [-7, -8, -9], 1, ("TypeError", ROWS)),
    ([[-1, -2]], ("row", 4, 3, 1), ("row", 7, 2, -1), 1, ("ValueError", "rows of unequal length")),
    # a shift below 1, or not an int
    ([[-1, -2]], ("row", 4, 3, 1), ("row", 7, 3, -1), 0, ("ValueError", SHIFT)),
    ([[-1, -2]], ("row", 4, 3, 1), ("row", 7, 3, -1), -2, ("ValueError", SHIFT)),
    ([[-1, -2]], ("row", 4, 3, 1), ("row", 7, 3, -1), 1.0, ("ValueError", SHIFT)),
    ([[-1, -2]], ("row", 4, 3, 1), ("row", 7, 3, -1), True, ("ValueError", SHIFT)),
    # an empty, repeated, zero or non-int head literal
    ([[]], ("row", 4, 3, 1), ("row", 7, 3, -1), 1, ("ValueError", EMPTY)),
    ([[-1, -2], []], ("row", 4, 3, 1), ("row", 7, 3, -1), 1, ("ValueError", EMPTY)),
    ([[-1, -1, -3]], ("row", 4, 3, 1), ("row", 7, 3, -1), 1, ("ValueError", REPEAT)),
    ([[1, -1]], ("row", 4, 3, 1), ("row", 7, 3, -1), 1, ("ValueError", REPEAT)),
    ([[0, -2]], ("row", 4, 3, 1), ("row", 7, 3, -1), 1, ("ValueError", ZERO)),
    ([[-1.0, -2]], ("row", 4, 3, 1), ("row", 7, 3, -1), 1, ("ValueError", NON_INT)),
    ([[True, -2]], ("row", 4, 3, 1), ("row", 7, 3, -1), 1, ("ValueError", NON_INT)),
    ([["1", -2]], ("row", 4, 3, 1), ("row", 7, 3, -1), 1, ("ValueError", NON_INT)),
]

RUN_LINK_CASES = """
import ast, sys
from cutstock.encoding import CnfFormula
from cutstock.satcore.engine import check_row

def row(spec):
    if isinstance(spec, tuple) and spec[:1] == ("row",):
        _, first, count, sign = spec
        return check_row(sign * v for v in range(first, first + count))
    return spec

for heads, at, not_at, shift in ast.literal_eval(sys.stdin.read()):
    formula = CnfFormula(12)
    try:
        formula.add_link(heads, row(at), row(not_at), shift)
    except (TypeError, ValueError) as exc:
        print(repr((type(exc).__name__, str(exc))))
    else:
        print(repr(formula.num_clauses))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python -O"])
def test_add_link_rejects_malformed_links(flags):
    """A link block is kept and counted only when its rows come from
    check_row, do not overlap and have the same length, its shift is an int
    of at least 1 and its heads are non-empty, repeat-free, made of
    non-zero ints and outside both rows; the refusal names the rule it
    breaks, and python -O refuses alike, since the checks are not
    asserts."""
    cases = [case[:4] for case in LINK_CASES]
    proc = subprocess.run([sys.executable, *flags, "-c", RUN_LINK_CASES], input=repr(cases),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = [ast.literal_eval(line) for line in proc.stdout.splitlines()]
    assert got == [case[4] for case in LINK_CASES]


def test_export_peak_stays_below_three_times_the_text():
    """DIMACS and WCNF export of a formula the size of the external
    workload's keeps no per-clause copy of it: the peak of traced Python
    allocations while formatting stays below three times the text's
    length, the chunks and the joined text."""
    inst = Instance(10, 10, (ItemType(6, 6, 3), ItemType(4, 3, 2), ItemType(3, 4, 2),
                             ItemType(2, 5, 3)))
    vm, formula = encode_formula(inst, 3, True, True)
    soft = [(1, [-vm.used(j)]) for j in range(1, 4)]
    assert formula.num_clauses > 5000
    for fmt in (lambda: format_wcnf(formula.num_vars, formula, soft),
                lambda: format_dimacs(formula.num_vars, formula)):
        fmt()  # anything made once per process is made before tracing
        tracemalloc.start()
        try:
            text = fmt()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * len(text), peak / len(text)


def test_decode_rejects_inconsistent_model(demo):
    vm, formula = encode_formula(demo, 2)
    result = solve_formula(formula)
    assert result.status == SAT
    broken = list(result.model)
    for j in range(1, 3):
        broken[vm.sheet(0, j)] = False  # first copy now on no sheet at all
    with pytest.raises(RuntimeError, match="0 sheets"):
        decode_model(broken, vm)


def test_unit_width_sheet(engine_cls):
    # width 1 leaves no x-threshold variables; everything stacks vertically
    inst = Instance(1, 4, (ItemType(1, 2, 3),))
    assert feasible(inst, 2, False, False, engine_cls)
    assert not feasible(inst, 1, False, False, engine_cls)
    assert feasible(inst, 2, True, True, engine_cls)


def test_demo_assumption_forces_one_sheet(demo, engine_cls):
    # disabling the second sheet through an assumption is a one-sheet test:
    # unsatisfiable by area, and the handle stays usable afterwards
    vm, formula = encode_formula(demo, 2)
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
    vm, formula = encode_formula(inst, 2)
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
        decoded = decode_model(result.model, vm)
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
