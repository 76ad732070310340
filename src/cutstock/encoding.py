"""CNF encoding of fixed-sheet-count packing feasibility, and model decoding.

Coordinates are order-encoded: ``x_at_most(c, e)`` holds when copy c sits at
x <= e.  Threshold variables exist for e in 0..W-2 only; e >= W-1 is the
constant TRUE and e < 0 the constant FALSE, folded away at emission time.
Non-overlap between two copies is activated only when both share a sheet,
via guard literals on their sheet-assignment variables.

Clause families are counted separately so tests can audit the formula
against closed-form sizes.

A ``CnfFormula`` keeps its clauses as blocks: heads and bodies standing
for ``head + body`` for every head and body, head-major.  The ``link``
family, almost all of the formula, is one block per pair of copies, axis
and orientation: a guard head per sheet times bodies shared by every sheet.
Every other family is one block of plain clauses, with the one body ``()``.
Blocks come in two ways, each through a maker in ``satcore.engine`` that
holds them to the block rules, and the formula keeps the ``Block`` it
returns: an immutable tuple of int tuples, the only form in which either
engine takes a block.  ``CnfFormula.add_block`` passes heads and bodies
through ``check_block``, which reads every literal.  ``CnfFormula.add_link``
passes guard heads and two threshold ``Row``s, made once per build by
``check_row``, through ``link_block``, which builds the bodies from the
rows, so that they share the rows' int objects, and reads only the heads.
The engines load a Block without checking it again, storing its clauses
directly or, when they cannot (a one-literal head, say), clause by clause
through ``add_clause``, and DIMACS/WCNF export formats each head and body
once per block.
"""

from __future__ import annotations

import time

from .model import Instance, Placement, Solution, expand_demands, orientations
from .satcore.engine import Block, Row, check_block, check_row, link_block


class VarMap:
    """Deterministic numbering of all Boolean variables of the formula for
    ``sheets`` sheets of ``instance``, kind-major.

    Order: sheet assignment, x thresholds, y thresholds, left-of, below,
    rotation (rotation mode only), sheet used.  Copies, those of
    ``expand_demands(instance)``, are 0-based, sheets 1-based.
    """

    def __init__(self, instance: Instance, sheets: int, rotation: bool = False):
        if sheets < 1:
            raise ValueError("sheet count must be >= 1")
        self.instance = instance
        self.copies = expand_demands(instance)
        self.n = n = len(self.copies)
        self.width = width = instance.sheet_width
        self.height = height = instance.sheet_height
        self.sheets = k = sheets
        self.rotation = rotation
        self._sheet0 = 0
        self._x0 = self._sheet0 + n * k
        self._y0 = self._x0 + n * (width - 1)
        self._left0 = self._y0 + n * (height - 1)
        self._below0 = self._left0 + n * (n - 1)
        self._rot0 = self._below0 + n * (n - 1)
        self._used0 = self._rot0 + (n if rotation else 0)
        self.total = self._used0 + k

    def sheet(self, c: int, j: int) -> int:
        assert 0 <= c < self.n and 1 <= j <= self.sheets
        return self._sheet0 + c * self.sheets + j

    def x_at_most(self, c: int, e: int) -> int:
        assert 0 <= c < self.n and 0 <= e <= self.width - 2
        return self._x0 + c * (self.width - 1) + e + 1

    def y_at_most(self, c: int, f: int) -> int:
        assert 0 <= c < self.n and 0 <= f <= self.height - 2
        return self._y0 + c * (self.height - 1) + f + 1

    def _pair(self, c: int, d: int) -> int:
        assert c != d
        return c * (self.n - 1) + (d if d < c else d - 1)

    def left(self, c: int, d: int) -> int:
        return self._left0 + self._pair(c, d) + 1

    def below(self, c: int, d: int) -> int:
        return self._below0 + self._pair(c, d) + 1

    def rot(self, c: int) -> int:
        assert self.rotation and 0 <= c < self.n
        return self._rot0 + c + 1

    def used(self, j: int) -> int:
        assert 1 <= j <= self.sheets
        return self._used0 + j


class CnfFormula:
    """Clauses kept as an ordered list of ``Block``s, ``(heads, bodies,
    max_var, wide)``.

    A block stands for the clause ``head + body`` for every head and body,
    head-major.  ``add_block`` and ``add_link`` keep the Block their
    maker returns, so bodies are shared by every head and never copied; a
    list of plain clauses is the block with the one body ``()``.
    ``clauses`` lists every clause in order, but building that list costs
    one list per clause, so loading and export walk ``blocks`` instead.
    """

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self.blocks: list[Block] = []
        self.num_clauses = 0
        self.family_counts: dict[str, int] = {}

    @property
    def clauses(self) -> list[list[int]]:
        return [list(h + b) for heads, bodies, _, _ in self.blocks for h in heads for b in bodies]

    def satisfied_by(self, model) -> bool:
        """Whether ``model[v]``, the value of each variable v, satisfies
        every clause.  A block holds when all its heads or all its bodies
        hold."""
        holds = lambda lits: any(model[l] if l > 0 else not model[-l] for l in lits)
        return all(
            all(map(holds, heads)) or all(map(holds, bodies)) for heads, bodies, _, _ in self.blocks
        )

    def add_block(self, family: str, heads, bodies) -> None:
        """Add ``head + body`` for every head and body, head-major, as the
        Block ``check_block`` returns; a block that breaks its rules raises
        ValueError.  A block with no clauses leaves the formula as it was.
        """
        self._keep(family, check_block(heads, bodies))

    def add_link(self, heads, at: Row, not_at: Row, shift: int) -> None:
        """Add the ``link`` block ``link_block(heads, at, not_at, shift)``."""
        self._keep("link", link_block(heads, at, not_at, shift))

    def _keep(self, family: str, block: Block) -> None:
        heads, bodies, _, _ = block
        count = len(heads) * len(bodies)
        if count:
            self.blocks.append(block)
            self.num_clauses += count
            self.family_counts[family] = self.family_counts.get(family, 0) + count


def encode_formula(
    instance: Instance,
    sheets: int,
    rotation: bool = False,
    symmetry_breaking: bool = False,
    *,
    deadline=None,
) -> tuple[VarMap, CnfFormula]:
    """Build the feasibility formula for packing ``instance`` onto ``sheets``
    sheets; ValueError when ``sheets`` is below 1.

    With a ``deadline`` (a ``time.perf_counter()`` value), raises
    ``TimeoutError`` when it passes before the formula is complete; it is
    checked once per pair of copies of the ``link`` family, almost all of
    the formula.
    """
    vm = VarMap(instance, sheets, rotation)
    instance.validate(rotation)
    formula = CnfFormula(vm.total)
    n, k = vm.n, vm.sheets
    width, height = vm.width, vm.height
    not_sheet = [[-vm.sheet(c, j) for j in range(1, k + 1)] for c in range(n)]
    # threshold rows, made once so that every body shares their int objects
    xs = [check_row(vm.x_at_most(c, e) for e in range(width - 1)) for c in range(n)]
    ys = [check_row(vm.y_at_most(c, f) for f in range(height - 1)) for c in range(n)]
    # each copy's shape per orientation as (selector, width, height); the
    # selector literal is satisfied when the copy is in the *other*
    # orientation, so a clause carrying it only binds in the named one
    if rotation:
        shapes = [
            [(vm.rot(c), copy.width, copy.height), (-vm.rot(c), copy.height, copy.width)]
            for c, copy in enumerate(vm.copies)
        ]
    else:
        shapes = [[(0, copy.width, copy.height)] for copy in vm.copies]

    # one sheet per copy
    exactly_one = []
    for c in range(n):
        exactly_one.append(tuple(vm.sheet(c, j) for j in range(1, k + 1)))
        for j1 in range(1, k + 1):
            for j2 in range(j1 + 1, k + 1):
                exactly_one.append((-vm.sheet(c, j1), -vm.sheet(c, j2)))
    formula.add_block("exactly_one", exactly_one, [()])

    # coordinate thresholds are monotone
    order = []
    for c in range(n):
        order += [(-a, b) for a, b in zip(xs[c], xs[c][1:])]
        order += [(-a, b) for a, b in zip(ys[c], ys[c][1:])]
    formula.add_block("order", order, [()])

    # some separating direction must hold for same-sheet pairs
    separation = []
    for c in range(n):
        for d in range(c + 1, n):
            apart = (vm.left(c, d), vm.left(d, c), vm.below(c, d), vm.below(d, c))
            separation += [guard + apart for guard in zip(not_sheet[c], not_sheet[d])]
    formula.add_block("separation", separation, [()])

    # tie the separating directions to coordinates, per sheet and orientation:
    # one block per (c, d, axis, orientation) with a guard head per sheet
    # x_d >= extent even when x_c = 0, x_c > e forces x_d > e + extent, which
    # past the last threshold is impossible; a copy too long to fit leaves
    # the bare head, which forbids the relation outright (see link_block)
    not_xs = [check_row(-v for v in row) for row in xs]
    not_ys = [check_row(-v for v in row) for row in ys]
    for c in range(n):
        for d in range(n):
            if c == d:
                continue
            if deadline is not None and time.perf_counter() >= deadline:
                raise TimeoutError("deadline passed while encoding")
            guards = list(zip(not_sheet[c], not_sheet[d]))
            for orient, ew, eh in shapes[c]:
                for rel, at, not_at, extent in (
                    (vm.left(c, d), xs[c], not_xs[d], ew),
                    (vm.below(c, d), ys[c], not_ys[d], eh),
                ):
                    tail = (orient, -rel) if orient else (-rel,)
                    formula.add_link([guard + tail for guard in guards], at, not_at, extent)

    # every copy fits inside its sheet: x in each orientation, then y
    domain = []
    for c in range(n):
        for at, limit, axis in ((xs[c], width, 1), (ys[c], height, 2)):
            for case in shapes[c]:
                selector, slack = case[0], limit - case[axis]
                if slack >= limit - 1:
                    continue  # constant TRUE
                lits = [selector] if selector else []
                if slack >= 0:
                    lits.append(at[slack])
                elif not lits:
                    raise ValueError("copy does not fit the sheet; instance validation missed it")
                domain.append(tuple(lits))
    formula.add_block("domain", domain, [()])

    # usage indicators
    usage = [(-vm.sheet(c, j), vm.used(j)) for c in range(n) for j in range(1, k + 1)]
    formula.add_block("usage", usage, [()])

    if symmetry_breaking:
        _encode_symmetry_breaking(vm, formula)
    return vm, formula


def _encode_symmetry_breaking(vm: VarMap, formula: CnfFormula) -> None:
    n, k, copies = vm.n, vm.sheets, vm.copies
    width, height = vm.width, vm.height
    permitted = [orientations(c.width, c.height, width, height, vm.rotation) for c in copies]
    extents = [
        [(copy.height, copy.width) if rot else (copy.width, copy.height) for rot in rots]
        for copy, rots in zip(copies, permitted)
    ]

    # oversized pairs can never sit side by side / stacked
    large = []
    for c in range(n):
        for d in range(c + 1, n):
            if all(wc + wd > width for wc, _ in extents[c] for wd, _ in extents[d]):
                large += [(-vm.left(c, d),), (-vm.left(d, c),)]
            if all(hc + hd > height for _, hc in extents[c] for _, hd in extents[d]):
                large += [(-vm.below(c, d),), (-vm.below(d, c),)]
    formula.add_block("sb_large", large, [()])

    # later copies of a type never go strictly left of earlier ones
    same_type = []
    for c in range(n):
        for d in range(c + 1, n):
            if copies[c].type_index == copies[d].type_index:
                same_type.append((-vm.left(d, c),))
    formula.add_block("sb_same_type", same_type, [()])

    # pin the rotation flag when only one orientation is possible
    if vm.rotation:
        pins = []
        for c in range(n):
            if permitted[c] == [False]:
                pins.append((-vm.rot(c),))
            elif permitted[c] == [True]:
                pins.append((vm.rot(c),))
        formula.add_block("sb_orientation", pins, [()])

    # sheets are brought into use in index order
    sheet_order = [(-vm.used(j + 1), vm.used(j)) for j in range(1, k)]
    formula.add_block("sb_sheet_order", sheet_order, [()])


def decode_model(model: list[bool], vm: VarMap) -> Solution:
    """Read a satisfying assignment of the formula behind ``vm`` back into
    placements; RuntimeError when the model puts a copy on no sheet or on
    two."""
    placements = []
    for c, copy in enumerate(vm.copies):
        sheets = [j for j in range(1, vm.sheets + 1) if model[vm.sheet(c, j)]]
        if len(sheets) != 1:
            raise RuntimeError(f"model puts copy {copy.label()} on {len(sheets)} sheets")
        x = vm.width - 1
        for e in range(vm.width - 1):
            if model[vm.x_at_most(c, e)]:
                x = e
                break
        y = vm.height - 1
        for f in range(vm.height - 1):
            if model[vm.y_at_most(c, f)]:
                y = f
                break
        rotated = bool(vm.rotation and model[vm.rot(c)])
        placements.append(Placement(copy, sheets[0], x, y, rotated))
    return Solution(vm.instance, tuple(placements))
