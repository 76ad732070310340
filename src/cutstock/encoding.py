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
``CnfFormula.add_block`` is the only way in.  It passes each block once
through ``satcore.engine.check_block``, the one home of the block rules,
and keeps the ``Block`` it returns: an immutable tuple of int tuples, the
only form in which either engine takes a block.  The engines load it
without checking it again, storing its clauses directly or, when they
cannot (a one-literal head, say), clause by clause through ``add_clause``,
and DIMACS/WCNF export formats each head and body once per block.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .model import Copy, Instance, Placement, Solution, orientations
from .satcore.engine import Block, check_block


@dataclass(frozen=True)
class EncodeConfig:
    sheets: int
    rotation: bool = False
    symmetry_breaking: bool = False

    def __post_init__(self):
        if self.sheets < 1:
            raise ValueError("sheet count must be >= 1")


class VarMap:
    """Deterministic numbering of all Boolean variables, kind-major.

    Order: sheet assignment, x thresholds, y thresholds, left-of, below,
    rotation (rotation mode only), sheet used.  Copies are 0-based, sheets
    1-based.
    """

    def __init__(self, num_copies: int, width: int, height: int, config: EncodeConfig):
        if num_copies < 1:
            raise ValueError("need at least one copy")
        self.n = num_copies
        self.width = width
        self.height = height
        self.sheets = config.sheets
        self.rotation = config.rotation
        n, k = num_copies, config.sheets
        self._sheet0 = 0
        self._x0 = self._sheet0 + n * k
        self._y0 = self._x0 + n * (width - 1)
        self._left0 = self._y0 + n * (height - 1)
        self._below0 = self._left0 + n * (n - 1)
        self._rot0 = self._below0 + n * (n - 1)
        self._used0 = self._rot0 + (n if config.rotation else 0)
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
    head-major.  ``add_block`` keeps the Block ``check_block`` returns, so
    bodies are shared by every head and never copied; a list of plain
    clauses is the block with the one body ``()``.  ``clauses`` lists every
    clause in order, but building that list costs one list per clause, so
    loading and export walk ``blocks`` instead.
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
        heads, bodies, _, _ = block = check_block(heads, bodies)
        count = len(heads) * len(bodies)
        if count:
            self.blocks.append(block)
            self.num_clauses += count
            self.family_counts[family] = self.family_counts.get(family, 0) + count


def encode_formula(
    copies: tuple[Copy, ...], instance: Instance, config: EncodeConfig, *, deadline=None
) -> tuple[VarMap, CnfFormula]:
    """Build the feasibility formula for config.sheets sheets.

    With a ``deadline`` (a ``time.perf_counter()`` value), raises
    ``TimeoutError`` when it passes before the formula is complete; it is
    checked once per pair of copies of the ``link`` family, almost all of
    the formula.
    """
    instance.validate(config.rotation)
    vm = VarMap(len(copies), instance.sheet_width, instance.sheet_height, config)
    formula = CnfFormula(vm.total)
    n, k = vm.n, vm.sheets
    width, height = vm.width, vm.height
    not_sheet = [[-vm.sheet(c, j) for j in range(1, k + 1)] for c in range(n)]
    xs = [[vm.x_at_most(c, e) for e in range(width - 1)] for c in range(n)]
    ys = [[vm.y_at_most(c, f) for f in range(height - 1)] for c in range(n)]
    # each copy's shape per orientation as (selector, width, height); the
    # selector literal is satisfied when the copy is in the *other*
    # orientation, so a clause carrying it only binds in the named one
    if config.rotation:
        shapes = [
            [(vm.rot(c), copy.width, copy.height), (-vm.rot(c), copy.height, copy.width)]
            for c, copy in enumerate(copies)
        ]
    else:
        shapes = [[(0, copy.width, copy.height)] for copy in copies]

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
    not_xs = [[-v for v in row] for row in xs]
    not_ys = [[-v for v in row] for row in ys]

    def link_bodies(at_c: list[int], not_at_d: list[int], extent: int, limit: int):
        # x_d >= extent even when x_c = 0; a copy too long to fit leaves the
        # bare head, which forbids the relation outright
        bodies = [(not_at_d[extent - 1],)] if extent < limit else [()]
        # x_c > e forces x_d > e + extent ...
        bodies += zip(at_c, not_at_d[extent:])
        # ... which past the last threshold is impossible
        if extent < limit:
            bodies.append((at_c[limit - extent - 1],))
        return bodies

    for c in range(n):
        for d in range(n):
            if c == d:
                continue
            if deadline is not None and time.perf_counter() >= deadline:
                raise TimeoutError("deadline passed while encoding")
            guards = list(zip(not_sheet[c], not_sheet[d]))
            for orient, ew, eh in shapes[c]:
                for rel, bodies in (
                    (vm.left(c, d), link_bodies(xs[c], not_xs[d], ew, width)),
                    (vm.below(c, d), link_bodies(ys[c], not_ys[d], eh, height)),
                ):
                    tail = (orient, -rel) if orient else (-rel,)
                    heads = [guard + tail for guard in guards]
                    formula.add_block("link", heads, bodies)

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

    if config.symmetry_breaking:
        _encode_symmetry_breaking(copies, config, vm, formula)
    return vm, formula


def _encode_symmetry_breaking(
    copies: tuple[Copy, ...], config: EncodeConfig, vm: VarMap, formula: CnfFormula
) -> None:
    n, k = vm.n, vm.sheets
    width, height = vm.width, vm.height
    permitted = [orientations(c.width, c.height, width, height, config.rotation) for c in copies]
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
    if config.rotation:
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


def decode_model(
    model: list[bool], vm: VarMap, copies: tuple[Copy, ...], instance: Instance
) -> Solution:
    """Read a satisfying assignment back into placements; RuntimeError when
    the model puts a copy on no sheet or on two."""
    placements = []
    for c, copy in enumerate(copies):
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
    return Solution(instance, tuple(placements))
