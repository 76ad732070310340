"""CNF encoding of fixed-sheet-count packing feasibility, and model decoding.

Coordinates are order-encoded: ``x_at_most(c, e)`` holds when copy c sits at
x <= e.  Threshold variables exist for e in 0..W-2 only; e >= W-1 is the
constant TRUE and e < 0 the constant FALSE, folded away at emission time.
Non-overlap between two copies is activated only when both share a sheet,
via guard literals on their sheet-assignment variables.

Clause families are counted separately so tests can audit the formula
against closed-form sizes.

A ``CnfFormula`` keeps its clauses as blocks: ``(heads, bodies)`` stands
for ``head + body`` for every head and body, head-major.  The ``link``
family, almost all of the formula, is one block per pair of copies, axis
and orientation: a guard head per sheet times bodies shared by every sheet
(``CnfFormula.add_block``).  Every other clause goes through
``CnfFormula.add`` into a run block of plain clauses.  Engines load a block
in one ``add_block`` call, and DIMACS/WCNF export formats each head and
body once per block.

Every clause is checked to be non-empty and free of repeated variables as it
is emitted: ``add_block`` checks each head and each body once per block,
``add`` each plain clause on its own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain

from .model import Copy, Instance, Placement, Solution


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
    """Clauses kept as an ordered list of blocks ``(heads, bodies)``.

    A block stands for the clause ``head + body`` for every head and body,
    head-major.  ``add_block`` keeps its block as given, so bodies are
    shared by every head and never copied; clauses from ``add`` go into a
    trailing run block ``(run, [[]])``.  ``clauses`` lists every clause in
    order, but building that list costs one list per clause, so loading
    and export walk ``blocks`` instead.
    """

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self.blocks: list[tuple[list[list[int]], list[list[int]]]] = []
        self.num_clauses = 0
        self.family_counts: dict[str, int] = {}
        self._run: list[list[int]] | None = None  # heads of the trailing run block

    @property
    def clauses(self) -> list[list[int]]:
        return [head + body for heads, bodies in self.blocks for head in heads for body in bodies]

    def satisfied_by(self, model) -> bool:
        """Whether ``model[v]``, the value of each variable v, satisfies
        every clause.  A block holds when all its heads or all its bodies
        hold."""
        holds = lambda lits: any(model[l] if l > 0 else not model[-l] for l in lits)
        return all(
            all(map(holds, heads)) or all(map(holds, bodies)) for heads, bodies in self.blocks
        )

    def _count(self, family: str, count: int) -> None:
        self.num_clauses += count
        self.family_counts[family] = self.family_counts.get(family, 0) + count

    def add(self, family: str, lits: list[int]) -> None:
        assert lits, "empty clause emitted"
        assert len({abs(l) for l in lits}) == len(lits), "repeated variable in clause"
        if self._run is None:
            self._run = []
            self.blocks.append((self._run, [[]]))
        self._run.append(lits)
        self._count(family, 1)

    def add_block(self, family: str, heads: list[list[int]], bodies: list[list[int]]) -> None:
        """Add ``head + body`` for every head and body, head-major.

        Heads must be non-empty and free of repeated variables.  No
        variable may occur twice among the bodies, or in a body and a head.
        Together these make every emitted clause non-empty and free of
        repeated variables, at the cost of one check per head and body.
        """
        head_vars: set[int] = set()
        for head in heads:
            assert head, "empty clause emitted"
            vs = {abs(l) for l in head}
            assert len(vs) == len(head), "repeated variable in clause"
            head_vars |= vs
        body_lits = list(chain.from_iterable(bodies))
        body_vars = set(map(abs, body_lits))
        assert len(body_vars) == len(body_lits), "repeated variable in clause"
        assert head_vars.isdisjoint(body_vars), "repeated variable in clause"
        if heads and bodies:
            self.blocks.append((heads, bodies))
            self._run = None
        self._count(family, len(heads) * len(bodies))


def build_varmap(copies: tuple[Copy, ...], instance: Instance, config: EncodeConfig) -> VarMap:
    return VarMap(len(copies), instance.sheet_width, instance.sheet_height, config)


def _permitted_orientations(c: Copy, instance: Instance, config: EncodeConfig) -> list[bool]:
    """Orientations (rotated?) that keep the copy inside the sheet.

    With symmetry breaking on, squares are pinned to unrotated; this is
    exactly the set the rotation-fixing units leave open.
    """
    w, h = instance.sheet_width, instance.sheet_height
    if not config.rotation:
        return [False]
    fits_plain = c.width <= w and c.height <= h
    fits_rot = c.height <= w and c.width <= h
    if config.symmetry_breaking:
        if c.width == c.height:
            return [False]
        if fits_plain and not fits_rot:
            return [False]
        if fits_rot and not fits_plain:
            return [True]
        return [False, True]
    out = []
    if fits_plain:
        out.append(False)
    if fits_rot:
        out.append(True)
    return out or [False]


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
    vm = build_varmap(copies, instance, config)
    formula = CnfFormula(vm.total)
    n, k = vm.n, vm.sheets
    width, height = vm.width, vm.height

    # one sheet per copy
    for c in range(n):
        formula.add("exactly_one", [vm.sheet(c, j) for j in range(1, k + 1)])
        for j1 in range(1, k + 1):
            for j2 in range(j1 + 1, k + 1):
                formula.add("exactly_one", [-vm.sheet(c, j1), -vm.sheet(c, j2)])

    # coordinate thresholds are monotone
    for c in range(n):
        for e in range(width - 2):
            formula.add("order", [-vm.x_at_most(c, e), vm.x_at_most(c, e + 1)])
        for f in range(height - 2):
            formula.add("order", [-vm.y_at_most(c, f), vm.y_at_most(c, f + 1)])

    # some separating direction must hold for same-sheet pairs
    for c in range(n):
        for d in range(c + 1, n):
            for j in range(1, k + 1):
                formula.add(
                    "separation",
                    [
                        -vm.sheet(c, j),
                        -vm.sheet(d, j),
                        vm.left(c, d),
                        vm.left(d, c),
                        vm.below(c, d),
                        vm.below(d, c),
                    ],
                )

    # tie the separating directions to coordinates, per sheet and orientation:
    # one block per (c, d, axis, orientation) with a guard head per sheet
    not_sheet = [[-vm.sheet(c, j) for j in range(1, k + 1)] for c in range(n)]
    xs = [[vm.x_at_most(c, e) for e in range(width - 1)] for c in range(n)]
    ys = [[vm.y_at_most(c, f) for f in range(height - 1)] for c in range(n)]
    not_xs = [[-v for v in row] for row in xs]
    not_ys = [[-v for v in row] for row in ys]

    def orientation_cases(c: int):
        copy = copies[c]
        if config.rotation:
            # clause literal is satisfied when the copy is in the *other*
            # orientation, so the body only binds in the named one
            return [(vm.rot(c), copy.width, copy.height), (-vm.rot(c), copy.height, copy.width)]
        return [(0, copy.width, copy.height)]

    def link_bodies(at_c: list[int], not_at_d: list[int], extent: int, limit: int):
        # x_d >= extent even when x_c = 0; a copy too long to fit leaves the
        # bare head, which forbids the relation outright
        bodies = [[not_at_d[extent - 1]]] if extent < limit else [[]]
        # x_c > e forces x_d > e + extent ...
        bodies += [[a, b] for a, b in zip(at_c, not_at_d[extent:])]
        # ... which past the last threshold is impossible
        if extent < limit:
            bodies.append([at_c[limit - extent - 1]])
        return bodies

    for c in range(n):
        for d in range(n):
            if c == d:
                continue
            if deadline is not None and time.perf_counter() >= deadline:
                raise TimeoutError("deadline passed while encoding")
            guards = list(zip(not_sheet[c], not_sheet[d]))
            for orient, ew, eh in orientation_cases(c):
                for rel, bodies in (
                    (vm.left(c, d), link_bodies(xs[c], not_xs[d], ew, width)),
                    (vm.below(c, d), link_bodies(ys[c], not_ys[d], eh, height)),
                ):
                    tail = [orient, -rel] if orient else [-rel]
                    heads = [[gc, gd] + tail for gc, gd in guards]
                    formula.add_block("link", heads, bodies)

    # every copy fits inside its sheet
    def domain_clause(selector: int, threshold, c: int, extent: int, limit: int):
        slack = limit - extent
        if slack >= limit - 1:
            return  # constant TRUE
        if slack < 0:
            if selector:
                formula.add("domain", [selector])
            else:
                raise ValueError("copy does not fit the sheet; instance validation missed it")
        else:
            lits = ([selector] if selector else []) + [threshold(c, slack)]
            formula.add("domain", lits)

    for c in range(n):
        copy = copies[c]
        if config.rotation:
            domain_clause(vm.rot(c), vm.x_at_most, c, copy.width, width)
            domain_clause(-vm.rot(c), vm.x_at_most, c, copy.height, width)
            domain_clause(vm.rot(c), vm.y_at_most, c, copy.height, height)
            domain_clause(-vm.rot(c), vm.y_at_most, c, copy.width, height)
        else:
            domain_clause(0, vm.x_at_most, c, copy.width, width)
            domain_clause(0, vm.y_at_most, c, copy.height, height)

    # usage indicators
    for c in range(n):
        for j in range(1, k + 1):
            formula.add("usage", [-vm.sheet(c, j), vm.used(j)])

    if config.symmetry_breaking:
        _encode_symmetry_breaking(copies, instance, config, vm, formula)
    return vm, formula


def _encode_symmetry_breaking(
    copies: tuple[Copy, ...],
    instance: Instance,
    config: EncodeConfig,
    vm: VarMap,
    formula: CnfFormula,
) -> None:
    n, k = vm.n, vm.sheets
    width, height = vm.width, vm.height
    permitted = [_permitted_orientations(c, instance, config) for c in copies]

    def extents(c: int) -> list[tuple[int, int]]:
        return [
            (copies[c].height, copies[c].width) if rot else (copies[c].width, copies[c].height)
            for rot in permitted[c]
        ]

    # oversized pairs can never sit side by side / stacked
    for c in range(n):
        for d in range(c + 1, n):
            if all(wc + wd > width for wc, _ in extents(c) for wd, _ in extents(d)):
                formula.add("sb_large", [-vm.left(c, d)])
                formula.add("sb_large", [-vm.left(d, c)])
            if all(hc + hd > height for _, hc in extents(c) for _, hd in extents(d)):
                formula.add("sb_large", [-vm.below(c, d)])
                formula.add("sb_large", [-vm.below(d, c)])

    # later copies of a type never go strictly left of earlier ones
    for c in range(n):
        for d in range(c + 1, n):
            if copies[c].type_index == copies[d].type_index:
                formula.add("sb_same_type", [-vm.left(d, c)])

    # pin the rotation flag when only one orientation is possible
    if config.rotation:
        for c in range(n):
            if permitted[c] == [False]:
                formula.add("sb_orientation", [-vm.rot(c)])
            elif permitted[c] == [True]:
                formula.add("sb_orientation", [vm.rot(c)])

    # sheets are brought into use in index order
    for j in range(1, k):
        formula.add("sb_sheet_order", [-vm.used(j + 1), vm.used(j)])


def decode_model(
    model: list[bool],
    vm: VarMap,
    copies: tuple[Copy, ...],
    instance: Instance,
    config: EncodeConfig,
) -> Solution:
    """Read a satisfying assignment back into placements."""
    placements = []
    for c, copy in enumerate(copies):
        sheets = [j for j in range(1, vm.sheets + 1) if model[vm.sheet(c, j)]]
        if len(sheets) != 1:
            raise RuntimeError(
                f"copy {copy.label()} assigned to {len(sheets)} sheets; encoder bug"
            )
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
        rotated = bool(config.rotation and model[vm.rot(c)])
        placements.append(Placement(copy, sheets[0], x, y, rotated))
    return Solution(instance, tuple(placements))
