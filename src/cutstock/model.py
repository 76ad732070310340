"""Problem data: instances, demand-expanded copies, placements, solutions.

Instance files are plain text::

    # optional comment lines start with '#'
    W H
    n
    w h d        (one line per item type)

Solution files::

    k N
    type_index copy_ordinal sheet x y rotated     (one line per copy)

where ``type_index`` is 0-based, ``copy_ordinal`` and ``sheet`` are 1-based
and ``rotated`` is 0 or 1.  All values are decimal integers.

The records (``ItemType``, ``Instance``, ``Copy``, ``Placement``,
``Solution``) are immutable named tuples, so parsing an instance loads
neither ``dataclasses`` nor ``inspect``.  Keyword construction, defaults,
``repr``, pickling and field-wise equality are what frozen dataclasses gave,
with three deliberate differences: a record is iterable, it compares equal
to a plain tuple of the same fields, and records order like tuples.
``ItemType`` and ``Instance`` refuse a non-int or non-positive dimension or
demand with InstanceError, also through ``_replace``.  An ``Instance``'s
``name`` takes no part in equality or the hash, so an ``Instance`` equals
the plain tuple of its first three fields.
"""

from __future__ import annotations

from collections import namedtuple


class InstanceError(ValueError):
    """Invalid instance text or instance data; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SolutionError(ValueError):
    """Invalid solution text or a placement that violates basic constraints."""


def orientations(
    width: int, height: int, sheet_w: int, sheet_h: int, rotation: bool
) -> list[bool]:
    """The orientations (rotated?) a width x height rectangle may take on the
    sheet, after the elimination of infeasible orientations: those it fits
    in, rotated only when rotation is allowed and changes the shape, so a
    square is never rotated."""
    plain = width <= sheet_w and height <= sheet_h
    turned = rotation and width != height and height <= sheet_w and width <= sheet_h
    return [rot for rot, ok in ((False, plain), (True, turned)) if ok]


def _check_ints(**values) -> None:
    """InstanceError naming the first value whose type is not int (a bool is
    not an int here)."""
    for what, value in values.items():
        if type(value) is not int:
            raise InstanceError(f"non-int {what} {value!r}")


class ItemType(namedtuple("ItemType", "width height demand")):
    __slots__ = ()

    def __new__(cls, width: int, height: int, demand: int):
        _check_ints(width=width, height=height, demand=demand)
        if width < 1 or height < 1:
            raise InstanceError(f"non-positive item dimensions {width}x{height}")
        if demand < 1:
            raise InstanceError(f"non-positive demand {demand}")
        return super().__new__(cls, width, height, demand)

    @classmethod
    def _make(cls, iterable):  # so _replace checks too
        return cls(*iterable)

    @property
    def area(self) -> int:
        return self.width * self.height

    def fits(self, sheet_w: int, sheet_h: int, rotation: bool) -> bool:
        """True if the item fits the sheet in some permitted orientation."""
        return bool(orientations(self.width, self.height, sheet_w, sheet_h, rotation))


class Instance(namedtuple("Instance", "sheet_width sheet_height types name")):
    """A sheet size and item types.  ``name`` is a label only: equality and
    the hash look at the first three fields."""

    __slots__ = ()

    def __new__(cls, sheet_width: int, sheet_height: int, types: tuple[ItemType, ...],
                name: str = "instance"):
        _check_ints(sheet_width=sheet_width, sheet_height=sheet_height)
        if sheet_width < 1 or sheet_height < 1:
            raise InstanceError(f"non-positive sheet size {sheet_width}x{sheet_height}")
        if not types:
            raise InstanceError("instance has no item types")
        return super().__new__(cls, sheet_width, sheet_height, types, name)

    @classmethod
    def _make(cls, iterable):  # so _replace checks too
        return cls(*iterable)

    def __eq__(self, other):
        return self[:3] == (other[:3] if isinstance(other, Instance) else other)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:3])

    @property
    def total_item_area(self) -> int:
        return sum(t.area * t.demand for t in self.types)

    def validate(self, rotation: bool) -> None:
        """Check that every type fits the sheet under the given rotation mode."""
        for i, t in enumerate(self.types):
            if not t.fits(self.sheet_width, self.sheet_height, rotation):
                mode = "in any orientation" if rotation else "unrotated"
                raise InstanceError(
                    f"item type {i} ({t.width}x{t.height}) does not fit the "
                    f"{self.sheet_width}x{self.sheet_height} sheet {mode}"
                )


class Copy(namedtuple("Copy", "type_index ordinal width height")):
    """One demanded unit of an item type; ordinals run 1..demand per type."""

    __slots__ = ()

    @property
    def area(self) -> int:
        return self.width * self.height

    def label(self) -> str:
        return f"c{self.type_index + 1},{self.ordinal}"


class Placement(namedtuple("Placement", "copy sheet x y rotated", defaults=(False,))):
    __slots__ = ()

    @property
    def placed_width(self) -> int:
        return self.copy.height if self.rotated else self.copy.width

    @property
    def placed_height(self) -> int:
        return self.copy.width if self.rotated else self.copy.height


class Solution(namedtuple("Solution", "instance placements")):
    __slots__ = ()

    @property
    def sheets_used(self) -> int:
        return max(p.sheet for p in self.placements)

    def placements_on(self, sheet: int) -> list[Placement]:
        return [p for p in self.placements if p.sheet == sheet]


def _rows(text: str) -> list[tuple[int, list[str]]]:
    """(1-based line number, fields) of each line that is neither blank nor
    a '#' comment."""
    return [
        (no, line.split())
        for no, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]


def parse_instance(text: str, name: str = "instance", rotation: bool = True) -> Instance:
    """Parse and validate instance text; raises InstanceError with line numbers."""
    fields = _rows(text)

    def ints(entry: tuple[int, list[str]], expect: int, what: str) -> list[int]:
        no, toks = entry
        if len(toks) != expect:
            raise InstanceError(f"expected {expect} fields for {what}, got {len(toks)}", no)
        try:
            return [int(t) for t in toks]
        except ValueError:
            raise InstanceError(f"non-integer value in {what}", no) from None

    if not fields:
        raise InstanceError("empty instance file")
    w, h = ints(fields[0], 2, "sheet size")
    if w < 1 or h < 1:
        raise InstanceError(f"non-positive sheet size {w}x{h}", fields[0][0])
    if len(fields) < 2:
        raise InstanceError("missing type count", fields[0][0])
    (count,) = ints(fields[1], 1, "type count")
    if count < 1:
        raise InstanceError("type count must be positive", fields[1][0])
    if len(fields) != 2 + count:
        raise InstanceError(
            f"expected {count} type lines, found {len(fields) - 2}", fields[-1][0]
        )

    types = []
    for entry in fields[2 : 2 + count]:
        tw, th, td = ints(entry, 3, "item type")
        try:
            types.append(ItemType(tw, th, td))
        except InstanceError as exc:
            raise InstanceError(str(exc), entry[0]) from None

    instance = Instance(w, h, tuple(types), name=name)
    instance.validate(rotation)
    return instance


def format_instance(instance: Instance) -> str:
    """Canonical text form; parse_instance(format_instance(i)) == i."""
    out = [f"{instance.sheet_width} {instance.sheet_height}", str(len(instance.types))]
    out += [f"{t.width} {t.height} {t.demand}" for t in instance.types]
    return "\n".join(out) + "\n"


def expand_demands(instance: Instance) -> tuple[Copy, ...]:
    """Type-major copy list: all copies of type 0 first, ordinals ascending."""
    copies = []
    for ti, t in enumerate(instance.types):
        for ordinal in range(1, t.demand + 1):
            copies.append(Copy(ti, ordinal, t.width, t.height))
    return tuple(copies)


def write_solution(solution: Solution) -> str:
    lines = [f"{solution.sheets_used} {len(solution.placements)}"]
    for p in solution.placements:
        lines.append(
            f"{p.copy.type_index} {p.copy.ordinal} {p.sheet} {p.x} {p.y} "
            f"{1 if p.rotated else 0}"
        )
    return "\n".join(lines) + "\n"


def read_solution(text: str, instance: Instance) -> Solution:
    """Parse a solution file, rejecting structurally invalid placements.

    Checks: every copy appears exactly once, sheet indices are >= 1,
    coordinates are non-negative and each rectangle lies inside the sheet.
    Overlap and rotation legality are the verifier's business.
    """
    rows = _rows(text)
    if not rows:
        raise SolutionError("empty solution file")

    def ints(entry, expect, what):
        no, toks = entry
        if len(toks) != expect:
            raise SolutionError(f"line {no}: expected {expect} fields for {what}")
        try:
            return [int(t) for t in toks]
        except ValueError:
            raise SolutionError(f"line {no}: non-integer value in {what}") from None

    k, n = ints(rows[0], 2, "header")
    copies = expand_demands(instance)
    if n != len(copies):
        raise SolutionError(f"header says {n} placements, instance needs {len(copies)}")
    if len(rows) != 1 + n:
        raise SolutionError(f"expected {n} placement lines, found {len(rows) - 1}")

    by_key = {(c.type_index, c.ordinal): c for c in copies}
    seen: set[tuple[int, int]] = set()
    placements = []
    w_sheet, h_sheet = instance.sheet_width, instance.sheet_height
    for entry in rows[1:]:
        ti, ordinal, sheet, x, y, rot = ints(entry, 6, "placement")
        key = (ti, ordinal)
        if key not in by_key:
            raise SolutionError(f"line {entry[0]}: unknown copy type={ti} ordinal={ordinal}")
        if key in seen:
            raise SolutionError(f"line {entry[0]}: duplicate copy type={ti} ordinal={ordinal}")
        seen.add(key)
        if rot not in (0, 1):
            raise SolutionError(f"line {entry[0]}: rotated flag must be 0 or 1")
        if sheet < 1:
            raise SolutionError(f"line {entry[0]}: sheet index must be >= 1")
        p = Placement(by_key[key], sheet, x, y, bool(rot))
        if x < 0 or y < 0 or x + p.placed_width > w_sheet or y + p.placed_height > h_sheet:
            raise SolutionError(
                f"line {entry[0]}: placement exceeds the {w_sheet}x{h_sheet} sheet"
            )
        placements.append(p)

    solution = Solution(instance, tuple(placements))
    if solution.sheets_used != k:
        raise SolutionError(
            f"header says {k} sheets, placements reference up to {solution.sheets_used}"
        )
    return solution


def relabel_sheets(solution: Solution) -> Solution:
    """Compact sheet indices to 1..u preserving their relative order."""
    used = sorted({p.sheet for p in solution.placements})
    if used == list(range(1, len(used) + 1)):
        return solution
    remap = {old: new for new, old in enumerate(used, start=1)}
    placements = tuple(
        Placement(p.copy, remap[p.sheet], p.x, p.y, p.rotated) for p in solution.placements
    )
    return Solution(solution.instance, placements)
