"""Sheet-count window: area lower bound and a shelf-FFD upper bound witness."""

from __future__ import annotations

from dataclasses import dataclass

from .model import Copy, Instance, Placement, Solution, expand_demands, orientations


@dataclass(frozen=True)
class Bounds:
    lower: int
    upper: int
    ffd_solution: Solution


def area_lower_bound(instance: Instance) -> int:
    """ceil(total item area / sheet area), at least 1."""
    sheet_area = instance.sheet_width * instance.sheet_height
    return max(1, -(-instance.total_item_area // sheet_area))


class _Shelf:
    __slots__ = ("y", "height", "used_width")

    def __init__(self, y: int, height: int):
        self.y = y
        self.height = height
        self.used_width = 0


def ffd_solution(instance: Instance, rotation: bool) -> Solution:
    """First-fit decreasing over shelves.

    Copies are pre-rotated once if they only fit rotated, then sorted by
    non-increasing placed height (ties: non-increasing width, type index,
    ordinal).  Each copy goes to the first shelf with room, scanning sheets
    in opening order and shelves bottom-up; a sheet grows a new shelf at its
    used height when the copy still fits below the top; otherwise a new
    sheet is opened.
    """
    instance.validate(rotation)
    sheet_w, sheet_h = instance.sheet_width, instance.sheet_height

    items: list[tuple[Copy, bool, int, int]] = []
    for c in expand_demands(instance):
        rot = orientations(c.width, c.height, sheet_w, sheet_h, rotation)[0]
        items.append((c, rot, c.height, c.width) if rot else (c, rot, c.width, c.height))
    items.sort(key=lambda it: (-it[3], -it[2], it[0].type_index, it[0].ordinal))

    sheets: list[list[_Shelf]] = []
    placements: list[Placement] = []
    for c, rot, w, h in items:
        spot = None
        for sheet_no, shelves in enumerate(sheets, start=1):
            for shelf in shelves:
                if h <= shelf.height and shelf.used_width + w <= sheet_w:
                    spot = (sheet_no, shelf)
                    break
            if spot is None:
                used_height = sum(s.height for s in shelves)
                if used_height + h <= sheet_h:
                    shelf = _Shelf(used_height, h)
                    shelves.append(shelf)
                    spot = (sheet_no, shelf)
            if spot:
                break
        if spot is None:
            shelf = _Shelf(0, h)
            sheets.append([shelf])
            spot = (len(sheets), shelf)
        sheet_no, shelf = spot
        placements.append(Placement(c, sheet_no, shelf.used_width, shelf.y, rot))
        shelf.used_width += w

    placements.sort(key=lambda p: (p.copy.type_index, p.copy.ordinal))
    return Solution(instance, tuple(placements))


def compute_bounds(instance: Instance, rotation: bool) -> Bounds:
    witness = ffd_solution(instance, rotation)
    return Bounds(area_lower_bound(instance), witness.sheets_used, witness)
