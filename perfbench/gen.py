"""Seeded cutting-stock instances whose optimum is known by construction.

Three constructions, all written without the package under test so the
inputs are the same on every commit:

* ``tiling``: k sheets are each cut into rectangles by random guillotine
  cuts, and the pieces become the demand.  The pieces fill k sheets
  exactly, so the optimum equals the area bound k.  A draw is kept only
  when some piece cannot sit in any perfectly filled shelf, a geometric
  property of the pieces alone; a shelf packing then wastes area, and
  every shelf heuristic (first-fit-decreasing included) needs more than k
  sheets, so reaching the optimum takes real search.
* ``oversized``: m copies of one type larger than half the sheet on both
  sides, so no two share a sheet and the optimum is at least m.  Each
  leftover L-shape is cut into filler, which shows m sheets suffice, and a
  fixed number of filler pieces is kept, with total area small enough to
  fit in m - 1 sheets.  The area bound is then below m, and certifying the
  optimum means refuting m - 1 sheets.
* ``corner_tiling``: a tiling on a sheet wider than it is high, in five
  large pieces per sheet, most of which cannot be turned, so the packing
  is easy to find even with rotation on.

Every instance is a dict with the sheet size, the item types as
``(w, h, demand)`` tuples, the optimum and the construction name.
"""

from __future__ import annotations

import random


def _guillotine(rng: random.Random, w: int, h: int, pieces: int, min_side: int):
    """Cut a w x h rectangle into up to ``pieces`` rectangles, sides >= min_side."""
    parts = [(w, h)]
    while len(parts) < pieces:
        cuttable = [
            i for i, (pw, ph) in enumerate(parts) if pw >= 2 * min_side or ph >= 2 * min_side
        ]
        if not cuttable:
            break
        i = max(cuttable, key=lambda j: (parts[j][0] * parts[j][1], j))
        pw, ph = parts.pop(i)
        axes = [a for a, side in (("x", pw), ("y", ph)) if side >= 2 * min_side]
        axis = rng.choice(axes)
        if axis == "x":
            cut = rng.randint(min_side, pw - min_side)
            parts += [(cut, ph), (pw - cut, ph)]
        else:
            cut = rng.randint(min_side, ph - min_side)
            parts += [(pw, cut), (pw, ph - cut)]
    return parts


def _types(pieces) -> list[tuple[int, int, int]]:
    """Group equal (w, h) pieces into item types, largest area first."""
    counts: dict[tuple[int, int], int] = {}
    for p in pieces:
        counts[p] = counts.get(p, 0) + 1
    order = sorted(counts, key=lambda p: (-p[0] * p[1], -p[0], -p[1]))
    return [(w, h, counts[(w, h)]) for w, h in order]


def _widths_reach(widths: list[int], target: int) -> bool:
    """True if some sub-multiset of ``widths`` sums to exactly ``target``."""
    reach = 1  # bit s set: sum s is reachable
    mask = (1 << (target + 1)) - 1
    for w in widths:
        reach = (reach | (reach << w)) & mask
    return bool(reach >> target & 1)


def shelf_wasteful(width: int, pieces) -> bool:
    """True if some piece fits in no perfectly filled shelf, in any orientation.

    A shelf of height s is perfectly filled when pieces of height exactly s
    span the full width.  Pieces may be turned, each copy at most once.
    """
    for idx, (pw, ph) in enumerate(pieces):
        fits_some_shelf = False
        for w, h in {(pw, ph), (ph, pw)}:
            if w > width:
                continue
            others = []
            for jdx, (qw, qh) in enumerate(pieces):
                if jdx == idx:
                    continue
                if qh == h:
                    others.append(qw)
                elif qw == h:
                    others.append(qh)
            if _widths_reach(others, width - w):
                fits_some_shelf = True
                break
        if not fits_some_shelf:
            return True
    return False


def tiling(rng: random.Random, width: int, height: int, sheets: int,
           pieces_per_sheet: int, min_side: int) -> dict:
    """Exact tiling of ``sheets`` sheets; optimum = area bound = sheets."""
    while True:
        pieces = []
        for _ in range(sheets):
            pieces += _guillotine(rng, width, height, pieces_per_sheet, min_side)
        if shelf_wasteful(width, pieces):
            break
    return {"width": width, "height": height, "types": _types(pieces),
            "optimum": sheets, "construction": "tiling"}


def oversized(rng: random.Random, side: int, big: int, copies: int,
              filler_per_sheet: int, kept: int, min_side: int) -> dict:
    """``copies`` big squares on a square sheet plus ``kept`` filler pieces.

    ``big`` must exceed half the side, so two big copies never share a
    sheet, in any orientation.
    """
    if 2 * big <= side:
        raise ValueError("big copies must exceed half the sheet")
    budget = (copies - 1) * side * side - copies * big * big
    while True:
        filler = []
        for _ in range(copies):
            # the L-shape beside a big copy in the corner: a full-height
            # strip to its right and the strip above it
            for sw, sh in ((side - big, side), (big, side - big)):
                filler += _guillotine(rng, sw, sh, filler_per_sheet // 2, min_side)
        rng.shuffle(filler)
        chosen = []
        area = 0
        for w, h in filler:
            if len(chosen) < kept and area + w * h <= budget:
                chosen.append((w, h))
                area += w * h
        if len(chosen) == kept:
            break
    pieces = [(big, big)] * copies + chosen
    return {"width": side, "height": side, "types": _types(pieces),
            "optimum": copies, "construction": "oversized"}


def corner_tiling(rng: random.Random, width: int, height: int, sheets: int,
                  min_side: int) -> dict:
    """Exact tiling of ``sheets`` sheets, each cut into five pieces.

    On each sheet, a corner piece is wider than both half the width and the
    whole height, so it can never be turned, and taller than half the
    height; the L-shaped rest is two strips, each cut once more.  Only the
    pieces of the strip beside the corner piece can be turned.
    """
    if width <= height:
        raise ValueError("corner tilings need a sheet wider than it is high")
    while True:
        pieces = []
        for _ in range(sheets):
            a = rng.randint(max(width // 2, height) + 1, width - min_side)
            b = rng.randint(height // 2 + 1, height - min_side)
            pieces.append((a, b))
            pieces += _guillotine(rng, width - a, height, 2, min_side)
            pieces += _guillotine(rng, a, height - b, 2, min_side)
        if shelf_wasteful(width, pieces):
            break
    return {"width": width, "height": height, "types": _types(pieces),
            "optimum": sheets, "construction": "tiling"}


def instance_text(inst: dict) -> str:
    lines = [f"{inst['width']} {inst['height']}", str(len(inst["types"]))]
    lines += [f"{w} {h} {d}" for w, h, d in inst["types"]]
    return "\n".join(lines) + "\n"
