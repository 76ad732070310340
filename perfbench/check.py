"""Answer checker written apart from the program (it does not use
``cutstock.verify``): the optimum known by construction, a geometric
check of the packing, and the certificate behind an internal OPTIMAL."""

from __future__ import annotations


def area_bound(inst: dict) -> int:
    area = sum(w * h * d for w, h, d in inst["types"])
    sheet = inst["width"] * inst["height"]
    return max(1, -(-area // sheet))


def packing_problems(inst: dict, k: int, placements, rotation: bool) -> list[str]:
    """Every copy once, inside one of k sheets, no overlap, rotation only if allowed."""
    width, height = inst["width"], inst["height"]
    wanted = {(ti, o) for ti, (_, _, d) in enumerate(inst["types"]) for o in range(1, d + 1)}
    seen = set()
    problems = []
    by_sheet: dict[int, list[tuple[int, int, int, int]]] = {}
    for p in placements:
        key = (p.copy.type_index, p.copy.ordinal)
        if key not in wanted:
            problems.append(f"unknown copy {key}")
            continue
        if key in seen:
            problems.append(f"copy {key} placed twice")
        seen.add(key)
        w, h, _ = inst["types"][key[0]]
        if p.rotated:
            if not rotation:
                problems.append(f"copy {key} rotated with rotation off")
            w, h = h, w
        if not 1 <= p.sheet <= k:
            problems.append(f"copy {key} on sheet {p.sheet} of {k}")
        if p.x < 0 or p.y < 0 or p.x + w > width or p.y + h > height:
            problems.append(f"copy {key} leaves the sheet")
        by_sheet.setdefault(p.sheet, []).append((p.x, p.y, p.x + w, p.y + h))
    if wanted - seen:
        problems.append(f"{len(wanted - seen)} copies missing")
    for rects in by_sheet.values():
        for i, (ax0, ay0, ax1, ay1) in enumerate(rects):
            for bx0, by0, bx1, by1 in rects[i + 1:]:
                if ax0 < bx1 and bx0 < ax1 and ay0 < by1 and by0 < ay1:
                    problems.append("overlapping copies")
    return problems


def check(outcome, inst: dict, rotation: bool, internal: bool) -> list[str]:
    """Problems with one solve; an empty list means the solve passed."""
    if outcome.status != "OPTIMAL":
        return [f"status {outcome.status}"]
    k = outcome.best_k
    problems = []
    if k != inst["optimum"]:
        problems.append(f"best_k {k}, optimum {inst['optimum']}")
    if outcome.best_solution is None:
        return problems + ["no packing"]
    problems += packing_problems(inst, k, outcome.best_solution.placements, rotation)
    if internal and k != area_bound(inst):
        refuted = any(c.k == k - 1 and c.verdict == "UNSAT" for c in outcome.calls)
        if not refuted:
            problems.append(f"no certificate: no UNSAT call at k={k - 1}")
    return problems
