"""DIMACS CNF and classic weighted WCNF reading and writing.

CNF: ``p cnf VARS CLAUSES`` header, clauses as 0-terminated literal lines.
WCNF: ``p wcnf VARS CLAUSES TOP`` where TOP = 1 + sum of soft weights;
hard clauses carry weight TOP, soft clauses their own weight.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def _clause_texts(clauses, prefix: str) -> list[str]:
    """One line per clause: prefix, literals, 0.

    ``clauses`` is a list of literal lists, or has ``blocks`` as a
    ``CnfFormula`` does: ``(heads, bodies)`` pairs standing for ``head +
    body`` for every head and body, head-major, with non-empty heads.  Each
    head and each body is formatted once per block; a plain list is one
    block whose heads are its clauses.
    """
    blocks = getattr(clauses, "blocks", None)
    if blocks is None:
        blocks = [(clauses, [[]])]
    lines = []
    for heads, bodies in blocks:
        ends = ["".join([f" {lit}" for lit in body]) + " 0" for body in bodies]
        for head in heads:
            start = prefix + " ".join(map(str, head))
            lines += [start + end for end in ends]
    return lines


def format_dimacs(num_vars: int, clauses) -> str:
    """CNF text for literal lists, or for a CnfFormula's blocks."""
    lines = _clause_texts(clauses, "")
    return "\n".join([f"p cnf {num_vars} {len(lines)}", *lines]) + "\n"


def format_wcnf(num_vars: int, hard, soft: Iterable[tuple[int, Sequence[int]]]) -> str:
    """WCNF text: hard clauses as literal lists or a CnfFormula's blocks,
    then (weight, literals) soft clauses."""
    soft = list(soft)
    top = 1 + sum(weight for weight, _ in soft)
    lines = _clause_texts(hard, f"{top} ")
    lines += [f"{weight} " + " ".join(map(str, clause)) + " 0" for weight, clause in soft]
    return "\n".join([f"p wcnf {num_vars} {len(lines)} {top}", *lines]) + "\n"


class DimacsError(ValueError):
    pass


def _clause_lines(text: str):
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("c", "%")):
            continue
        yield line


def parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    num_vars = None
    clauses: list[list[int]] = []
    for line in _clause_lines(text):
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"bad problem line: {line!r}")
            num_vars = int(parts[2])
            continue
        lits = [int(t) for t in line.split()]
        if not lits or lits[-1] != 0:
            raise DimacsError(f"clause not 0-terminated: {line!r}")
        clauses.append(lits[:-1])
    if num_vars is None:
        raise DimacsError("missing 'p cnf' header")
    return num_vars, clauses


def parse_wcnf(text: str) -> tuple[int, int, list[list[int]], list[tuple[int, list[int]]]]:
    """Returns (num_vars, top, hard clauses, weighted soft clauses)."""
    num_vars = top = None
    hard: list[list[int]] = []
    soft: list[tuple[int, list[int]]] = []
    for line in _clause_lines(text):
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 5 or parts[1] != "wcnf":
                raise DimacsError(f"bad problem line: {line!r}")
            num_vars, top = int(parts[2]), int(parts[4])
            continue
        if top is None:
            raise DimacsError("clause before 'p wcnf' header")
        toks = [int(t) for t in line.split()]
        if len(toks) < 2 or toks[-1] != 0:
            raise DimacsError(f"clause not 0-terminated: {line!r}")
        weight, lits = toks[0], toks[1:-1]
        if weight >= top:
            hard.append(lits)
        else:
            soft.append((weight, lits))
    if num_vars is None:
        raise DimacsError("missing 'p wcnf' header")
    return num_vars, top, hard, soft
