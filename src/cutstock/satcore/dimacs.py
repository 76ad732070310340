"""DIMACS CNF and classic weighted WCNF reading and writing.

CNF: ``p cnf VARS CLAUSES`` header, clauses as 0-terminated literal lines.
WCNF: ``p wcnf VARS CLAUSES TOP`` where TOP = 1 + sum of soft weights;
hard clauses carry weight TOP, soft clauses their own weight.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def _clause_texts(clauses, prefix: str) -> tuple[list[str], int]:
    """The clause lines, one newline-terminated chunk per block, and the
    number of clauses.  A line is prefix, literals, 0.

    ``clauses`` is a list of literal lists, or has ``blocks`` as a
    ``CnfFormula`` does: Blocks, whose heads and bodies stand for ``head +
    body`` for every head and body, head-major, with non-empty heads.  Each
    head and each body is formatted once per block, and no clause gets a
    string of its own; a plain list is one block whose heads are its
    clauses.
    """
    blocks = getattr(clauses, "blocks", None)
    if blocks is None:
        blocks = [(clauses, [[]])]
    chunks = []
    count = 0
    for heads, bodies, *_ in blocks:
        count += len(heads) * len(bodies)
        # "" first: joined by a head's start, the ends give that head's lines
        ends = ["", *["".join([f" {lit}" for lit in body]) + " 0\n" for body in bodies]]
        chunks.append("".join([(prefix + " ".join(map(str, head))).join(ends) for head in heads]))
    return chunks, count


def format_dimacs(num_vars: int, clauses) -> str:
    """CNF text for literal lists, or for a CnfFormula's blocks."""
    chunks, count = _clause_texts(clauses, "")
    return "".join([f"p cnf {num_vars} {count}\n", *chunks])


def format_wcnf(num_vars: int, hard, soft: Iterable[tuple[int, Sequence[int]]]) -> str:
    """WCNF text: hard clauses as literal lists or a CnfFormula's blocks,
    then (weight, literals) soft clauses."""
    soft = list(soft)
    top = 1 + sum(weight for weight, _ in soft)
    chunks, count = _clause_texts(hard, f"{top} ")
    chunks += [f"{weight} " + " ".join(map(str, clause)) + " 0\n" for weight, clause in soft]
    return "".join([f"p wcnf {num_vars} {count + len(soft)} {top}\n", *chunks])


class DimacsError(ValueError):
    pass


def parse_wcnf(text: str) -> tuple[int, int | None, list[list[int]], list[tuple[int, list[int]]]]:
    """Read a CNF or a WCNF, as its ``p`` line says: (num_vars, top, hard
    clauses, weighted soft clauses), where a CNF has top None and only hard
    clauses.  ``c`` lines are comments, and a ``%`` line ends the formula.
    Literals are not checked against num_vars; the engine refuses
    undeclared ones when they are loaded."""
    num_vars = top = None
    hard: list[list[int]] = []
    soft: list[tuple[int, list[int]]] = []
    for line in text.splitlines():
        toks = line.split()
        if not toks or toks[0].startswith("c"):
            continue
        kind = toks[0][0]
        if kind == "%":
            break
        try:
            nums = list(map(int, toks[2:] if kind == "p" else toks))
        except ValueError:
            raise DimacsError(f"non-integer token: {line.strip()!r}") from None
        if kind == "p":
            if num_vars is not None:
                raise DimacsError(f"second problem line: {line.strip()!r}")
            # how many numbers follow "p cnf" and "p wcnf"
            if {("p", "cnf"): 2, ("p", "wcnf"): 3}.get(tuple(toks[:2])) != len(nums):
                raise DimacsError(f"bad problem line: {line.strip()!r}")
            num_vars, top = nums[0], (nums[2] if len(nums) == 3 else None)
        elif num_vars is None:
            raise DimacsError(f"clause before the problem line: {line.strip()!r}")
        elif nums[-1] != 0 or (top is not None and len(nums) < 2):
            raise DimacsError(f"clause not 0-terminated: {line.strip()!r}")
        elif top is None:
            hard.append(nums[:-1])
        elif nums[0] >= top:
            hard.append(nums[1:-1])
        else:
            soft.append((nums[0], nums[1:-1]))
    if num_vars is None:
        raise DimacsError("missing 'p cnf' or 'p wcnf' problem line")
    return num_vars, top, hard, soft
