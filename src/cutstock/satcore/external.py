"""Run an external SAT/MaxSAT solver on a problem file and parse its output.

The command template gets ``{input}`` substituted with the problem path
(appended as the last argument when the placeholder is absent).  The solver
is expected to follow the usual output conventions: an ``s`` status line
(SATISFIABLE / UNSATISFIABLE / OPTIMUM FOUND / UNKNOWN), ``v`` model lines
with signed literals or a 0/1 string, and optional ``o`` cost lines.
"""

from __future__ import annotations

import contextlib
import os
import shlex
import signal
import subprocess
import tempfile
import threading
from dataclasses import dataclass

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"


@dataclass
class ExternalResult:
    status: str
    optimal: bool = False
    model: list[bool] | None = None  # index 0 unused
    cost: int | None = None
    diagnostic: str = ""


def parse_solver_output(text: str) -> ExternalResult:
    status = UNKNOWN
    optimal = False
    cost = None
    value_tokens: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("s "):
            tail = line[2:].strip().upper()
            if tail == "SATISFIABLE":
                status = SAT
            elif tail == "UNSATISFIABLE":
                status = UNSAT
            elif tail == "OPTIMUM FOUND":
                status, optimal = SAT, True
            else:
                status = UNKNOWN
        elif line.startswith("o "):
            try:
                cost = int(line[2:].strip())
            except ValueError:
                pass
        elif line.startswith("v ") or line == "v":
            value_tokens.extend(line[2:].split())

    model = None
    if status == SAT and value_tokens:
        if all(set(tok) <= {"0", "1"} for tok in value_tokens):
            bits = "".join(value_tokens)
            model = [False] + [b == "1" for b in bits]
        else:
            lits = []
            for tok in value_tokens:
                try:
                    lits.append(int(tok))
                except ValueError:
                    return ExternalResult(UNKNOWN, diagnostic=f"bad model token {tok!r}")
            lits = [l for l in lits if l != 0]
            size = max((abs(l) for l in lits), default=0)
            model = [False] * (size + 1)
            for l in lits:
                model[abs(l)] = l > 0
    if status == SAT and model is None:
        return ExternalResult(UNKNOWN, diagnostic="SAT status without a model line")
    return ExternalResult(status, optimal, model, cost)


def run_external(
    command: str, problem_path: str, time_limit: float | None = None
) -> ExternalResult:
    if "{input}" in command:
        argv = [a.replace("{input}", problem_path) for a in shlex.split(command)]
    else:
        argv = shlex.split(command) + [problem_path]
    # Output goes to files, not pipes: a child the solver leaves behind would
    # keep a pipe open, and reading it would wait for that child, not the solver.
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        try:
            # its own session, so that everything it started can be ended
            proc = subprocess.Popen(argv, stdout=out, stderr=err, start_new_session=True)
        except OSError as exc:
            return ExternalResult(UNKNOWN, diagnostic=f"failed to run {argv[0]}: {exc}")
        # a blocking wait in a thread sees the exit at once; wait(timeout=...) polls
        waiter = threading.Thread(target=proc.wait, daemon=True)
        waiter.start()
        try:
            waiter.join(time_limit)
            if waiter.is_alive():
                return ExternalResult(UNKNOWN, diagnostic=f"timeout after {time_limit}s")
        finally:
            # end whatever is left of its process group, then reap the solver
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode(errors="replace")
        stderr = err.read().decode(errors="replace")
    result = parse_solver_output(stdout)
    if result.status == UNKNOWN and not result.diagnostic:
        result.diagnostic = (
            f"no verdict in solver output (exit {proc.returncode}); "
            f"stderr: {stderr.strip()[:500]}"
        )
    return result

