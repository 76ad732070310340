"""Run an external SAT/MaxSAT solver on a problem file and parse its output.

The command template gets ``{input}`` substituted with the problem path
(appended as the last argument when the placeholder is absent).  The solver
is expected to follow the usual output conventions: an ``s`` status line
(SATISFIABLE / UNSATISFIABLE / OPTIMUM FOUND / UNKNOWN), ``v`` model lines
with signed literals or a 0/1 string.  Other lines, ``o`` cost lines
among them, are ignored.
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

from .engine import SAT, UNKNOWN, UNSAT


@dataclass
class ExternalResult:
    status: str
    model: list[bool] | None = None  # index 0 unused
    diagnostic: str = ""


VERDICTS = {"SATISFIABLE": SAT, "OPTIMUM FOUND": SAT, "UNSATISFIABLE": UNSAT}


def parse_solver_output(text: str, num_vars: int) -> ExternalResult:
    """Read a solver's ``s`` and ``v`` lines for a problem over num_vars
    variables.  A model has exactly num_vars + 1 entries.  Conflicting
    status lines, and a SAT verdict without a well-formed model, give
    UNKNOWN with a diagnostic."""
    verdicts = set()
    tokens: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("s "):
            verdicts.add(line[2:].strip().upper())
        elif line.startswith("v ") or line == "v":
            tokens.extend(line[1:].split())
    if len(verdicts) > 1:
        return ExternalResult(UNKNOWN, diagnostic=f"conflicting status lines {sorted(verdicts)}")
    verdict = verdicts.pop() if verdicts else "UNKNOWN"
    status = VERDICTS.get(verdict, UNKNOWN)
    if status != SAT:
        return ExternalResult(status)
    model, problem = _read_model(tokens, num_vars)
    if model is None:
        return ExternalResult(UNKNOWN, diagnostic=problem)
    return ExternalResult(SAT, model)


def _read_model(tokens: list[str], num_vars: int) -> tuple[list[bool] | None, str]:
    """The model that ``v`` tokens give, as either a string of num_vars bits
    or signed literals in 1..num_vars ended by 0; (None, why) otherwise."""
    if not tokens:
        return None, "SAT status without a model line"
    if tokens[-1] != "0":
        bits = "".join(tokens)
        if len(bits) == num_vars and set(bits) <= {"0", "1"}:
            return [False] + [b == "1" for b in bits], ""
        return None, f"model is neither {num_vars} bits nor literals ended by 0"
    values: dict[int, bool] = {}
    for tok in tokens[:-1]:
        try:
            lit = int(tok)
        except ValueError:
            return None, f"bad model token {tok!r}"
        if not 1 <= abs(lit) <= num_vars:
            return None, f"model literal {lit} outside 1..{num_vars}"
        if values.setdefault(abs(lit), lit > 0) != (lit > 0):
            return None, f"model sets variable {abs(lit)} both ways"
    model = [False] * (num_vars + 1)
    for var, value in values.items():
        model[var] = value
    return model, ""


def run_external(
    command: str, problem_path: str, num_vars: int, time_limit: float | None = None
) -> ExternalResult:
    """Run the solver on a problem over num_vars variables; any failure to
    run it or to read its answer is UNKNOWN with a diagnostic."""
    try:
        argv = shlex.split(command)
    except ValueError as exc:
        return ExternalResult(UNKNOWN, diagnostic=f"bad solver command {command!r}: {exc}")
    if "{input}" in command:
        argv = [a.replace("{input}", problem_path) for a in argv]
    else:
        argv.append(problem_path)
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
            # join refuses a wait past TIMEOUT_MAX (about 49 days), inf among them
            waiter.join(None if time_limit is None else min(time_limit, threading.TIMEOUT_MAX))
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
    result = parse_solver_output(stdout, num_vars)
    if result.status == UNKNOWN and not result.diagnostic:
        result.diagnostic = (
            f"no verdict in solver output (exit {proc.returncode}); "
            f"stderr: {stderr.strip()[:500]}"
        )
    return result

