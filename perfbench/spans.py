"""Spans and counters recorded from outside the program, around the calls
into each layer's public functions.

``Tracer.patched()`` swaps the names that ``cutstock.search`` looks up
(``compute_bounds``, ``encode_formula``, ``decode_model``,
``verify_solution``, ``format_wcnf``, ``run_external``) for timing
wrappers and puts them back on exit.  ``Tracer.engine()`` returns a
subclass of the selected engine, to pass as ``solve_instance(engine=...)``,
that times construction, ``add_clause`` and ``solve`` and keeps the
statistics of each solver.  Spans are ``(name, start, end, parent)``
tuples kept in memory; the benchmark writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import time

perf = time.perf_counter

# name looked up in cutstock.search -> span name
WRAPPED = {
    "compute_bounds": "bounds.ffd",
    "encode_formula": "encoding.encode",
    "decode_model": "encoding.decode",
    "verify_solution": "verify.check",
    "format_wcnf": "dimacs.wcnf",
    "run_external": "external.run",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []  # indices of open spans
        self._batch: list[float] | None = None  # [start, end] of pending load calls
        self._solvers: list = []
        self._largest = (0, 0)  # (clauses, vars) of the largest formula of a solve

    # -- spans ---------------------------------------------------------

    def _flush_load(self) -> None:
        if self._batch is not None:
            start, end = self._batch
            self._batch = None
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(("satcore.load", start, end, parent))

    def open(self, name: str) -> int:
        self._flush_load()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, perf(), 0.0, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._flush_load()
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, perf(), parent)
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _loaded(self, start: float, end: float) -> None:
        """One timed engine call that loads clauses; merged into one span."""
        self.add("satcore.load_s", end - start)
        if self._batch is None:
            self._batch = [start, end]
        else:
            self._batch[1] = end

    # -- wrappers --------------------------------------------------------

    @contextlib.contextmanager
    def patched(self):
        from cutstock import search

        saved = {name: getattr(search, name) for name in WRAPPED}
        try:
            for name, span_name in WRAPPED.items():
                setattr(search, name, self._wrap(saved[name], span_name))
            yield
        finally:
            for name, fn in saved.items():
                setattr(search, name, fn)

    def _wrap(self, fn, span_name: str):
        tracer = self

        def timed(*args, **kwargs):
            with tracer.span(span_name):
                result = fn(*args, **kwargs)
            tracer.observe(span_name, result)
            return result

        return timed

    def observe(self, span_name: str, result) -> None:
        if span_name == "encoding.encode":
            _, formula = result
            self.add("encoding.builds", 1)
            self.add("encoding.built_clauses", formula.num_clauses)
            self.add("encoding.link_clauses", formula.family_counts.get("link", 0))
            self._largest = max(self._largest, (formula.num_clauses, formula.num_vars))
        elif span_name == "dimacs.wcnf":
            self.add("dimacs.wcnf_mb", len(result) / 1e6)

    def engine(self, base):
        tracer = self

        class TracedSolver(base):
            def __init__(self, *args, **kwargs):
                start = perf()
                super().__init__(*args, **kwargs)
                tracer._loaded(start, perf())
                tracer._solvers.append(self)
                self.last_stats = None

            def add_clause(self, lits):
                start = perf()
                super().add_clause(lits)
                tracer._loaded(start, perf())

            def solve(self, *args, **kwargs):
                with tracer.span("satcore.solve"):
                    result = super().solve(*args, **kwargs)
                tracer.add("satcore.calls", 1)
                self.last_stats = result.stats
                return result

        return TracedSolver

    # -- one solve_instance call -----------------------------------------

    @contextlib.contextmanager
    def solve(self, strategy: str):
        """Root span around one solve_instance call."""
        self._largest = (0, 0)
        self._solvers = []
        with self.span(f"search.{strategy}"):
            yield
        clauses, num_vars = self._largest
        self.add("encoding.clauses", clauses)
        self.add("encoding.vars", num_vars)
        for solver in self._solvers:
            # engine statistics are cumulative over a solver's life
            for key in ("conflicts", "decisions", "propagations"):
                if solver.last_stats is not None:
                    self.add(f"satcore.{key}", solver.last_stats[key])

    # -- summaries -------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Total duration and self time per span name."""
        total: dict[str, float] = {}
        child: dict[int, float] = {}
        for name, start, end, parent in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        selfs: dict[str, float] = {}
        for idx, (name, start, end, parent) in enumerate(self.spans):
            selfs[name] = selfs.get(name, 0.0) + (end - start) - child.get(idx, 0.0)
        return {"total": total, "self": selfs}
