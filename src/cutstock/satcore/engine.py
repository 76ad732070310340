"""Pure-Python incremental CDCL solver.

Clauses use DIMACS conventions: variables are positive integers, a literal
is +v or -v.  The solver supports solving under assumptions; conflict
clauses learned during one call stay in the database for later calls,
whatever the verdict was.

Search machinery: two watched literals with blockers, first-UIP learning
with basic reason-side minimisation, activity-driven branching (exponential
decay, indexed max-heap), phase saving, Luby restarts and LBD-based
reduction of the learned-clause database.  Everything is deterministic.

``add_clause`` checks every clause it is given: literals must name declared
variables, and tautologies, repeated and top-level-false literals are
dropped, so the engine never relies on the encoder's own clause checks.
The hot loops (``add_clause``, ``_propagate``, the heap) write out the small
helpers ``_lit_value``, ``_attach``, ``_enqueue`` and ``_widx`` inline;
the helpers remain for the colder paths.

This module is the reference implementation.  ``cutstock.satcore._engine``
is its line-for-line C++ transliteration (``_engine.cpp``), with the same
interface, verdicts, models and statistics; it is preferred at import time
when it has been built.
"""

from __future__ import annotations

import time

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"

_UNDEF = -1
_NO_REASON = -1


class SolveResult:
    """Verdict of one solve call; ``model[v]`` is the value of variable v."""

    __slots__ = ("status", "model", "stats")

    def __init__(self, status: str, model: list[bool] | None, stats: dict):
        self.status = status
        self.model = model
        self.stats = stats

    def __repr__(self):
        return f"SolveResult({self.status})"


def _luby(i: int) -> int:
    """i-th element (0-based) of the Luby restart sequence 1,1,2,1,1,2,4,..."""
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) // 2
        seq -= 1
        i %= size
    return 1 << seq


class Solver:
    """Incremental CDCL solver over a fixed growable variable range."""

    def __init__(self, num_vars: int = 0):
        self._nvars = 0
        self._ok = True
        # per-variable state, slot 0 unused
        self._assign = [_UNDEF]
        self._level = [0]
        self._reason = [_NO_REASON]
        self._activity = [0.0]
        self._phase = [0]
        self._seen = [0]
        # per-literal watch lists, flat (cref, blocker) pairs; index 2v / 2v+1
        self._watches: list[list[int]] = [[], []]
        # clause arena: list of literal lists, None = deleted
        self._clauses: list[list[int] | None] = []
        self._live = 0  # clauses in the arena that are not deleted
        self._lbd: list[int] = []  # -1 for problem clauses
        self._learnt_refs: list[int] = []
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        # indexed max-heap over variable activity
        self._heap: list[int] = []
        self._heap_pos: list[int] = [-1]
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._max_learnts = 4000.0
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.learned = 0
        if num_vars:
            self.add_vars(num_vars)

    # ------------------------------------------------------------------
    # variables and clauses

    @property
    def num_vars(self) -> int:
        return self._nvars

    def add_vars(self, count: int) -> int:
        """Declare ``count`` new variables; returns the first new index."""
        first = self._nvars + 1
        count = max(count, 0)
        self._nvars += count
        self._assign += [_UNDEF] * count
        self._level += [0] * count
        self._reason += [_NO_REASON] * count
        self._activity += [0.0] * count
        self._phase += [0] * count
        self._seen += [0] * count
        self._watches += [[] for _ in range(2 * count)]
        # activities are never negative, so a new variable (activity 0, the
        # highest index) belongs at the end of the heap without sifting
        self._heap_pos += range(len(self._heap), len(self._heap) + count)
        self._heap += range(first, first + count)
        return first

    def _lit_value(self, lit: int) -> int:
        """1 true, 0 false, -1 unassigned."""
        a = self._assign[lit if lit > 0 else -lit]
        if a < 0:
            return a
        return a if lit > 0 else a ^ 1

    def add_clause(self, lits) -> None:
        """Add a problem clause; must be called with no assumptions active."""
        if not self._ok:
            return
        nvars = self._nvars
        assign = self._assign
        out = []
        seen = set()
        for lit in lits:
            v = lit if lit > 0 else -lit
            if v < 1 or v > nvars:
                raise ValueError(f"literal {lit} outside declared variables 1..{nvars}")
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            a = assign[v]
            if a >= 0:
                if (a if lit > 0 else a ^ 1) == 1:
                    return  # satisfied at top level
                continue  # falsified at top level
            seen.add(lit)
            out.append(lit)
        if not out:
            self._ok = False
            return
        if len(out) == 1:
            self._enqueue(out[0], _NO_REASON)
            if self._propagate() != _NO_REASON:
                self._ok = False
            return
        clauses = self._clauses
        cref = len(clauses)
        clauses.append(out)
        self._lbd.append(-1)
        self._live += 1
        a, b = out[0], out[1]
        watches = self._watches
        watches[(a << 1) if a > 0 else ((-a) << 1) | 1].extend((cref, b))
        watches[(b << 1) if b > 0 else ((-b) << 1) | 1].extend((cref, a))

    def _attach(self, cref: int, c: list[int]) -> None:
        a, b = c[0], c[1]
        self._watches[self._widx(a)].extend((cref, b))
        self._watches[self._widx(b)].extend((cref, a))

    @staticmethod
    def _widx(lit: int) -> int:
        """Watch-list index of a literal: 2v for +v, 2v+1 for -v."""
        return (lit << 1) if lit > 0 else ((-lit) << 1) | 1

    # ------------------------------------------------------------------
    # activity heap (max-heap keyed by activity, ties to smaller variable;
    # the order test is written out in _heap_up and _heap_down)

    def _heap_insert(self, v: int) -> None:
        if self._heap_pos[v] >= 0:
            return
        self._heap.append(v)
        self._heap_pos[v] = len(self._heap) - 1
        self._heap_up(len(self._heap) - 1)

    def _heap_up(self, i: int) -> None:
        heap, pos, activity = self._heap, self._heap_pos, self._activity
        v = heap[i]
        av = activity[v]
        while i > 0:
            parent = (i - 1) >> 1
            p = heap[parent]
            ap = activity[p]
            if not (av > ap or (av == ap and v < p)):
                break
            heap[i] = p
            pos[p] = i
            i = parent
        heap[i] = v
        pos[v] = i

    def _heap_down(self, i: int) -> None:
        heap, pos, activity = self._heap, self._heap_pos, self._activity
        v = heap[i]
        av = activity[v]
        n = len(heap)
        while True:
            child = 2 * i + 1
            if child >= n:
                break
            c = heap[child]
            ac = activity[c]
            right = child + 1
            if right < n:
                r = heap[right]
                ar = activity[r]
                if ar > ac or (ar == ac and r < c):
                    child, c, ac = right, r, ar
            if not (ac > av or (ac == av and c < v)):
                break
            heap[i] = c
            pos[c] = i
            i = child
        heap[i] = v
        pos[v] = i

    def _heap_pop(self) -> int:
        heap, pos = self._heap, self._heap_pos
        top = heap[0]
        last = heap.pop()
        pos[top] = -1
        if heap:
            heap[0] = last
            pos[last] = 0
            self._heap_down(0)
        return top

    def _bump(self, v: int) -> None:
        self._activity[v] += self._var_inc
        if self._activity[v] > 1e100:
            for u in range(1, self._nvars + 1):
                self._activity[u] *= 1e-100
            self._var_inc *= 1e-100
        if self._heap_pos[v] >= 0:
            self._heap_up(self._heap_pos[v])

    # ------------------------------------------------------------------
    # trail

    def _enqueue(self, lit: int, reason: int) -> None:
        v = lit if lit > 0 else -lit
        self._assign[v] = 1 if lit > 0 else 0
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._trail.append(lit)

    def _new_level(self) -> None:
        self._trail_lim.append(len(self._trail))

    def _cancel_until(self, lvl: int) -> None:
        if len(self._trail_lim) <= lvl:
            return
        bound = self._trail_lim[lvl]
        for i in range(len(self._trail) - 1, bound - 1, -1):
            lit = self._trail[i]
            v = lit if lit > 0 else -lit
            self._phase[v] = self._assign[v]
            self._assign[v] = _UNDEF
            self._reason[v] = _NO_REASON
            if self._heap_pos[v] < 0:
                self._heap_insert(v)
        del self._trail[bound:]
        del self._trail_lim[lvl:]
        self._qhead = len(self._trail)

    # ------------------------------------------------------------------
    # propagation

    def _propagate(self) -> int:
        """Unit propagation; returns a conflicting cref or _NO_REASON."""
        clauses = self._clauses
        assign = self._assign
        level = self._level
        reason = self._reason
        watches = self._watches
        trail = self._trail
        lvl = len(self._trail_lim)
        qhead = self._qhead
        props = 0
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            props += 1
            false_lit = -p
            wl = watches[(p << 1) | 1 if p > 0 else (-p) << 1]
            i = j = 0
            n = len(wl)
            while i < n:
                cref = wl[i]
                blocker = wl[i + 1]
                i += 2
                bv = assign[blocker if blocker > 0 else -blocker]
                if bv >= 0 and (bv if blocker > 0 else bv ^ 1) == 1:
                    wl[j] = cref
                    wl[j + 1] = blocker
                    j += 2
                    continue
                c = clauses[cref]
                if c is None:
                    continue
                if c[0] == false_lit:
                    c[0] = c[1]
                    c[1] = false_lit
                first = c[0]
                fv = assign[first if first > 0 else -first]
                if first != blocker and fv >= 0 and (fv if first > 0 else fv ^ 1) == 1:
                    wl[j] = cref
                    wl[j + 1] = first
                    j += 2
                    continue
                for k in range(2, len(c)):
                    lk = c[k]
                    kv = assign[lk if lk > 0 else -lk]
                    if kv < 0 or (kv if lk > 0 else kv ^ 1) == 1:
                        c[1] = lk
                        c[k] = false_lit
                        watches[(lk << 1) if lk > 0 else ((-lk) << 1) | 1].extend((cref, first))
                        break
                else:
                    wl[j] = cref
                    wl[j + 1] = first
                    j += 2
                    if fv >= 0:  # first is not true here, so it is false: conflict
                        del wl[j:i]  # keep the rest of the list
                        self._qhead = len(trail)
                        self.propagations += props
                        return cref
                    v = first if first > 0 else -first
                    assign[v] = 1 if first > 0 else 0
                    level[v] = lvl
                    reason[v] = cref
                    trail.append(first)
            del wl[j:]
        self._qhead = qhead
        self.propagations += props
        return _NO_REASON

    # ------------------------------------------------------------------
    # conflict analysis

    def _analyze(self, confl: int) -> tuple[list[int], int, int]:
        """First-UIP learning; returns (learnt, backjump level, lbd)."""
        learnt = [0]
        seen = self._seen
        level = self._level
        trail = self._trail
        cur_level = len(self._trail_lim)
        path = 0
        p = 0
        index = len(trail) - 1
        to_clear = []
        while True:
            c = self._clauses[confl]
            start = 0 if p == 0 else 1
            for k in range(start, len(c)):
                q = c[k]
                v = q if q > 0 else -q
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    to_clear.append(v)
                    self._bump(v)
                    if level[v] >= cur_level:
                        path += 1
                    else:
                        learnt.append(q)
            while True:
                lit = trail[index]
                v = lit if lit > 0 else -lit
                if seen[v]:
                    break
                index -= 1
            p = trail[index]
            index -= 1
            v = p if p > 0 else -p
            confl = self._reason[v]
            seen[v] = 0
            path -= 1
            if path == 0:
                break
        learnt[0] = -p

        # drop literals whose whole reason is already in the clause
        kept = [learnt[0]]
        for q in learnt[1:]:
            v = q if q > 0 else -q
            r = self._reason[v]
            if r == _NO_REASON:
                kept.append(q)
                continue
            rc = self._clauses[r]
            for other in rc[1:]:
                ov = other if other > 0 else -other
                if not seen[ov] and level[ov] > 0:
                    kept.append(q)
                    break
        learnt = kept

        for v in to_clear:
            seen[v] = 0

        if len(learnt) == 1:
            bt = 0
        else:
            best = 1
            for k in range(2, len(learnt)):
                lv = learnt[k] if learnt[k] > 0 else -learnt[k]
                bv = learnt[best] if learnt[best] > 0 else -learnt[best]
                if level[lv] > level[bv]:
                    best = k
            learnt[1], learnt[best] = learnt[best], learnt[1]
            bv = learnt[1] if learnt[1] > 0 else -learnt[1]
            bt = level[bv]
        levels = {level[q if q > 0 else -q] for q in learnt}
        return learnt, bt, len(levels)

    # ------------------------------------------------------------------
    # learned-clause database reduction

    def _locked(self, cref: int, c: list[int]) -> bool:
        head = c[0]
        v = head if head > 0 else -head
        return self._assign[v] != _UNDEF and self._reason[v] == cref

    def _reduce_db(self) -> None:
        live = [r for r in self._learnt_refs if self._clauses[r] is not None]
        live.sort(key=lambda r: (self._lbd[r], len(self._clauses[r])))
        cut = len(live) // 2
        for r in live[cut:]:
            c = self._clauses[r]
            if self._lbd[r] <= 2 or len(c) <= 2 or self._locked(r, c):
                continue
            self._clauses[r] = None
            self._live -= 1
        self._learnt_refs = [r for r in self._learnt_refs if self._clauses[r] is not None]
        self._max_learnts *= 1.2

    # ------------------------------------------------------------------
    # solving

    def solve(
        self,
        assumptions=(),
        conflict_limit: int | None = None,
        time_limit: float | None = None,
    ) -> SolveResult:
        """CDCL search under the given assumption literals.

        Returns SAT with a complete model, UNSAT (the formula together with
        the assumptions is unsatisfiable) or UNKNOWN when a budget ran out.
        Learned clauses and variable scores persist across calls.
        """
        assumptions = list(assumptions)
        for lit in assumptions:
            v = lit if lit > 0 else -lit
            if v < 1 or v > self._nvars:
                raise ValueError(f"assumption {lit} outside declared variables")
        if not self._ok:
            return SolveResult(UNSAT, None, self.stats())

        deadline = time.perf_counter() + time_limit if time_limit is not None else None
        conflict_budget = self.conflicts + conflict_limit if conflict_limit is not None else None
        restart_count = 0
        since_restart = 0
        next_restart = 100 * _luby(0)
        status = UNKNOWN
        model = None
        checkpoint = 0

        if self._propagate() != _NO_REASON:
            self._ok = False
            return SolveResult(UNSAT, None, self.stats())

        while True:
            confl = self._propagate()
            if confl != _NO_REASON:
                self.conflicts += 1
                since_restart += 1
                if not self._trail_lim:
                    self._ok = False
                    status = UNSAT
                    break
                learnt, bt, lbd = self._analyze(confl)
                self._cancel_until(bt)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], _NO_REASON)
                else:
                    cref = len(self._clauses)
                    self._clauses.append(learnt)
                    self._lbd.append(lbd)
                    self._learnt_refs.append(cref)
                    self._live += 1
                    self._attach(cref, learnt)
                    self._enqueue(learnt[0], cref)
                self.learned += 1
                self._var_inc /= self._var_decay
                if conflict_budget is not None and self.conflicts >= conflict_budget:
                    break
                if deadline is not None and self.conflicts % 256 == 0:
                    if time.perf_counter() > deadline:
                        break
                if since_restart >= next_restart:
                    restart_count += 1
                    since_restart = 0
                    next_restart = 100 * _luby(restart_count)
                    self.restarts += 1
                    self._cancel_until(0)
                if len(self._learnt_refs) >= self._max_learnts:
                    self._reduce_db()
            else:
                if len(self._trail_lim) < len(assumptions):
                    p = assumptions[len(self._trail_lim)]
                    val = self._lit_value(p)
                    if val == 1:
                        self._new_level()
                        continue
                    if val == 0:
                        status = UNSAT
                        break
                    self._new_level()
                    self._enqueue(p, _NO_REASON)
                    continue
                checkpoint += 1
                if deadline is not None and checkpoint % 512 == 0:
                    if time.perf_counter() > deadline:
                        break
                v = self._pick_branch_var()
                if v == 0:
                    status = SAT
                    model = [a == 1 for a in self._assign]  # slot 0 is unassigned
                    break
                self.decisions += 1
                self._new_level()
                self._enqueue(v if self._phase[v] == 1 else -v, _NO_REASON)

        self._cancel_until(0)
        return SolveResult(status, model, self.stats())

    def _pick_branch_var(self) -> int:
        while self._heap:
            v = self._heap_pop()
            if self._assign[v] == _UNDEF:
                return v
        return 0

    def stats(self) -> dict:
        return {
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
            "learned": self.learned,
            "clauses": self._live,
            "vars": self._nvars,
        }
