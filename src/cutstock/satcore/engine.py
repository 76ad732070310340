"""Pure-Python incremental CDCL solver.

Clauses use DIMACS conventions: variables are positive integers, a literal
is +v or -v.  The solver supports solving under assumptions; conflict
clauses learned during one call stay in the database for later calls,
whatever the verdict was.

Search machinery: two watched literals with blockers, first-UIP learning
with basic reason-side minimisation, activity-driven branching (exponential
decay), phase saving, Luby restarts and LBD-based reduction of the
learned-clause database.  Everything is deterministic.

Branching picks the unassigned variable of highest activity, the smaller
on a tie, from a lazy-deletion ``heapq`` of int keys ``-bits << 31 | v``.
They order as ``(-activity, v)`` does, since the IEEE-754 bit pattern
``bits`` orders non-negative doubles by value.  ``_entry[v]`` is v's
current key or None, and every unassigned variable has one.  A bump makes
the (assigned) variable's key stale, backtracking keys each variable that
has none, and a pick pops until it meets the current key of an unassigned
variable.  The heap is rebuilt after an activity rescale, and when stale
keys make it a quarter longer than the variable count.  The C++ engine
keeps the same heap, with ``(-activity, v)`` pairs for keys.

``add_clause`` checks every clause it is given: literals must name declared
variables, and tautologies, repeated and top-level-false literals are
dropped.  A block, the clause ``head + body`` for every head and body,
head-major, enters only as a ``Block``, an immutable tuple that only
``check_block`` makes, the one check of a block's rules.
``add_block(block)`` takes a Block and nothing else, on both engines, and
leaves the engine exactly as ``add_clause`` on each of its clauses would.
When every head has two or more literals, every variable is declared and
nothing is assigned at top level, the clauses are stored directly;
otherwise each goes through ``add_clause``.

Stored directly, the clauses of one head form a *run*: ``[prefix,
bodies]``, where ``prefix`` is the shared head.  A run has one watch entry
in each of two lists, marked by the negative cref ``~run index``, and its
clauses have no cref and no arena slot of their own.  While some prefix
literal past position 1 is not false, every clause of the run would take
the same step on a visit, so the visit takes it once for the run: the
blocker check, the swap of positions 0/1, the first-literal-true check and
the move of the watch to another prefix literal.  When every prefix literal
past position 1 is false, the run dissolves: each clause is appended to the
arena as ``prefix + body``, in body order, which gives the clauses their
crefs, and the run becomes ``[None, crefs]``.  The run's entry in the
visited list is replaced by one ``(cref, blocker)`` pair per clause, which
the ordinary per-clause loop then visits.  The entry in the run's other
list is replaced the same way, with the same cref objects, the next time a
visit reaches it; that is the run's last watch entry, so the run then
drops its crefs and becomes ``[None, None]``.  A cref is only an identity
(of a reason, a watch entry or a learned clause), so the search is the one
the engine would run with every clause watched on its own.

``_val`` and ``_watches`` are indexed by the literal itself: slot 0 is
unused, +v is at v, and -v at the v-th slot from the end, which is Python's
negative index.  ``add_vars`` inserts new slots in the middle.  A literal
outside the declared variables would alias another one, so every literal
that comes in is range-checked first.  The hot loops (``add_clause``,
``add_block``, ``_propagate``) write out the small helpers
``_attach`` and ``_enqueue`` inline; the helpers remain for the colder
paths.

This module is the reference implementation.  ``cutstock.satcore._engine``
is its C++ transliteration (``_engine.cpp``), whose search differs only
in its watch layer: it watches every clause on its own.  It has the same
interface, verdicts, models, statistics and trail order, and is preferred
at import time when it has been built.
"""

from __future__ import annotations

import time
from heapq import heapify, heappop, heappush
from itertools import chain

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"

_UNDEF = -1
_NO_REASON = -1
MAX_VARS = 2**31 - 1  # the compiled engine's int variable index; masks v in a heap key


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


def _double_views(buf: bytearray) -> tuple[memoryview, memoryview]:
    """The doubles in ``buf``, and the same doubles read as their IEEE-754
    bit patterns."""
    view = memoryview(buf)
    return view.cast("d"), view.cast("q")


def _watch_pairs(refs: list[int], blocker: int) -> list[int]:
    """Flat ``(cref, blocker)`` watch entries, one per cref."""
    pairs = [blocker] * (2 * len(refs))
    pairs[::2] = refs
    return pairs


class Block(tuple):
    """``(heads, bodies, max_var, wide)``: the clauses ``head + body`` for
    every head and body, head-major, with heads and bodies as int tuples
    that passed ``check_block``, which alone makes Blocks; the largest
    variable; and whether every head has two or more literals.  A Block has
    no ``__dict__``, and its items cannot be reassigned."""

    __slots__ = ()

    def __new__(cls, *args):
        raise TypeError("only check_block makes a Block")


def check_block(heads, bodies) -> Block:
    """The block ``head + body`` for every head and body as a ``Block``, or
    ValueError unless every literal is a non-zero int, every head is
    non-empty and free of repeated variables, and no variable is twice
    among the bodies or in both a body and a head: then no clause is empty
    or repeats a variable."""
    heads = tuple(map(tuple, heads))
    bodies = tuple(map(tuple, bodies))
    body_lits = tuple(chain.from_iterable(bodies))
    if not set(map(type, chain(body_lits, chain.from_iterable(heads)))) <= {int}:
        raise ValueError("non-int literal in clause")
    head_vars: set[int] = set()
    for head in heads:
        if not head:
            raise ValueError("empty clause emitted")
        vs = set(map(abs, head))
        if len(vs) != len(head):
            raise ValueError("repeated variable in clause")
        head_vars |= vs
    used = head_vars.union(map(abs, body_lits))
    # no body variable repeats or is in a head: one per head variable and body literal
    if len(used) != len(head_vars) + len(body_lits):
        raise ValueError("repeated variable in clause")
    if 0 in used:
        raise ValueError("literal 0 in clause")
    # heads are non-empty, so none of length 1 means every one has two or more
    return tuple.__new__(Block, (heads, bodies, max(used) if used else 0,
                                 1 not in map(len, heads)))


class Solver:
    """Incremental CDCL solver over a fixed growable variable range."""

    def __init__(self, num_vars: int = 0):
        self._nvars = 0
        self._ok = True
        # per-literal value (1 true, 0 false, -1 unassigned) and watch lists of
        # flat (cref, blocker) pairs, indexed by the literal; slot 0 unused
        self._val = [_UNDEF]
        self._watches: list[list[int]] = [[]]
        # per-variable state, slot 0 unused
        self._level = [0]
        self._reason = [_NO_REASON]
        # activities: doubles in a bytearray, read through two views
        self._activity_buf = bytearray(8)
        self._activity, self._activity_bits = _double_views(self._activity_buf)
        self._phase = [0]
        self._seen = [0]
        # clause arena: literal lists, None = deleted; a run's clauses join it
        # when the run dissolves
        self._clauses: list = []
        # [prefix, bodies]; [None, crefs] once dissolved, until its last watch
        # entry is expanded; [None, None] after
        self._runs: list[list] = []
        self._live = 0  # clauses not deleted, in the arena or in runs not dissolved
        self._lbd: dict[int, int] = {}  # learned cref -> LBD
        self._learnt_refs: list[int] = []
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        # lazy-deletion heap of keys -bits << 31 | v
        self._heap: list[int] = []
        self._entry: list = [None]  # per variable: its current key, or None
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._max_learnts = 4000.0
        self._conflicts = 0
        self._decisions = 0
        self._propagations = 0
        self._restarts = 0
        self._learned = 0
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
        if count > MAX_VARS - self._nvars:
            raise ValueError(f"{count} more variables would take num_vars past {MAX_VARS}")
        # the new literals' slots go between +n and -n
        self._val[first:first] = [_UNDEF] * (2 * count)
        self._watches[first:first] = [[] for _ in range(2 * count)]
        self._nvars += count
        self._level += [0] * count
        self._reason += [_NO_REASON] * count
        self._activity = self._activity_bits = None  # a bytearray with views cannot grow
        self._activity_buf += bytes(8 * count)  # 0.0 each
        self._activity, self._activity_bits = _double_views(self._activity_buf)
        self._phase += [0] * count
        self._seen += [0] * count
        # a new variable's key is v (activity 0); the heap holds no larger one,
        # so the new keys belong at its end without sifting.  A key is current
        # by identity, so both lists must hold the same int objects.
        keys = list(range(first, first + count))
        self._entry += keys
        self._heap += keys
        return first

    def add_clause(self, lits) -> None:
        """Add a problem clause; must be called with no assumptions active."""
        if not self._ok:
            return
        nvars = self._nvars
        val = self._val
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
            a = val[lit]
            if a >= 0:
                if a == 1:
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
        self._live += 1
        a, b = out[0], out[1]
        watches = self._watches
        watches[a].extend((cref, b))
        watches[b].extend((cref, a))

    def add_block(self, block) -> None:
        """Add the problem clause ``head + body`` for every head and body of
        a ``Block``, head-major, leaving the engine exactly as
        ``add_clause`` on each clause in turn would; TypeError, with the
        engine unchanged, for anything that is not a Block.

        When every head has two or more literals, every variable is
        declared and nothing is assigned at top level, the clauses of each
        head are stored as one run watched on its two first literals (a
        plain clause when there is one body) that keeps the block's bodies;
        otherwise each goes through ``add_clause``.
        """
        if type(block) is not Block:
            raise TypeError(f"add_block takes a Block from check_block, not {type(block).__name__}")
        heads, bodies, max_var, wide = block
        if not self._ok or not bodies:
            return
        if not wide or max_var > self._nvars or self._trail:
            add = self.add_clause
            for head in heads:
                for body in bodies:
                    add([*head, *body])
            return
        clauses = self._clauses
        runs = self._runs
        watches = self._watches
        m = len(bodies)
        for head in heads:
            a, b = head[0], head[1]
            ref = len(clauses) if m == 1 else ~len(runs)
            watches[a] += (ref, b)
            watches[b] += (ref, a)
            if m == 1:
                clauses.append(list(head + bodies[0]))
            else:
                runs.append([list(head), bodies])
        self._live += len(heads) * m

    def _attach(self, cref: int, c: list[int]) -> None:
        a, b = c[0], c[1]
        self._watches[a].extend((cref, b))
        self._watches[b].extend((cref, a))

    # ------------------------------------------------------------------
    # activity heap (lazy deletion; see the module docstring)

    def _rebuild_heap(self) -> None:
        """A heap of the current keys only."""
        heap = [e for e in self._entry if e is not None]
        heapify(heap)
        self._heap = heap

    def _bump(self, v: int) -> None:
        """Raise the activity of v, which is assigned."""
        activity = self._activity
        activity[v] += self._var_inc
        self._entry[v] = None  # its key is stale now
        if activity[v] > 1e100:
            self._rescale()

    def _rescale(self) -> None:
        """Scale every activity by 1e-100, and re-key the heap."""
        activity = self._activity
        for u in range(1, self._nvars + 1):
            activity[u] *= 1e-100
        self._var_inc *= 1e-100
        bits, entry = self._activity_bits, self._entry
        for u, e in enumerate(entry):
            if e is not None:
                entry[u] = -bits[u] << 31 | u
        self._rebuild_heap()

    # ------------------------------------------------------------------
    # trail

    def _enqueue(self, lit: int, reason: int) -> None:
        v = lit if lit > 0 else -lit
        self._val[lit] = 1
        self._val[-lit] = 0
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._trail.append(lit)

    def _new_level(self) -> None:
        self._trail_lim.append(len(self._trail))

    def _cancel_until(self, lvl: int) -> None:
        if len(self._trail_lim) <= lvl:
            return
        bound = self._trail_lim[lvl]
        val, phase, reason = self._val, self._phase, self._reason
        bits, entry, heap = self._activity_bits, self._entry, self._heap
        trail = self._trail
        for lit in trail[bound:]:
            v = lit if lit > 0 else -lit
            phase[v] = val[v]
            val[v] = val[-v] = _UNDEF
            reason[v] = _NO_REASON
            if entry[v] is None:
                e = entry[v] = -bits[v] << 31 | v
                heappush(heap, e)
        del trail[bound:]
        del self._trail_lim[lvl:]
        self._qhead = bound
        if len(heap) > self._nvars + (self._nvars >> 2):
            self._rebuild_heap()  # drop the stale keys

    # ------------------------------------------------------------------
    # propagation

    def _propagate(self) -> int:
        """Unit propagation; returns a conflicting cref or _NO_REASON."""
        clauses = self._clauses
        runs = self._runs
        val = self._val
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
            wl = watches[false_lit]
            i = j = 0
            n = len(wl)
            while i < n:
                cref = wl[i]
                blocker = wl[i + 1]
                i += 2
                if val[blocker] == 1:
                    wl[j] = cref
                    wl[j + 1] = blocker
                    j += 2
                    continue
                if cref >= 0:
                    c = clauses[cref]
                    if c is None:
                        continue
                else:
                    run = runs[~cref]
                    c = run[0]
                    if c is None:  # dissolved: the run's last entry becomes its clauses'
                        i -= 2
                        wl[i:i + 2] = _watch_pairs(run[1], blocker)
                        n = len(wl)
                        run[1] = None
                        continue
                    swapped = c[0] == false_lit
                if c[0] == false_lit:
                    c[0], c[1] = c[1], c[0]
                first = c[0]
                fv = val[first]
                if first != blocker and fv == 1:
                    wl[j] = cref
                    wl[j + 1] = first
                    j += 2
                    continue
                for k in range(2, len(c)):
                    lk = c[k]
                    if val[lk] != 0:
                        c[1], c[k] = lk, c[1]
                        watches[lk].extend((cref, first))
                        break
                else:
                    if cref < 0:
                        # every prefix literal past position 1 is false, so
                        # the clauses now differ in what they do: append them
                        # as they were before this visit, each to make its
                        # own swap, and visit their entries in its place
                        if swapped:
                            c[0], c[1] = c[1], c[0]
                        start = len(clauses)
                        clauses += [c + list(body) for body in run[1]]
                        refs = list(range(start, len(clauses)))
                        run[0], run[1] = None, refs
                        i -= 2
                        wl[i:i + 2] = _watch_pairs(refs, blocker)
                        n = len(wl)
                        continue
                    wl[j] = cref
                    wl[j + 1] = first
                    j += 2
                    if fv == 0:  # first is false too: conflict
                        del wl[j:i]  # keep the rest of the list
                        self._qhead = len(trail)
                        self._propagations += props
                        return cref
                    val[first] = 1
                    val[-first] = 0
                    v = first if first > 0 else -first
                    level[v] = lvl
                    reason[v] = cref
                    trail.append(first)
            del wl[j:]
        self._qhead = qhead
        self._propagations += props
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
        return self._val[v] != _UNDEF and self._reason[v] == cref

    def _reduce_db(self) -> None:
        live = [r for r in self._learnt_refs if self._clauses[r] is not None]
        live.sort(key=lambda r: (self._lbd[r], len(self._clauses[r])))
        cut = len(live) // 2
        for r in live[cut:]:
            c = self._clauses[r]
            if self._lbd[r] <= 2 or len(c) <= 2 or self._locked(r, c):
                continue
            self._clauses[r] = None
            del self._lbd[r]
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
        conflict_budget = self._conflicts + conflict_limit if conflict_limit is not None else None
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
                self._conflicts += 1
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
                    self._lbd[cref] = lbd
                    self._learnt_refs.append(cref)
                    self._live += 1
                    self._attach(cref, learnt)
                    self._enqueue(learnt[0], cref)
                self._learned += 1
                self._var_inc /= self._var_decay
                if conflict_budget is not None and self._conflicts >= conflict_budget:
                    break
                if deadline is not None and self._conflicts % 256 == 0:
                    if time.perf_counter() > deadline:
                        break
                if since_restart >= next_restart:
                    restart_count += 1
                    since_restart = 0
                    next_restart = 100 * _luby(restart_count)
                    self._restarts += 1
                    self._cancel_until(0)
                if len(self._learnt_refs) >= self._max_learnts:
                    self._reduce_db()
            else:
                if len(self._trail_lim) < len(assumptions):
                    p = assumptions[len(self._trail_lim)]
                    val = self._val[p]
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
                    model = [a == 1 for a in self._val[: self._nvars + 1]]  # slot 0 is unassigned
                    break
                self._decisions += 1
                self._new_level()
                self._enqueue(v if self._phase[v] == 1 else -v, _NO_REASON)

        self._cancel_until(0)
        return SolveResult(status, model, self.stats())

    def _pick_branch_var(self) -> int:
        """The unassigned variable of highest activity, the smaller on a tie;
        0 when every variable is assigned."""
        heap, entry, val = self._heap, self._entry, self._val
        while heap:
            e = heappop(heap)
            v = e & MAX_VARS
            if entry[v] is e:
                entry[v] = None
                if val[v] == _UNDEF:
                    return v
        return 0

    def stats(self) -> dict:
        return {
            "conflicts": self._conflicts,
            "decisions": self._decisions,
            "propagations": self._propagations,
            "restarts": self._restarts,
            "learned": self._learned,
            "clauses": self._live,
            "vars": self._nvars,
        }
