// Compiled CDCL engine, interface-identical to cutstock.satcore.engine.
//
// A transliteration of the pure-Python reference: two watched literals with
// blockers, first-UIP learning with basic minimisation, activity branching,
// phase saving, Luby restarts, LBD-based database reduction and solving
// under assumptions with clause retention.  It gives the same verdicts,
// models, statistics and trail order, conflict for conflict.  Its decision
// rule and activity heap are the reference's: the unassigned variable of
// highest activity, the smaller on a tie, from a lazy-deletion heap of keys
// (-activity, v).  It differs only in its watch layer, the plain one: every
// clause is watched on its own, where the reference watches the clauses of
// one add_block head as a single run until they differ.  Clauses live in one
// flat arena: [size, lbd, lit...] at each reference offset; size < 0 marks a
// deleted clause.  add_block takes a Block (head + body for every head and
// body), which only check_block makes, and nothing else; it stores the
// block's clauses directly when it can, and otherwise sends each through
// add_clause: it keeps no block rules of its own.
//
// Build: g++ -O2 -shared -fPIC -I<python include> _engine.cpp -o _engine<EXT_SUFFIX>

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <algorithm>
#include <climits>
#include <ctime>
#include <functional>
#include <new>
#include <utility>
#include <vector>

namespace {

const int UNDEF = -1;
const int NO_REASON = -1;

PyObject *SolveResultType, *BlockType, *SAT, *UNSAT, *UNKNOWN;

long long luby(long long i) {
    long long size = 1, seq = 0;
    while (size < i + 1) {
        seq += 1;
        size = 2 * size + 1;
    }
    while (size - 1 != i) {
        size = (size - 1) / 2;
        seq -= 1;
        i %= size;
    }
    return 1LL << seq;
}

double perf_counter() {  // the clock behind time.perf_counter
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return ts.tv_sec + ts.tv_nsec * 1e-9;
}

inline int var_of(int lit) { return lit > 0 ? lit : -lit; }
inline int widx(int lit) { return lit > 0 ? lit << 1 : ((-lit) << 1) | 1; }

enum Status { S_UNKNOWN, S_SAT, S_UNSAT };

using Key = std::pair<double, int>;  // (-activity, v): the least key branches first

struct Core {
    std::vector<int> ca;                    // clause arena
    std::vector<std::vector<int>> watches;  // per literal index, (cref, blocker) pairs
    std::vector<signed char> assign, phase, seen, mark;
    std::vector<int> level, reason, trail, trail_lim, learnt_refs;
    std::vector<int> to_clear, learnt, kept;
    std::vector<char> level_seen;
    std::vector<Key> heap;    // lazy deletion: stale keys stay until popped
    std::vector<char> keyed;  // per variable: it has a current key in the heap
    std::vector<double> activity;
    std::vector<signed char> model;  // the assignment of the last SAT verdict
    int nvars = 0;
    int qhead = 0;
    bool ok = true;
    double var_inc = 1.0, var_decay = 0.95, max_learnts = 4000.0;
    long long conflicts = 0, decisions = 0, propagations = 0, restarts = 0, learned = 0;
    long long live = 0;  // clauses in the arena that are not deleted

    Core() { add_vars(0); }

    // count must not take nvars past INT_MAX; throws std::bad_alloc when
    // memory runs out
    int add_vars(long long count) {
        int first = nvars + 1;
        if (count < 0) count = 0;
        size_t n = (size_t)nvars + (size_t)count + 1;
        assign.resize(n, UNDEF);
        level.resize(n, 0);
        reason.resize(n, NO_REASON);
        activity.resize(n, 0.0);
        phase.resize(n, 0);
        seen.resize(n, 0);
        mark.resize(n, 0);
        watches.resize(2 * n);
        keyed.resize(n, 1);
        nvars = (int)(n - 1);
        // a new variable's key (activity 0, the highest index) is larger than
        // every key in the heap, so the new keys belong at its end without sifting
        for (int v = first; v <= nvars; v++) heap.push_back(key(v));
        return first;
    }

    int lit_value(int lit) const {  // 1 true, 0 false, -1 unassigned
        int a = assign[var_of(lit)];
        if (a < 0) return a;
        return lit > 0 ? a : a ^ 1;
    }

    int new_clause(const std::vector<int>& lits, int lbd) {
        int cref = (int)ca.size();
        ca.push_back((int)lits.size());
        ca.push_back(lbd);
        ca.insert(ca.end(), lits.begin(), lits.end());
        live += 1;
        // watch the first two literals, with the other one as blocker
        std::vector<int>& w0 = watches[widx(lits[0])];
        w0.push_back(cref);
        w0.push_back(lits[1]);
        std::vector<int>& w1 = watches[widx(lits[1])];
        w1.push_back(cref);
        w1.push_back(lits[0]);
        return cref;
    }

    // activity heap (lazy deletion, as the reference's)

    Key key(int v) const { return Key(-activity[v], v); }

    void rebuild_heap() {  // a heap of the current keys only
        heap.clear();
        for (int v = 1; v <= nvars; v++)
            if (keyed[v]) heap.push_back(key(v));
        std::make_heap(heap.begin(), heap.end(), std::greater<Key>());
    }

    void bump(int v) {  // v is assigned
        activity[v] += var_inc;
        keyed[v] = 0;  // its key is stale now
        if (activity[v] > 1e100) {
            for (int u = 1; u <= nvars; u++) activity[u] *= 1e-100;
            var_inc *= 1e-100;
            rebuild_heap();
        }
    }

    // trail

    void enqueue(int lit, int why) {
        int v = var_of(lit);
        assign[v] = lit > 0 ? 1 : 0;
        level[v] = (int)trail_lim.size();
        reason[v] = why;
        trail.push_back(lit);
    }

    void new_level() { trail_lim.push_back((int)trail.size()); }

    void cancel_until(int lvl) {
        if ((int)trail_lim.size() <= lvl) return;
        int bound = trail_lim[lvl];
        for (int i = (int)trail.size() - 1; i >= bound; i--) {
            int v = var_of(trail[i]);
            phase[v] = assign[v];
            assign[v] = UNDEF;
            reason[v] = NO_REASON;
            if (!keyed[v]) {
                keyed[v] = 1;
                heap.push_back(key(v));
                std::push_heap(heap.begin(), heap.end(), std::greater<Key>());
            }
        }
        trail.resize(bound);
        trail_lim.resize(lvl);
        qhead = bound;
        if (heap.size() > (size_t)nvars + nvars / 4) rebuild_heap();  // drop the stale keys
    }

    // propagation: returns a conflicting cref or NO_REASON

    int propagate() {
        const signed char* as = assign.data();
        int* arena = ca.data();  // propagation never grows the arena
        int lvl = (int)trail_lim.size();
        long long props = 0;
        int result = NO_REASON;
        while (qhead < (int)trail.size()) {
            int p = trail[qhead++];
            props += 1;
            int false_lit = -p;
            std::vector<int>& wl = watches[widx(false_lit)];
            int* w = wl.data();  // only other literals' lists grow below
            size_t i = 0, j = 0, n = wl.size();
            while (i < n) {
                int cref = w[i], blocker = w[i + 1];
                i += 2;
                int bv = as[var_of(blocker)];
                if (bv >= 0 && (blocker > 0 ? bv : bv ^ 1) == 1) {
                    w[j] = cref;
                    w[j + 1] = blocker;
                    j += 2;
                    continue;
                }
                int size = arena[cref];
                if (size < 0) continue;  // deleted clause: drop the watch
                int* c = arena + cref + 2;
                if (c[0] == false_lit) {
                    c[0] = c[1];
                    c[1] = false_lit;
                }
                int first = c[0];
                int fv = as[var_of(first)];
                if (first != blocker && fv >= 0 && (first > 0 ? fv : fv ^ 1) == 1) {
                    w[j] = cref;
                    w[j + 1] = first;
                    j += 2;
                    continue;
                }
                bool moved = false;
                for (int k = 2; k < size; k++) {
                    int lk = c[k];
                    int kv = as[var_of(lk)];
                    if (kv < 0 || (lk > 0 ? kv : kv ^ 1) == 1) {
                        c[1] = lk;
                        c[k] = false_lit;
                        std::vector<int>& other = watches[widx(lk)];
                        other.push_back(cref);
                        other.push_back(first);
                        moved = true;
                        break;
                    }
                }
                if (moved) continue;
                w[j] = cref;
                w[j + 1] = first;
                j += 2;
                if (fv >= 0) {  // first is not true here, so it is false: conflict
                    while (i < n) w[j++] = w[i++];  // keep the rest of the list
                    qhead = (int)trail.size();
                    result = cref;
                    break;
                }
                int v = var_of(first);
                assign[v] = first > 0 ? 1 : 0;
                level[v] = lvl;
                reason[v] = cref;
                trail.push_back(first);
            }
            wl.resize(j);
            if (result != NO_REASON) break;
        }
        propagations += props;
        return result;
    }

    // conflict analysis: first-UIP learning into `learnt`; returns the
    // backjump level and sets the learnt clause's lbd

    int analyze(int confl, int& lbd) {
        int cur_level = (int)trail_lim.size();
        int path = 0, p = 0;
        int index = (int)trail.size() - 1;
        learnt.assign(1, 0);
        to_clear.clear();
        while (true) {
            int size = ca[confl];
            for (int k = p == 0 ? 0 : 1; k < size; k++) {
                int q = ca[confl + 2 + k];
                int v = var_of(q);
                if (!seen[v] && level[v] > 0) {
                    seen[v] = 1;
                    to_clear.push_back(v);
                    bump(v);
                    if (level[v] >= cur_level)
                        path += 1;
                    else
                        learnt.push_back(q);
                }
            }
            while (!seen[var_of(trail[index])]) index -= 1;
            p = trail[index];
            index -= 1;
            int v = var_of(p);
            confl = reason[v];
            seen[v] = 0;
            path -= 1;
            if (path == 0) break;
        }
        learnt[0] = -p;

        // drop literals whose whole reason is already in the clause
        kept.assign(1, learnt[0]);
        for (size_t k = 1; k < learnt.size(); k++) {
            int q = learnt[k];
            int r = reason[var_of(q)];
            if (r == NO_REASON) {
                kept.push_back(q);
                continue;
            }
            int rsize = ca[r];
            for (int o = 1; o < rsize; o++) {
                int ov = var_of(ca[r + 2 + o]);
                if (!seen[ov] && level[ov] > 0) {
                    kept.push_back(q);
                    break;
                }
            }
        }
        learnt.swap(kept);

        for (int v : to_clear) seen[v] = 0;

        int bt = 0;
        if (learnt.size() > 1) {
            size_t best = 1;
            for (size_t k = 2; k < learnt.size(); k++)
                if (level[var_of(learnt[k])] > level[var_of(learnt[best])]) best = k;
            std::swap(learnt[1], learnt[best]);
            bt = level[var_of(learnt[1])];
        }
        lbd = 0;
        level_seen.resize(std::max(level_seen.size(), trail_lim.size() + 1), 0);
        for (int q : learnt) {
            int lv = level[var_of(q)];
            if (!level_seen[lv]) {
                level_seen[lv] = 1;
                lbd += 1;
            }
        }
        for (int q : learnt) level_seen[level[var_of(q)]] = 0;
        return bt;
    }

    // learned-clause database reduction

    bool locked(int cref) const {
        int v = var_of(ca[cref + 2]);
        return assign[v] != UNDEF && reason[v] == cref;
    }

    void reduce_db() {
        std::vector<int> alive;
        for (int r : learnt_refs)
            if (ca[r] >= 0) alive.push_back(r);
        // learnt_refs is in cref order, so ties keep the older clause first
        std::stable_sort(alive.begin(), alive.end(), [this](int a, int b) {
            if (ca[a + 1] != ca[b + 1]) return ca[a + 1] < ca[b + 1];
            return ca[a] < ca[b];
        });
        for (size_t k = alive.size() / 2; k < alive.size(); k++) {
            int r = alive[k];
            if (ca[r + 1] <= 2 || ca[r] <= 2 || locked(r)) continue;
            ca[r] = -ca[r];
            live -= 1;
        }
        learnt_refs.erase(std::remove_if(learnt_refs.begin(), learnt_refs.end(),
                                         [this](int r) { return ca[r] < 0; }),
                          learnt_refs.end());
        max_learnts *= 1.2;
    }

    // The unassigned variable of highest activity, the smaller on a tie; 0
    // when every variable is assigned.  A stale key of v is never less than
    // v's current key, as v's activity has only grown since the stale key was
    // made, so keyed[v] tells the current key apart.
    int pick_branch_var() {
        while (!heap.empty()) {
            std::pop_heap(heap.begin(), heap.end(), std::greater<Key>());
            int v = heap.back().second;
            heap.pop_back();
            if (keyed[v]) {
                keyed[v] = 0;
                if (assign[v] == UNDEF) return v;
            }
        }
        return 0;
    }

    // CDCL search under the assumption literals; a SAT verdict leaves its
    // assignment in `model`.  Where it checks the deadline it runs the signal
    // handlers too, and stops with the exception set if one raises (Ctrl-C).

    Status solve(const std::vector<int>& assume, bool has_budget, long long conflict_limit,
                 bool has_deadline, double time_limit) {
        if (!ok) return S_UNSAT;
        double deadline = has_deadline ? perf_counter() + time_limit : 0.0;
        long long conflict_budget = has_budget ? conflicts + conflict_limit : 0;
        long long restart_count = 0, since_restart = 0, checkpoint = 0;
        long long next_restart = 100 * luby(0);
        Status status = S_UNKNOWN;
        auto stop = [&] {
            return PyErr_CheckSignals() < 0 || (has_deadline && perf_counter() > deadline);
        };

        if (propagate() != NO_REASON) {
            ok = false;
            return S_UNSAT;
        }

        while (true) {
            int confl = propagate();
            if (confl != NO_REASON) {
                conflicts += 1;
                since_restart += 1;
                if (trail_lim.empty()) {
                    ok = false;
                    status = S_UNSAT;
                    break;
                }
                int lbd;
                int bt = analyze(confl, lbd);
                cancel_until(bt);
                if (learnt.size() == 1) {
                    enqueue(learnt[0], NO_REASON);
                } else {
                    int cref = new_clause(learnt, lbd);
                    learnt_refs.push_back(cref);
                    enqueue(learnt[0], cref);
                }
                learned += 1;
                var_inc /= var_decay;
                if (has_budget && conflicts >= conflict_budget) break;
                if (conflicts % 256 == 0 && stop()) break;
                if (since_restart >= next_restart) {
                    restart_count += 1;
                    since_restart = 0;
                    next_restart = 100 * luby(restart_count);
                    restarts += 1;
                    cancel_until(0);
                }
                if ((double)learnt_refs.size() >= max_learnts) reduce_db();
            } else {
                if (trail_lim.size() < assume.size()) {
                    int p = assume[trail_lim.size()];
                    int val = lit_value(p);
                    if (val == 1) {
                        new_level();
                        continue;
                    }
                    if (val == 0) {
                        status = S_UNSAT;
                        break;
                    }
                    new_level();
                    enqueue(p, NO_REASON);
                    continue;
                }
                checkpoint += 1;
                if (checkpoint % 512 == 0 && stop()) break;
                int v = pick_branch_var();
                if (v == 0) {
                    status = S_SAT;
                    model = assign;  // slot 0 is unassigned
                    break;
                }
                decisions += 1;
                new_level();
                enqueue(phase[v] == 1 ? v : -v, NO_REASON);
            }
        }
        cancel_until(0);
        return status;
    }
};

// ----------------------------------------------------------------------
// Python binding

struct SolverObject {
    PyObject_HEAD
    Core core;
};

Core& core_of(PyObject* self) { return reinterpret_cast<SolverObject*>(self)->core; }

PyObject* Solver_new(PyTypeObject* type, PyObject*, PyObject*) {
    PyObject* self = type->tp_alloc(type, 0);
    if (self != nullptr) new (&core_of(self)) Core();
    return self;
}

// Declare `count` more variables: the first new index, or 0 with an
// exception set (ValueError past INT_MAX variables, MemoryError).
int declare_vars(Core& s, PyObject* count) {
    int overflow;
    long long n = PyLong_AsLongLongAndOverflow(count, &overflow);
    if (n == -1 && PyErr_Occurred()) return 0;
    if (overflow > 0 || n > (long long)INT_MAX - s.nvars) {
        PyErr_Format(PyExc_ValueError, "%S more variables would take num_vars past %d", count,
                     INT_MAX);
        return 0;
    }
    try {
        return s.add_vars(overflow < 0 ? 0 : n);
    } catch (const std::bad_alloc&) {
        PyErr_NoMemory();
        return 0;
    }
}

int Solver_init(PyObject* self, PyObject* args, PyObject* kwargs) {
    static const char* keywords[] = {"num_vars", nullptr};
    PyObject* num_vars = nullptr;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "|O:Solver", const_cast<char**>(keywords),
                                     &num_vars))
        return -1;
    core_of(self) = Core();
    return num_vars == nullptr || declare_vars(core_of(self), num_vars) ? 0 : -1;
}

void Solver_dealloc(PyObject* self) {
    core_of(self).~Core();
    Py_TYPE(self)->tp_free(self);
}

PyObject* Solver_num_vars(PyObject* self, void*) { return PyLong_FromLong(core_of(self).nvars); }

PyObject* Solver_add_vars(PyObject* self, PyObject* arg) {
    int first = declare_vars(core_of(self), arg);
    return first == 0 ? nullptr : PyLong_FromLong(first);
}

// The literal an item names, or 0 with an exception set: ValueError, from
// `message` (given the item and nvars), when it names no declared variable.
int literal_of(PyObject* item, int nvars, const char* message) {
    int overflow;
    long lit = PyLong_AsLongAndOverflow(item, &overflow);
    if (lit == -1 && PyErr_Occurred()) return 0;
    if (overflow || lit == 0 || lit > nvars || lit < -nvars) {
        PyErr_Format(PyExc_ValueError, message, item, nvars);
        return 0;
    }
    return (int)lit;
}

PyObject* Solver_add_clause(PyObject* self, PyObject* lits) {
    Core& s = core_of(self);
    if (!s.ok) Py_RETURN_NONE;
    PyObject* seq = PySequence_Fast(lits, "a clause must be an iterable of literals");
    if (seq == nullptr) return nullptr;
    std::vector<int> out;
    int stop = 0;  // 1: a literal names no declared variable, 2: the clause is dropped
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(seq); i++) {
        int lit = literal_of(PySequence_Fast_GET_ITEM(seq, i), s.nvars,
                             "literal %S outside declared variables 1..%d");
        if (lit == 0) {
            stop = 1;
            break;
        }
        // mark: the sign with which the variable is already in `out`, or 0
        signed char sign = lit > 0 ? 1 : -1, marked = s.mark[var_of(lit)];
        int val = s.lit_value(lit);
        if (marked == -sign || (marked == 0 && val == 1)) {
            stop = 2;  // tautology, or satisfied at top level
            break;
        }
        if (marked == sign || val == 0) continue;  // repeated, or falsified at top level
        s.mark[var_of(lit)] = sign;
        out.push_back(lit);
    }
    Py_DECREF(seq);
    for (int lit : out) s.mark[var_of(lit)] = 0;
    if (stop == 1) return nullptr;
    if (stop == 2) Py_RETURN_NONE;
    if (out.empty()) {
        s.ok = false;
    } else if (out.size() == 1) {
        s.enqueue(out[0], NO_REASON);
        if (s.propagate() != NO_REASON) s.ok = false;
    } else {
        s.new_clause(out, -1);
    }
    Py_RETURN_NONE;
}

// Store the clause head + body for every head and body of a Block, reading
// its tuples in place, and watch head[0] and head[1] in each.  check_block
// rules out repeated variables and non-int literals, but a Block may name
// undeclared variables or have a one-literal head, and tuple.__new__ can
// forge one, so this reads only tuples, of literals naming declared
// variables, with at least two in each head.  False, with nothing stored
// and no exception set, when that does not hold.
bool store_block(Core& s, PyObject* heads, PyObject* bodies) {
    std::vector<int> hl, hs, bl, bs;  // head and body literals, and their sizes
    auto read = [&s](PyObject* items, Py_ssize_t least, std::vector<int>& lits,
                     std::vector<int>& sizes) {
        for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(items); i++) {
            PyObject* clause = PyTuple_GET_ITEM(items, i);
            if (!PyTuple_Check(clause) || PyTuple_GET_SIZE(clause) < least) return false;
            for (Py_ssize_t k = 0; k < PyTuple_GET_SIZE(clause); k++) {
                int lit = literal_of(PyTuple_GET_ITEM(clause, k), s.nvars, "");
                if (lit == 0) {
                    PyErr_Clear();
                    return false;
                }
                lits.push_back(lit);
            }
            sizes.push_back((int)PyTuple_GET_SIZE(clause));
        }
        return true;
    };
    if (!read(heads, 2, hl, hs) || !read(bodies, 0, bl, bs)) return false;
    for (size_t h = 0, at = 0; h < hs.size(); at += hs[h++]) {
        const int* head = hl.data() + at;
        std::vector<int>& wa = s.watches[widx(head[0])];
        std::vector<int>& wb = s.watches[widx(head[1])];
        for (size_t b = 0, from = 0; b < bs.size(); from += bs[b++]) {
            int cref = (int)s.ca.size();
            s.ca.push_back(hs[h] + bs[b]);
            s.ca.push_back(-1);
            s.ca.insert(s.ca.end(), head, head + hs[h]);
            s.ca.insert(s.ca.end(), bl.begin() + from, bl.begin() + from + bs[b]);
            wa.push_back(cref);
            wa.push_back(head[1]);
            wb.push_back(cref);
            wb.push_back(head[0]);
        }
    }
    s.live += (long long)hs.size() * (long long)bs.size();
    return true;
}

// A Block is stored directly while nothing is assigned, when its clauses
// can be; otherwise its clauses go through add_clause, one by one, with all
// its checks.  Both leave the same state.  Anything but a Block, forged
// ones included, raises TypeError and changes nothing.
PyObject* Solver_add_block(PyObject* self, PyObject* block) {
    if (reinterpret_cast<PyObject*>(Py_TYPE(block)) != BlockType ||
        PyTuple_GET_SIZE(block) != 4 || !PyTuple_Check(PyTuple_GET_ITEM(block, 0)) ||
        !PyTuple_Check(PyTuple_GET_ITEM(block, 1)))
        return PyErr_Format(PyExc_TypeError, "add_block takes a Block from check_block, not %s",
                            Py_TYPE(block)->tp_name);
    Core& s = core_of(self);
    if (!s.ok) Py_RETURN_NONE;
    PyObject* heads = PyTuple_GET_ITEM(block, 0);
    PyObject* bodies = PyTuple_GET_ITEM(block, 1);
    if (s.trail.empty() && store_block(s, heads, bodies)) Py_RETURN_NONE;
    for (Py_ssize_t h = 0; h < PyTuple_GET_SIZE(heads); h++) {
        for (Py_ssize_t b = 0; b < PyTuple_GET_SIZE(bodies); b++) {
            // [*head, *body], as the reference makes it
            PyObject* clause = PySequence_List(PyTuple_GET_ITEM(heads, h));
            PyObject* done = nullptr;
            if (clause != nullptr && PyList_SetSlice(clause, PY_SSIZE_T_MAX, PY_SSIZE_T_MAX,
                                                     PyTuple_GET_ITEM(bodies, b)) == 0)
                done = PyObject_CallMethod(self, "add_clause", "(O)", clause);
            Py_XDECREF(clause);
            if (done == nullptr) return nullptr;
            Py_DECREF(done);
        }
    }
    Py_RETURN_NONE;
}

PyObject* Solver_stats(PyObject* self, PyObject* = nullptr) {
    const Core& s = core_of(self);
    return Py_BuildValue("{s:L,s:L,s:L,s:L,s:L,s:L,s:i}", "conflicts", s.conflicts, "decisions",
                         s.decisions, "propagations", s.propagations, "restarts", s.restarts,
                         "learned", s.learned, "clauses", s.live, "vars", s.nvars);
}

PyObject* Solver_solve(PyObject* self, PyObject* args, PyObject* kwargs) {
    static const char* keywords[] = {"assumptions", "conflict_limit", "time_limit", nullptr};
    PyObject *assumptions = nullptr, *conflict_limit = Py_None, *time_limit = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "|OOO:solve", const_cast<char**>(keywords),
                                     &assumptions, &conflict_limit, &time_limit))
        return nullptr;
    Core& s = core_of(self);
    std::vector<int> assume;
    if (assumptions != nullptr) {
        PyObject* seq = PySequence_Fast(assumptions, "assumptions must be iterable");
        if (seq == nullptr) return nullptr;
        for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(seq); i++) {
            int lit = literal_of(PySequence_Fast_GET_ITEM(seq, i), s.nvars,
                                 "assumption %S outside declared variables");
            if (lit == 0) break;
            assume.push_back(lit);
        }
        Py_DECREF(seq);
        if (PyErr_Occurred()) return nullptr;
    }
    long long budget = conflict_limit == Py_None ? 0 : PyLong_AsLongLong(conflict_limit);
    double seconds = time_limit == Py_None ? 0.0 : PyFloat_AsDouble(time_limit);
    if (PyErr_Occurred()) return nullptr;
    Status status =
        s.solve(assume, conflict_limit != Py_None, budget, time_limit != Py_None, seconds);
    if (PyErr_Occurred()) return nullptr;  // a signal handler raised
    PyObject* model = Py_None;
    if (status == S_SAT) {
        model = PyList_New(s.nvars + 1);
        if (model == nullptr) return nullptr;
        for (int v = 0; v <= s.nvars; v++)
            PyList_SET_ITEM(model, v, PyBool_FromLong(s.model[v] == 1));
    } else {
        Py_INCREF(model);
    }
    PyObject* stats = Solver_stats(self);
    PyObject* verdict = status == S_SAT ? SAT : status == S_UNSAT ? UNSAT : UNKNOWN;
    PyObject* result = stats == nullptr ? nullptr
                       : PyObject_CallFunctionObjArgs(SolveResultType, verdict, model, stats, nullptr);
    Py_DECREF(model);
    Py_XDECREF(stats);
    return result;
}

PyMethodDef Solver_methods[] = {
    {"add_vars", Solver_add_vars, METH_O,
     "Declare ``count`` new variables; returns the first new index."},
    {"add_clause", Solver_add_clause, METH_O,
     "Add a problem clause; must be called with no assumptions active."},
    {"add_block", Solver_add_block, METH_O,
     "Add the problem clause ``head + body`` for every head and body of a Block, head-major."},
    {"solve", reinterpret_cast<PyCFunction>(reinterpret_cast<void (*)(void)>(Solver_solve)),
     METH_VARARGS | METH_KEYWORDS,
     "solve(assumptions=(), conflict_limit=None, time_limit=None) -> SolveResult"},
    {"stats", reinterpret_cast<PyCFunction>(reinterpret_cast<void (*)(void)>(Solver_stats)),
     METH_NOARGS, "Cumulative search statistics and the formula size."},
    {nullptr, nullptr, 0, nullptr}};

PyGetSetDef Solver_getset[] = {
    {"num_vars", Solver_num_vars, nullptr, "Number of declared variables.", nullptr},
    {nullptr, nullptr, nullptr, nullptr, nullptr}};

PyTypeObject SolverType = {PyVarObject_HEAD_INIT(nullptr, 0)};

PyModuleDef module = {PyModuleDef_HEAD_INIT, "_engine",
                      "Compiled CDCL engine, interface-identical to cutstock.satcore.engine.",
                      -1};

}  // namespace

PyMODINIT_FUNC PyInit__engine() {
    SolverType.tp_name = "cutstock.satcore._engine.Solver";
    SolverType.tp_doc = "Solver(num_vars=0)\n--\n\nIncremental CDCL solver over a fixed "
                        "growable variable range.";
    SolverType.tp_basicsize = sizeof(SolverObject);
    SolverType.tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE;
    SolverType.tp_new = Solver_new;
    SolverType.tp_init = Solver_init;
    SolverType.tp_dealloc = Solver_dealloc;
    SolverType.tp_methods = Solver_methods;
    SolverType.tp_getset = Solver_getset;
    if (PyType_Ready(&SolverType) < 0) return nullptr;

    PyObject* reference = PyImport_ImportModule("cutstock.satcore.engine");
    if (reference == nullptr) return nullptr;
    SolveResultType = PyObject_GetAttrString(reference, "SolveResult");
    BlockType = PyObject_GetAttrString(reference, "Block");
    SAT = PyObject_GetAttrString(reference, "SAT");
    UNSAT = PyObject_GetAttrString(reference, "UNSAT");
    UNKNOWN = PyObject_GetAttrString(reference, "UNKNOWN");
    Py_DECREF(reference);
    if (!SolveResultType || !BlockType || !SAT || !UNSAT || !UNKNOWN) return nullptr;

    PyObject* m = PyModule_Create(&module);
    if (m == nullptr) return nullptr;
    Py_INCREF(&SolverType);
    if (PyModule_AddObject(m, "Solver", reinterpret_cast<PyObject*>(&SolverType)) < 0) {
        Py_DECREF(&SolverType);
        Py_DECREF(m);
        return nullptr;
    }
    return m;
}
