//! A small self-contained CDCL SAT solver.
//!
//! The architecture is the classic MiniSat core reduced to what the
//! equivalence and PBE-safety checkers need:
//!
//! * **two watched literals** per clause for unit propagation,
//! * **first-UIP conflict analysis** with clause learning and
//!   non-chronological backjumping,
//! * **VSIDS-lite** branching: exponentially-decayed per-variable
//!   activities in an indexed max-heap, with phase saving,
//! * **assumption solving**: `solve(&[l1, l2, ...], budget)` answers
//!   satisfiability under the assumptions without touching the clause
//!   database, and clauses may be added between calls, so a query can
//!   grow its formula and re-solve with what it has learned,
//! * **conflict budgets**: every call carries its own bound and returns
//!   [`SatResult::Unknown`] on exhaustion instead of running away,
//! * **reuse**: [`Solver::reset`] empties the solver back to the state of
//!   [`Solver::new`] but keeps every allocation (the flat clause arena,
//!   the watch lists, the per-variable arrays), so the equivalence
//!   sweep's thousands of small cone queries run through one instance
//!   and pay for search, not for allocation.
//!
//! There is no preprocessing, clause deletion, or literal-block-distance
//! machinery: the CNFs here are network miters whose queries are either
//! easy (locally equivalent cones) or budget-capped, and the oracle tests
//! in `tests/cec_oracle.rs` differential-check verdicts and models against
//! exhaustive enumeration.

use crate::cnf::{Lit, Var};

/// Verdict of one [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment exists (readable via [`Solver::model_value`]).
    Sat,
    /// No satisfying assignment exists under the given assumptions.
    Unsat,
    /// The conflict budget ran out before a verdict.
    Unknown,
}

const VALUE_FALSE: u8 = 0;
const VALUE_TRUE: u8 = 1;
const VALUE_UNSET: u8 = 2;
const NO_REASON: u32 = u32::MAX;

/// Literal value over the raw assignment array — a free function so
/// `propagate` can read values while holding a clause borrow.
fn lit_value(values: &[u8], l: Lit) -> u8 {
    match values[l.var().index()] {
        VALUE_UNSET => VALUE_UNSET,
        v => v ^ u8::from(l.is_negated()),
    }
}

/// Indexed binary max-heap over variable activities — MiniSat's order
/// heap, so branching picks the highest-activity unassigned variable
/// without scanning the whole variable range.
#[derive(Debug, Default)]
struct ActivityHeap {
    heap: Vec<u32>,
    /// Position of each variable in `heap`, or `u32::MAX` if absent.
    pos: Vec<u32>,
}

impl ActivityHeap {
    fn grow_to(&mut self, vars: usize) {
        self.pos.resize(vars, u32::MAX);
    }

    fn clear(&mut self) {
        self.heap.clear();
        self.pos.clear();
    }

    fn contains(&self, v: u32) -> bool {
        self.pos[v as usize] != u32::MAX
    }

    fn push(&mut self, v: u32, activity: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.pos[v as usize] = self.heap.len() as u32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    fn pop(&mut self, activity: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.pos[top as usize] = u32::MAX;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    fn bumped(&mut self, v: u32, activity: &[f64]) {
        let p = self.pos[v as usize];
        if p != u32::MAX {
            self.sift_up(p as usize, activity);
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if activity[self.heap[i] as usize] <= activity[self.heap[parent] as usize] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        loop {
            let l = 2 * i + 1;
            if l >= self.heap.len() {
                break;
            }
            let r = l + 1;
            let child = if r < self.heap.len()
                && activity[self.heap[r] as usize] > activity[self.heap[l] as usize]
            {
                r
            } else {
                l
            };
            if activity[self.heap[child] as usize] <= activity[self.heap[i] as usize] {
                break;
            }
            self.swap(i, child);
            i = child;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i] as usize] = i as u32;
        self.pos[self.heap[j] as usize] = j as u32;
    }
}

/// Where one clause's literals sit in [`Solver::lits`].
#[derive(Debug, Clone, Copy)]
struct ClauseSpan {
    start: u32,
    len: u32,
}

impl ClauseSpan {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// The CDCL solver. Variables are created with [`Solver::new_var`],
/// clauses added with [`Solver::add_clause`] (at decision level 0, i.e.
/// between `solve` calls), and queries answered by [`Solver::solve`].
#[derive(Debug, Default)]
pub struct Solver {
    /// Every clause's literals, back to back; learned clauses are
    /// appended like problem clauses.
    lits: Vec<Lit>,
    /// Clause index -> its span of `lits`.
    clauses: Vec<ClauseSpan>,
    /// Watch lists indexed by literal code: clauses to visit when the
    /// literal becomes false. Lists past `2 * num_vars()` are always
    /// empty, kept only so [`Solver::reset`] retains their capacity.
    watches: Vec<Vec<u32>>,
    /// Current assignment per variable.
    values: Vec<u8>,
    /// Saved phase per variable (last assigned polarity).
    phase: Vec<bool>,
    /// Decision level per assigned variable.
    level: Vec<u32>,
    /// Reason clause per assigned variable (`NO_REASON` for decisions).
    reason: Vec<u32>,
    /// Assignment trail and the trail index where each level starts.
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    /// Propagation queue head (index into `trail`).
    qhead: usize,
    /// VSIDS activities and the current bump increment.
    activity: Vec<f64>,
    var_inc: f64,
    order: ActivityHeap,
    /// Analyze scratch.
    seen: Vec<bool>,
    /// `false` once a top-level conflict makes the CNF unconditionally
    /// unsatisfiable.
    ok: bool,
    conflicts: u64,
    /// Model snapshot of the last `Sat` answer.
    model: Vec<u8>,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            var_inc: 1.0,
            ok: true,
            ..Solver::default()
        }
    }

    /// Empties the solver back to the state of [`Solver::new`] — no
    /// variables, no clauses, no learned state, zero conflicts, no model
    /// — while keeping every allocation for the next formula.
    pub fn reset(&mut self) {
        for w in &mut self.watches[..2 * self.values.len()] {
            w.clear();
        }
        self.lits.clear();
        self.clauses.clear();
        self.values.clear();
        self.phase.clear();
        self.level.clear();
        self.reason.clear();
        self.trail.clear();
        self.trail_lim.clear();
        self.qhead = 0;
        self.activity.clear();
        self.var_inc = 1.0;
        self.order.clear();
        self.seen.clear();
        self.ok = true;
        self.conflicts = 0;
        self.model.clear();
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.values.len()
    }

    /// Total conflicts across every `solve` call — the solver-effort
    /// metric surfaced as [`soi_trace::Counter::Conflicts`].
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Whether the clause database is still satisfiable at top level
    /// (`false` after an empty clause or a level-0 conflict).
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = self.values.len();
        self.values.push(VALUE_UNSET);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.seen.push(false);
        if self.watches.len() < 2 * (v + 1) {
            self.watches.resize_with(2 * (v + 1), Vec::new);
        }
        self.order.grow_to(v + 1);
        self.order.push(v as u32, &self.activity);
        Var::from_index(v)
    }

    fn value_of(&self, l: Lit) -> u8 {
        match self.values[l.var().index()] {
            VALUE_UNSET => VALUE_UNSET,
            v => v ^ u8::from(l.is_negated()),
        }
    }

    /// Adds a clause. Must be called at decision level 0 (i.e. not from
    /// within a `solve`). Returns `false` if the clause makes the CNF
    /// unconditionally unsatisfiable.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert!(self.trail_lim.is_empty(), "add_clause mid-solve");
        if !self.ok {
            return false;
        }
        // Normalize: drop duplicates and level-0-false literals, detect
        // tautologies and level-0-satisfied clauses.
        let mut clause: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            if self.value_of(l) == VALUE_TRUE {
                return true; // already satisfied at top level
            }
            if self.value_of(l) == VALUE_FALSE {
                continue; // can never help
            }
            if clause.contains(&!l) {
                return true; // tautology
            }
            if !clause.contains(&l) {
                clause.push(l);
            }
        }
        match clause.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(clause[0], NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach(&clause);
                true
            }
        }
    }

    fn attach(&mut self, clause: &[Lit]) -> u32 {
        let idx = self.clauses.len() as u32;
        self.watches[(!clause[0]).code()].push(idx);
        self.watches[(!clause[1]).code()].push(idx);
        self.clauses.push(ClauseSpan {
            start: self.lits.len() as u32,
            len: clause.len() as u32,
        });
        self.lits.extend_from_slice(clause);
        idx
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        let v = l.var().index();
        debug_assert_eq!(self.values[v], VALUE_UNSET);
        self.values[v] = u8::from(!l.is_negated());
        self.phase[v] = !l.is_negated();
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation to fixpoint; returns the conflicting clause index.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            // p just became true, so !p became false; clauses watching
            // !p were attached under p's code.
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut kept = 0;
            let mut conflict = None;
            let mut i = 0;
            while i < ws.len() {
                let ci = ws[i];
                i += 1;
                let clause = &mut self.lits[self.clauses[ci as usize].range()];
                // Make sure the false literal is at slot 1.
                if clause[0] == false_lit {
                    clause.swap(0, 1);
                }
                debug_assert_eq!(clause[1], false_lit);
                let first = clause[0];
                if lit_value(&self.values, first) == VALUE_TRUE {
                    ws[kept] = ci;
                    kept += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                for k in 2..clause.len() {
                    if lit_value(&self.values, clause[k]) != VALUE_FALSE {
                        clause.swap(1, k);
                        let w = !clause[1];
                        self.watches[w.code()].push(ci);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Unit or conflicting.
                ws[kept] = ci;
                kept += 1;
                if lit_value(&self.values, first) == VALUE_FALSE {
                    // Conflict: keep the remaining watchers and stop.
                    while i < ws.len() {
                        ws[kept] = ws[i];
                        kept += 1;
                        i += 1;
                    }
                    self.qhead = self.trail.len();
                    conflict = Some(ci);
                } else {
                    self.enqueue(first, ci);
                }
            }
            ws.truncate(kept);
            debug_assert!(self.watches[p.code()].is_empty());
            self.watches[p.code()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn backtrack_to(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let keep = self.trail_lim[target as usize];
        for &l in &self.trail[keep..] {
            let v = l.var().index();
            self.values[v] = VALUE_UNSET;
            if !self.order.contains(l.var().index() as u32) {
                self.order.push(l.var().index() as u32, &self.activity);
            }
        }
        self.trail.truncate(keep);
        self.trail_lim.truncate(target as usize);
        self.qhead = keep;
    }

    fn bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bumped(v as u32, &self.activity);
    }

    /// First-UIP conflict analysis: returns the learned clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, u32) {
        let current = self.decision_level();
        let mut learnt: Vec<Lit> = Vec::new();
        let mut counter = 0u32;
        let mut idx = self.trail.len();
        let mut confl = confl;
        let mut skip: Option<Var> = None;
        loop {
            for k in self.clauses[confl as usize].range() {
                let q = self.lits[k];
                if Some(q.var()) == skip {
                    continue;
                }
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(v);
                    if self.level[v] == current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Next seen literal on the trail.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var().index()] {
                    break;
                }
            }
            let p = self.trail[idx];
            let v = p.var().index();
            self.seen[v] = false;
            counter -= 1;
            if counter == 0 {
                learnt.insert(0, !p);
                break;
            }
            confl = self.reason[v];
            debug_assert_ne!(confl, NO_REASON);
            skip = Some(p.var());
        }
        for &l in &learnt[1..] {
            self.seen[l.var().index()] = false;
        }
        // Backjump to the second-highest level in the clause.
        let mut bt = 0;
        if learnt.len() > 1 {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            bt = self.level[learnt[1].var().index()];
        }
        (learnt, bt)
    }

    /// Decides satisfiability under the given assumptions, spending at
    /// most `budget` conflicts.
    ///
    /// On [`SatResult::Sat`] the model is snapshotted for
    /// [`Solver::model_value`]. The solver always returns at decision
    /// level 0, so clauses may be added freely between calls.
    pub fn solve(&mut self, assumptions: &[Lit], budget: u64) -> SatResult {
        if !self.ok {
            return SatResult::Unsat;
        }
        self.backtrack_to(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SatResult::Unsat;
        }
        let mut spent = 0u64;
        let mut restart_limit = 128u64;
        let mut since_restart = 0u64;
        let result = 'search: loop {
            if let Some(confl) = self.propagate() {
                self.conflicts += 1;
                spent += 1;
                since_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    break 'search SatResult::Unsat;
                }
                if self.decision_level() <= assumptions.len() as u32 {
                    // The conflict depends only on assumptions (every
                    // decision so far is one): unsatisfiable under them.
                    break 'search SatResult::Unsat;
                }
                let (learnt, bt) = self.analyze(confl);
                self.backtrack_to(bt);
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    self.backtrack_to(0);
                    self.enqueue(asserting, NO_REASON);
                } else {
                    let ci = self.attach(&learnt);
                    self.enqueue(asserting, ci);
                }
                self.var_inc /= 0.95;
                if spent > budget {
                    break 'search SatResult::Unknown;
                }
                if since_restart >= restart_limit {
                    since_restart = 0;
                    restart_limit += restart_limit / 2;
                    self.backtrack_to(0);
                }
            } else {
                // Assumption levels first, then a free decision.
                if (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.value_of(a) {
                        VALUE_TRUE => {
                            // Already implied: open an empty level so the
                            // level count still tracks assumption depth.
                            self.trail_lim.push(self.trail.len());
                        }
                        VALUE_FALSE => break 'search SatResult::Unsat,
                        _ => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(a, NO_REASON);
                        }
                    }
                    continue;
                }
                let next = loop {
                    match self.order.pop(&self.activity) {
                        Some(v) if self.values[v as usize] == VALUE_UNSET => break Some(v),
                        Some(_) => continue,
                        None => break None,
                    }
                };
                match next {
                    Some(v) => {
                        self.trail_lim.push(self.trail.len());
                        let lit =
                            Lit::with_sign(Var::from_index(v as usize), !self.phase[v as usize]);
                        self.enqueue(lit, NO_REASON);
                    }
                    None => {
                        self.model.clone_from(&self.values);
                        break 'search SatResult::Sat;
                    }
                }
            }
        };
        self.backtrack_to(0);
        result
    }

    /// The value of `l` in the last [`SatResult::Sat`] model.
    ///
    /// # Panics
    ///
    /// Panics if no `Sat` answer has been produced yet.
    pub fn model_value(&self, l: Lit) -> bool {
        assert!(!self.model.is_empty(), "no model available");
        (self.model[l.var().index()] == VALUE_TRUE) != l.is_negated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(solver: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| Lit::positive(solver.new_var())).collect()
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        assert!(s.add_clause(&[v[0], v[1]]));
        assert_eq!(s.solve(&[], 1_000), SatResult::Sat);
        assert!(s.model_value(v[0]) || s.model_value(v[1]));
        assert!(s.add_clause(&[!v[0]]));
        // !v0 implies v1 at top level, so !v1 contradicts outright.
        assert!(!s.add_clause(&[!v[1]]));
        assert!(!s.is_ok());
        assert_eq!(s.solve(&[], 1_000), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause(&[]));
        assert!(!s.is_ok());
        assert_eq!(s.solve(&[], 10), SatResult::Unsat);
    }

    #[test]
    fn assumptions_do_not_pollute_the_database() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        assert!(s.add_clause(&[v[0], v[1]]));
        assert_eq!(s.solve(&[!v[0], !v[1]], 1_000), SatResult::Unsat);
        // Still satisfiable without the assumptions, and under others.
        assert_eq!(s.solve(&[], 1_000), SatResult::Sat);
        assert_eq!(s.solve(&[!v[0]], 1_000), SatResult::Sat);
        assert!(s.model_value(v[1]));
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p[i][j]: pigeon i in hole j. Classic small UNSAT instance that
        // actually exercises conflict analysis and backjumping.
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..3)
            .map(|_| (0..2).map(|_| Lit::positive(s.new_var())).collect())
            .collect();
        for pigeon in &p {
            assert!(s.add_clause(pigeon));
        }
        for (i1, row1) in p.iter().enumerate() {
            for row2 in &p[i1 + 1..] {
                for (&a, &b) in row1.iter().zip(row2) {
                    assert!(s.add_clause(&[!a, !b]));
                }
            }
        }
        assert_eq!(s.solve(&[], 100_000), SatResult::Unsat);
        assert!(s.conflicts() > 0);
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        // A pigeonhole big enough to need more than one conflict.
        let mut s = Solver::new();
        let n = 7;
        let p: Vec<Vec<Lit>> = (0..n + 1)
            .map(|_| (0..n).map(|_| Lit::positive(s.new_var())).collect())
            .collect();
        for pigeon in &p {
            assert!(s.add_clause(pigeon));
        }
        for (i1, row1) in p.iter().enumerate() {
            for row2 in &p[i1 + 1..] {
                for (&a, &b) in row1.iter().zip(row2) {
                    assert!(s.add_clause(&[!a, !b]));
                }
            }
        }
        assert_eq!(s.solve(&[], 1), SatResult::Unknown);
        // And with a real budget the verdict lands.
        assert_eq!(s.solve(&[], 10_000_000), SatResult::Unsat);
    }

    #[test]
    fn implied_assumption_still_counts_a_level() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        assert!(s.add_clause(&[!v[0], v[1]])); // v0 -> v1
        assert!(s.add_clause(&[v[0], v[1], v[2]]));
        // v1 is implied by the first assumption before its own level opens.
        assert_eq!(s.solve(&[v[0], v[1]], 1_000), SatResult::Sat);
        assert!(s.model_value(v[0]));
        assert!(s.model_value(v[1]));
    }

    #[test]
    fn reset_returns_to_a_fresh_solver() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        assert!(s.add_clause(&[v[0], v[1]]));
        assert!(s.add_clause(&[!v[0], v[2]]));
        assert_eq!(s.solve(&[v[0]], 1_000), SatResult::Sat);
        assert!(s.add_clause(&[!v[2]]));
        assert!(!s.add_clause(&[!v[1]]));
        assert!(!s.is_ok());

        s.reset();
        assert!(s.is_ok());
        assert_eq!((s.num_vars(), s.conflicts()), (0, 0));
        // The old variables' watches and level-0 units are gone: the
        // same indices start unconstrained and unassigned.
        let v = lits(&mut s, 3);
        assert!(s.add_clause(&[!v[0], !v[1]]));
        assert_eq!(s.solve(&[v[1], !v[2]], 1_000), SatResult::Sat);
        assert!(!s.model_value(v[0]) && s.model_value(v[1]) && !s.model_value(v[2]));
        assert_eq!(s.solve(&[v[0], v[1]], 1_000), SatResult::Unsat);
    }

    #[test]
    fn duplicate_and_tautological_clauses_are_normalized() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        assert!(s.add_clause(&[v[0], v[0], v[1]]));
        assert!(s.add_clause(&[v[0], !v[0]])); // tautology: dropped
        assert_eq!(s.solve(&[!v[0]], 1_000), SatResult::Sat);
        assert!(s.model_value(v[1]));
    }
}
