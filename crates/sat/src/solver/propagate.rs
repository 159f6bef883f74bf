//! Unit propagation and backtracking.

use super::{Solver, Watcher, BINARY_BIT, SHARED_BIT};
use crate::types::{LBool, Lit};

impl Solver {
    pub(super) fn unchecked_enqueue(&mut self, l: Lit, reason: Option<u32>) {
        debug_assert_eq!(self.lit_value(l), LBool::Undef);
        let v = l.var().index();
        if self.trail_lim.is_empty() {
            // A level-0 assignment: record whether it is derivable from
            // skeleton clauses alone. Propagations inherit purity from
            // their reason clause and its (level-0, already assigned)
            // other literals; reasonless level-0 enqueues have their
            // purity pre-set by the caller in `zero_pure`.
            if let Some(cr) = reason {
                let mut pure = self.clause_pure(cr);
                if pure {
                    for j in 0..self.clause_len(cr) {
                        let q = self.clause_lit(cr, j);
                        if q != l {
                            pure &= self.zero_pure[q.var().index()];
                        }
                    }
                }
                self.zero_pure[v] = pure;
            }
        }
        self.vals[l.code()] = LBool::True;
        self.vals[(!l).code()] = LBool::False;
        self.level[v] = self.decision_level() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation. Returns the conflicting clause reference, if any.
    pub(super) fn propagate(&mut self) -> Option<u32> {
        let shared = self.shared.clone();
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            // Clauses watching ¬p must be inspected: ¬p just became false.
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            while i < ws.len() {
                let w = ws[i];
                let blocker = self.lit_value(w.blocker);
                if blocker == LBool::True {
                    i += 1;
                    continue;
                }
                if w.cref & BINARY_BIT != 0 {
                    // Binary shared clause: the blocker is the clause's
                    // other literal and is not true, so the clause is unit
                    // or conflicting — no need to load it.
                    let cref = w.cref & !BINARY_BIT;
                    if blocker == LBool::False {
                        self.qhead = self.trail.len();
                        self.watches[false_lit.code()] = ws;
                        return Some(cref);
                    }
                    self.unchecked_enqueue(w.blocker, Some(cref));
                    i += 1;
                    continue;
                }
                if w.cref & SHARED_BIT != 0 {
                    // Shared clause: the literals are immutable, so instead
                    // of swapping watched literals to the front we track the
                    // two watched positions in `shared_watch`.
                    let idx = (w.cref & !SHARED_BIT) as usize;
                    let cl = shared
                        .as_ref()
                        .expect("shared watcher implies attached arena")
                        .clause(idx);
                    let mut wp = self.shared_watch[idx];
                    // Normalize so position 1 watches the false literal.
                    if cl[wp[0] as usize] == false_lit {
                        wp.swap(0, 1);
                        self.shared_watch[idx] = wp;
                    }
                    debug_assert_eq!(cl[wp[1] as usize], false_lit);
                    let first = cl[wp[0] as usize];
                    if first != w.blocker && self.lit_value(first) == LBool::True {
                        ws[i].blocker = first;
                        i += 1;
                        continue;
                    }
                    // Look for a replacement watch.
                    let mut found = None;
                    for (k, &q) in cl.iter().enumerate() {
                        if k != wp[0] as usize
                            && k != wp[1] as usize
                            && self.lit_value(q) != LBool::False
                        {
                            found = Some(k);
                            break;
                        }
                    }
                    if let Some(k) = found {
                        self.shared_watch[idx] = [wp[0], k as u32];
                        self.watches[cl[k].code()].push(Watcher {
                            cref: w.cref,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        continue;
                    }
                    // No replacement: clause is unit or conflicting.
                    if self.lit_value(first) == LBool::False {
                        self.qhead = self.trail.len();
                        self.watches[false_lit.code()] = ws;
                        return Some(w.cref);
                    }
                    self.unchecked_enqueue(first, Some(w.cref));
                    i += 1;
                    continue;
                }
                // Local clause: its literals live in the flat arena.
                // Deletion detaches watchers eagerly, so every watcher
                // reaching this point is live.
                let cref = w.cref;
                debug_assert!(!self.ca.is_deleted(cref));
                // Normalize so the false literal is at index 1.
                if self.ca.lit(cref, 0) == false_lit {
                    self.ca.swap_lits(cref, 0, 1);
                }
                debug_assert_eq!(self.ca.lit(cref, 1), false_lit);
                let first = self.ca.lit(cref, 0);
                if first != w.blocker && self.lit_value(first) == LBool::True {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a replacement watch.
                let mut found = None;
                for k in 2..self.ca.len(cref) {
                    if self.lit_value(self.ca.lit(cref, k)) != LBool::False {
                        found = Some(k);
                        break;
                    }
                }
                if let Some(k) = found {
                    let q = self.ca.lit(cref, k);
                    self.ca.swap_lits(cref, 1, k);
                    self.watches[q.code()].push(Watcher {
                        cref: w.cref,
                        blocker: first,
                    });
                    ws.swap_remove(i);
                    continue;
                }
                // No replacement: clause is unit or conflicting.
                if self.lit_value(first) == LBool::False {
                    // Conflict: restore the remaining watchers and bail.
                    self.qhead = self.trail.len();
                    self.watches[false_lit.code()] = ws;
                    return Some(w.cref);
                }
                self.unchecked_enqueue(first, Some(w.cref));
                i += 1;
            }
            self.watches[false_lit.code()] = ws;
        }
        None
    }

    pub(super) fn cancel_until(&mut self, target: usize) {
        if self.decision_level() <= target {
            return;
        }
        let lim = self.trail_lim[target];
        for i in (lim..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index();
            self.polarity[v] = l.is_positive();
            self.vals[l.code()] = LBool::Undef;
            self.vals[(!l).code()] = LBool::Undef;
            self.reason[v] = None;
            self.heap.insert(v, &self.activity);
            // Domain members become decidable locally again (no-op for
            // non-members and while no domain is built).
            self.domain.enqueue(v, &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(target);
        self.qhead = lim;
    }
}
