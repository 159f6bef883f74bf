//! First-UIP conflict analysis and activity bumping.

use super::{Solver, CORE_LBD, RESCALE_LIMIT, RESCALE_LIMIT_CLA, SHARED_BIT};
use crate::types::Lit;

impl Solver {
    fn var_bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1.0 / RESCALE_LIMIT;
            }
            self.var_inc *= 1.0 / RESCALE_LIMIT;
            self.heap.rescaled();
        }
        self.heap.increased(v, &self.activity);
        self.domain.increased(v, &self.activity);
    }

    fn clause_bump(&mut self, cref: u32) {
        let a = self.ca.activity(cref) + self.cla_inc as f32;
        self.ca.set_activity(cref, a);
        if a as f64 > RESCALE_LIMIT_CLA {
            for i in 0..self.learnt_refs.len() {
                let c = self.learnt_refs[i];
                let scaled = self.ca.activity(c) * (1.0 / RESCALE_LIMIT_CLA) as f32;
                self.ca.set_activity(c, scaled);
            }
            self.cla_inc *= 1.0 / RESCALE_LIMIT_CLA;
        }
    }

    /// Recomputes a clause's LBD from the current assignment levels. Only
    /// meaningful while every literal of the clause is assigned — true for
    /// any clause expanded during conflict analysis. Level-0 literals are
    /// skipped: inprocessing is entitled to strip them.
    fn clause_lbd_now(&mut self, cref: u32) -> u32 {
        self.lbd_gen += 1;
        let mut lbd = 0u32;
        for j in 0..self.ca.len(cref) {
            let lev = self.level[self.ca.lit(cref, j).var().index()] as usize;
            if lev == 0 {
                continue;
            }
            if lev >= self.lbd_seen.len() {
                self.lbd_seen.resize(lev + 1, 0);
            }
            if self.lbd_seen[lev] != self.lbd_gen {
                self.lbd_seen[lev] = self.lbd_gen;
                lbd += 1;
            }
        }
        lbd.max(1)
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first), the backtrack level, the clause's LBD, and its
    /// skeleton purity.
    ///
    /// The learnt clause is a resolvent of the conflict clause and the
    /// reason clauses expanded along the way (including those used to
    /// minimize it), strengthened by dropping literals false at level 0.
    /// It is therefore skeleton-pure iff every one of those antecedent
    /// clauses is pure *and* every dropped level-0 literal's assignment
    /// was itself derived purely ([`Solver::zero_pure`]).
    pub(super) fn analyze(&mut self, confl: u32) -> (Vec<Lit>, usize, u32, bool) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for asserting lit
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = confl;
        let mut to_clear: Vec<usize> = Vec::new();
        let dl = self.decision_level() as u32;
        let mut pure = true;

        loop {
            pure &= self.clause_pure(confl);
            if confl & SHARED_BIT == 0 && self.ca.is_learnt(confl) {
                self.clause_bump(confl);
                // MID-tier probation: a use between two reductions is what
                // keeps a MID clause from demoting.
                self.ca.set_used(confl, true);
                // Glucose-style tightening: a clause showing up in conflicts
                // with fewer distinct levels than at learn time is more
                // valuable than its stored LBD claims — refile it.
                let stored = self.ca.lbd(confl);
                if stored > CORE_LBD {
                    let fresh = self.clause_lbd_now(confl);
                    if fresh < stored {
                        self.set_learnt_lbd(confl, fresh);
                    }
                }
            }
            for j in 0..self.clause_len(confl) {
                let q = self.clause_lit(confl, j);
                if p == Some(q) {
                    continue; // the literal this clause propagated
                }
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    to_clear.push(v);
                    self.var_bump(v);
                    if self.level[v] >= dl {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                } else if self.level[v] == 0 {
                    // Level-0 literals are silently dropped from the learnt
                    // clause; that strengthening resolves against their
                    // level-0 derivations.
                    pure &= self.zero_pure[v];
                }
            }
            // Select the next implication-graph node to expand.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            p = Some(pl);
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            confl = self.reason[pl.var().index()].expect("non-decision must have a reason");
        }
        learnt[0] = !p.expect("1UIP exists");

        // Basic clause minimization: drop literals implied by the rest.
        // Each drop is one more resolution step (against the literal's
        // reason clause), so purity flows through it like any antecedent.
        let mut j = 1;
        for i in 1..learnt.len() {
            let l = learnt[i];
            let keep = match self.reason[l.var().index()] {
                None => true,
                Some(r) => (0..self.clause_len(r)).any(|k| {
                    let q = self.clause_lit(r, k);
                    q != !l && !self.seen[q.var().index()] && self.level[q.var().index()] > 0
                }),
            };
            if keep {
                learnt[j] = l;
                j += 1;
            } else {
                let r = self.reason[l.var().index()].expect("dropped literal has a reason");
                pure &= self.clause_pure(r);
                if pure {
                    for k in 0..self.clause_len(r) {
                        let q = self.clause_lit(r, k);
                        if self.level[q.var().index()] == 0 {
                            pure &= self.zero_pure[q.var().index()];
                        }
                    }
                }
            }
        }
        learnt.truncate(j);

        // Backtrack level: highest level among the non-asserting literals.
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()] as usize
        };

        // LBD: distinct decision levels among the learnt literals.
        self.lbd_gen += 1;
        let mut lbd = 0u32;
        for &l in &learnt {
            let lev = self.level[l.var().index()] as usize;
            if lev >= self.lbd_seen.len() {
                self.lbd_seen.resize(lev + 1, 0);
            }
            if self.lbd_seen[lev] != self.lbd_gen {
                self.lbd_seen[lev] = self.lbd_gen;
                lbd += 1;
            }
        }

        for v in to_clear {
            self.seen[v] = false;
        }
        (learnt, bt, lbd, pure)
    }
}
