//! Level-0 inprocessing: satisfied-clause purging and subsumption.

use super::{Solver, Watcher, BINARY_BIT, SHARED_BIT};
use crate::types::{LBool, Lit};

impl Solver {
    /// Level-0 inprocessing: purge satisfied clauses, strip false
    /// literals, drop this solver's watchers on level-0-satisfied shared
    /// clauses, run the queued subsumption pass, and compact the arena
    /// when it got wasteful. The satisfied-purge leg runs at the classic
    /// `simpDB_assigns`/`simpDB_props` cadence — it can only find work
    /// after new level-0 facts arrived — while the subsumption leg is
    /// driven by its queue of newly landed learnts, which fills
    /// regardless of the level-0 trail. Everything here only deletes
    /// satisfied clauses or strengthens implied ones, so the solver's
    /// model set — and downstream, the enumerated suite bytes — are
    /// untouched.
    pub(super) fn simplify(&mut self) {
        if !self.ok || !self.inprocess || self.decision_level() != 0 {
            return;
        }
        if self.propagate().is_some() {
            self.ok = false;
            return;
        }
        let cadence = self.trail.len() != self.simp_db_assigns
            && self.stats.propagations >= self.simp_db_props;
        if !cadence && self.subsume_queue.is_empty() {
            return;
        }
        // Level-0 assignments are permanent: conflict analysis never
        // expands their reasons, so the reason links can be dropped — which
        // is what makes their (locked) reason clauses removable.
        for i in 0..self.trail.len() {
            self.reason[self.trail[i].var().index()] = None;
        }
        if cadence {
            self.remove_satisfied();
        }
        self.subsumption_pass();
        if self.ok && self.ca.should_gc() {
            self.garbage_collect();
        }
        if cadence {
            self.simp_db_assigns = self.trail.len();
            let shared_lits = self.shared.as_ref().map_or(0, |s| s.num_lits());
            self.simp_db_props =
                self.stats.propagations + (self.ca.live_lits() + shared_lits) as u64;
        }
    }

    /// Drops local clauses satisfied at level 0, strips literals false at
    /// level 0 from the survivors, and removes this solver's watchers on
    /// satisfied shared clauses. After a clean level-0 propagate a
    /// surviving clause's two watched literals are both unassigned (a false
    /// watch with a non-true partner would have propagated or conflicted),
    /// so false literals only sit at positions ≥ 2 and stripping never
    /// moves a watch.
    fn remove_satisfied(&mut self) {
        let mut victims: Vec<u32> = Vec::new();
        let n_learnt = self.learnt_refs.len();
        let n_total = n_learnt + self.local_clauses.len();
        for i in 0..n_total {
            let c = if i < n_learnt {
                self.learnt_refs[i]
            } else {
                self.local_clauses[i - n_learnt]
            };
            if self
                .ca
                .iter_lits(c)
                .any(|l| self.lit_value(l) == LBool::True)
            {
                victims.push(c);
            } else {
                self.strip_false_lits(c);
            }
        }
        self.stats.simplify_removed += victims.len() as u64;
        self.remove_clauses(&victims);
        if self.shared.is_none() {
            return;
        }
        // Shared clauses are immutable and shared, but the watchers on them
        // are private to this solver: dropping both ends a satisfied
        // clause's participation in propagation for good (level-0
        // assignments are permanent). Each active shared clause holds
        // exactly two watchers, hence the halving.
        let shared = self.shared.clone().expect("checked above");
        let mut dropped = 0u64;
        for code in 0..self.watches.len() {
            let mut ws = std::mem::take(&mut self.watches[code]);
            ws.retain(|w| {
                if w.cref & SHARED_BIT == 0 {
                    return true;
                }
                let cl = shared.clause((w.cref & !(SHARED_BIT | BINARY_BIT)) as usize);
                let sat = cl.iter().any(|&l| self.lit_value(l) == LBool::True);
                if sat {
                    dropped += 1;
                }
                !sat
            });
            self.watches[code] = ws;
        }
        self.stats.simplify_removed += dropped / 2;
    }

    /// Removes literals false at level 0 from `cref` (positions ≥ 2 only —
    /// see [`Solver::remove_satisfied`] for why the watches are clean).
    /// Each removal resolves against the literal's level-0 derivation, so
    /// purity demotes unless that derivation was itself pure.
    fn strip_false_lits(&mut self, cref: u32) {
        let mut j = 2;
        while j < self.ca.len(cref) {
            let l = self.ca.lit(cref, j);
            if self.lit_value(l) == LBool::False {
                if !self.zero_pure[l.var().index()] {
                    self.ca.set_skeleton(cref, false);
                }
                self.ca.remove_lit(cref, j);
                self.stats.strengthened += 1;
            } else {
                j += 1;
            }
        }
    }

    /// Backward subsumption + self-subsuming resolution over the clauses
    /// learnt (or imported) since the last pass. Candidates and victims
    /// are all learnt clauses — redundant by construction — so deleting a
    /// subsumed one or strengthening one by resolution only prunes; the
    /// original formula and its model set are untouched.
    fn subsumption_pass(&mut self) {
        let queue = std::mem::take(&mut self.subsume_queue);
        if queue.is_empty() {
            return;
        }
        // The pass is scoped to this batch of freshly landed clauses —
        // both the subsuming and the subsumed side. A clause that just
        // arrived has no embedding in the ongoing search, so deduplicating
        // and strengthening *within* the batch (vault seeds and bus
        // imports arrive in bursts full of near-duplicates) is pure
        // savings; deleting or rewriting an *established* learnt, although
        // equally sound, rips out structure the pooled solver's search
        // already leans on and was measured as a net propagation loss on
        // the bound-5 sweep. Established clauses are retired by the
        // retention policy (`reduce_db`) and the satisfied-purge leg
        // instead.
        //
        // Occurrence lists (by variable, complement-insensitive) over the
        // batch. Entries go stale as the pass deletes and strengthens;
        // `is_deleted` and the literal re-check below make stale entries
        // harmless.
        let mut occ: Vec<Vec<u32>> = vec![Vec::new(); self.num_vars()];
        for &c in &queue {
            if self.ca.is_deleted(c) {
                continue;
            }
            for l in self.ca.iter_lits(c) {
                occ[l.var().index()].push(c);
            }
        }
        // Literal stamps for the O(|C| + |D|) subset test.
        let mut stamp: Vec<u64> = vec![0; 2 * self.num_vars()];
        let mut gen: u64 = 0;
        for &c in &queue {
            if !self.ok {
                break;
            }
            if self.ca.is_deleted(c) {
                continue;
            }
            let c_len = self.ca.len(c);
            let c_pure = self.ca.is_skeleton(c);
            // Scan the occurrence list of C's rarest variable.
            let best = self
                .ca
                .iter_lits(c)
                .map(|l| l.var().index())
                .min_by_key(|&v| occ[v].len())
                .expect("clauses are never empty");
            for &d in &occ[best] {
                if d == c || self.ca.is_deleted(d) || self.ca.is_deleted(c) {
                    continue;
                }
                if self.ca.len(d) < c_len {
                    continue;
                }
                // Stamp D's literals, then walk C: every literal of C must
                // appear in D, with at most one appearing complemented.
                gen += 1;
                for l in self.ca.iter_lits(d) {
                    stamp[l.code()] = gen;
                }
                let mut flipped: Option<Lit> = None;
                let mut subset = true;
                for l in self.ca.iter_lits(c) {
                    if stamp[l.code()] == gen {
                        continue;
                    }
                    if stamp[(!l).code()] == gen && flipped.is_none() {
                        flipped = Some(!l);
                        continue;
                    }
                    subset = false;
                    break;
                }
                if !subset {
                    continue;
                }
                match flipped {
                    None => {
                        // C ⊆ D: D is redundant.
                        self.stats.subsumed += 1;
                        self.remove_clauses(&[d]);
                    }
                    Some(fl) => {
                        // Self-subsuming resolution: C ⊗ D on fl's variable
                        // yields D \ {fl} — strengthen D in place.
                        self.strengthen_clause(d, fl, c_pure);
                        if !self.ok {
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Removes literal `l` from live clause `cref` (the resolvent of a
    /// self-subsuming resolution whose other antecedent has purity
    /// `resolvent_pure`), re-establishing the watch invariants against the
    /// current level-0 trail: the shrunken clause may have become
    /// satisfied, unit, or even empty through units enqueued earlier in the
    /// same pass.
    fn strengthen_clause(&mut self, cref: u32, l: Lit, resolvent_pure: bool) {
        debug_assert_eq!(self.decision_level(), 0);
        self.stats.strengthened += 1;
        if !resolvent_pure {
            self.ca.set_skeleton(cref, false);
        }
        self.detach_clause(cref);
        let pos = self
            .ca
            .iter_lits(cref)
            .position(|q| q == l)
            .expect("strengthened literal must be present");
        let pure = self.ca.is_skeleton(cref);
        if self.ca.len(cref) == 2 {
            let unit = self.ca.lit(cref, 1 - pos);
            self.remove_clauses(&[cref]);
            self.settle_unit(unit, pure);
            return;
        }
        self.ca.remove_lit(cref, pos);
        let mut satisfied = false;
        let mut free = [0usize; 2];
        let mut n_free = 0usize;
        for j in 0..self.ca.len(cref) {
            match self.lit_value(self.ca.lit(cref, j)) {
                LBool::True => {
                    satisfied = true;
                    break;
                }
                LBool::False => {}
                LBool::Undef => {
                    if n_free < 2 {
                        free[n_free] = j;
                    }
                    n_free += 1;
                }
            }
        }
        if satisfied {
            self.stats.simplify_removed += 1;
            self.remove_clauses(&[cref]);
            return;
        }
        match n_free {
            0 => {
                self.ok = false;
                self.remove_clauses(&[cref]);
            }
            1 => {
                let unit = self.ca.lit(cref, free[0]);
                // The implied unit resolves the clause against the level-0
                // derivations of its false literals.
                let mut up = pure;
                for j in 0..self.ca.len(cref) {
                    let q = self.ca.lit(cref, j);
                    if q != unit {
                        up &= self.zero_pure[q.var().index()];
                    }
                }
                self.remove_clauses(&[cref]);
                self.settle_unit(unit, up);
            }
            _ => {
                // The two free positions come out of one ascending scan
                // (free[1] > free[0]), so the first swap cannot displace
                // the second's literal.
                self.ca.swap_lits(cref, 0, free[0]);
                self.ca.swap_lits(cref, 1, free[1]);
                let l0 = self.ca.lit(cref, 0);
                let l1 = self.ca.lit(cref, 1);
                self.watches[l0.code()].push(Watcher { cref, blocker: l1 });
                self.watches[l1.code()].push(Watcher { cref, blocker: l0 });
            }
        }
    }

    /// Records a unit clause derived at level 0 by inprocessing: exported
    /// like any learnt unit, enqueued, and propagated.
    fn settle_unit(&mut self, l: Lit, pure: bool) {
        self.fresh_units.push((l, pure));
        match self.lit_value(l) {
            LBool::True => {
                if pure {
                    self.zero_pure[l.var().index()] = true;
                }
            }
            LBool::False => self.ok = false,
            LBool::Undef => {
                self.zero_pure[l.var().index()] = pure;
                self.unchecked_enqueue(l, None);
                if self.propagate().is_some() {
                    self.ok = false;
                } else {
                    // The propagation recorded fresh level-0 reasons; drop
                    // them so the rest of the pass can still delete any
                    // clause (same argument as in `simplify`).
                    for i in 0..self.trail.len() {
                        self.reason[self.trail[i].var().index()] = None;
                    }
                }
            }
        }
    }
}
