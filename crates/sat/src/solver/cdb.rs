//! The clause database: adding, filing, reducing, and compacting clauses.

use super::{tier_for_lbd, Solver, Watcher, SHARED_BIT, SUBSUME_QUEUE_CAP};
use crate::arena::{ClauseArena, TIER_LOCAL, TIER_MID};
use crate::types::{LBool, Lit};

impl Solver {
    /// Adds a clause (a disjunction of literals).
    ///
    /// May be called at any time, including between `solve` calls; this is how
    /// blocking clauses are added during model enumeration. Returns `false` if
    /// the formula has become trivially unsatisfiable.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        self.add_clause_inner(lits.into_iter().collect(), false, 0, false)
    }

    /// [`Solver::add_clause`], but the clause enters the database as a
    /// learnt import: eligible for database reduction and never re-exported
    /// over an exchange. `lbd` is the sender's reported LBD (an upper
    /// bound; conflict analysis tightens it on use) and `pure` the sender's
    /// skeleton-purity claim.
    pub(super) fn import_clause(&mut self, lits: Vec<Lit>, lbd: u32, pure: bool) -> bool {
        self.add_clause_inner(lits, true, lbd, pure)
    }

    fn add_clause_inner(&mut self, mut ls: Vec<Lit>, import: bool, lbd: u32, pure: bool) -> bool {
        if !self.ok {
            return false;
        }
        self.cancel_until(0);
        if self.lazy {
            if import {
                // An imported clause over a dormant cone must not activate
                // the cone — that would pay exactly the propagation tax
                // laziness avoids (measured: activate-on-import loses on
                // every swept bound). But dropping it outright forgoes
                // sound pruning forever (measured: the bound-5 inversion),
                // so instead the clause is *shelved*, watched on one of
                // its dormant variables, and replayed by
                // [`Solver::activate_vars`] the moment its whole cone is
                // awake. Sound in both directions: an import is redundant,
                // so deferring it loses no models, and replaying it only
                // prunes.
                if let Some(l) = ls.iter().find(|l| !self.var_active[l.var().index()]) {
                    if self.shelve {
                        let slot = self.shelved.len() as u32;
                        self.shelf_watch[l.var().index()].push(slot);
                        self.shelved.push(Some((ls, lbd, pure)));
                    }
                    return true;
                }
            } else {
                // An asserted clause references the cone for real: wake it
                // so the new clause's literals land on live watchers.
                self.activate_for_lits(ls.iter().copied());
                if !self.ok {
                    return false;
                }
            }
        }
        ls.sort();
        ls.dedup();
        // Detect tautologies and drop literals already false at level 0.
        // Each dropped literal strengthens the clause using that literal's
        // level-0 derivation, so purity is demoted unless the derivation
        // itself was skeleton-pure.
        let mut pure = pure;
        let mut filtered = Vec::with_capacity(ls.len());
        for (i, &l) in ls.iter().enumerate() {
            if i + 1 < ls.len() && ls[i + 1] == !l {
                return true; // tautology: l and ¬l both present
            }
            match self.lit_value(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => pure &= self.zero_pure[l.var().index()],
                LBool::Undef => filtered.push(l),
            }
        }
        match filtered.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.zero_pure[filtered[0].var().index()] = pure;
                self.unchecked_enqueue(filtered[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                let len = filtered.len() as u32;
                let cref = self.attach_new_clause(filtered, import);
                self.ca.set_skeleton(cref, pure);
                if import {
                    self.ca.set_imported(cref);
                    // The sender's LBD is an upper bound; level-0 stripping
                    // above can only have tightened the clause, and no
                    // clause is worse than its length.
                    self.set_learnt_lbd(cref, lbd.clamp(1, len));
                    if self.subsume_queue.len() < SUBSUME_QUEUE_CAP {
                        self.subsume_queue.push(cref);
                    }
                }
                true
            }
        }
    }

    pub(super) fn attach_new_clause(&mut self, lits: Vec<Lit>, learnt: bool) -> u32 {
        debug_assert!(lits.len() >= 2);
        let cref = self.ca.alloc(&lits, learnt);
        self.watches[lits[0].code()].push(Watcher {
            cref,
            blocker: lits[1],
        });
        self.watches[lits[1].code()].push(Watcher {
            cref,
            blocker: lits[0],
        });
        if learnt {
            self.learnt_refs.push(cref);
            // Filed LOCAL until the caller supplies a real LBD
            // (`set_learnt_lbd`), so the tier counters always balance.
            self.ca.set_tier(cref, TIER_LOCAL);
            self.n_tier[TIER_LOCAL as usize] += 1;
        } else {
            self.local_clauses.push(cref);
        }
        cref
    }

    /// Records a learnt clause's LBD and refiles it in the matching
    /// retention tier.
    pub(super) fn set_learnt_lbd(&mut self, cref: u32, lbd: u32) {
        self.ca.set_lbd(cref, lbd);
        self.move_tier(cref, tier_for_lbd(lbd));
    }

    fn move_tier(&mut self, cref: u32, tier: u32) {
        let old = self.ca.tier(cref);
        if old != tier {
            self.n_tier[old as usize] -= 1;
            self.n_tier[tier as usize] += 1;
            self.ca.set_tier(cref, tier);
        }
    }

    /// Shrinks the learnt database. Tiered mode (default): CORE clauses
    /// (LBD ≤ 2) are immortal, MID clauses that sat out the whole period
    /// since the previous reduction demote to LOCAL, and the
    /// lowest-activity half of the LOCAL tier is deleted. Legacy mode
    /// ([`Solver::set_tiered_retention`] off) halves the whole database by
    /// activity. Either way only *redundant* clauses are deleted, so the
    /// model set is untouched.
    pub(super) fn reduce_db(&mut self) {
        let mut pool: Vec<u32> = if self.tiered {
            for i in 0..self.learnt_refs.len() {
                let c = self.learnt_refs[i];
                if self.ca.tier(c) == TIER_MID {
                    if self.ca.is_used(c) {
                        self.ca.set_used(c, false);
                    } else {
                        self.move_tier(c, TIER_LOCAL);
                    }
                }
            }
            self.learnt_refs
                .iter()
                .copied()
                .filter(|&c| {
                    self.ca.tier(c) == TIER_LOCAL && self.ca.len(c) > 2 && !self.is_locked(c)
                })
                .collect()
        } else {
            self.learnt_refs
                .iter()
                .copied()
                .filter(|&c| self.ca.len(c) > 2 && !self.is_locked(c))
                .collect()
        };
        pool.sort_by(|&a, &b| {
            self.ca
                .activity(a)
                .partial_cmp(&self.ca.activity(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        pool.truncate(pool.len() / 2);
        self.remove_clauses(&pool);
        if self.ca.should_gc() {
            self.garbage_collect();
        }
    }

    fn is_locked(&self, cref: u32) -> bool {
        let first = self.ca.lit(cref, 0);
        self.lit_value(first) == LBool::True && self.reason[first.var().index()] == Some(cref)
    }

    /// Removes `cref`'s two watchers. Safe to call on an already-detached
    /// clause (the scans simply find nothing).
    pub(super) fn detach_clause(&mut self, cref: u32) {
        for j in 0..2 {
            let l = self.ca.lit(cref, j);
            let ws = &mut self.watches[l.code()];
            if let Some(p) = ws.iter().position(|w| w.cref == cref) {
                ws.swap_remove(p);
            }
        }
    }

    /// Detaches and frees a batch of live local clauses. Staged: first
    /// mark and detach everything, then purge the cref index lists, then
    /// free the arena blocks — so free-list reuse can never hand a block
    /// to a new clause while a stale cref to it survives in any list.
    /// Callers guarantee no victim is locked (a reason clause).
    pub(super) fn remove_clauses(&mut self, victims: &[u32]) {
        if victims.is_empty() {
            return;
        }
        for &c in victims {
            debug_assert!(!self.is_locked(c));
            self.detach_clause(c);
            if self.ca.is_learnt(c) {
                self.n_tier[self.ca.tier(c) as usize] -= 1;
            }
            self.ca.set_deleted(c);
        }
        let ca = &self.ca;
        self.learnt_refs.retain(|&c| !ca.is_deleted(c));
        self.local_clauses.retain(|&c| !ca.is_deleted(c));
        self.fresh_learnts.retain(|&c| !ca.is_deleted(c));
        self.subsume_queue.retain(|&c| !ca.is_deleted(c));
        for &c in victims {
            self.ca.free(c);
        }
    }

    /// Compacts the local arena: copies every live clause into a fresh slab
    /// and rewrites all crefs — watchers, reasons, and the clause index
    /// lists — through the relocation forwarding pointers. Sound at any
    /// decision level: only addresses change, never content. Shared crefs
    /// (high bit set) are untouched; shelved clauses store literal vectors,
    /// not crefs, so the shelf needs no pass.
    pub(super) fn garbage_collect(&mut self) {
        let before = self.ca.data_len();
        let mut to = ClauseArena::with_capacity(before - self.ca.wasted());
        for ws in &mut self.watches {
            for w in ws.iter_mut() {
                if w.cref & SHARED_BIT == 0 {
                    w.cref = self.ca.reloc(w.cref, &mut to);
                }
            }
        }
        for cr in self.reason.iter_mut().flatten() {
            if *cr & SHARED_BIT == 0 {
                *cr = self.ca.reloc(*cr, &mut to);
            }
        }
        for c in self.local_clauses.iter_mut() {
            *c = self.ca.reloc(*c, &mut to);
        }
        for c in self.learnt_refs.iter_mut() {
            *c = self.ca.reloc(*c, &mut to);
        }
        for c in self.fresh_learnts.iter_mut() {
            *c = self.ca.reloc(*c, &mut to);
        }
        for c in self.subsume_queue.iter_mut() {
            *c = self.ca.reloc(*c, &mut to);
        }
        self.stats.gc_runs += 1;
        self.stats.gc_reclaimed_words += (before - to.data_len()) as u64;
        self.ca = to;
    }
}
