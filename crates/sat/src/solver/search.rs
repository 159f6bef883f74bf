//! The search loop: the one solve entry point, restarts, and decisions.

use super::{
    SolveResult, Solver, CLA_DECAY, LEARNT_BUDGET_GROWTH, RESTART_BASE, SUBSUME_QUEUE_CAP,
    VAR_DECAY,
};
use crate::budget::{BudgetedResult, Interrupt, SolveBudget};
use crate::exchange::ClauseExchange;
use crate::fault::FaultAction;
use crate::types::{LBool, Lit, Var};

impl Solver {
    /// Solves under the given assumption literals, which hold only for
    /// this call. The one way into the search.
    ///
    /// **Exchange.** At every restart boundary (and on entry/exit) the
    /// solver exports the clauses learnt since the last exchange point and
    /// imports whatever peers published; pass
    /// [`NoExchange`](crate::NoExchange) to solve alone. See
    /// [`ClauseExchange`] for the soundness contract.
    ///
    /// **Budget.** The conflict limit and the fault-injection plan are
    /// checked at restart boundaries, so a budgeted solve costs nothing
    /// extra per propagation; [`SolveBudget::unlimited`] never interrupts.
    /// The conflict limit is honored exactly (restart budgets are clamped
    /// to the remainder).
    /// On [`BudgetedResult::Interrupted`] the solver state (learnt clauses,
    /// VSIDS activities, phases) stays warm and clauses learnt so far are
    /// still exported, so the call can be repeated with a larger budget —
    /// or, as the portfolio's pin probe does, the warmed activities read
    /// back through [`Solver::activity`].
    pub fn solve(
        &mut self,
        assumptions: &[Lit],
        exchange: &mut dyn ClauseExchange,
        budget: &SolveBudget,
    ) -> BudgetedResult {
        // Arm the local decision domain for the duration of this solve:
        // O(1) on, O(1) off, and the domain itself (built at
        // `declare_roots`) survives for the next solve on this query.
        self.domain_active = self.use_domain && self.domain.len() > 0;
        let r = self.solve_inner(assumptions, exchange, budget);
        self.domain_active = false;
        r
    }

    fn solve_inner(
        &mut self,
        assumptions: &[Lit],
        exchange: &mut dyn ClauseExchange,
        budget: &SolveBudget,
    ) -> BudgetedResult {
        self.model.clear();
        if !self.ok {
            return BudgetedResult::Done(SolveResult::Unsat);
        }
        // Lazy arenas: the assumptions declare which cones this solve
        // touches; wake them before search (and before imports, so peer
        // clauses over the now-live cones are accepted).
        self.activate_for_lits(assumptions.iter().copied());
        if !self.ok {
            return BudgetedResult::Done(SolveResult::Unsat);
        }
        let start_conflicts = self.stats.conflicts;
        self.export_fresh(exchange);
        self.import_pending(exchange);
        if !self.ok {
            return BudgetedResult::Done(SolveResult::Unsat);
        }
        // Level-0 inprocessing between queries: by far the most valuable
        // moment on a pooled solver, right after the previous query's
        // blocking clauses became level-0-satisfiable dead weight.
        self.simplify();
        if !self.ok {
            return BudgetedResult::Done(SolveResult::Unsat);
        }
        let mut restart = 0u64;
        loop {
            let spent_conflicts = self.stats.conflicts - start_conflicts;
            if let Some(i) = budget.exceeded(spent_conflicts) {
                self.cancel_until(0);
                self.export_fresh(exchange);
                return BudgetedResult::Interrupted(i);
            }
            if let Some(fault) = &budget.fault {
                match fault.action_at(restart) {
                    Some(FaultAction::Panic) => {
                        panic!("injected fault: panic at restart {restart}")
                    }
                    Some(FaultAction::Interrupt) => {
                        self.cancel_until(0);
                        self.export_fresh(exchange);
                        return BudgetedResult::Interrupted(Interrupt::Injected);
                    }
                    Some(FaultAction::Slow(d)) => std::thread::sleep(d),
                    None => {}
                }
            }
            let search_budget =
                (RESTART_BASE * luby(restart)).min(budget.conflicts_left(spent_conflicts));
            match self.search(search_budget, assumptions) {
                Some(r) => {
                    self.cancel_until(0);
                    self.export_fresh(exchange);
                    return BudgetedResult::Done(r);
                }
                None => {
                    self.stats.restarts += 1;
                    restart += 1;
                    self.cancel_until(0);
                    self.export_fresh(exchange);
                    self.import_pending(exchange);
                    if !self.ok {
                        return BudgetedResult::Done(SolveResult::Unsat);
                    }
                    // Restart boundaries are level 0 with fresh imports in
                    // the subsumption queue; the cadence gate keeps this
                    // from firing every restart.
                    self.simplify();
                    if !self.ok {
                        return BudgetedResult::Done(SolveResult::Unsat);
                    }
                }
            }
        }
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        // Two-level branching: while this solve has a live decision
        // domain, prefer the highest-activity variable of the declared
        // cone; only once the cone is fully assigned fall through to the
        // global heap. Popping from the local heap leaves the variable in
        // the global heap (and vice versa) — the stale entry is skipped by
        // the `Undef` check when it surfaces.
        if self.domain_active {
            while let Some(v) = self.domain.pop(&self.activity) {
                if self.is_unassigned(v) && self.var_active[v] {
                    self.stats.domain_decisions += 1;
                    return Some(Var(v as u32));
                }
            }
        }
        // Inactive (dormant-cone) variables are skipped: nothing watches
        // them, so assigning one could never propagate or conflict — it
        // would only pad the trail. They re-enter the heap on activation.
        while let Some(v) = self.heap.pop_max(&self.activity) {
            if self.is_unassigned(v) && self.var_active[v] {
                return Some(Var(v as u32));
            }
        }
        None
    }

    /// Exports the clauses learnt since the last exchange point.
    ///
    /// When a shared arena is attached, clauses mentioning any solver-local
    /// variable (one allocated after the arena's, e.g. an activation guard
    /// or a demand-translated Tseitin gate) are withheld: local indices are
    /// private to this solver and would alias unrelated variables at a
    /// peer. This is also what keeps guarded-blocking derivations — valid
    /// only under this solver's own guard assumption — from ever leaving.
    fn export_fresh(&mut self, exchange: &mut dyn ClauseExchange) {
        let exportable = self.shared.as_ref().map_or(usize::MAX, |s| s.num_vars());
        for (l, pure) in std::mem::take(&mut self.fresh_units) {
            if l.var().index() < exportable {
                exchange.export(&[l], 1, pure);
            }
        }
        for cref in std::mem::take(&mut self.fresh_learnts) {
            // Deleted clauses were already purged from `fresh_learnts` by
            // `remove_clauses`; only provenance filters remain.
            if self.ca.is_imported(cref)
                || self
                    .ca
                    .iter_lits(cref)
                    .any(|l| l.var().index() >= exportable)
            {
                continue;
            }
            let lits = self.ca.copy_lits(cref);
            exchange.export(&lits, self.ca.lbd(cref), self.ca.is_skeleton(cref));
        }
    }

    /// Imports pending peer clauses. Must be called at decision level 0.
    fn import_pending(&mut self, exchange: &mut dyn ClauseExchange) {
        debug_assert_eq!(self.decision_level(), 0);
        let mut buf = Vec::new();
        exchange.fetch(&mut buf);
        for (lits, lbd, pure) in buf {
            if !self.ok {
                break;
            }
            self.import_clause(lits, lbd, pure);
        }
    }

    /// Runs CDCL search for up to `budget` conflicts.
    ///
    /// Returns `Some(result)` on a definitive answer, `None` when the conflict
    /// budget was exhausted (caller restarts).
    fn search(&mut self, budget: u64, assumptions: &[Lit]) -> Option<SolveResult> {
        let mut conflicts = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Some(SolveResult::Unsat);
                }
                if self.decision_level() <= assumptions.len() {
                    // Conflict among the assumptions themselves.
                    return Some(SolveResult::Unsat);
                }
                let (learnt, bt, lbd, pure) = self.analyze(confl);
                // Never backtrack past the assumption levels.
                let bt = bt.max(self.trail_lim.len().min(assumptions.len()).min(bt));
                self.cancel_until(bt);
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    // A learnt unit is a resolvent of database clauses, so
                    // it is exportable like any other learnt clause.
                    self.fresh_units.push((asserting, pure));
                    if self.decision_level() == 0 {
                        if self.lit_value(asserting) == LBool::False {
                            self.ok = false;
                            return Some(SolveResult::Unsat);
                        }
                        if self.lit_value(asserting) == LBool::Undef {
                            self.zero_pure[asserting.var().index()] = pure;
                            self.unchecked_enqueue(asserting, None);
                        }
                    } else {
                        // Backtracked to an assumption level with a unit
                        // learnt clause: record it at level 0 next restart.
                        if self.lit_value(asserting) == LBool::Undef {
                            self.unchecked_enqueue(asserting, None);
                        } else if self.lit_value(asserting) == LBool::False {
                            return Some(SolveResult::Unsat);
                        }
                    }
                } else {
                    let cref = self.attach_new_clause(learnt, true);
                    self.set_learnt_lbd(cref, lbd.max(1));
                    self.ca.set_skeleton(cref, pure);
                    self.fresh_learnts.push(cref);
                    if self.subsume_queue.len() < SUBSUME_QUEUE_CAP {
                        self.subsume_queue.push(cref);
                    }
                    self.unchecked_enqueue(self.ca.lit(cref, 0), Some(cref));
                }
                self.var_inc /= VAR_DECAY;
                self.cla_inc /= CLA_DECAY;
                // Size-triggered reduction: fire when the live learnt
                // count outgrows its budget, however many conflicts that
                // takes (the budget growth guarantees forward progress even
                // when most of the database is binary or locked). Both
                // retention modes share the trigger — they differ only in
                // *which* clauses a reduction keeps — so a small database
                // is never pruned: on this workload learnts prune
                // enumeration hard, and early deletion costs more
                // propagations than the clauses' upkeep.
                if self.learnt_refs.len() as f64 > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= LEARNT_BUDGET_GROWTH;
                }
            } else {
                if conflicts >= budget {
                    return None; // restart
                }
                // Establish assumptions one level at a time.
                if self.decision_level() < assumptions.len() {
                    let p = assumptions[self.decision_level()];
                    match self.lit_value(p) {
                        LBool::True => {
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => return Some(SolveResult::Unsat),
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(p, None);
                        }
                    }
                    continue;
                }
                match self.pick_branch_var() {
                    None => {
                        self.model = self.vals.clone();
                        return Some(SolveResult::Sat);
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let phase = self.polarity[v.index()];
                        self.unchecked_enqueue(Lit::new(v, phase), None);
                    }
                }
            }
        }
    }
}

/// The Luby restart sequence: 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,…
pub(super) fn luby(mut x: u64) -> u64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}
