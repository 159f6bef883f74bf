//! # litsynth-sat
//!
//! A conflict-driven clause-learning (CDCL) SAT solver.
//!
//! This crate is the bottom layer of the `litsynth` stack: the bounded
//! relational model finder in `litsynth-relalg` compiles relational logic to
//! CNF and uses this solver to enumerate model instances, exactly as the
//! paper's Alloy → Kodkod → MiniSAT pipeline does.
//!
//! The solver implements the standard modern architecture:
//!
//! * two-watched-literal unit propagation with blocker literals, over
//!   one value array indexed by literal, with binary clauses of the shared
//!   arena propagated from their watcher alone (no clause load),
//! * first-UIP conflict analysis with clause minimization,
//! * VSIDS variable activity with an indexed max-heap,
//! * phase saving,
//! * Luby-sequence restarts,
//! * a flat `u32` clause arena with free-list reuse and relocation GC,
//! * tiered learnt-clause retention (core/mid/local by LBD) with
//!   size-triggered database reduction,
//! * level-0 inprocessing: satisfied-clause purging, false-literal
//!   stripping, and on-the-fly subsumption / self-subsuming resolution,
//! * incremental solving under assumptions, and
//! * incremental clause addition between `solve` calls (used for
//!   blocking-clause model enumeration).
//!
//! There is one way into the search: [`Solver::solve`] takes assumption
//! literals, a [`ClauseExchange`] endpoint, and a [`SolveBudget`] — the
//! paper's single incremental solve-under-assumptions call. Pass
//! [`NoExchange`] and [`SolveBudget::unlimited`] for a plain solve.
//!
//! For portfolio solving, a formula can be compiled once into an immutable
//! [`SharedCnf`] arena (via [`CnfBuilder`]) and attached to any number of
//! solvers with [`Solver::attach_shared`] (or, with definitional layers
//! left dormant until referenced, [`Solver::attach_shared_lazy`]);
//! cooperating solvers trade learnt clauses through their exchange
//! endpoints, and a conflict-budgeted solve ([`SolveBudget::conflicts`])
//! is a short probing run whose VSIDS activities ([`Solver::activity`])
//! drive adaptive cube selection in `litsynth-portfolio`.
//!
//! For resilience testing, the budget also carries a [`FaultPlan`]
//! (normally armed via the `LITSYNTH_FAULT_PLAN` environment variable)
//! that injects panics, interrupts, and stalls at deterministic (query,
//! cube, attempt, restart) coordinates, so every recovery path can be
//! exercised; an interrupted solve yields [`BudgetedResult::Interrupted`].
//!
//! # Example
//!
//! ```
//! use litsynth_sat::{Lit, NoExchange, SolveBudget, Solver};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! // (a ∨ b) ∧ (¬a ∨ b) — forces b.
//! s.add_clause([Lit::pos(a), Lit::pos(b)]);
//! s.add_clause([Lit::neg(a), Lit::pos(b)]);
//! assert!(s.solve(&[], &mut NoExchange, &SolveBudget::unlimited()).is_sat());
//! assert_eq!(s.value(b), Some(true));
//! ```

mod arena;
mod budget;
mod exchange;
mod fault;
mod heap;
mod shared;
mod solver;
mod types;

pub use budget::{BudgetedResult, Interrupt, SolveBudget};
pub use exchange::{ClauseExchange, NoExchange};
pub use fault::{FaultAction, FaultCtx, FaultPlan, FaultPlanError, FaultSite};
pub use shared::{CnfBuilder, CnfLayer, GateDef, SharedCnf};
pub use solver::{SolveResult, Solver, SolverStats};
pub use types::{Lit, Var};

#[cfg(test)]
mod tests {
    use super::*;

    fn is_sat(s: &mut Solver) -> bool {
        s.solve(&[], &mut NoExchange, &SolveBudget::unlimited())
            .is_sat()
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert!(is_sat(&mut s));
    }

    #[test]
    fn single_unit() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause([Lit::pos(a)]);
        assert!(is_sat(&mut s));
        assert_eq!(s.value(a), Some(true));
    }

    #[test]
    fn contradiction_is_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause([Lit::pos(a)]);
        s.add_clause([Lit::neg(a)]);
        assert!(!is_sat(&mut s));
    }
}
