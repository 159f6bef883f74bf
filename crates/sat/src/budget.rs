//! Cooperative budgets for solves.
//!
//! [`SolveBudget`] bounds one [`Solver::solve`] call by conflicts and
//! carries the deterministic fault-injection coordinates. Both are checked
//! **at restart boundaries** — the solver never pays a per-propagation
//! check, so a budgeted solve costs the same as an unbudgeted one. The
//! conflict budget drives the portfolio's short pin-ranking probe.
//!
//! [`Solver::solve`]: crate::Solver::solve

use crate::fault::FaultCtx;
use crate::solver::SolveResult;

/// Why a budgeted solve stopped without a definitive answer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Interrupt {
    /// The conflict budget ran out.
    Conflicts,
    /// A [`FaultPlan`](crate::FaultPlan) site forced an interrupt (testing
    /// only).
    Injected,
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Interrupt::Conflicts => "conflict budget exhausted",
            Interrupt::Injected => "injected interrupt",
        };
        f.write_str(s)
    }
}

/// Result of a budgeted solve: a definitive answer, or the reason the
/// search was stopped early. The solver state stays warm either way, so an
/// interrupted solve can be resumed by calling again with a larger budget.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BudgetedResult {
    /// The search finished with a definitive answer.
    Done(SolveResult),
    /// The conflict budget or an injected fault stopped the search first.
    Interrupted(Interrupt),
}

impl BudgetedResult {
    /// `true` if the result is `Done(Sat)`.
    pub fn is_sat(self) -> bool {
        matches!(self, BudgetedResult::Done(SolveResult::Sat))
    }

    /// The definitive answer, or `None` when interrupted.
    pub fn done(self) -> Option<SolveResult> {
        match self {
            BudgetedResult::Done(r) => Some(r),
            BudgetedResult::Interrupted(_) => None,
        }
    }
}

/// Limits for one `Solver::solve` call. The default is unlimited: a zero
/// conflict budget means "no limit".
#[derive(Clone, Debug, Default)]
pub struct SolveBudget {
    /// Maximum conflicts for this call (`0` = unlimited). Honored exactly:
    /// restart budgets are clamped to the remainder.
    pub max_conflicts: u64,
    /// Deterministic fault-injection coordinates (testing only).
    pub fault: Option<FaultCtx>,
}

impl SolveBudget {
    /// An unlimited budget — a solve under it never interrupts.
    pub fn unlimited() -> SolveBudget {
        SolveBudget::default()
    }

    /// A conflict-only budget.
    pub fn conflicts(max_conflicts: u64) -> SolveBudget {
        SolveBudget {
            max_conflicts,
            ..SolveBudget::default()
        }
    }

    /// The exceeded limit, given the conflicts spent so far in this call.
    /// Called by the solver at restart boundaries.
    pub(crate) fn exceeded(&self, spent_conflicts: u64) -> Option<Interrupt> {
        (self.max_conflicts > 0 && spent_conflicts >= self.max_conflicts)
            .then_some(Interrupt::Conflicts)
    }

    /// Conflicts left before [`SolveBudget::max_conflicts`] trips
    /// (`u64::MAX` when unlimited).
    pub(crate) fn conflicts_left(&self, spent_conflicts: u64) -> u64 {
        if self.max_conflicts == 0 {
            u64::MAX
        } else {
            self.max_conflicts.saturating_sub(spent_conflicts)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited() {
        let b = SolveBudget::unlimited();
        assert_eq!(b.exceeded(u64::MAX - 1), None);
        assert_eq!(b.conflicts_left(12345), u64::MAX);
    }

    #[test]
    fn conflict_budget_trips_and_reports_remaining() {
        let b = SolveBudget::conflicts(100);
        assert_eq!(b.exceeded(99), None);
        assert_eq!(b.exceeded(100), Some(Interrupt::Conflicts));
        assert_eq!(b.conflicts_left(40), 60);
        assert_eq!(b.conflicts_left(200), 0);
    }
}
