//! Cooperative budgets and cancellation for long-running solves.
//!
//! A production synthesis run fans thousands of SAT queries over many
//! workers for hours; a single pathological query must never pin a worker
//! forever. [`SolveBudget`] bounds one [`Solver::solve`] call by
//! conflicts, propagations, and wall clock, and carries an optional
//! [`CancelToken`] so an external supervisor can stop the search. All
//! limits are checked **at restart boundaries** — the solver never pays a
//! per-propagation check, so a budgeted solve costs the same as an
//! unbudgeted one, and a solve stops within one restart of its deadline.
//!
//! [`Solver::solve`]: crate::Solver::solve

use crate::fault::FaultCtx;
use crate::solver::SolveResult;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A shared cancellation flag, checked by the solver at restart boundaries.
///
/// Cloning is cheap (an `Arc` bump); every clone observes the same flag.
/// Cancellation is sticky — there is deliberately no `reset`, a cancelled
/// token stays cancelled so late-starting workers bail immediately.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Solves holding a clone of this token return
    /// [`Interrupt::Cancelled`] at their next restart boundary.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// `true` once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Why a budgeted solve stopped without a definitive answer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Interrupt {
    /// The conflict budget ran out.
    Conflicts,
    /// The propagation budget ran out.
    Propagations,
    /// The wall-clock deadline passed.
    Deadline,
    /// The [`CancelToken`] was cancelled.
    Cancelled,
    /// A [`FaultPlan`](crate::FaultPlan) site forced an interrupt (testing
    /// only).
    Injected,
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Interrupt::Conflicts => "conflict budget exhausted",
            Interrupt::Propagations => "propagation budget exhausted",
            Interrupt::Deadline => "wall-clock deadline passed",
            Interrupt::Cancelled => "cancelled",
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
    /// A budget, deadline, cancellation, or injected fault stopped the
    /// search first.
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

/// Limits for one `Solver::solve` call. The default is unlimited: zero
/// budgets mean "no limit", absent deadline/token mean "never".
#[derive(Clone, Debug, Default)]
pub struct SolveBudget {
    /// Maximum conflicts for this call (`0` = unlimited). Honored exactly:
    /// restart budgets are clamped to the remainder.
    pub max_conflicts: u64,
    /// Maximum propagations for this call (`0` = unlimited). Checked at
    /// restart boundaries, so a solve may overshoot by one restart's worth.
    pub max_propagations: u64,
    /// Wall-clock deadline; checked at restart boundaries.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation; checked at restart boundaries.
    pub cancel: Option<CancelToken>,
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

    /// `true` if no limit, deadline, token, or fault plan is set.
    pub fn is_unlimited(&self) -> bool {
        self.max_conflicts == 0
            && self.max_propagations == 0
            && self.deadline.is_none()
            && self.cancel.is_none()
            && self.fault.is_none()
    }

    /// The first exceeded limit, given the conflicts/propagations spent so
    /// far in this call. Called by the solver at restart boundaries.
    pub(crate) fn exceeded(
        &self,
        spent_conflicts: u64,
        spent_propagations: u64,
    ) -> Option<Interrupt> {
        if let Some(c) = &self.cancel {
            if c.is_cancelled() {
                return Some(Interrupt::Cancelled);
            }
        }
        if self.max_conflicts > 0 && spent_conflicts >= self.max_conflicts {
            return Some(Interrupt::Conflicts);
        }
        if self.max_propagations > 0 && spent_propagations >= self.max_propagations {
            return Some(Interrupt::Propagations);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(Interrupt::Deadline);
            }
        }
        None
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
    use std::time::Duration;

    #[test]
    fn default_budget_is_unlimited() {
        let b = SolveBudget::unlimited();
        assert!(b.is_unlimited());
        assert_eq!(b.exceeded(u64::MAX - 1, u64::MAX - 1), None);
        assert_eq!(b.conflicts_left(12345), u64::MAX);
    }

    #[test]
    fn conflict_budget_trips_and_reports_remaining() {
        let b = SolveBudget::conflicts(100);
        assert!(!b.is_unlimited());
        assert_eq!(b.exceeded(99, 0), None);
        assert_eq!(b.exceeded(100, 0), Some(Interrupt::Conflicts));
        assert_eq!(b.conflicts_left(40), 60);
        assert_eq!(b.conflicts_left(200), 0);
    }

    #[test]
    fn propagation_budget_trips() {
        let b = SolveBudget {
            max_propagations: 10,
            ..SolveBudget::default()
        };
        assert_eq!(b.exceeded(0, 9), None);
        assert_eq!(b.exceeded(0, 10), Some(Interrupt::Propagations));
    }

    #[test]
    fn deadline_trips_once_passed() {
        let b = SolveBudget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..SolveBudget::default()
        };
        assert_eq!(b.exceeded(0, 0), Some(Interrupt::Deadline));
        let later = SolveBudget {
            deadline: Some(Instant::now() + Duration::from_secs(3600)),
            ..SolveBudget::default()
        };
        assert_eq!(later.exceeded(0, 0), None);
    }

    #[test]
    fn cancel_token_is_shared_and_sticky() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!clone.is_cancelled());
        t.cancel();
        assert!(clone.is_cancelled());
        let b = SolveBudget {
            cancel: Some(clone),
            ..SolveBudget::default()
        };
        assert_eq!(b.exceeded(0, 0), Some(Interrupt::Cancelled));
    }

    #[test]
    fn cancellation_outranks_other_limits() {
        let t = CancelToken::new();
        t.cancel();
        let b = SolveBudget {
            max_conflicts: 1,
            cancel: Some(t),
            ..SolveBudget::default()
        };
        assert_eq!(b.exceeded(5, 0), Some(Interrupt::Cancelled));
    }
}
