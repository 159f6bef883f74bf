//! Panic isolation and retry-with-backoff for pool workers.
//!
//! [`run_resilient`] is [`run_ordered`] with a supervisor around each
//! item: the work function runs under `catch_unwind`, a panicked or
//! interrupted attempt is retried with exponential backoff, and after
//! [`MAX_ATTEMPTS`] the item is reported [`TaskReport::degraded`] instead
//! of poisoning the pool or aborting the run. The caller decides what an attempt means — typically
//! a fresh solver per attempt, with exchange imports disabled on the last
//! one so the final try is maximally independent of peer timing (on a
//! lazily attached solver that also stops *new* clauses reaching the
//! import shelf; clauses shelved by earlier attempts are part of the
//! solver's database like any already-imported clause and replay as
//! usual — replays only prune, so they cannot wedge the final try).

use crate::pool::run_ordered;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Total attempts per item, including the first.
pub const MAX_ATTEMPTS: usize = 3;

/// Backoff before retry `k` is `BACKOFF_BASE_MS << (k-1)` milliseconds.
const BACKOFF_BASE_MS: u64 = 10;

/// What one attempt at one item produced.
#[derive(Clone, Debug)]
pub enum Attempt<R> {
    /// The attempt completed; no retry needed.
    Done(R),
    /// The attempt was interrupted (budget, deadline, injected fault, …).
    Interrupted {
        /// Human-readable reason, recorded in [`TaskReport::failures`].
        reason: String,
        /// Best-effort partial result, used if no later attempt completes.
        partial: Option<R>,
    },
}

/// The supervised outcome of one item.
#[derive(Clone, Debug)]
pub struct TaskReport<R> {
    /// The completed result, or the last partial result, or `None` when
    /// every attempt panicked without producing anything.
    pub result: Option<R>,
    /// `true` when no attempt completed — `result` (if any) is partial.
    pub degraded: bool,
    /// Attempts actually made (1 when the first try completed).
    pub attempts: usize,
    /// One reason per failed attempt, in order.
    pub failures: Vec<String>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

/// Runs `f` over every item on up to `threads` workers (results in item
/// order, like [`run_ordered`]), each item's attempts on its worker's
/// thread.
///
/// `f` receives `(index, item, attempt)` with `attempt` counting from 0;
/// it must treat each attempt as a fresh start (new solver state), because
/// a panic can leave anything the previous attempt touched behind.
pub fn run_resilient<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<TaskReport<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T, usize) -> Attempt<R> + Sync,
{
    run_ordered(items, threads, |i, item| {
        run_attempts(|attempt| f(i, item, attempt))
    })
}

/// Runs one item's attempts on the calling thread: each attempt under
/// `catch_unwind`, a panicked or interrupted attempt retried with
/// exponential backoff, up to [`MAX_ATTEMPTS`] in all.
fn run_attempts<R>(mut f: impl FnMut(usize) -> Attempt<R>) -> TaskReport<R> {
    let mut failures = Vec::new();
    let mut partial: Option<R> = None;
    for attempt in 0..MAX_ATTEMPTS {
        if attempt > 0 {
            let shift = (attempt - 1) as u32;
            std::thread::sleep(Duration::from_millis(BACKOFF_BASE_MS << shift));
        }
        match catch_unwind(AssertUnwindSafe(|| f(attempt))) {
            Ok(Attempt::Done(r)) => {
                return TaskReport {
                    result: Some(r),
                    degraded: false,
                    attempts: attempt + 1,
                    failures,
                };
            }
            Ok(Attempt::Interrupted { reason, partial: p }) => {
                failures.push(reason);
                if p.is_some() {
                    partial = p;
                }
            }
            Err(payload) => {
                failures.push(panic_message(payload));
            }
        }
    }
    TaskReport {
        result: partial,
        degraded: true,
        attempts: MAX_ATTEMPTS,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn first_attempt_success_is_clean() {
        let reports = run_resilient(&[1, 2, 3], 2, |_, &x, _| Attempt::Done(x * 10));
        let results: Vec<i32> = reports.iter().map(|r| r.result.unwrap()).collect();
        assert_eq!(results, vec![10, 20, 30]);
        assert!(reports.iter().all(|r| !r.degraded && r.attempts == 1));
        assert!(reports.iter().all(|r| r.failures.is_empty()));
    }

    #[test]
    fn panicking_attempt_is_retried_and_succeeds() {
        let tries = AtomicUsize::new(0);
        let reports = run_resilient(&[()], 1, |_, _, attempt| {
            tries.fetch_add(1, Ordering::Relaxed);
            if attempt == 0 {
                panic!("injected test panic");
            }
            Attempt::Done(42)
        });
        assert_eq!(tries.load(Ordering::Relaxed), 2);
        assert_eq!(reports[0].result, Some(42));
        assert!(!reports[0].degraded);
        assert_eq!(reports[0].attempts, 2);
        assert_eq!(reports[0].failures.len(), 1);
        assert!(reports[0].failures[0].contains("injected test panic"));
    }

    #[test]
    fn exhausted_attempts_degrade_with_last_partial() {
        let reports = run_resilient(&[()], 1, |_, _, attempt| Attempt::Interrupted {
            reason: format!("attempt {attempt} interrupted"),
            partial: Some(attempt),
        });
        assert!(reports[0].degraded);
        assert_eq!(
            reports[0].result,
            Some(MAX_ATTEMPTS - 1),
            "last attempt's partial wins"
        );
        assert_eq!(reports[0].attempts, MAX_ATTEMPTS);
        assert_eq!(reports[0].failures.len(), MAX_ATTEMPTS);
    }

    #[test]
    fn all_panics_degrade_with_no_result() {
        let reports: Vec<TaskReport<i32>> = run_resilient(&[()], 1, |_, _, _| -> Attempt<i32> {
            panic!("always");
        });
        assert!(reports[0].degraded);
        assert_eq!(reports[0].result, None);
        assert_eq!(reports[0].failures.len(), MAX_ATTEMPTS);
    }

    #[test]
    fn one_poisoned_item_does_not_poison_the_pool() {
        // 8 items on 4 threads, one item always panics: the other 7 must
        // come back clean and in order.
        let items: Vec<usize> = (0..8).collect();
        let reports = run_resilient(&items, 4, |_, &x, _| {
            if x == 3 {
                panic!("item 3 is cursed");
            }
            Attempt::Done(x)
        });
        for (i, r) in reports.iter().enumerate() {
            if i == 3 {
                assert!(r.degraded);
                assert_eq!(r.result, None);
            } else {
                assert_eq!(r.result, Some(i));
                assert!(!r.degraded);
            }
        }
    }
}
