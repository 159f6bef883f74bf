//! The shard layer: cold-query units run once each on spawned threads.
//!
//! A cold query is planned as independent (axiom, bound) units
//! ([`litsynth_core::UnitPlan`]). [`run_sharded`] spawns
//! `min(shards, units)` scoped threads; each takes the next unit index
//! from one shared counter and runs that unit under the portfolio's
//! retry loop ([`litsynth_portfolio::run_attempts`] with
//! [`RetryConfig::default`]), the same per-unit policy the remote tier's
//! local fallback uses. A panic anywhere in a unit costs that unit one
//! attempt; cube-level faults are retried inside the unit
//! ([`litsynth_core::run_unit`] runs the resilient portfolio), so this
//! layer only adds recovery for a unit whose whole run panicked.
//!
//! No unit runs on the thread that called [`run_sharded`]: on the server
//! that thread is the client's connection thread, and running one-unit
//! queries there raised serve-cold's peak memory by 40% (DESIGN.md §4).
//!
//! Determinism: results are returned by the unit's `seq`, never by
//! completion order, and the merge is
//! [`litsynth_core::merge_unit_suites`] over that fixed order — so the
//! shard count and retry timing can change *which thread* runs a unit
//! but never the served bytes.

use litsynth_core::{
    merge_unit_suites, run_unit, CanonicalSuite, SynthConfig, SynthResult, UnitPlan,
};
use litsynth_models::MemoryModel;
use litsynth_portfolio::{run_attempts, Attempt, RetryConfig, TaskReport};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Deterministic shard-level fault injection: panic the first `kills`
/// attempts at the unit with this key, inside the attempt, so each kill
/// costs the unit one retry. The cube-level analogue is
/// `LITSYNTH_FAULT_PLAN` / [`litsynth_sat::FaultPlan`], which this layer
/// happily runs *underneath* — the two compose.
#[derive(Clone, Debug)]
pub struct ShardFault {
    /// The unit key to kill on, e.g. `tso/causality/3`.
    pub key: String,
    /// How many attempts to kill before letting the unit run.
    pub kills: usize,
}

/// Shard-layer knobs.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Worker threads (minimum 1; never more than the query has units).
    pub shards: usize,
    /// Injected shard-kill fault, if any (tests only).
    pub fault: Option<ShardFault>,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            shards: 2,
            fault: None,
        }
    }
}

/// Counters for one [`run_sharded`] call.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardRunStats {
    /// Always 0: units are claimed from one shared counter, so nothing is
    /// stolen. Kept because the wall-clock benchmark's `serve.shard_stolen`
    /// trace counter reads it.
    pub stolen: u64,
    /// Units with a recorded result.
    pub completed: u64,
    /// Unit attempts retried after a panic.
    pub retried: u64,
}

/// A [`ShardFault`] armed for one run: the kills it has left.
pub(crate) struct ArmedFault<'a> {
    key: &'a str,
    left: AtomicUsize,
}

impl ArmedFault<'_> {
    fn arm(fault: &ShardFault) -> ArmedFault<'_> {
        ArmedFault {
            key: &fault.key,
            left: AtomicUsize::new(fault.kills),
        }
    }

    fn fire(&self, key: &str) {
        if self.key == key
            && self
                .left
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |k| k.checked_sub(1))
                .is_ok()
        {
            panic!("injected shard fault: killing the attempt at {key}");
        }
    }
}

/// Runs one unit under the portfolio's retry policy
/// ([`RetryConfig::default`]): every attempt is a fresh [`run_unit`]
/// behind `catch_unwind`. The report's `result` is `None` when every
/// attempt panicked.
pub(crate) fn run_unit_retrying<M: MemoryModel + Sync>(
    model: &M,
    plan: &UnitPlan,
    fault: Option<&ArmedFault<'_>>,
) -> TaskReport<SynthResult> {
    run_attempts(&RetryConfig::default(), |_| {
        if let Some(fault) = fault {
            fault.fire(&plan.unit.key);
        }
        Attempt::Done(run_unit(model, plan))
    })
}

/// Runs every planned unit once on `min(shards, units)` spawned threads
/// and returns the per-unit results **in seq order** plus the run's
/// counters. `Err` names every unit whose attempts all failed — partial
/// suites are never returned, because a silently missing unit would
/// break the byte-identity contract.
pub fn run_sharded<M: MemoryModel + Sync>(
    model: &M,
    plans: &[UnitPlan],
    cfg: &ShardConfig,
) -> Result<(Vec<SynthResult>, ShardRunStats), String> {
    let next = AtomicUsize::new(0);
    let fault = cfg.fault.as_ref().map(ArmedFault::arm);
    let mut reports: Vec<Option<TaskReport<SynthResult>>> = plans.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let claimers: Vec<_> = (0..cfg.shards.max(1).min(plans.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut ran = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(plan) = plans.get(idx) else {
                            return ran;
                        };
                        ran.push((idx, run_unit_retrying(model, plan, fault.as_ref())));
                    }
                })
            })
            .collect();
        for claimer in claimers {
            let ran = claimer
                .join()
                .expect("every attempt runs under catch_unwind");
            for (idx, report) in ran {
                reports[idx] = Some(report);
            }
        }
    });
    let mut stats = ShardRunStats::default();
    let mut results = Vec::with_capacity(plans.len());
    let mut failed = Vec::new();
    for (plan, report) in plans.iter().zip(reports) {
        let report = report.expect("the claim counter hands out every unit");
        stats.retried += report.retries();
        match report.result {
            Some(r) => results.push(r),
            None => failed.push(plan.unit.key.to_string()),
        }
    }
    if !failed.is_empty() {
        return Err(format!(
            "units failed after exhausting their crash budget: {}",
            failed.join(", ")
        ));
    }
    stats.completed = results.len() as u64;
    Ok((results, stats))
}

/// Runs a planned query across whatever compute is available: when the
/// remote pool has live workers the units go out on deadline leases
/// (degrading to local per-unit as budgets or workers run out,
/// per [`crate::remote`]); with no pool or no workers this is exactly
/// [`run_sharded`] — single-host queries never count as degraded.
/// Either way the results come back in seq order, so the merge (and the
/// served bytes) cannot depend on where the units ran.
pub fn run_distributed<M: MemoryModel + Sync>(
    model: &M,
    request_model: &str,
    plans: &[UnitPlan],
    cfg: &ShardConfig,
    pool: Option<&std::sync::Arc<crate::remote::RemotePool>>,
) -> Result<(Vec<SynthResult>, ShardRunStats, crate::remote::BatchStats), String> {
    match pool {
        Some(pool) if pool.live() > 0 => {
            let (results, batch) = crate::remote::run_batch(model, request_model, plans, pool)?;
            Ok((results, ShardRunStats::default(), batch))
        }
        _ => {
            let (results, stats) = run_sharded(model, plans, cfg)?;
            Ok((results, stats, crate::remote::BatchStats::default()))
        }
    }
}

/// Convenience: plan, run sharded, and merge in one call — the sharded
/// equivalent of [`litsynth_core::synthesize_union_up_to`].
pub fn sharded_union<M: MemoryModel + Sync>(
    model: &M,
    bounds: std::ops::RangeInclusive<usize>,
    mk_cfg: impl Fn(usize) -> SynthConfig,
    cfg: &ShardConfig,
) -> Result<(CanonicalSuite, ShardRunStats), String> {
    let plans = litsynth_core::plan_units(model, bounds, mk_cfg);
    let (results, stats) = run_sharded(model, &plans, cfg)?;
    let suites: Vec<&CanonicalSuite> = results.iter().map(|r| &r.tests).collect();
    Ok((merge_unit_suites(suites), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use litsynth_core::{encode_suite_body, plan_query, synthesize_union_up_to, ProgressSink};
    use litsynth_models::Tso;
    use std::sync::{Arc, Mutex};

    #[test]
    fn sharded_union_is_byte_identical_to_the_direct_sweep() {
        let m = Tso::new();
        let direct = encode_suite_body(&synthesize_union_up_to(&m, 2..=3, SynthConfig::new));
        // 16 shards is more than the query's units: only as many threads
        // as units are spawned.
        for shards in [1, 3, 16] {
            let cfg = ShardConfig {
                shards,
                ..ShardConfig::default()
            };
            let (suite, stats) =
                sharded_union(&m, 2..=3, SynthConfig::new, &cfg).expect("run succeeds");
            assert_eq!(direct, encode_suite_body(&suite), "{shards} shards");
            assert_eq!(stats.completed, 2 * m.axioms().len() as u64);
            assert_eq!(stats.retried, 0, "{shards} shards");
        }
    }

    #[test]
    fn no_unit_runs_on_the_calling_thread() {
        let m = Tso::new();
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let sink = {
            let ran_on = ran_on.clone();
            ProgressSink::new(move |_| ran_on.lock().unwrap().push(std::thread::current().id()))
        };
        let plans = plan_query(&m, &["sc_per_loc"], 2..=2, |n| {
            SynthConfig::new(n).with_progress(Some(sink.clone()))
        });
        assert_eq!(plans.len(), 1);
        run_sharded(&m, &plans, &ShardConfig::default()).expect("run succeeds");
        let ran_on = ran_on.lock().unwrap();
        assert_eq!(ran_on.len(), 1, "one unit, one progress event");
        assert_ne!(ran_on[0], std::thread::current().id());
    }

    #[test]
    fn killed_unit_attempt_is_retried_and_bytes_are_unchanged() {
        let m = Tso::new();
        let direct = encode_suite_body(&synthesize_union_up_to(&m, 2..=3, SynthConfig::new));
        let cfg = ShardConfig {
            shards: 2,
            fault: Some(ShardFault {
                key: "tso/causality/3".to_string(),
                kills: 1,
            }),
        };
        let (suite, stats) =
            sharded_union(&m, 2..=3, SynthConfig::new, &cfg).expect("recovered run succeeds");
        assert_eq!(
            direct,
            encode_suite_body(&suite),
            "crash must not change bytes"
        );
        assert_eq!(stats.retried, 1, "the killed attempt is retried once");
    }

    #[test]
    fn a_unit_that_always_kills_its_shard_fails_the_run_loudly() {
        let m = Tso::new();
        let cfg = ShardConfig {
            shards: 2,
            fault: Some(ShardFault {
                key: "tso/sc_per_loc/2".to_string(),
                kills: usize::MAX,
            }),
        };
        let err = sharded_union(&m, 2..=2, SynthConfig::new, &cfg)
            .expect_err("a terminally crashing unit must not vanish silently");
        assert!(err.contains("tso/sc_per_loc/2"), "{err}");
    }
}
