//! The shard layer: cold-query units run once each on spawned threads.
//!
//! A cold query is planned as independent (axiom, bound) units
//! ([`litsynth_core::UnitPlan`]). [`run_sharded`] spawns
//! `min(shards, units)` scoped threads; each takes the next unit index
//! from one shared counter and runs that unit exactly once, as the remote
//! tier's local fallback does. Cube attempts retry inside the unit
//! ([`litsynth_core::run_unit`] runs the resilient portfolio, the engine's
//! only retry layer); outside them a unit only plans, merges and
//! finishes, so a panic there would recur on any retry. One
//! `catch_unwind` turns it into an `Err` naming the unit.
//!
//! No unit runs on the thread that called [`run_sharded`]: on the server
//! that thread is the client's connection thread, and running one-unit
//! queries there raised serve-cold's peak memory by 40% (DESIGN.md §4).
//!
//! Determinism: results are returned by the unit's `seq`, never by
//! completion order, and the merge is
//! [`litsynth_core::merge_unit_suites`] over that fixed order — so the
//! shard count can change *which thread* runs a unit but never the served
//! bytes.

use litsynth_core::{
    merge_unit_suites, run_unit, CanonicalSuite, SynthConfig, SynthResult, UnitPlan,
};
use litsynth_models::MemoryModel;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Shard-layer counters, as reported in [`crate::ServerStats::shard`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardRunStats {
    /// Always 0: units are claimed from one shared counter, so nothing is
    /// stolen. Kept because the wall-clock benchmark's `serve.shard_stolen`
    /// trace counter reads it.
    pub stolen: u64,
}

/// Runs one unit once: [`run_unit`] behind one `catch_unwind`. A panic
/// comes back as `Err` carrying the unit's key.
pub(crate) fn run_unit_once<M: MemoryModel + Sync>(
    model: &M,
    plan: &UnitPlan,
) -> Result<SynthResult, String> {
    catch_unwind(AssertUnwindSafe(|| run_unit(model, plan))).map_err(|_| plan.unit.key.to_string())
}

/// Runs every planned unit once on `min(shards, units)` spawned threads
/// and returns the per-unit results **in seq order**. `Err` names every
/// unit that panicked — partial suites are never returned, because a
/// silently missing unit would break the byte-identity contract.
pub fn run_sharded<M: MemoryModel + Sync>(
    model: &M,
    plans: &[UnitPlan],
    shards: usize,
) -> Result<Vec<SynthResult>, String> {
    let next = AtomicUsize::new(0);
    let mut outcomes: Vec<Option<Result<SynthResult, String>>> =
        plans.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let claimers: Vec<_> = (0..shards.max(1).min(plans.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut ran = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(plan) = plans.get(idx) else {
                            return ran;
                        };
                        ran.push((idx, run_unit_once(model, plan)));
                    }
                })
            })
            .collect();
        for claimer in claimers {
            let ran = claimer.join().expect("every unit runs under catch_unwind");
            for (idx, outcome) in ran {
                outcomes[idx] = Some(outcome);
            }
        }
    });
    let mut results = Vec::with_capacity(plans.len());
    let mut failed = Vec::new();
    for outcome in outcomes {
        match outcome.expect("the claim counter hands out every unit") {
            Ok(r) => results.push(r),
            Err(key) => failed.push(key),
        }
    }
    if !failed.is_empty() {
        return Err(format!("units panicked: {}", failed.join(", ")));
    }
    Ok(results)
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
    shards: usize,
    pool: Option<&std::sync::Arc<crate::remote::RemotePool>>,
) -> Result<Vec<SynthResult>, String> {
    match pool {
        Some(pool) if pool.live() > 0 => {
            crate::remote::run_batch(model, request_model, plans, pool)
        }
        _ => run_sharded(model, plans, shards),
    }
}

/// Convenience: plan, run sharded, and merge in one call — the sharded
/// equivalent of [`litsynth_core::synthesize_union_up_to`].
pub fn sharded_union<M: MemoryModel + Sync>(
    model: &M,
    bounds: std::ops::RangeInclusive<usize>,
    mk_cfg: impl Fn(usize) -> SynthConfig,
    shards: usize,
) -> Result<CanonicalSuite, String> {
    let plans = litsynth_core::plan_units(model, bounds, mk_cfg);
    let results = run_sharded(model, &plans, shards)?;
    Ok(merge_unit_suites(results.iter().map(|r| &r.tests)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use litsynth_core::{
        encode_suite_body, plan_query, plan_units, synthesize_union_up_to, ProgressSink,
    };
    use litsynth_models::Tso;
    use std::sync::{Arc, Mutex};

    #[test]
    fn sharded_union_is_byte_identical_to_the_direct_sweep() {
        let m = Tso::new();
        let direct = encode_suite_body(&synthesize_union_up_to(&m, 2..=3, SynthConfig::new));
        let plans = plan_units(&m, 2..=3, SynthConfig::new);
        // 16 shards is more than the query's units: only as many threads
        // as units are spawned.
        for shards in [1, 3, 16] {
            let results = run_sharded(&m, &plans, shards).expect("run succeeds");
            assert_eq!(results.len(), 2 * m.axioms().len(), "{shards} shards");
            let suite = merge_unit_suites(results.iter().map(|r| &r.tests));
            assert_eq!(direct, encode_suite_body(&suite), "{shards} shards");
        }
        // The convenience wrapper is the same plan, run and merge.
        let suite = sharded_union(&m, 2..=3, SynthConfig::new, 2).expect("run succeeds");
        assert_eq!(direct, encode_suite_body(&suite));
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
        run_sharded(&m, &plans, 2).expect("run succeeds");
        let ran_on = ran_on.lock().unwrap();
        assert_eq!(ran_on.len(), 1, "one unit, one progress event");
        assert_ne!(ran_on[0], std::thread::current().id());
    }

    #[test]
    fn a_panicking_unit_runs_once_and_fails_the_run_loudly() {
        let m = Tso::new();
        // The sink runs in the unit's finish step, outside every cube
        // attempt, so no retry layer sees this panic: the unit must run
        // once and fail the whole run, naming itself.
        let runs = Arc::new(AtomicUsize::new(0));
        let sink = {
            let runs = runs.clone();
            ProgressSink::new(move |e| {
                if e.key == "tso/sc_per_loc/2" {
                    runs.fetch_add(1, Ordering::SeqCst);
                    panic!("progress sink fails at {}", e.key);
                }
            })
        };
        let plans = plan_units(&m, 2..=2, |n| {
            SynthConfig::new(n).with_progress(Some(sink.clone()))
        });
        let err =
            run_sharded(&m, &plans, 2).expect_err("a panicking unit must not vanish silently");
        assert!(err.contains("tso/sc_per_loc/2"), "{err}");
        assert_eq!(runs.load(Ordering::SeqCst), 1, "the unit runs exactly once");
    }
}
