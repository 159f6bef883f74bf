//! The shard layer: cold-query units run once each on spawned threads.
//!
//! A cold query is planned as independent (axiom, bound) units
//! ([`litsynth_core::UnitPlan`]). [`run_sharded`] spawns
//! `min(shards, units)` scoped threads; each takes the next unit index
//! from one shared counter and runs that unit exactly once. It is the one
//! way a unit runs locally: [`run_distributed`] sends it every unit when
//! no remote worker is live, and otherwise the units that degraded out of
//! the remote tier ([`crate::remote`]). Cube attempts retry inside the
//! unit ([`litsynth_core::run_unit`] runs the resilient portfolio, the
//! engine's only retry layer); outside them a unit only plans, merges and
//! finishes, so a panic there would recur on any retry. One
//! `catch_unwind` turns it into an `Err` naming the unit.
//!
//! No unit runs on the thread that called [`run_sharded`]: on the server
//! that thread is the client's connection thread, and running one-unit
//! queries there raised serve-cold's peak memory by 40% (DESIGN.md §4).
//!
//! Determinism: results are returned in plan order, never by completion
//! order, and the merge is [`litsynth_core::merge_unit_suites`] over that
//! fixed order — so the shard count, and which units ran remotely, can
//! change *which thread* runs a unit but never the served bytes.

use crate::remote::RemotePool;
use litsynth_core::{run_unit, SynthResult, UnitPlan};
use litsynth_models::MemoryModel;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Shard-layer counters, as reported in [`crate::ServerStats::shard`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardRunStats {
    /// Always 0: units are claimed from one shared counter, so nothing is
    /// stolen. Kept because the wall-clock benchmark's `serve.shard_stolen`
    /// trace counter reads it.
    pub stolen: u64,
}

/// Runs every planned unit once on `min(shards, units)` spawned threads
/// and returns the per-unit results **in plan order**. `Err` names every
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
                        let outcome = catch_unwind(AssertUnwindSafe(|| run_unit(model, plan)));
                        ran.push((idx, outcome.map_err(|_| plan.unit.key.to_string())));
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

/// Runs a planned query across whatever compute is available. With no
/// live remote worker this is exactly [`run_sharded`] — single-host
/// queries never count as degraded. Otherwise the units are leased to the
/// workers ([`crate::remote`]), and the units that degrade run through
/// [`run_sharded`] once every other unit has resolved. Either way the
/// results come back in plan order, so the merge (and the served bytes)
/// cannot depend on where the units ran.
pub fn run_distributed<M: MemoryModel + Sync>(
    model: &M,
    request_model: &str,
    plans: &[UnitPlan],
    shards: usize,
    pool: &Arc<RemotePool>,
) -> Result<Vec<SynthResult>, String> {
    if pool.live() == 0 {
        return run_sharded(model, plans, shards);
    }
    let leased = crate::remote::run_batch(model, request_model, plans, pool)?;
    let degraded: Vec<UnitPlan> = plans
        .iter()
        .zip(&leased)
        .filter(|(_, r)| r.is_none())
        .map(|(p, _)| p.clone())
        .collect();
    let mut local = run_sharded(model, &degraded, shards)?.into_iter();
    Ok(leased
        .into_iter()
        .map(|r| {
            r.or_else(|| local.next())
                .expect("one result per degraded unit")
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use litsynth_core::{
        encode_suite_body, merge_unit_suites, plan_query, plan_units, synthesize_union_up_to,
        ProgressSink, SynthConfig,
    };
    use litsynth_models::Tso;
    use std::sync::Mutex;

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
