//! The work-stealing shard layer: claim, run, steal, crash-recover.
//!
//! A cold query is planned as independent (axiom, bound) units
//! ([`litsynth_core::UnitPlan`]) and pushed round-robin onto a
//! [`StealQueue`]. Each shard is one worker thread with the full shard
//! lifecycle:
//!
//! * **spawn** — one thread per shard slot;
//! * **heartbeat** — a per-slot counter bumped every scheduling step
//!   (surfaced in [`ShardRunStats`]);
//! * **steal** — an idle shard claims from the back of the longest
//!   sibling deque;
//! * **retire** — shards exit when every unit has a recorded outcome;
//! * **crash-recover** — the supervisor polls for dead threads, takes the
//!   unit the corpse held, re-enqueues it (bounded by
//!   [`ShardConfig::max_unit_attempts`]), and respawns the slot.
//!
//! Determinism: results are recorded by the unit's `seq`, never by
//! completion order, and the merge is
//! [`litsynth_core::merge_unit_suites`] over that fixed order — so shard
//! count, steal pattern, and crash timing can change *which thread* runs
//! a unit but never the served bytes. Each unit itself runs the journaled
//! resilient portfolio path ([`litsynth_core::run_unit`]), so cube-level
//! faults are retried inside the unit; this layer adds recovery for the
//! coarser failure of losing a whole shard thread.

use litsynth_core::{
    merge_unit_suites, run_unit, CanonicalSuite, SynthConfig, SynthResult, UnitPlan,
};
use litsynth_models::MemoryModel;
use litsynth_portfolio::StealQueue;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Deterministic shard-level fault injection: panic the claiming shard
/// thread (killing it outright, upstream of every `catch_unwind`) the
/// first `kills` times a unit with this key is claimed. The cube-level
/// analogue is `LITSYNTH_FAULT_PLAN` / [`litsynth_sat::FaultPlan`], which
/// this layer happily runs *underneath* — the two compose.
#[derive(Clone, Debug)]
pub struct ShardFault {
    /// The unit key to kill on, e.g. `tso/causality/3`.
    pub key: String,
    /// How many claims to kill before letting the unit run.
    pub kills: usize,
}

/// Shard-layer knobs.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Worker threads (minimum 1).
    pub shards: usize,
    /// Crash-retries per unit before the run reports it failed.
    pub max_unit_attempts: usize,
    /// Injected shard-kill fault, if any (tests only).
    pub fault: Option<ShardFault>,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            shards: 2,
            max_unit_attempts: 3,
            fault: None,
        }
    }
}

/// Counters for one [`run_sharded`] call.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardRunStats {
    /// Units claimed from the claimant's own deque.
    pub claimed_local: u64,
    /// Units claimed by stealing from a sibling.
    pub stolen: u64,
    /// Units with a recorded result.
    pub completed: u64,
    /// Units re-enqueued after their shard thread died.
    pub reassigned: u64,
    /// Shard threads respawned after a crash.
    pub respawns: u64,
    /// Scheduling steps over all shard threads (liveness signal).
    pub heartbeats: u64,
}

struct Core {
    results: Vec<Option<SynthResult>>,
    completed: usize,
    crash_retries: Vec<usize>,
    failed: Vec<String>,
}

struct Shared<'a, M> {
    model: &'a M,
    plans: &'a [UnitPlan],
    queue: StealQueue<usize>,
    core: Mutex<Core>,
    current: Vec<Mutex<Option<usize>>>,
    heartbeats: Vec<AtomicU64>,
    fault_key: Option<String>,
    kills_left: AtomicUsize,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One shard thread: heartbeat, claim (stealing when local work is dry),
/// run, record by seq, retire when everything is accounted for.
fn shard_loop<M: MemoryModel + Sync>(sh: &Shared<'_, M>, slot: usize) {
    let total = sh.plans.len();
    loop {
        sh.heartbeats[slot].fetch_add(1, Ordering::Relaxed);
        if lock(&sh.core).completed >= total {
            return; // retire
        }
        let Some((idx, _stolen)) = sh.queue.claim(slot) else {
            // Everything is claimed but not yet recorded (in flight on a
            // sibling, or awaiting crash reassignment): stay alive.
            std::thread::sleep(Duration::from_millis(1));
            continue;
        };
        // Publish what this thread holds *before* running it, so the
        // supervisor can recover the unit if the thread dies mid-run.
        *lock(&sh.current[slot]) = Some(idx);
        let plan = &sh.plans[idx];
        if sh.fault_key.as_deref() == Some(&*plan.unit.key)
            && sh
                .kills_left
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |k| k.checked_sub(1))
                .is_ok()
        {
            panic!(
                "injected shard fault: killing worker holding {}",
                plan.unit.key
            );
        }
        let r = run_unit(sh.model, plan);
        let mut core = lock(&sh.core);
        if core.results[idx].is_none() {
            core.results[idx] = Some(r);
            core.completed += 1;
        }
        drop(core);
        *lock(&sh.current[slot]) = None;
    }
}

/// Runs every planned unit across a crash-supervised work-stealing shard
/// pool and returns the per-unit results **in seq order** plus the run's
/// counters. `Err` lists the units that exhausted their crash budget —
/// partial suites are never returned, because a silently missing unit
/// would break the byte-identity contract.
pub fn run_sharded<M: MemoryModel + Sync>(
    model: &M,
    plans: &[UnitPlan],
    cfg: &ShardConfig,
) -> Result<(Vec<SynthResult>, ShardRunStats), String> {
    let total = plans.len();
    let mut stats = ShardRunStats::default();
    if total == 0 {
        return Ok((Vec::new(), stats));
    }
    let shards = cfg.shards.max(1);
    let sh = Shared {
        model,
        plans,
        queue: StealQueue::new(shards),
        core: Mutex::new(Core {
            results: plans.iter().map(|_| None).collect(),
            completed: 0,
            crash_retries: vec![0; total],
            failed: Vec::new(),
        }),
        current: (0..shards).map(|_| Mutex::new(None)).collect(),
        heartbeats: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        fault_key: cfg.fault.as_ref().map(|f| f.key.clone()),
        kills_left: AtomicUsize::new(cfg.fault.as_ref().map_or(0, |f| f.kills)),
    };
    for i in 0..total {
        sh.queue.push(i % shards, i);
    }
    let sh = &sh;
    let (reassigned, respawns) = (AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|scope| {
        let mut handles: Vec<Option<std::thread::ScopedJoinHandle<'_, ()>>> = (0..shards)
            .map(|slot| Some(scope.spawn(move || shard_loop(sh, slot))))
            .collect();
        while lock(&sh.core).completed < total {
            for (slot, entry) in handles.iter_mut().enumerate() {
                if !matches!(entry, Some(h) if h.is_finished()) {
                    continue;
                }
                let handle = entry.take().expect("matched Some above");
                if handle.join().is_ok() {
                    continue; // normal retirement (another slot finished the tail)
                }
                // The thread died. Whatever it held goes back on the
                // queue — unless this unit has crashed too many times,
                // in which case the run fails loudly.
                if let Some(idx) = lock(&sh.current[slot]).take() {
                    let mut core = lock(&sh.core);
                    if core.results[idx].is_none() {
                        core.crash_retries[idx] += 1;
                        if core.crash_retries[idx] > cfg.max_unit_attempts {
                            core.failed.push(sh.plans[idx].unit.key.to_string());
                            core.completed += 1;
                        } else {
                            drop(core);
                            sh.queue.push(slot, idx);
                            reassigned.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                *entry = Some(scope.spawn(move || shard_loop(sh, slot)));
                respawns.fetch_add(1, Ordering::Relaxed);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    let core = lock(&sh.core).failed.clone();
    if !core.is_empty() {
        return Err(format!(
            "units failed after exhausting their crash budget: {}",
            core.join(", ")
        ));
    }
    let (_, claimed_local, stolen) = sh.queue.stats().snapshot();
    stats.claimed_local = claimed_local;
    stats.stolen = stolen;
    stats.completed = total as u64;
    stats.reassigned = reassigned.load(Ordering::Relaxed);
    stats.respawns = respawns.load(Ordering::Relaxed);
    stats.heartbeats = sh
        .heartbeats
        .iter()
        .map(|h| h.load(Ordering::Relaxed))
        .sum();
    let results = lock(&sh.core)
        .results
        .iter_mut()
        .map(|r| r.take().expect("no failures, so every unit completed"))
        .collect();
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
            let (results, batch) =
                crate::remote::run_batch(model, request_model, plans, cfg, pool)?;
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
    use litsynth_core::{encode_suite_body, synthesize_union_up_to};
    use litsynth_models::Tso;

    #[test]
    fn sharded_union_is_byte_identical_to_the_direct_sweep() {
        let m = Tso::new();
        let direct = encode_suite_body(&synthesize_union_up_to(&m, 2..=3, SynthConfig::new));
        for shards in [1, 3] {
            let cfg = ShardConfig {
                shards,
                ..ShardConfig::default()
            };
            let (suite, stats) =
                sharded_union(&m, 2..=3, SynthConfig::new, &cfg).expect("run succeeds");
            assert_eq!(direct, encode_suite_body(&suite), "{shards} shards");
            assert_eq!(stats.completed, 2 * m.axioms().len() as u64);
            assert_eq!(stats.claimed_local + stats.stolen, stats.completed);
            assert!(stats.heartbeats > 0);
        }
    }

    #[test]
    fn killed_shard_worker_is_respawned_and_its_unit_reserved() {
        let m = Tso::new();
        let direct = encode_suite_body(&synthesize_union_up_to(&m, 2..=3, SynthConfig::new));
        let cfg = ShardConfig {
            shards: 2,
            max_unit_attempts: 3,
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
        assert!(stats.respawns >= 1, "the dead slot must be respawned");
        assert!(stats.reassigned >= 1, "the held unit must be re-enqueued");
    }

    #[test]
    fn a_unit_that_always_kills_its_shard_fails_the_run_loudly() {
        let m = Tso::new();
        let cfg = ShardConfig {
            shards: 2,
            max_unit_attempts: 2,
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
