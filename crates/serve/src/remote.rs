//! The coordinator side of multi-host sharding: remote workers, leases,
//! reclamation, and graceful degradation to local compute.
//!
//! A worker connects over the ordinary frame protocol and announces
//! itself with `HELLO`; the coordinator answers with the lease terms
//! (`LEASE lease_ms=N`) and the connection thread becomes that worker's
//! dispatcher. Every unit handed out (`UNIT`) carries a fresh **grant
//! id** and runs under a **deadline lease**: the worker must either
//! finish (`UNITDONE`), decline (`NACK`), or renew (`LEASE grant=G`)
//! before the deadline, or the coordinator reclaims the unit — the lease
//! expires, the unit goes back in the queue, and the connection is
//! closed (a worker that stopped renewing is presumed dead or wedged; a
//! straggler answer under the old grant is rejected as stale, so
//! reclamation can never double-merge a unit).
//!
//! This module only leases units. `run_batch` replays journaled units
//! on the coordinator (workers run journal-less), hands the rest to the
//! workers, and returns one outcome per unit in plan order: the unit's
//! result, or `None` for a unit that degraded. Lost units are re-queued
//! under a per-unit attempt budget; when the budget is exhausted or no
//! live worker remains, the unit **degrades to local compute** (counted,
//! never silent), and [`crate::shard::run_distributed`] runs it on the
//! shard threads like any cold unit. Every replayed or accepted result is
//! finished by [`litsynth_core::finish_unit`] on the query's thread, as a
//! local run finishes its own.
//!
//! Soundness of the merge is the same argument as the local shard layer:
//! each unit resolves exactly once (an answer under a grant that is not
//! the unit's live one is stale), every accepted `UNITDONE` is validated
//! against the unit's config fingerprint *and* an FNV content checksum,
//! and results come back in plan order once every unit has an outcome —
//! so the served suite is byte-identical to the direct sweep at any mix
//! of remote, local, and killed workers, and a partial suite is never
//! returned.

use crate::protocol::{
    is_timeout, lease_terms_body, open_unit_done, read_frame, read_renewal, write_frame, Nack,
    UnitAssign,
};
use litsynth_core::{finish_unit, suite_config, SynthResult, UnitPlan};
use litsynth_models::MemoryModel;
use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A point-in-time view of the remote tier's counters (all monotone,
/// summed over every worker connection and query).
#[derive(Clone, Copy, Debug, Default)]
pub struct RemoteStats {
    /// Workers that ever completed a `HELLO` registration.
    pub workers_connected: u64,
    /// Workers currently registered.
    pub workers_live: u64,
    /// `UNIT` frames dispatched (including re-dispatches).
    pub units_remote: u64,
    /// Units whose results were accepted from a worker.
    pub completed_remote: u64,
    /// Leases reclaimed for any reason (expiry, disconnect, drop
    /// mid-frame) with the unit re-queued.
    pub reclaimed_leases: u64,
    /// Reclaims specifically caused by a deadline expiring.
    pub lease_expiries: u64,
    /// `NACK` frames received (worker declined a unit).
    pub nacks: u64,
    /// `UNITDONE` frames rejected by validation (fingerprint skew,
    /// checksum mismatch, torn payload).
    pub rejected_results: u64,
    /// `UNITDONE` and `NACK` frames ignored as duplicate or stale (grant
    /// no longer live — the unit already completed or was reclaimed).
    pub duplicate_unitdone: u64,
    /// Units routed to local compute after remote attempts were
    /// exhausted or no live worker remained.
    pub degraded_to_local: u64,
}

#[derive(Default)]
struct Counters {
    workers_connected: AtomicU64,
    units_remote: AtomicU64,
    completed_remote: AtomicU64,
    reclaimed_leases: AtomicU64,
    lease_expiries: AtomicU64,
    nacks: AtomicU64,
    rejected_results: AtomicU64,
    duplicate_unitdone: AtomicU64,
    degraded_to_local: AtomicU64,
}

/// One dispatched (or dispatchable) unit: which batch it belongs to and
/// which slot in that batch.
#[derive(Clone)]
struct Task {
    batch: Arc<Batch>,
    idx: usize,
}

struct PoolState {
    queue: VecDeque<Task>,
    live: usize,
}

/// The coordinator's registry of remote workers plus the global queue of
/// units awaiting remote dispatch. One per server; shared by every
/// query's batch and every worker connection's dispatcher.
pub struct RemotePool {
    /// Lease deadline handed to workers, in milliseconds.
    pub lease_ms: u64,
    /// Remote dispatch attempts per unit before it degrades to local.
    pub remote_attempts: usize,
    state: Mutex<PoolState>,
    task_ready: Condvar,
    grants: AtomicU64,
    counters: Counters,
}

impl RemotePool {
    /// An empty pool with the given lease terms.
    pub fn new(lease_ms: u64, remote_attempts: usize) -> Arc<RemotePool> {
        Arc::new(RemotePool {
            lease_ms: lease_ms.max(1),
            remote_attempts: remote_attempts.max(1),
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                live: 0,
            }),
            task_ready: Condvar::new(),
            grants: AtomicU64::new(1),
            counters: Counters::default(),
        })
    }

    /// Workers currently registered.
    pub fn live(&self) -> usize {
        lock(&self.state).live
    }

    /// Snapshot of the remote tier's counters.
    pub fn stats(&self) -> RemoteStats {
        let c = &self.counters;
        RemoteStats {
            workers_connected: c.workers_connected.load(Ordering::Relaxed),
            workers_live: self.live() as u64,
            units_remote: c.units_remote.load(Ordering::Relaxed),
            completed_remote: c.completed_remote.load(Ordering::Relaxed),
            reclaimed_leases: c.reclaimed_leases.load(Ordering::Relaxed),
            lease_expiries: c.lease_expiries.load(Ordering::Relaxed),
            nacks: c.nacks.load(Ordering::Relaxed),
            rejected_results: c.rejected_results.load(Ordering::Relaxed),
            duplicate_unitdone: c.duplicate_unitdone.load(Ordering::Relaxed),
            degraded_to_local: c.degraded_to_local.load(Ordering::Relaxed),
        }
    }

    fn push(&self, task: Task) {
        lock(&self.state).queue.push_back(task);
        self.task_ready.notify_one();
    }

    fn pop(&self, wait: Duration) -> Option<Task> {
        let mut st = lock(&self.state);
        if let Some(t) = st.queue.pop_front() {
            return Some(t);
        }
        let (mut st, _) = self
            .task_ready
            .wait_timeout(st, wait)
            .unwrap_or_else(|e| e.into_inner());
        st.queue.pop_front()
    }

    /// Degrades every queued unit to local compute. Called when the last
    /// worker deregisters and by the batch's idle tick as a race guard (a
    /// unit queued just as the last worker died).
    fn drain_to_local(&self) {
        let drained: Vec<Task> = lock(&self.state).queue.drain(..).collect();
        for task in drained {
            let mut units = lock(&task.batch.units);
            if units[task.idx].lease == Lease::Queued {
                self.degrade(&task.batch, &mut units, task.idx);
            }
        }
    }

    fn degrade(&self, batch: &Batch, units: &mut [Unit], idx: usize) {
        self.counters
            .degraded_to_local
            .fetch_add(1, Ordering::Relaxed);
        batch.resolve(units, idx, None);
    }

    /// Accepts a validated remote result if `grant` is still the unit's
    /// live lease. Returns `false` for a stale or duplicate grant.
    fn complete(&self, task: &Task, grant: u64, r: SynthResult) -> bool {
        let mut units = lock(&task.batch.units);
        if units[task.idx].lease != Lease::Out(grant) {
            return false;
        }
        self.counters
            .completed_remote
            .fetch_add(1, Ordering::Relaxed);
        task.batch.resolve(&mut units, task.idx, Some(r));
        true
    }

    /// Records a failed remote attempt: re-queue for another worker while
    /// the attempt budget and a live worker remain, otherwise degrade the
    /// unit to local compute.
    fn fail_attempt(&self, task: &Task, grant: u64) {
        let mut units = lock(&task.batch.units);
        let unit = &mut units[task.idx];
        if unit.lease != Lease::Out(grant) {
            return; // stale failure: the unit moved on without us
        }
        unit.tries += 1;
        if unit.tries < self.remote_attempts && self.live() > 0 {
            unit.lease = Lease::Queued;
            drop(units);
            self.push(task.clone());
        } else {
            self.degrade(&task.batch, &mut units, task.idx);
        }
    }
}

/// Where one unit of a batch stands.
#[derive(Clone, Copy, PartialEq)]
enum Lease {
    /// Waiting in the pool queue for a worker.
    Queued,
    /// Out on a worker under this grant; an answer under any other grant
    /// is stale.
    Out(u64),
    /// Its outcome has gone to the query's thread.
    Resolved,
}

#[derive(Clone)]
struct Unit {
    lease: Lease,
    /// Remote dispatch attempts consumed.
    tries: usize,
}

/// One query's worth of units being leased. Shared (via `Arc`) between
/// the query's `run_batch` call and every worker connection that happens
/// to serve one of its units.
struct Batch {
    /// The request's model name (`tso`, `armv7`, …) — shipped in every
    /// `UNIT` so the worker can dispatch the same concrete model.
    model: String,
    plans: Vec<UnitPlan>,
    units: Mutex<Vec<Unit>>,
    /// Each unit's outcome, sent once, when the unit resolves: `Some`
    /// result, or `None` for a unit degraded to local compute.
    outcomes: mpsc::Sender<(usize, Option<SynthResult>)>,
}

impl Batch {
    /// Claims `idx` under a fresh grant and builds its `UNIT` body, or
    /// `None` if the unit is not queued.
    fn assign(&self, idx: usize, grant: u64) -> Option<UnitAssign> {
        let mut units = lock(&self.units);
        if units[idx].lease != Lease::Queued {
            return None;
        }
        units[idx].lease = Lease::Out(grant);
        drop(units);
        let p = &self.plans[idx];
        Some(UnitAssign {
            key: p.unit.key.to_string(),
            grant,
            model: self.model.clone(),
            axiom: p.axiom.to_string(),
            fingerprint: p.unit.fingerprint,
            config: suite_config(&p.cfg),
        })
    }

    /// Resolves `idx`, which the caller (holding `units`) has checked is
    /// unresolved, and hands its outcome to the query's thread.
    fn resolve(&self, units: &mut [Unit], idx: usize, outcome: Option<SynthResult>) {
        units[idx].lease = Lease::Resolved;
        // The receiver lives until every unit has resolved.
        let _ = self.outcomes.send((idx, outcome));
    }
}

/// Leases every planned unit to the remote worker pool and returns one
/// outcome per unit, **in plan order**: its result (replayed from the
/// journal or accepted from a worker, and finished by [`finish_unit`]),
/// or `None` for a unit that degraded to local compute. `Err` names every
/// unit whose finish step panicked — partial suites are never returned.
pub(crate) fn run_batch<M: MemoryModel>(
    model: &M,
    request_model: &str,
    plans: &[UnitPlan],
    pool: &Arc<RemotePool>,
) -> Result<Vec<Option<SynthResult>>, String> {
    let (outcomes, resolved) = mpsc::channel();
    let unit = Unit {
        lease: Lease::Queued,
        tries: 0,
    };
    let batch = Arc::new(Batch {
        model: request_model.to_string(),
        plans: plans.to_vec(),
        units: Mutex::new(vec![unit; plans.len()]),
        outcomes,
    });
    // Journal prefill: replay checkpointed units coordinator-side before
    // anything crosses the wire (workers run journal-less).
    for (idx, p) in plans.iter().enumerate() {
        let hit = p
            .cfg
            .journal
            .as_ref()
            .and_then(|j| j.lookup(&p.unit.key, p.unit.fingerprint));
        if let Some(tests) = hit {
            let mut r = SynthResult::carrying(tests);
            r.from_journal = true;
            batch.resolve(&mut lock(&batch.units), idx, Some(r));
        } else {
            pool.push(Task {
                batch: batch.clone(),
                idx,
            });
        }
    }
    let mut results: Vec<Option<SynthResult>> = plans.iter().map(|_| None).collect();
    let mut failed = Vec::new();
    for _ in 0..plans.len() {
        let (idx, outcome) = loop {
            match resolved.recv_timeout(Duration::from_millis(50)) {
                Ok(outcome) => break outcome,
                // The idle tick: a unit queued just as the last worker
                // died would otherwise wait forever.
                Err(_) if pool.live() == 0 => pool.drain_to_local(),
                Err(_) => {}
            }
        };
        let Some(r) = outcome else {
            continue;
        };
        let p = &plans[idx];
        match catch_unwind(AssertUnwindSafe(|| finish_unit(model, p.axiom, &p.cfg, &r))) {
            Ok(()) => results[idx] = Some(r),
            Err(_) => failed.push(p.unit.key.to_string()),
        }
    }
    if !failed.is_empty() {
        failed.sort();
        return Err(format!("units panicked: {}", failed.join(", ")));
    }
    Ok(results)
}

/// What ended one unit's lease on a worker connection.
enum LeaseEnd {
    /// Validated result accepted.
    Done,
    /// Worker declined or returned an invalid result; the connection
    /// stays up and the unit is re-queued.
    Failed,
    /// The lease deadline passed with no result, renewal, or NACK, or the
    /// connection died (EOF, IO error, or protocol violation).
    Lost,
}

/// Serves one registered worker: pops units off the pool queue, leases
/// them out, and polices the lease until the worker answers or the
/// deadline passes. Runs on the worker's connection thread (the server
/// hands over after the `HELLO`); returns when the connection dies, a
/// lease expires, or the server stops.
pub(crate) fn serve_worker(
    pool: &Arc<RemotePool>,
    reader: &mut BufReader<TcpStream>,
    writer: &Arc<Mutex<TcpStream>>,
    stop: &AtomicBool,
) -> io::Result<()> {
    {
        let mut w = lock(writer);
        write_frame(&mut *w, "LEASE", &lease_terms_body(pool.lease_ms))?;
    }
    {
        let mut st = lock(&pool.state);
        st.live += 1;
    }
    pool.counters
        .workers_connected
        .fetch_add(1, Ordering::Relaxed);
    let outcome = worker_loop(pool, reader, writer, stop);
    let drained = {
        let mut st = lock(&pool.state);
        st.live -= 1;
        st.live == 0
    };
    if drained {
        // Last worker gone: nothing will ever pop the queue again, so
        // every pending unit degrades to local compute.
        pool.drain_to_local();
    }
    outcome
}

fn worker_loop(
    pool: &Arc<RemotePool>,
    reader: &mut BufReader<TcpStream>,
    writer: &Arc<Mutex<TcpStream>>,
    stop: &AtomicBool,
) -> io::Result<()> {
    let lease = Duration::from_millis(pool.lease_ms);
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let Some(task) = pool.pop(Duration::from_millis(50)) else {
            continue;
        };
        let grant = pool.grants.fetch_add(1, Ordering::Relaxed);
        let Some(assign) = task.batch.assign(task.idx, grant) else {
            continue; // unit finished while queued
        };
        pool.counters.units_remote.fetch_add(1, Ordering::Relaxed);
        let sent = write_frame(&mut *lock(writer), "UNIT", &assign.to_body());
        let end = match sent {
            Ok(()) => police_lease(pool, reader, writer, &task, &assign, lease),
            Err(_) => LeaseEnd::Lost,
        };
        match end {
            LeaseEnd::Done => {}
            LeaseEnd::Failed => pool.fail_attempt(&task, grant),
            LeaseEnd::Lost => {
                pool.counters
                    .reclaimed_leases
                    .fetch_add(1, Ordering::Relaxed);
                pool.fail_attempt(&task, grant);
                // A worker that went silent past its lease is presumed
                // dead or wedged; drop the connection so a straggler
                // answer can't tie up this thread.
                return Ok(());
            }
        }
    }
}

/// Reads frames for one outstanding lease until it resolves. Renewals
/// (`LEASE grant=G`) push the deadline; stale `UNITDONE`s from earlier
/// grants are counted and skipped; validation failures send the worker
/// an `ERR` naming the digests and fail the attempt.
fn police_lease(
    pool: &Arc<RemotePool>,
    reader: &mut BufReader<TcpStream>,
    writer: &Arc<Mutex<TcpStream>>,
    task: &Task,
    assign: &UnitAssign,
    lease: Duration,
) -> LeaseEnd {
    let c = &pool.counters;
    let mut deadline = Instant::now() + lease;
    loop {
        let frame = match read_frame(reader) {
            Ok(Some(f)) => f,
            Ok(None) => return LeaseEnd::Lost,
            Err(e) if is_timeout(&e) => {
                if Instant::now() > deadline {
                    c.lease_expiries.fetch_add(1, Ordering::Relaxed);
                    return LeaseEnd::Lost;
                }
                continue;
            }
            Err(_) => return LeaseEnd::Lost,
        };
        match frame.0.as_str() {
            "LEASE" => {
                if read_renewal(&frame.1) == Ok(assign.grant) {
                    deadline = Instant::now() + lease;
                }
            }
            "NACK" => match Nack::from_body(&frame.1) {
                Ok(n) if n.grant == assign.grant => {
                    c.nacks.fetch_add(1, Ordering::Relaxed);
                    return LeaseEnd::Failed;
                }
                Ok(_) => {
                    c.duplicate_unitdone.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => return LeaseEnd::Lost,
            },
            "UNITDONE" => match open_unit_done(&frame.1, assign) {
                Ok(Some(result)) => {
                    if !pool.complete(task, assign.grant, result) {
                        c.duplicate_unitdone.fetch_add(1, Ordering::Relaxed);
                    }
                    return LeaseEnd::Done;
                }
                // A duplicate or reclaimed-lease straggler: ignore it, the
                // live lease is still out.
                Ok(None) => {
                    c.duplicate_unitdone.fetch_add(1, Ordering::Relaxed);
                }
                Err(reason) => {
                    c.rejected_results.fetch_add(1, Ordering::Relaxed);
                    let mut w = lock(writer);
                    let _ = write_frame(
                        &mut *w,
                        "ERR",
                        &format!("rejected UNITDONE for {}: {reason}", assign.key),
                    );
                    return LeaseEnd::Failed;
                }
            },
            _ => return LeaseEnd::Lost, // protocol violation mid-lease
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::run_distributed;
    use litsynth_core::{plan_units, ProgressSink, SynthConfig};
    use litsynth_models::Tso;

    #[test]
    fn degraded_units_run_on_shard_threads_not_the_query_thread() {
        // One registered worker that never pops a unit and leaves once
        // every unit is queued: every unit degrades, and must run on a
        // shard thread like any cold unit, never on the thread that asked
        // for the query.
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let sink = {
            let ran_on = ran_on.clone();
            ProgressSink::new(move |_| lock(&ran_on).push(std::thread::current().id()))
        };
        let m = Tso::new();
        let plans = plan_units(&m, 2..=2, |n| {
            SynthConfig::new(n).with_progress(Some(sink.clone()))
        });
        let pool = RemotePool::new(1_000, 3);
        lock(&pool.state).live = 1;
        let leaver = {
            let (pool, units) = (pool.clone(), plans.len());
            std::thread::spawn(move || {
                while lock(&pool.state).queue.len() < units {
                    std::thread::sleep(Duration::from_millis(1));
                }
                lock(&pool.state).live = 0;
            })
        };
        let results = run_distributed(&m, "tso", &plans, 2, &pool).expect("run succeeds");
        leaver.join().unwrap();
        assert_eq!(results.len(), plans.len(), "every unit comes back");
        let stats = pool.stats();
        assert_eq!(stats.degraded_to_local, plans.len() as u64, "{stats:?}");
        assert_eq!(stats.units_remote, 0, "{stats:?}");
        let ran_on = lock(&ran_on);
        assert_eq!(ran_on.len(), plans.len(), "one progress event per unit");
        let me = std::thread::current().id();
        assert!(
            ran_on.iter().all(|&t| t != me),
            "a unit ran on the query thread"
        );
    }

    #[test]
    fn a_panicking_finish_step_fails_the_query_naming_the_unit() {
        // Every unit replays from the journal, so the coordinator finishes
        // all of them itself; a panic there must fail the query loudly.
        let dir =
            std::env::temp_dir().join(format!("litsynth-remote-finish-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = litsynth_core::Journal::open(&dir).expect("journal opens");
        let m = Tso::new();
        let plan = |sink: Option<ProgressSink>| {
            litsynth_core::plan_query(&m, &["sc_per_loc"], 2..=2, |n| {
                SynthConfig::new(n)
                    .with_journal(Some(journal.clone()))
                    .with_progress(sink.clone())
            })
        };
        litsynth_core::run_unit(&m, &plan(None)[0]);
        // A miss would queue the unit for a worker that never comes.
        assert_eq!(journal.entries(), 1, "the unit is journaled");
        let sink = ProgressSink::new(|e| panic!("progress sink fails at {}", e.key));
        let pool = RemotePool::new(1_000, 3);
        lock(&pool.state).live = 1;
        let err = run_distributed(&m, "tso", &plan(Some(sink)), 2, &pool)
            .expect_err("a panicking finish step must not vanish silently");
        assert!(err.contains("tso/sc_per_loc/2"), "{err}");
        assert_eq!(
            pool.stats().units_remote,
            0,
            "a replayed unit is never leased"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
