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
//! Soundness of the merge is the same argument as the local shard layer:
//! results are recorded by the unit's `seq` under first-wins, every
//! accepted `UNITDONE` is validated against the unit's config
//! fingerprint *and* an FNV content checksum, and a query completes only
//! when every unit has a recorded outcome. Lost units are re-queued
//! under a per-unit attempt budget; when the budget is exhausted or no
//! live worker remains, the unit **degrades to local compute** (counted,
//! never silent): the query's own thread runs it once, exactly as a shard
//! thread would — so the served suite is byte-identical to the direct
//! sweep at any mix of remote, local, and killed workers, and a partial
//! suite is never returned.

use crate::protocol::{
    is_timeout, lease_terms_body, open_unit_done, read_frame, read_renewal, write_frame, Nack,
    UnitAssign,
};
use crate::shard::run_unit_once;
use litsynth_core::{suite_config, ProgressEvent, SynthResult, UnitPlan};
use litsynth_models::MemoryModel;
use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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

    /// Routes every queued task to its batch's local fallback. Called
    /// when the last worker deregisters and by the batch wait loop as a
    /// race guard (a task pushed just as the last worker died).
    fn drain_to_local(&self) {
        let drained: Vec<Task> = lock(&self.state).queue.drain(..).collect();
        for task in drained {
            self.route_local(&task);
        }
    }

    fn route_local(&self, task: &Task) {
        let mut st = lock(&task.batch.state);
        if st.results[task.idx].is_some() {
            return;
        }
        st.granted[task.idx] = None;
        st.local_queue.push(task.idx);
        self.counters
            .degraded_to_local
            .fetch_add(1, Ordering::Relaxed);
        task.batch.progress_cv.notify_all();
    }

    /// Records a failed remote attempt: re-queue for another worker while
    /// the attempt budget and a live worker remain, otherwise degrade the
    /// unit to the batch's local fallback queue.
    fn fail_attempt(&self, task: &Task, grant: u64) {
        let go_remote = {
            let mut st = lock(&task.batch.state);
            if st.granted[task.idx] != Some(grant) || st.results[task.idx].is_some() {
                return; // stale failure: the unit moved on without us
            }
            st.granted[task.idx] = None;
            st.tries[task.idx] += 1;
            st.tries[task.idx] < self.remote_attempts && self.live() > 0
        };
        if go_remote {
            self.push(task.clone());
        } else {
            self.route_local(task);
        }
    }
}

struct BatchState {
    results: Vec<Option<SynthResult>>,
    /// Remote dispatch attempts consumed, per unit.
    tries: Vec<usize>,
    /// The currently-live grant per unit; `None` when the unit is not
    /// out on a lease. An answer under any other grant is stale.
    granted: Vec<Option<u64>>,
    /// Units routed to the local fallback, drained by [`run_batch`].
    local_queue: Vec<usize>,
    completed: usize,
    failed: Vec<String>,
}

/// One query's worth of units being distributed. Shared (via `Arc`)
/// between the query's [`run_batch`] call and every worker connection
/// that happens to serve one of its units.
struct Batch {
    /// The request's model name (`tso`, `armv7`, …) — shipped in every
    /// `UNIT` so the worker can dispatch the same concrete model.
    model: String,
    plans: Vec<UnitPlan>,
    state: Mutex<BatchState>,
    progress_cv: Condvar,
}

impl Batch {
    /// Claims `idx` under a fresh grant and builds its `UNIT` body, or
    /// `None` if the unit already has a result.
    fn assign(&self, idx: usize, grant: u64) -> Option<UnitAssign> {
        let mut st = lock(&self.state);
        if st.results[idx].is_some() {
            return None;
        }
        st.granted[idx] = Some(grant);
        drop(st);
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

    /// Records a validated remote result under first-wins, then journals
    /// it and emits the unit's progress event exactly as a local run
    /// would. Returns `false` for a stale or duplicate grant.
    fn complete_remote(&self, idx: usize, grant: u64, r: SynthResult) -> bool {
        let p = &self.plans[idx];
        // The worker runs journal-less; the coordinator owns persistence.
        // Same rule as everywhere else: incomplete results are never
        // checkpointed — a retry must get the chance to do better.
        // (Journaling before the staleness check is harmless: a stale
        // result passed the same fingerprint+checksum validation, so the
        // entry it writes is the entry the live result writes.)
        if !r.truncated && r.degraded == 0 {
            if let Some(journal) = &p.cfg.journal {
                let _ = journal.record(&p.unit.key, p.unit.fingerprint, &r.tests);
            }
        }
        let event = ProgressEvent {
            key: p.unit.key.to_string(),
            tests: r.tests.len(),
            from_journal: false,
            elapsed: r.elapsed,
        };
        let mut st = lock(&self.state);
        if st.granted[idx] != Some(grant) || st.results[idx].is_some() {
            return false;
        }
        st.granted[idx] = None;
        st.completed += 1;
        st.results[idx] = Some(r);
        // Emit under the batch lock: the frame must be on the wire before
        // the run_batch waiter can observe the batch as complete and send
        // SUITE (local runs get this for free — run_unit emits before the
        // result is recorded). The sink only takes the client-writer
        // mutex, and nothing acquires this lock while holding that one.
        if let Some(progress) = &p.cfg.progress {
            progress.emit(&event);
        }
        self.progress_cv.notify_all();
        true
    }

    fn record_local(&self, idx: usize, outcome: Result<SynthResult, String>) {
        let mut st = lock(&self.state);
        if st.results[idx].is_some() {
            return;
        }
        match outcome {
            Ok(r) => st.results[idx] = Some(r),
            Err(key) => st.failed.push(key),
        }
        st.completed += 1;
        self.progress_cv.notify_all();
    }
}

/// Runs every planned unit through the remote worker pool, degrading to
/// local compute as needed, and returns the per-unit results **in seq
/// order**. `Err` lists units that panicked in the local fallback —
/// partial suites are never returned.
pub(crate) fn run_batch<M: MemoryModel + Sync>(
    model: &M,
    request_model: &str,
    plans: &[UnitPlan],
    pool: &Arc<RemotePool>,
) -> Result<Vec<SynthResult>, String> {
    let total = plans.len();
    if total == 0 {
        return Ok(Vec::new());
    }
    let batch = Arc::new(Batch {
        model: request_model.to_string(),
        plans: plans.to_vec(),
        state: Mutex::new(BatchState {
            results: plans.iter().map(|_| None).collect(),
            tries: vec![0; total],
            granted: vec![None; total],
            local_queue: Vec::new(),
            completed: 0,
            failed: Vec::new(),
        }),
        progress_cv: Condvar::new(),
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
            let count = tests.len();
            let mut r = SynthResult::carrying(tests);
            r.from_journal = true;
            {
                let mut st = lock(&batch.state);
                st.results[idx] = Some(r);
                st.completed += 1;
            }
            if let Some(progress) = &p.cfg.progress {
                progress.emit(&ProgressEvent {
                    key: p.unit.key.to_string(),
                    tests: count,
                    from_journal: true,
                    elapsed: Duration::ZERO,
                });
            }
        } else {
            pool.push(Task {
                batch: batch.clone(),
                idx,
            });
        }
    }
    // This thread is the local fallback executor: it drains the batch's
    // degraded queue, running each unit once, while worker
    // connections serve the rest, and it guards against the last worker
    // dying with units still queued.
    let mut st = lock(&batch.state);
    while st.completed < total {
        if let Some(idx) = st.local_queue.pop() {
            drop(st);
            batch.record_local(idx, run_unit_once(model, &plans[idx]));
            st = lock(&batch.state);
            continue;
        }
        drop(st);
        if pool.live() == 0 {
            pool.drain_to_local();
        }
        st = lock(&batch.state);
        if st.completed >= total || !st.local_queue.is_empty() {
            continue;
        }
        st = batch
            .progress_cv
            .wait_timeout(st, Duration::from_millis(50))
            .unwrap_or_else(|e| e.into_inner())
            .0;
    }
    if !st.failed.is_empty() {
        let mut failed = st.failed.clone();
        failed.sort();
        return Err(format!(
            "units panicked in the local fallback: {}",
            failed.join(", ")
        ));
    }
    let results = st
        .results
        .iter_mut()
        .map(|r| r.take().expect("no failures, so every unit completed"))
        .collect();
    Ok(results)
}

/// What ended one unit's lease on a worker connection.
enum LeaseEnd {
    /// Validated result accepted.
    Done,
    /// Worker declined or returned an invalid result; the connection
    /// stays up and the unit is re-queued.
    Failed,
    /// Lease deadline passed with no result, renewal, or NACK.
    Expired,
    /// Connection died (EOF, IO error, or protocol violation).
    Dead,
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
        // every pending unit degrades to its batch's local fallback.
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
        {
            let mut w = lock(writer);
            if write_frame(&mut *w, "UNIT", &assign.to_body()).is_err() {
                pool.counters
                    .reclaimed_leases
                    .fetch_add(1, Ordering::Relaxed);
                pool.fail_attempt(&task, grant);
                return Ok(());
            }
        }
        match police_lease(pool, reader, writer, &task, &assign, lease) {
            LeaseEnd::Done => {}
            LeaseEnd::Failed => pool.fail_attempt(&task, grant),
            LeaseEnd::Expired => {
                pool.counters
                    .reclaimed_leases
                    .fetch_add(1, Ordering::Relaxed);
                pool.fail_attempt(&task, grant);
                // A worker that went silent past its lease is presumed
                // dead or wedged; drop the connection so a straggler
                // answer can't tie up this thread.
                return Ok(());
            }
            LeaseEnd::Dead => {
                pool.counters
                    .reclaimed_leases
                    .fetch_add(1, Ordering::Relaxed);
                pool.fail_attempt(&task, grant);
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
            Ok(None) => return LeaseEnd::Dead,
            Err(e) if is_timeout(&e) => {
                if Instant::now() > deadline {
                    c.lease_expiries.fetch_add(1, Ordering::Relaxed);
                    return LeaseEnd::Expired;
                }
                continue;
            }
            Err(_) => return LeaseEnd::Dead,
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
                Err(_) => return LeaseEnd::Dead,
            },
            "UNITDONE" => match open_unit_done(&frame.1, assign) {
                Ok(Some(result)) => {
                    if task.batch.complete_remote(task.idx, assign.grant, result) {
                        c.completed_remote.fetch_add(1, Ordering::Relaxed);
                    } else {
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
            _ => return LeaseEnd::Dead, // protocol violation mid-lease
        }
    }
}
