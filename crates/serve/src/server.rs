//! The query server: cache tier, coalescing, shard dispatch, streaming.
//!
//! A `QUERY` is answered in three tiers:
//!
//! 1. **Suite cache** (in-memory, byte-capped LRU, keyed by
//!    [`suite_fingerprint`]) — warm queries return the cached body with
//!    zero solver work.
//! 2. **Journal** (on-disk, size-capped, [`litsynth_core::Journal`]) —
//!    after a restart the cache is cold but every journaled unit replays
//!    with zero compilations; the rebuilt body is re-cached.
//! 3. **Shard layer** ([`crate::shard`]) — genuinely cold units are
//!    claimed from one shared counter by spawned shard threads (or
//!    leased to remote workers, [`crate::remote`]), each run under the
//!    portfolio's retry loop, streaming one `PROGRESS` frame per
//!    completed unit, and merged in seq order so the served suite is
//!    byte-identical to a direct
//!    [`litsynth_core::synthesize_union_up_to`] call.
//!
//! Identical concurrent cold queries coalesce: one connection computes,
//! the rest block on the in-flight set and serve the freshly cached body.
//! Truncated or degraded results are served but never cached — a later
//! retry must get the chance to do better.

use crate::cache::{suite_fingerprint, CacheStats, SuiteCache};
use crate::models::{self, ModelOp};
use crate::protocol::{
    read_frame, seal_body, write_frame, CheckRequest, Progress, QueryReply, QueryRequest,
};
use crate::remote::{BatchStats, RemotePool, RemoteStats};
use crate::shard::{run_distributed, ShardConfig, ShardFault, ShardRunStats};
use litsynth_core::{
    encode_suite_body, merge_unit_suites, plan_query, CanonicalSuite, Journal, ProgressSink,
    SynthConfig, UnitPlan,
};
use litsynth_models::MemoryModel;
use litsynth_sat::FaultPlan;
use std::collections::HashSet;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Server knobs. Everything is an explicit field — never an environment
/// variable — so tests can run many differently-configured servers in
/// one process.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free loopback port.
    pub addr: String,
    /// Shard worker threads per cold query.
    pub shards: usize,
    /// Solver threads per unit (multiplies with `shards`).
    pub unit_threads: usize,
    /// Cube-split bits per unit (see `SynthConfig::cube_bits`).
    pub cube_bits: usize,
    /// Suite-cache capacity in body bytes.
    pub cache_bytes: usize,
    /// Journal directory for the persistent tier (`None` = no journal).
    pub journal_dir: Option<PathBuf>,
    /// Journal size cap in bytes (`None` = uncapped).
    pub journal_cap_bytes: Option<u64>,
    /// Largest `max_bound` a request may ask for.
    pub max_bound: usize,
    /// Deadline lease handed to remote workers, in milliseconds: a
    /// leased unit with no result, `NACK`, or renewal inside this window
    /// is reclaimed and re-queued.
    pub lease_ms: u64,
    /// Remote dispatch attempts per unit before it degrades to local
    /// compute.
    pub remote_attempts: usize,
    /// Idle deadline per client connection, in milliseconds: a
    /// connection with no frame (a `PING` counts) inside this window is
    /// reaped. `0` disables the reaper.
    pub idle_timeout_ms: u64,
    /// Cube-level fault injection for every unit (tests only).
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Shard-kill fault injection (tests only).
    pub shard_fault: Option<ShardFault>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: 2,
            unit_threads: 1,
            cube_bits: 0,
            cache_bytes: 64 << 20,
            journal_dir: None,
            journal_cap_bytes: None,
            max_bound: 5,
            lease_ms: 10_000,
            remote_attempts: 3,
            idle_timeout_ms: 600_000,
            fault_plan: None,
            shard_fault: None,
        }
    }
}

#[derive(Default)]
struct Counters {
    queries: AtomicU64,
    coalesced: AtomicU64,
    compilations: AtomicU64,
    solver_retries: AtomicU64,
    shard_retried: AtomicU64,
    idle_reaped: AtomicU64,
    check_requests: AtomicU64,
    check_cache_hits: AtomicU64,
    check_inconsistent: AtomicU64,
}

/// A point-in-time view of the server's counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// `QUERY` frames handled (hit or miss).
    pub queries: u64,
    /// Queries that waited on an identical in-flight computation.
    pub coalesced: u64,
    /// Circuit→CNF compilations spent on cold queries.
    pub compilations: u64,
    /// Cube attempts retried by the resilient runner.
    pub solver_retries: u64,
    /// Suite-cache counters.
    pub cache: CacheStats,
    /// Shard-layer counters, summed over cold queries.
    pub shard: ShardRunStats,
    /// Remote-tier counters (workers, leases, degradation).
    pub remote: RemoteStats,
    /// Connections reaped by the idle deadline.
    pub idle_reaped: u64,
    /// `CHECK` frames handled (hit or miss).
    pub check_requests: u64,
    /// `CHECK` verdicts served from the check cache.
    pub check_cache_hits: u64,
    /// `CHECK` verdicts (fresh or cached) that were inconsistent.
    pub check_inconsistent: u64,
}

struct Shared {
    cfg: ServeConfig,
    cache: SuiteCache,
    check_cache: SuiteCache,
    journal: Option<Arc<Journal>>,
    pool: Arc<RemotePool>,
    counters: Counters,
    inflight: Mutex<HashSet<u64>>,
    inflight_done: Condvar,
    stop: AtomicBool,
}

/// A running server. Dropping it shuts it down.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept loop, and returns. With the default
    /// `127.0.0.1:0` address, [`Server::addr`] reports the picked port.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        let journal = match (&cfg.journal_dir, cfg.journal_cap_bytes) {
            (None, _) => None,
            (Some(dir), None) => Some(Journal::open(dir)?),
            (Some(dir), Some(cap)) => Some(Journal::open_capped(dir, cap)?),
        };
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cache: SuiteCache::new(cfg.cache_bytes),
            // Verdict bodies are a few dozen bytes; a modest fixed cap
            // holds millions of them without a config knob.
            check_cache: SuiteCache::new(4 << 20),
            pool: RemotePool::new(cfg.lease_ms, cfg.remote_attempts),
            cfg,
            journal,
            counters: Counters::default(),
            inflight: Mutex::new(HashSet::new()),
            inflight_done: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let accept = {
            let shared = shared.clone();
            std::thread::spawn(move || accept_loop(listener, shared))
        };
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (with the real port when `addr` asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the server's counters.
    pub fn stats(&self) -> ServerStats {
        stats_of(&self.shared)
    }

    /// Stops accepting, waits for in-flight connections, and returns.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop();
        }
    }
}

fn stats_of(shared: &Shared) -> ServerStats {
    let c = &shared.counters;
    ServerStats {
        queries: c.queries.load(Ordering::Relaxed),
        coalesced: c.coalesced.load(Ordering::Relaxed),
        compilations: c.compilations.load(Ordering::Relaxed),
        solver_retries: c.solver_retries.load(Ordering::Relaxed),
        cache: shared.cache.stats(),
        shard: ShardRunStats {
            retried: c.shard_retried.load(Ordering::Relaxed),
            ..ShardRunStats::default()
        },
        remote: shared.pool.stats(),
        idle_reaped: c.idle_reaped.load(Ordering::Relaxed),
        check_requests: c.check_requests.load(Ordering::Relaxed),
        check_cache_hits: c.check_cache_hits.load(Ordering::Relaxed),
        check_inconsistent: c.check_inconsistent.load(Ordering::Relaxed),
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = shared.clone();
        conns.push(std::thread::spawn(move || {
            let _ = handle_conn(&shared, stream);
        }));
        conns.retain(|h| !h.is_finished());
    }
    for h in conns {
        let _ = h.join();
    }
}

fn handle_conn(shared: &Shared, stream: TcpStream) -> io::Result<()> {
    // A short read timeout keeps idle keep-alive connections from
    // pinning shutdown; timeouts re-check the stop flag and the
    // connection's idle deadline.
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let writer = Arc::new(Mutex::new(stream));
    let send = |verb: &str, body: &str| -> io::Result<()> {
        write_frame(
            &mut *writer.lock().unwrap_or_else(|e| e.into_inner()),
            verb,
            body,
        )
    };
    let idle_cap = Duration::from_millis(shared.cfg.idle_timeout_ms);
    let mut last_frame = std::time::Instant::now();
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(f) => f,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shared.stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
                if !idle_cap.is_zero() && last_frame.elapsed() > idle_cap {
                    shared.counters.idle_reaped.fetch_add(1, Ordering::Relaxed);
                    let _ = send("ERR", "connection reaped: idle deadline passed");
                    return Ok(());
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let _ = send("ERR", &format!("protocol error: {e}"));
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let Some((verb, body)) = frame else {
            return Ok(());
        };
        last_frame = std::time::Instant::now();
        match verb.as_str() {
            "PING" => send("PONG", "")?,
            "STATS" => send("STATS", &stats_body(shared))?,
            "QUERY" => match handle_query(shared, &body, &writer) {
                Ok(reply) => send("SUITE", &seal_body(&reply.to_body()))?,
                Err(msg) => send("ERR", &msg)?,
            },
            "CHECK" => match handle_check(shared, &body) {
                Ok(reply) => send("VERDICT", &seal_body(&reply))?,
                Err(msg) => send("ERR", &msg)?,
            },
            // A worker announced itself: this connection thread becomes
            // the worker's dispatcher until the connection dies.
            "HELLO" => {
                return crate::remote::serve_worker(
                    &shared.pool,
                    &mut reader,
                    &writer,
                    &shared.stop,
                )
            }
            other => send("ERR", &format!("unsupported verb {other:?}"))?,
        }
    }
}

fn stats_body(shared: &Shared) -> String {
    let s = stats_of(shared);
    format!(
        "queries={}\ncoalesced={}\ncompilations={}\nsolver_retries={}\n\
         cache_hits={}\ncache_misses={}\ncache_evictions={}\ncache_entries={}\n\
         cache_bytes={}\nshard_retried={}\n\
         remote_workers_connected={}\nremote_workers_live={}\nremote_units={}\n\
         remote_completed={}\nremote_reclaimed_leases={}\nremote_lease_expiries={}\n\
         remote_nacks={}\nremote_rejected_results={}\nremote_duplicate_unitdone={}\n\
         remote_degraded_to_local={}\nidle_reaped={}\ncheck_requests={}\n\
         check_cache_hits={}\ncheck_inconsistent={}\n",
        s.queries,
        s.coalesced,
        s.compilations,
        s.solver_retries,
        s.cache.hits,
        s.cache.misses,
        s.cache.evictions,
        s.cache.entries,
        s.cache.bytes,
        s.shard.retried,
        s.remote.workers_connected,
        s.remote.workers_live,
        s.remote.units_remote,
        s.remote.completed_remote,
        s.remote.reclaimed_leases,
        s.remote.lease_expiries,
        s.remote.nacks,
        s.remote.rejected_results,
        s.remote.duplicate_unitdone,
        s.remote.degraded_to_local,
        s.idle_reaped,
        s.check_requests,
        s.check_cache_hits,
        s.check_inconsistent,
    )
}

/// Answers a `CHECK`: parse, consult the fingerprint-keyed verdict
/// cache, and on a miss run the polynomial consistency checker
/// ([`litsynth_models::check`]) — never the enumeration oracle — caching
/// the verdict core (everything but the per-reply `fingerprint`/`cached`
/// lines) for warm repeats.
fn handle_check(shared: &Shared, body: &str) -> Result<String, String> {
    let c = &shared.counters;
    c.check_requests.fetch_add(1, Ordering::Relaxed);
    let req = CheckRequest::from_body(body)?;
    let fingerprint = req.fingerprint();
    if let Some((core, _)) = shared.check_cache.get(fingerprint) {
        c.check_cache_hits.fetch_add(1, Ordering::Relaxed);
        if core.starts_with("consistent=false") {
            c.check_inconsistent.fetch_add(1, Ordering::Relaxed);
        }
        return Ok(format!(
            "fingerprint={fingerprint:016x}\ncached=true\n{core}"
        ));
    }
    let (test, outcome) =
        litsynth_litmus::wire::decode(&req.test).map_err(|e| format!("bad CHECK test: {e}"))?;
    struct CheckOp<'a> {
        test: &'a litsynth_litmus::LitmusTest,
        outcome: &'a litsynth_litmus::Outcome,
    }
    impl ModelOp for CheckOp<'_> {
        type Out = litsynth_models::check::Verdict;
        fn run<M: MemoryModel + Sync>(self, model: &M) -> Self::Out {
            litsynth_models::check::check_outcome(model, self.test, self.outcome)
        }
    }
    let verdict = models::dispatch(
        &req.model,
        CheckOp {
            test: &test,
            outcome: &outcome,
        },
    )?;
    use litsynth_models::check::Verdict;
    let (consistent, axiom, cycle) = match verdict {
        Verdict::Consistent => (true, String::new(), Vec::new()),
        Verdict::Inconsistent(None) => (false, String::new(), Vec::new()),
        Verdict::Inconsistent(Some(w)) => (false, w.axiom, w.events),
    };
    if !consistent {
        c.check_inconsistent.fetch_add(1, Ordering::Relaxed);
    }
    let core = format!(
        "consistent={consistent}\naxiom={axiom}\ncycle={}\n",
        cycle
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(","),
    );
    shared
        .check_cache
        .put(fingerprint, Arc::new(core.clone()), usize::from(consistent));
    Ok(format!(
        "fingerprint={fingerprint:016x}\ncached=false\n{core}"
    ))
}

/// Plans a request against its model: validates the axiom set and builds
/// the fingerprinted unit list in deterministic merge order.
struct Plan<'a> {
    shared: &'a Shared,
    req: &'a QueryRequest,
    progress: Option<ProgressSink>,
}

impl ModelOp for Plan<'_> {
    type Out = Result<Vec<UnitPlan>, String>;
    fn run<M: MemoryModel + Sync>(self, model: &M) -> Self::Out {
        let axioms: Vec<&'static str> = if self.req.axioms.is_empty() {
            model.axioms().to_vec()
        } else {
            for a in &self.req.axioms {
                if !model.axioms().contains(&a.as_str()) {
                    return Err(format!(
                        "model {} has no axiom {a:?} (axioms: {})",
                        self.req.model,
                        model.axioms().join(", ")
                    ));
                }
            }
            // Model order, not request order: the unit list (and with it
            // the fingerprint and the merge) must not depend on how the
            // client spelled the set.
            model
                .axioms()
                .iter()
                .copied()
                .filter(|a| self.req.axioms.iter().any(|w| w == a))
                .collect()
        };
        let cfg = &self.shared.cfg;
        let (journal, fault, progress, budget) = (
            self.shared.journal.clone(),
            cfg.fault_plan.clone(),
            self.progress,
            self.req.budget_ms,
        );
        Ok(plan_query(
            model,
            &axioms,
            self.req.min_bound..=self.req.max_bound,
            move |n| {
                let mut c = SynthConfig::new(n)
                    .with_threads(cfg.unit_threads)
                    .with_cube_bits(cfg.cube_bits)
                    .with_journal(journal.clone())
                    .with_fault_plan(fault.clone())
                    .with_progress(progress.clone());
                c.time_budget_ms = budget;
                c
            },
        ))
    }
}

/// Runs a planned cold query through the distributed dispatcher: remote
/// workers when any are live, the local shard threads otherwise.
struct Execute<'a> {
    request_model: &'a str,
    plans: &'a [UnitPlan],
    shard: ShardConfig,
    pool: &'a Arc<RemotePool>,
}

impl ModelOp for Execute<'_> {
    type Out = Result<(Vec<litsynth_core::SynthResult>, ShardRunStats, BatchStats), String>;
    fn run<M: MemoryModel + Sync>(self, model: &M) -> Self::Out {
        run_distributed(
            model,
            self.request_model,
            self.plans,
            &self.shard,
            Some(self.pool),
        )
    }
}

fn handle_query(
    shared: &Shared,
    body: &str,
    writer: &Arc<Mutex<TcpStream>>,
) -> Result<QueryReply, String> {
    shared.counters.queries.fetch_add(1, Ordering::Relaxed);
    let req = QueryRequest::from_body(body)?;
    if req.min_bound < 2 {
        return Err("min_bound must be at least 2".to_string());
    }
    if req.max_bound < req.min_bound {
        return Err("max_bound must be at least min_bound".to_string());
    }
    if req.max_bound > shared.cfg.max_bound {
        return Err(format!(
            "max_bound {} exceeds this server's cap of {}",
            req.max_bound, shared.cfg.max_bound
        ));
    }
    // Stream one PROGRESS frame per completed (axiom, bound) unit. Write
    // failures are ignored: progress is advisory, the SUITE frame is the
    // reply.
    let progress = {
        let writer = writer.clone();
        ProgressSink::new(move |e| {
            let p = Progress {
                key: e.key.clone(),
                tests: e.tests,
                from_journal: e.from_journal,
            };
            let mut w = writer.lock().unwrap_or_else(|p| p.into_inner());
            let _ = write_frame(&mut *w, "PROGRESS", &p.to_body());
        })
    };
    let plans = models::dispatch(
        &req.model,
        Plan {
            shared,
            req: &req,
            progress: Some(progress),
        },
    )??;
    let fingerprint = suite_fingerprint(plans.iter().map(|p| &p.unit));

    // Warm tier, with coalescing: if an identical query is already being
    // computed on another connection, wait for it instead of redoing it.
    let mut waited = false;
    {
        let mut inflight = shared.inflight.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some((body, tests)) = shared.cache.get(fingerprint) {
                if waited {
                    shared.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                }
                return Ok(QueryReply {
                    fingerprint,
                    tests,
                    cached: true,
                    compilations: 0,
                    retries: 0,
                    truncated: false,
                    degraded: 0,
                    suite: (*body).clone(),
                });
            }
            if inflight.insert(fingerprint) {
                break; // this connection computes
            }
            waited = true;
            inflight = shared
                .inflight_done
                .wait(inflight)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
    let outcome = cold_query(shared, &req, &plans, fingerprint);
    {
        let mut inflight = shared.inflight.lock().unwrap_or_else(|e| e.into_inner());
        inflight.remove(&fingerprint);
        shared.inflight_done.notify_all();
    }
    outcome
}

fn cold_query(
    shared: &Shared,
    req: &QueryRequest,
    plans: &[UnitPlan],
    fingerprint: u64,
) -> Result<QueryReply, String> {
    let shard = ShardConfig {
        shards: shared.cfg.shards,
        fault: shared.cfg.shard_fault.clone(),
    };
    let (results, stats, _batch) = models::dispatch(
        &req.model,
        Execute {
            request_model: &req.model,
            plans,
            shard,
            pool: &shared.pool,
        },
    )??;
    let c = &shared.counters;
    c.shard_retried.fetch_add(stats.retried, Ordering::Relaxed);
    let compilations: usize = results.iter().map(|r| r.compilations).sum();
    let retries: u64 = results.iter().map(|r| r.retries).sum();
    let truncated = results.iter().any(|r| r.truncated);
    let degraded: usize = results.iter().map(|r| r.degraded).sum();
    c.compilations
        .fetch_add(compilations as u64, Ordering::Relaxed);
    c.solver_retries.fetch_add(retries, Ordering::Relaxed);
    let suites: Vec<&CanonicalSuite> = results.iter().map(|r| &r.tests).collect();
    let merged = merge_unit_suites(suites);
    let body = Arc::new(encode_suite_body(&merged));
    // Incomplete results are served (the header says so) but never
    // cached: a retry must be able to do better.
    if !truncated && degraded == 0 {
        shared.cache.put(fingerprint, body.clone(), merged.len());
    }
    Ok(QueryReply {
        fingerprint,
        tests: merged.len(),
        cached: false,
        compilations,
        retries,
        truncated,
        degraded,
        suite: (*body).clone(),
    })
}
