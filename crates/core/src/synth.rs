//! The synthesis loop (paper §5): enumerate every instance of the
//! minimality criterion, canonicalize, and deduplicate — in parallel.
//!
//! # The parallel engine
//!
//! Every (axiom, bound) query is an independent SAT enumeration, so the
//! drivers fan queries out across a scoped-thread worker pool
//! ([`SynthConfig::threads`]). On top of that, one query can be
//! *cube-split* ([`SynthConfig::cube_bits`]): `b` instruction-kind
//! selector bits are pinned to each of the `2^b` boolean patterns as extra
//! assumptions, partitioning the observable space into disjoint subqueries
//! that enumerate concurrently and merge through the canonical-key dedup.
//!
//! Since the portfolio subsystem (`litsynth-portfolio`), a query's cube
//! workers cooperate instead of running blind:
//!
//! * the circuit is Tseitin-compiled **once** per query into a shared
//!   clause arena (whichever worker arrives first pays, through a
//!   `OnceLock`); every worker attaches a private solver to it,
//! * workers trade learnt clauses over a bounded **exchange bus**
//!   ([`SynthConfig::exchange`]), which prunes search but provably never
//!   changes the enumerated class set, and
//! * the pinned bits are chosen **adaptively** from a probing run's VSIDS
//!   activity ([`SynthConfig::adaptive_cubes`]) rather than slot order.
//!
//! Since incremental sweep compilation, whole sweeps cooperate too
//! ([`SynthConfig::incremental`], [`SynthConfig::vault`]):
//!
//! * all queries of a sweep share one hash-consed circuit arena and one
//!   **shared layer chain**: per bound, the axiom-independent skeleton (the
//!   wellformedness constraints, observables, and pin candidates) and then
//!   every axiom's minimality-circuit *definitions* are Tseitin-encoded
//!   exactly once per sweep, bound n+1 extending bound n's immutable
//!   layers. Definition layers never constrain anything by themselves — a
//!   Tseitin layer only names gates — so all of a bound's queries run over
//!   the *identical* formula and differ purely in which roots they assume,
//! * **chain-pure** learnt clauses (derived from the shared layers alone —
//!   never from a worker's private blocking clauses — tracked through
//!   every 1UIP resolution) are harvested into a cross-query **clause
//!   vault** keyed by chain fingerprints, seeding every later query whose
//!   chain shares the prefix — sound for the same reason bus imports are,
//!   see `litsynth_portfolio::vault`, and
//! * each worker **warms** its solver's branching order with its own
//!   query's cone ([`litsynth_relalg::Finder::warm`]), so sharing one big
//!   formula does not degrade search focus.
//!
//! Results are deterministic by construction — byte-identical across any
//! `threads`/`cube_bits`/`exchange` choice:
//!
//! * tasks are merged in a fixed (bound, axiom, cube) order, never in
//!   completion order,
//! * the representative stored for a canonical key is a pure function of
//!   the key (the exact canonicalizer's normal form; for the hash-based
//!   ablation canonicalizer, the lexicographically least serialization),
//!   not whichever isomorphic variant a worker happened to enumerate
//!   first,
//! * cube pins are a pure function of the compiled query (the probe is
//!   deterministic), so the partition never depends on thread timing, and
//! * imported clauses are implied for every model a worker has yet to
//!   enumerate (see `litsynth_portfolio::exchange`), so exchange traffic
//!   affects solver effort only, never the per-cube class sets, and
//! * incremental compilation and the vault only change how the query's CNF
//!   is factored into layers and which redundant clauses pre-seed the
//!   solver — the encoded formula, and hence the enumerated class set, is
//!   the same, so suites stay byte-identical with either switch flipped.

use crate::journal::{config_fingerprint, query_key};
use crate::perturb::minimality_asserts_opts;
use crate::symbolic::{vocabulary, SymbolicTest, SynthConfig};
use litsynth_litmus::{canonical_key_hash, serialize, LitmusTest, Outcome, TwoTierCanon};
use litsynth_models::{MemoryModel, SymAlg};
use litsynth_portfolio::{
    run_resilient, Attempt, ClauseVault, CompiledQuery, CubeConfig, ExchangeBus, ExchangeConfig,
    ExchangeEndpoint, ExchangeStats, RetryConfig, VaultConfig, VaultStats, VaultedExchange,
};
use litsynth_relalg::{Bit, Circuit, CompiledCircuit, Finder};
use litsynth_sat::{ClauseExchange, FaultCtx, Interrupt, Lit, SolveBudget};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A deduplicated suite: canonical key → (test, outcome).
pub type CanonicalSuite = BTreeMap<String, (LitmusTest, Outcome)>;

/// Statistics for one enumeration worker — one (axiom, bound, cube) task.
#[derive(Clone, Debug)]
pub struct WorkerStats {
    /// The axiom this worker enumerated.
    pub axiom: &'static str,
    /// The event bound of the query.
    pub bound: usize,
    /// Which cube of `num_cubes` this worker owned (0 when unsplit).
    pub cube: usize,
    /// Total cubes the query was split into (1 when unsplit).
    pub num_cubes: usize,
    /// Raw solver instances this worker enumerated.
    pub raw_instances: usize,
    /// CNF variables in this worker's solver.
    pub cnf_vars: usize,
    /// CNF clauses in this worker's solver.
    pub cnf_clauses: usize,
    /// Wall-clock time this worker spent.
    pub elapsed: Duration,
    /// Unit propagations this worker's solver performed (delta over this
    /// task only — pooled solvers carry history from earlier tasks).
    pub propagations: u64,
    /// Decisions this worker's solver made (delta over this task only).
    pub decisions: u64,
    /// Decisions served from the local level of the two-level decision
    /// domain (delta; 0 unless [`SynthConfig::domain`] is on).
    pub domain_decisions: u64,
    /// Shelved imports replayed after their cone activated (delta; 0
    /// unless the lazy path with [`SynthConfig::shelve`] is on).
    pub shelved_replayed: u64,
    /// Clauses purged by level-0 inprocessing as satisfied (delta; 0
    /// unless [`SynthConfig::inprocess`] is on).
    pub simplify_removed: u64,
    /// Learnt clauses deleted by on-the-fly subsumption (delta).
    pub subsumed: u64,
    /// Literals removed by false-literal stripping and self-subsuming
    /// resolution (delta).
    pub strengthened: u64,
    /// Arena garbage collections this worker's solver ran (delta).
    pub gc_runs: u64,
    /// Arena words reclaimed by those collections (delta).
    pub gc_reclaimed_words: u64,
    /// Live learnt clauses per retention tier (core/mid/local) when the
    /// task finished — a snapshot of the (possibly pooled) solver, not a
    /// delta.
    pub learnt_tiers: [u64; 3],
    /// `true` if the instance cap or time budget stopped this worker.
    pub truncated: bool,
    /// Learnt clauses this worker published on the exchange bus.
    pub exported: u64,
    /// Peer clauses this worker imported from the bus.
    pub imported: u64,
    /// Clauses the bus filter (LBD/size/pool cap) dropped for this worker.
    pub filtered: u64,
    /// Wall-clock time of the query's cube-selection probe (a per-query
    /// cost, reported on every worker of the query).
    pub probe: Duration,
    /// Attempts this worker made (1 = first try completed; >1 means
    /// panicked or interrupted attempts were retried).
    pub attempts: usize,
    /// `true` when no attempt completed: the worker's tests are a partial
    /// (possibly empty) under-approximation of its cube.
    pub degraded: bool,
    /// One reason per failed attempt (panic message or interrupt cause).
    pub failures: Vec<String>,
}

/// The result of one synthesis query (one model, one axiom, one bound),
/// possibly aggregated over several cube workers.
#[derive(Debug)]
pub struct SynthResult {
    /// Canonical tests, keyed by canonical form.
    pub tests: BTreeMap<String, (LitmusTest, Outcome)>,
    /// Raw solver instances enumerated (before canonicalization), summed
    /// over workers.
    pub raw_instances: usize,
    /// Wall-clock time for the whole query (not the sum of workers).
    pub elapsed: Duration,
    /// `true` if the instance cap or time budget stopped any worker early.
    pub truncated: bool,
    /// CNF variables, summed over workers.
    pub cnf_vars: usize,
    /// CNF clause count, summed over workers.
    pub cnf_clauses: usize,
    /// Circuit→CNF compilations performed (exactly one per query on the
    /// portfolio path, however many cube workers attach).
    pub compilations: usize,
    /// Exchange-bus totals over all workers: (exported, imported,
    /// filtered).
    pub exchange: (u64, u64, u64),
    /// Unit propagations, summed over workers.
    pub propagations: u64,
    /// Solver decisions, summed over workers.
    pub decisions: u64,
    /// Local-domain decisions, summed over workers.
    pub domain_decisions: u64,
    /// Shelved imports replayed, summed over workers.
    pub shelved_replayed: u64,
    /// Inprocessing-purged clauses, summed over workers.
    pub simplify_removed: u64,
    /// Subsumed learnt clauses, summed over workers.
    pub subsumed: u64,
    /// Stripped/strengthened literals, summed over workers.
    pub strengthened: u64,
    /// Arena garbage collections, summed over workers.
    pub gc_runs: u64,
    /// Arena words reclaimed, summed over workers.
    pub gc_reclaimed_words: u64,
    /// Total cube-selection probe time, summed over queries.
    pub probe: Duration,
    /// Workers whose every attempt failed: the suite is complete iff this
    /// is 0 (and `truncated` is false). Degraded queries are never
    /// journaled.
    pub degraded: usize,
    /// Retry attempts beyond each worker's first, summed over workers.
    /// Non-zero retries with zero `degraded` means every fault was
    /// recovered — the suite is still exact.
    pub retries: u64,
    /// `true` when this result was replayed from the checkpoint journal
    /// instead of being re-enumerated (zero solver work was done).
    pub from_journal: bool,
    /// Per-worker solver statistics, in cube order.
    pub workers: Vec<WorkerStats>,
}

impl SynthResult {
    /// Number of distinct canonical tests found.
    pub fn len(&self) -> usize {
        self.tests.len()
    }

    /// `true` if no tests were found.
    pub fn is_empty(&self) -> bool {
        self.tests.is_empty()
    }

    /// The tests, in canonical-key order.
    pub fn into_tests(self) -> Vec<(LitmusTest, Outcome)> {
        self.tests.into_values().collect()
    }

    /// A result that merely *carries* `tests` with every work counter
    /// zero — the shape of a journal replay or of a remotely computed unit
    /// folded in by a coordinator (the solver work happened elsewhere).
    pub fn carrying(tests: CanonicalSuite) -> SynthResult {
        SynthResult {
            tests,
            raw_instances: 0,
            elapsed: Duration::ZERO,
            truncated: false,
            cnf_vars: 0,
            cnf_clauses: 0,
            compilations: 0,
            exchange: (0, 0, 0),
            propagations: 0,
            decisions: 0,
            domain_decisions: 0,
            shelved_replayed: 0,
            simplify_removed: 0,
            subsumed: 0,
            strengthened: 0,
            gc_runs: 0,
            gc_reclaimed_words: 0,
            probe: Duration::ZERO,
            degraded: 0,
            retries: 0,
            from_journal: false,
            workers: Vec::new(),
        }
    }
}

/// Inserts with the deterministic representative rule: the value kept for
/// a key never depends on enumeration order (see the module docs).
fn insert_dedup(suite: &mut CanonicalSuite, key: String, test: LitmusTest, outcome: Outcome) {
    match suite.entry(key) {
        Entry::Vacant(v) => {
            v.insert((test, outcome));
        }
        Entry::Occupied(mut o) => {
            let (t0, o0) = o.get();
            if serialize(&test, &outcome) < serialize(t0, o0) {
                o.insert((test, outcome));
            }
        }
    }
}

/// Process-wide count of queries the adaptive engagement heuristic
/// downgraded to the unsplit path ([`SynthConfig::adaptive_engage`]).
static ENGAGE_DOWNGRADES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// How many queries the adaptive engagement heuristic has downgraded to
/// the unsplit incremental path so far, process-wide. The counter that
/// proves which path a small-bound query actually ran.
pub fn engage_downgrades() -> u64 {
    ENGAGE_DOWNGRADES.load(Ordering::Relaxed)
}

/// `cube_bits` clamped to the number of pinnable selector bits the query
/// actually has. The pin *candidates* are the instruction-kind selector
/// bits — distinct circuit inputs, and observables, so pinning them
/// partitions the observable space (every blocked class determines the
/// pinned bits' values and falls in exactly one cube).
///
/// With [`SynthConfig::adaptive_engage`] on, a query below the engagement
/// threshold downgrades to 0 — unsplit, no exchange bus, no probe: the
/// portfolio machinery's overhead loses at small bounds (0.58× measured,
/// see ROADMAP), and cube splitting is byte-identity-preserving, so the
/// downgrade changes wall-clock only.
fn effective_cube_bits<M: MemoryModel>(model: &M, cfg: &SynthConfig) -> usize {
    if cfg.cube_bits > 0 && cfg.adaptive_engage && cfg.events < cfg.engage_below {
        ENGAGE_DOWNGRADES.fetch_add(1, Ordering::Relaxed);
        return 0;
    }
    cfg.cube_bits.min(vocabulary(model).len() * cfg.events)
}

/// Reports one completed query to `cfg`'s progress sink, if any.
fn emit_progress(model_name: &str, axiom: &str, cfg: &SynthConfig, r: &SynthResult) {
    if let Some(sink) = &cfg.progress {
        sink.emit(&crate::symbolic::ProgressEvent {
            key: query_key(model_name, axiom, cfg.events),
            tests: r.tests.len(),
            from_journal: r.from_journal,
            elapsed: r.elapsed,
        });
    }
}

/// One (axiom, bound) query, compiled once and shared by its cube workers.
struct Query {
    st: Arc<SymbolicTest>,
    /// The minimality asserts, without cube pins.
    asserts: Vec<Bit>,
    query: CompiledQuery,
    /// Full circuit→CNF compilations charged to this query. On the
    /// monolithic path this is always 1, measured with the thread-local
    /// counter (the whole build runs on one thread, so sibling queries
    /// compiling concurrently cannot inflate it). On the incremental path
    /// the sweep's one full compilation is claimed by whichever query
    /// arrives first and everyone else charges 0 — so the per-query *sum*
    /// is exactly 1 per sweep, which `experiments speedup` asserts.
    compilations: usize,
}

/// The pin-selection config for one query. A query that will never be
/// cube-split (`cube_bits == 0`) skips the adaptive probing run outright —
/// its pins are unused, so the probe would be pure overhead on both the
/// monolithic and the incremental path.
fn cube_config(cfg: &SynthConfig) -> CubeConfig {
    CubeConfig {
        adaptive: cfg.adaptive_cubes && cfg.cube_bits > 0,
        probe_conflicts: cfg.probe_conflicts,
    }
}

/// Builds (symbolic test + minimality asserts + shared compilation + cube
/// pins) for one query. Runs inside a `OnceLock`, so exactly one worker
/// per query pays this cost; the result is a pure function of
/// (model, cfg, axiom) regardless of which worker that is.
fn build_query<M: MemoryModel>(model: &M, cfg: &SynthConfig, axiom: &'static str) -> Query {
    let before = litsynth_relalg::thread_compilations();
    let mut alg = SymAlg::new();
    let st = SymbolicTest::build(&mut alg, model, cfg);
    let asserts = minimality_asserts_opts(&mut alg, model, &st, axiom, cfg.orphan_unconstrained);
    let candidates: Vec<Bit> = st.kind.iter().flatten().copied().collect();
    let circuit = alg.into_circuit();
    let query = CompiledQuery::build(
        circuit,
        &asserts,
        &st.observables,
        &candidates,
        &cube_config(cfg),
    );
    let compilations = (litsynth_relalg::thread_compilations() - before) as usize;
    Query {
        st: Arc::new(st),
        asserts,
        query,
        compilations,
    }
}

/// The shared, sequentially prebuilt state for every query of one bound in
/// an incremental sweep: the sweep-wide circuit arena, the bound's symbolic
/// test, its skeleton compilation (one link of the sweep's layer chain),
/// and the per-axiom minimality asserts each query extends the skeleton
/// with.
struct BoundShare {
    circuit: Arc<Circuit>,
    st: Arc<SymbolicTest>,
    /// The shared layer chain up to and including this bound: per
    /// participating bound so far, a skeleton layer (wellformedness,
    /// observables, pin candidates) followed by one *definitional* layer
    /// per axiom (that axiom's minimality-circuit Tseitin cone), all
    /// encoded exactly once per sweep. Every layer is tagged shared
    /// ("skeleton") — definition layers only *name* gates, they assert
    /// nothing, so learnt clauses derived from the chain alone are sound
    /// to share between all queries whose chain has them as a prefix (see
    /// `litsynth_portfolio::vault`) — and the per-axiom layers are
    /// additionally tagged definitional, so a lazily attached worker
    /// ([`SynthConfig::lazy`]) leaves sibling axioms' cones dormant. A
    /// bound's queries all run over this identical formula and differ only
    /// in their assumption roots.
    compiled: Arc<CompiledCircuit>,
    /// Minimality asserts per axiom index (cube pins excluded).
    asserts: Vec<Vec<Bit>>,
    candidates: Vec<Bit>,
    /// `true` until a query claims the sweep's one full compilation for its
    /// `compilations` counter; extension layers are charged nowhere, which
    /// keeps the per-query sum at exactly 1 per sweep.
    charge: AtomicBool,
    /// Live solvers parked between tasks. Because every query of the bound
    /// runs over the *identical* compiled chain, a solver that finished one
    /// task can serve the next — of a different cube, axiom, or attempt —
    /// keeping its entire learnt-clause database warm (incremental SAT
    /// across queries, the pool form). Soundness: each task encloses its
    /// blocking clauses under a fresh activation guard
    /// ([`Finder::new_guard`]), so nothing task-specific survives into the
    /// next task's search, and guard-tainted derivations never leave the
    /// solver (the exchange export filter). The enumerated class sets are
    /// therefore exactly those of cold solvers; which task gets which
    /// pooled solver affects effort only.
    pool: Mutex<Vec<Finder>>,
}

/// Prebuilds the [`BoundShare`]s of an incremental sweep, sequentially, on
/// the caller's thread. `specs` pairs each bound's config with whether the
/// bound participates (it asked for incremental compilation and has tasks
/// left after journal planning); non-participants get `None` and their
/// tasks fall back to the monolithic per-query [`build_query`] path.
///
/// All participating bounds share **one** hash-consed circuit arena (so a
/// sub-structure two bounds have in common is one node, encoded once) and
/// one skeleton layer chain: the first participant's skeleton is compiled
/// in full ([`CompiledCircuit::compile_tagged`]), every later participant
/// only extends it ([`CompiledCircuit::extend`]). The arena is frozen into
/// an `Arc` once, after all bounds are built — node indices are append-only
/// and stable, so mid-build compilations stay valid.
fn sweep_shares<M: MemoryModel>(
    model: &M,
    specs: &[(&SynthConfig, bool)],
) -> Vec<Option<Arc<BoundShare>>> {
    let mut alg = SymAlg::new();
    let mut chain: Option<Arc<CompiledCircuit>> = None;
    let mut built = Vec::with_capacity(specs.len());
    for &(cfg, participates) in specs {
        if !participates {
            built.push(None);
            continue;
        }
        let st = SymbolicTest::build(&mut alg, model, cfg);
        let asserts: Vec<Vec<Bit>> = model
            .axioms()
            .iter()
            .map(|&ax| minimality_asserts_opts(&mut alg, model, &st, ax, cfg.orphan_unconstrained))
            .collect();
        let candidates: Vec<Bit> = st.kind.iter().flatten().copied().collect();
        let roots: Vec<Bit> = st
            .wellformed
            .iter()
            .chain(&st.observables)
            .chain(&candidates)
            .copied()
            .collect();
        let skeleton = match &chain {
            None => CompiledCircuit::compile_tagged(&alg.circuit, roots, true),
            Some(prev) => CompiledCircuit::extend(prev, &alg.circuit, roots, true),
        };
        // Chain every axiom's minimality-circuit *definitions* onto the
        // shared chain as its own definitional layer, tagged shared like
        // the skeleton. A Tseitin layer never constrains — it only names
        // gates — so the bound's queries all solve this one formula under
        // different assumptions, and any clause a solver learns from the
        // chain alone is valid for every sibling (and every later bound):
        // that is what makes the vault's cross-query seeding productive
        // instead of marginal. One layer *per axiom* (instead of one fused
        // definitions layer) is what lets a lazily attached worker leave
        // the sibling axioms' cones dormant: each layer is marked
        // definitional, so `Solver::attach_shared_lazy` installs its
        // watchers only when the query's own assumptions reach it.
        let mut link = skeleton;
        for ax_asserts in &asserts {
            link = CompiledCircuit::extend_definitional(
                &link,
                &alg.circuit,
                ax_asserts.iter().copied(),
                true,
            );
        }
        let full = Arc::new(link);
        chain = Some(full.clone());
        built.push(Some((Arc::new(st), full, asserts, candidates)));
    }
    let circuit = Arc::new(alg.into_circuit());
    let mut first = true;
    built
        .into_iter()
        .map(|slot| {
            slot.map(|(st, compiled, asserts, candidates)| {
                let share = Arc::new(BoundShare {
                    circuit: circuit.clone(),
                    st,
                    compiled,
                    asserts,
                    candidates,
                    charge: AtomicBool::new(first),
                    pool: Mutex::new(Vec::new()),
                });
                first = false;
                share
            })
        })
        .collect()
}

/// Derives one query from its bound's prebuilt share. The bound's one
/// compiled chain already encodes everything the query touches — skeleton
/// *and* its axiom's minimality definitions — so no per-query Tseitin work
/// happens at all: the query borrows the chain by `Arc` and contributes
/// only its assumption roots (plus the pin-ranking probe). Runs inside the
/// query's `OnceLock`, exactly like [`build_query`].
fn build_query_from_share(share: &BoundShare, axiom_idx: usize, cfg: &SynthConfig) -> Query {
    let asserts = share.asserts[axiom_idx].clone();
    let query = CompiledQuery::from_compiled(
        share.circuit.clone(),
        share.compiled.clone(),
        &asserts,
        &share.candidates,
        &cube_config(cfg),
    );
    Query {
        st: share.st.clone(),
        asserts,
        query,
        compilations: usize::from(share.charge.swap(false, Ordering::Relaxed)),
    }
}

/// One enumeration task: an (axiom, bound, cube) triple plus the shared
/// per-query state (compilation slot and exchange bus) it cooperates
/// through.
struct Task {
    axiom_idx: usize,
    axiom: &'static str,
    /// Journal/fault-plan key of the owning query, e.g. `tso/sc_per_loc/2`.
    query_key: Arc<str>,
    cfg: SynthConfig,
    cube: usize,
    cube_bits: usize,
    shared: Arc<OnceLock<Query>>,
    bus: Arc<ExchangeBus>,
    /// The bound's prebuilt share when the sweep compiles incrementally;
    /// `None` makes the query compile monolithically on first touch.
    prebuilt: Option<Arc<BoundShare>>,
    /// The sweep-wide cross-query clause vault, when enabled.
    vault: Option<Arc<ClauseVault>>,
}

/// Attaches a bound's prebuilt share — and the sweep vault, for the tasks
/// whose config asks for it — to the bound's planned tasks.
fn attach_share(
    tasks: &mut [Task],
    share: &Option<Arc<BoundShare>>,
    vault: &Option<Arc<ClauseVault>>,
) {
    for t in tasks {
        t.prebuilt = share.clone();
        if t.cfg.vault {
            t.vault = vault.clone();
        }
    }
}

/// A cube worker's exchange stack: its bus endpoint, wrapped with
/// cross-query vault traffic when the query sits on a skeleton layer chain
/// (monolithic queries have a single untagged layer, no chain fingerprints,
/// and skip the wrapper).
enum CubeExchange {
    Plain(ExchangeEndpoint),
    Vaulted(VaultedExchange<ExchangeEndpoint>),
}

impl CubeExchange {
    fn stats(&self) -> ExchangeStats {
        match self {
            CubeExchange::Plain(e) => e.stats(),
            CubeExchange::Vaulted(v) => v.inner().stats(),
        }
    }
}

impl ClauseExchange for CubeExchange {
    fn export(&mut self, lits: &[Lit], lbd: u32, skeleton: bool) {
        match self {
            CubeExchange::Plain(e) => e.export(lits, lbd, skeleton),
            CubeExchange::Vaulted(v) => v.export(lits, lbd, skeleton),
        }
    }

    fn fetch(&mut self, out: &mut Vec<(Vec<Lit>, u32, bool)>) {
        match self {
            CubeExchange::Plain(e) => e.fetch(out),
            CubeExchange::Vaulted(v) => v.fetch(out),
        }
    }
}

/// The shared state for one query's worker group.
fn query_group(cfg: &SynthConfig, cube_bits: usize) -> (Arc<OnceLock<Query>>, Arc<ExchangeBus>) {
    let bus = ExchangeBus::new(ExchangeConfig {
        // With a single cube there are no peers to trade with.
        enabled: cfg.exchange && cube_bits > 0,
        max_lbd: cfg.exchange_max_lbd,
        max_len: cfg.exchange_max_len,
        ..ExchangeConfig::default()
    });
    (Arc::new(OnceLock::new()), bus)
}

/// The output of one worker.
struct CubeRun {
    tests: CanonicalSuite,
    stats: WorkerStats,
    /// Compilations charged to this worker (the query's one compilation is
    /// charged to cube 0).
    compilations: usize,
    /// Probe time charged to this worker (cube 0 only, like above).
    probe: Duration,
}

/// The per-solve budget for `attempt` of a task. Budgets escalate ×4 per
/// retry so a deterministic budget exhaustion is not retried into the
/// identical wall; unset knobs (0) stay unlimited.
fn attempt_budget(task: &Task, attempt: usize, start: Instant) -> SolveBudget {
    let cfg = &task.cfg;
    let scale = 1u64 << (2 * attempt.min(16) as u32);
    SolveBudget {
        max_conflicts: cfg.solve_conflicts.saturating_mul(scale),
        max_propagations: cfg.solve_propagations.saturating_mul(scale),
        deadline: (cfg.solve_wall_ms > 0)
            .then(|| start + Duration::from_millis(cfg.solve_wall_ms.saturating_mul(scale))),
        cancel: None,
        fault: cfg.fault_plan.clone().map(|plan| FaultCtx {
            plan,
            query: task.query_key.clone(),
            cube: task.cube,
            attempt,
        }),
    }
}

/// Enumerates one cube of one (axiom, bound) query on the current thread.
///
/// The first worker of a query to arrive compiles it (once) into the
/// shared `OnceLock`; everyone attaches a private solver to the shared
/// clause arena and trades learnt clauses over the query's exchange bus.
///
/// On the monolithic path every call starts from a fresh solver attached
/// to the (immutable) shared arena. On an incremental bound the call may
/// instead draw a live solver from the bound's pool (see
/// [`BoundShare::pool`]); either way each attempt runs under its own fresh
/// activation guard, so a retried attempt re-enumerates the cube from
/// scratch and deterministically: no *constraint* from a failed attempt
/// leaks into the next one — only formula-implied learnt clauses, which
/// prune without changing the enumerated set. On the final attempt
/// exchange imports are disabled for maximal independence from peer timing
/// (exports still flow; see `litsynth_portfolio::exchange` for why imports
/// can't change the enumerated set either way).
fn enumerate_cube<M: MemoryModel>(model: &M, task: &Task, attempt: usize) -> Attempt<CubeRun> {
    let cfg = &task.cfg;
    let start = Instant::now();
    let query = task.shared.get_or_init(|| match &task.prebuilt {
        Some(share) => build_query_from_share(share, task.axiom_idx, cfg),
        None => build_query(model, cfg, task.axiom),
    });
    let st = &query.st;
    let circuit = query.query.circuit();
    let mut asserts = query.asserts.clone();
    asserts.extend(query.query.cube_pins(task.cube, task.cube_bits));
    // On a prebuilt (incremental) bound, reuse a live solver from the
    // bound's pool when one is parked: every task of the bound solves the
    // identical compiled chain, so the solver arrives with its learnt
    // clauses — and everything the chain's earlier tasks proved — intact.
    // The price of soundness is one activation guard per task enclosing
    // its blocking clauses; a fresh attach pays the same guard so that it,
    // too, can be parked and reused when it finishes.
    let pooled = task.prebuilt.as_ref().map(|share| &share.pool);
    let mut finder = pooled
        .and_then(|pool| pool.lock().unwrap_or_else(|e| e.into_inner()).pop())
        .unwrap_or_else(|| {
            // Lazy attach leaves the chain's definitional layers (sibling
            // axioms' Tseitin cones) dormant; this query's own cones wake
            // on the first solve, when its assumptions reference them. On
            // a monolithic compilation there are no definitional layers
            // and the two attaches are identical. Every task of a bound
            // shares one `cfg.lazy`, so pooled solvers are homogeneous.
            if cfg.lazy {
                query.query.attach_lazy()
            } else {
                query.query.attach()
            }
        });
    let stats_before = finder.solver_stats();
    // Per-task knobs on a possibly pooled solver: shelving of imports over
    // dormant cones (lazy path) and the two-level decision domain. Set
    // before `declare_roots`, which is what (re)builds the domain as this
    // task's cone — on a pooled solver that replaces the previous task's
    // cone, which is exactly the point: the accumulated active set only
    // grows, the decision domain tracks the *current* query.
    finder.set_shelving(cfg.shelve);
    finder.set_domain_enabled(cfg.domain && cfg.incremental);
    finder.set_inprocessing(cfg.inprocess);
    finder.set_tiered_retention(cfg.tiered);
    let guard = pooled.map(|_| finder.new_guard());
    // Focus branching on this query's own cone. On the monolithic path the
    // warmed cone covers (essentially) the whole formula, so this changes
    // nothing; on a sweep-shared chain it keeps the solver out of the other
    // bounds' and axioms' layers until propagation actually drags it there.
    finder.warm(
        circuit,
        asserts
            .iter()
            .chain(&st.observables)
            .chain(st.kind.iter().flatten())
            .copied(),
    );
    // Declare this task's live cone roots up front: on a lazy attach the
    // vault fetch and exchange drain below land on live watchers instead
    // of the shelf, and with the decision domain on this is what scopes
    // branching to the task's own cone.
    let root_bits: Vec<Bit> = asserts
        .iter()
        .chain(&st.observables)
        .chain(st.kind.iter().flatten())
        .copied()
        .collect();
    finder.declare_roots(circuit, &root_bits);
    let max_attempts = cfg.max_attempts.max(1);
    let last_attempt = max_attempts > 1 && attempt + 1 >= max_attempts;
    let mut endpoint = task.bus.endpoint(task.cube);
    if last_attempt {
        endpoint.disable_imports();
    }
    let fingerprints = query.query.compiled().cnf().skeleton_fingerprints();
    let mut exchange = match (&task.vault, fingerprints.last().copied()) {
        (Some(vault), Some(publish_fp)) => {
            let mut v = VaultedExchange::new(endpoint, vault.clone(), publish_fp, fingerprints);
            if last_attempt {
                v.suppress_imports();
            }
            CubeExchange::Vaulted(v)
        }
        _ => CubeExchange::Plain(endpoint),
    };
    let budget = attempt_budget(task, attempt, start);

    let mut tests = BTreeMap::new();
    // Exact canonicalization runs through the two-tier cache: the
    // permutation search happens once per distinct hash class this worker
    // sees, repeat members cost one hash key. Per-worker state, so output
    // stays a pure function of the enumerated set.
    let mut canon = TwoTierCanon::new();
    let mut raw = 0usize;
    let mut truncated = false;
    let mut interrupted: Option<Interrupt> = None;
    let extra: Vec<Lit> = guard.into_iter().collect();
    loop {
        match finder.next_instance_budgeted_assuming(
            circuit,
            &asserts,
            &extra,
            &mut exchange,
            &budget,
        ) {
            Ok(Some(inst)) => {
                raw += 1;
                let (test, outcome) = st.extract(circuit, &inst);
                if cfg.exact_canon {
                    let (key, ct, co) = canon.canonicalize(&test, &outcome);
                    insert_dedup(&mut tests, key, ct, co);
                } else {
                    insert_dedup(
                        &mut tests,
                        canonical_key_hash(&test, &outcome),
                        test,
                        outcome,
                    );
                }
                finder.block_guarded(circuit, &inst, &st.observables, guard);
                if raw >= cfg.max_instances {
                    truncated = true;
                    break;
                }
                if cfg.time_budget_ms > 0 && start.elapsed().as_millis() as u64 > cfg.time_budget_ms
                {
                    truncated = true;
                    break;
                }
            }
            Ok(None) => break,
            Err(i) => {
                interrupted = Some(i);
                break;
            }
        }
    }
    let xs = exchange.stats();
    let (cnf_vars, cnf_clauses) = (finder.num_cnf_vars(), finder.num_cnf_clauses());
    let stats_after = finder.solver_stats();
    let propagations = stats_after.propagations - stats_before.propagations;
    let decisions = stats_after.decisions - stats_before.decisions;
    let domain_decisions = stats_after.domain_decisions - stats_before.domain_decisions;
    let shelved_replayed = stats_after.shelved_replayed - stats_before.shelved_replayed;
    let simplify_removed = stats_after.simplify_removed - stats_before.simplify_removed;
    let subsumed = stats_after.subsumed - stats_before.subsumed;
    let strengthened = stats_after.strengthened - stats_before.strengthened;
    let gc_runs = stats_after.gc_runs - stats_before.gc_runs;
    let gc_reclaimed_words = stats_after.gc_reclaimed_words - stats_before.gc_reclaimed_words;
    let learnt_tiers = [
        stats_after.learnts_core,
        stats_after.learnts_mid,
        stats_after.learnts_local,
    ];
    if std::env::var_os("LITSYNTH_TRACE").is_some() {
        eprintln!(
            "trace {} cube {} attempt {}: wall {:?} probe {:?} raw {} conflicts {} props {} decs {} domdecs {} replayed {} simp {} subs {} str {} gc {}/{}w tiers {}/{}/{} active {}/{}",
            task.query_key,
            task.cube,
            attempt,
            start.elapsed(),
            query.query.probe_time(),
            raw,
            finder.solver_stats().conflicts,
            propagations,
            decisions,
            domain_decisions,
            shelved_replayed,
            simplify_removed,
            subsumed,
            strengthened,
            gc_runs,
            gc_reclaimed_words,
            learnt_tiers[0],
            learnt_tiers[1],
            learnt_tiers[2],
            finder.active_var_count(),
            finder.num_cnf_vars(),
        );
    }
    // Park the solver for the bound's next task, warm. Interrupted attempts
    // park too — the retry draws a pooled solver and a *fresh* guard, so
    // the failed pass's guarded blocking clauses are inert and the retry
    // re-enumerates its cube from scratch, exactly like a cold solver
    // would. A task that panics instead (injected fault) simply drops its
    // solver; the pool refills from `attach` on demand. The guard is
    // retired first (¬guard asserted at level 0): it is never assumed
    // again, so the pass's blocking clauses become level-0-satisfied and
    // the parked solver's next inprocessing pass physically sheds them.
    if let Some(pool) = pooled {
        if let Some(g) = guard {
            finder.retire_guard(g);
        }
        pool.lock().unwrap_or_else(|e| e.into_inner()).push(finder);
    }
    let run = CubeRun {
        tests,
        // The query-level costs (the one compilation, the probe) are
        // attributed to cube 0 so that summing workers counts each query
        // exactly once.
        compilations: if task.cube == 0 {
            query.compilations
        } else {
            0
        },
        probe: if task.cube == 0 {
            query.query.probe_time()
        } else {
            Duration::ZERO
        },
        stats: WorkerStats {
            axiom: task.axiom,
            bound: cfg.events,
            cube: task.cube,
            num_cubes: 1 << task.cube_bits,
            raw_instances: raw,
            cnf_vars,
            cnf_clauses,
            elapsed: start.elapsed(),
            propagations,
            decisions,
            domain_decisions,
            shelved_replayed,
            simplify_removed,
            subsumed,
            strengthened,
            gc_runs,
            gc_reclaimed_words,
            learnt_tiers,
            truncated,
            exported: xs.exported,
            imported: xs.imported,
            filtered: xs.filtered,
            probe: query.query.probe_time(),
            attempts: 1,
            degraded: false,
            failures: Vec::new(),
        },
    };
    match interrupted {
        None => Attempt::Done(run),
        Some(i) => Attempt::Interrupted {
            reason: format!(
                "{} cube {} attempt {}: {}",
                task.query_key, task.cube, attempt, i
            ),
            partial: Some(run),
            // A cancelled query was asked to stop: don't fight the caller.
            retry: i != Interrupt::Cancelled,
        },
    }
}

/// A stand-in for a worker whose every attempt panicked before producing
/// even a partial run: an empty (degraded) cube.
fn placeholder_run(task: &Task) -> CubeRun {
    CubeRun {
        tests: BTreeMap::new(),
        compilations: 0,
        probe: Duration::ZERO,
        stats: WorkerStats {
            axiom: task.axiom,
            bound: task.cfg.events,
            cube: task.cube,
            num_cubes: 1 << task.cube_bits,
            raw_instances: 0,
            cnf_vars: 0,
            cnf_clauses: 0,
            elapsed: Duration::ZERO,
            propagations: 0,
            decisions: 0,
            domain_decisions: 0,
            shelved_replayed: 0,
            simplify_removed: 0,
            subsumed: 0,
            strengthened: 0,
            gc_runs: 0,
            gc_reclaimed_words: 0,
            learnt_tiers: [0; 3],
            truncated: false,
            exported: 0,
            imported: 0,
            filtered: 0,
            probe: Duration::ZERO,
            attempts: 0,
            degraded: true,
            failures: Vec::new(),
        },
    }
}

/// Runs the tasks on the portfolio's resilient worker pool and returns
/// their outputs in task order (never completion order). Each task runs
/// under panic isolation with retry/backoff; a task whose every attempt
/// fails comes back with `stats.degraded` set (carrying its best partial
/// result) instead of poisoning the pool.
fn run_tasks<M: MemoryModel + Sync>(model: &M, tasks: &[Task], threads: usize) -> Vec<CubeRun> {
    let retry = tasks
        .first()
        .map(|t| RetryConfig {
            max_attempts: t.cfg.max_attempts.max(1),
            backoff_base_ms: t.cfg.retry_backoff_ms,
        })
        .unwrap_or_default();
    run_resilient(tasks, threads, &retry, |_, t, attempt| {
        enumerate_cube(model, t, attempt)
    })
    .into_iter()
    .zip(tasks)
    .map(|(report, task)| {
        let mut run = report.result.unwrap_or_else(|| placeholder_run(task));
        run.stats.attempts = report.attempts;
        run.stats.degraded = report.degraded;
        run.stats.failures = report.failures;
        run
    })
    .collect()
}

/// Merges the cube runs of one query (in cube order) into a [`SynthResult`].
fn merge_query(runs: Vec<CubeRun>, elapsed: Duration) -> SynthResult {
    let mut tests = BTreeMap::new();
    let mut raw = 0;
    let mut vars = 0;
    let mut clauses = 0;
    let mut compilations = 0;
    let mut exchange = (0u64, 0u64, 0u64);
    let mut propagations = 0u64;
    let mut decisions = 0u64;
    let mut domain_decisions = 0u64;
    let mut shelved_replayed = 0u64;
    let mut simplify_removed = 0u64;
    let mut subsumed = 0u64;
    let mut strengthened = 0u64;
    let mut gc_runs = 0u64;
    let mut gc_reclaimed_words = 0u64;
    let mut probe = Duration::ZERO;
    let mut truncated = false;
    let mut degraded = 0usize;
    let mut retries = 0u64;
    let mut workers = Vec::with_capacity(runs.len());
    for run in runs {
        for (k, (t, o)) in run.tests {
            insert_dedup(&mut tests, k, t, o);
        }
        raw += run.stats.raw_instances;
        vars += run.stats.cnf_vars;
        clauses += run.stats.cnf_clauses;
        compilations += run.compilations;
        exchange.0 += run.stats.exported;
        exchange.1 += run.stats.imported;
        exchange.2 += run.stats.filtered;
        propagations += run.stats.propagations;
        decisions += run.stats.decisions;
        domain_decisions += run.stats.domain_decisions;
        shelved_replayed += run.stats.shelved_replayed;
        simplify_removed += run.stats.simplify_removed;
        subsumed += run.stats.subsumed;
        strengthened += run.stats.strengthened;
        gc_runs += run.stats.gc_runs;
        gc_reclaimed_words += run.stats.gc_reclaimed_words;
        probe += run.probe;
        truncated |= run.stats.truncated;
        degraded += run.stats.degraded as usize;
        retries += run.stats.attempts.saturating_sub(1) as u64;
        workers.push(run.stats);
    }
    SynthResult {
        tests,
        raw_instances: raw,
        elapsed,
        truncated,
        cnf_vars: vars,
        cnf_clauses: clauses,
        compilations,
        exchange,
        propagations,
        decisions,
        domain_decisions,
        shelved_replayed,
        simplify_removed,
        subsumed,
        strengthened,
        gc_runs,
        gc_reclaimed_words,
        probe,
        degraded,
        retries,
        from_journal: false,
        workers,
    }
}

/// A [`SynthResult`] replayed from the checkpoint journal: the exact tests
/// recorded by a previous complete run, with all work counters zero.
fn journal_hit_result(tests: CanonicalSuite, elapsed: Duration) -> SynthResult {
    let mut r = SynthResult::carrying(tests);
    r.elapsed = elapsed;
    r.from_journal = true;
    r
}

/// Post-synthesis consistency cross-check ([`SynthConfig::cross_check`]):
/// re-verifies with the polynomial saturation checker
/// (`litsynth_models::check`) that every emitted (test, outcome) really is
/// forbidden — an axiom-forbidden outcome is model-forbidden (more axioms
/// only shrink the allowed set), so the full-model check is sound for
/// per-axiom suites. Read-only defense in depth for the byte-identity
/// bar: it never mutates the suite, and a disagreement is a synthesis or
/// model bug, so it panics.
///
/// Tests that write one address three or more times are exempt: there a
/// final value pins only the last write, so the coherence order the
/// synthesized instance forbids is not the only one the outcome admits,
/// and the checker may find the outcome observable (the paper's §4.2 /
/// Fig. 5c class). The engine keeps emitting them; they are the one
/// allowed divergence.
fn cross_check_suite<M: MemoryModel>(model: &M, axiom: &str, cfg: &SynthConfig, r: &SynthResult) {
    if !cfg.cross_check {
        return;
    }
    for (key, (test, outcome)) in &r.tests {
        if writes_one_address_thrice(test) {
            continue;
        }
        assert!(
            litsynth_models::check::forbidden(model, test, outcome),
            "cross-check failed: {key} (model {}, axiom {axiom}) claims a forbidden \
             outcome the consistency checker finds observable",
            model.name(),
        );
    }
}

/// Whether `test` writes some address three or more times — the class
/// [`cross_check_suite`] exempts.
fn writes_one_address_thrice(test: &LitmusTest) -> bool {
    test.addresses()
        .into_iter()
        .any(|a| test.writes_to(a).len() >= 3)
}

/// Journals `r` if it is complete: not truncated, no degraded workers, and
/// a journal is configured. Partial suites are deliberately never
/// recorded — a resume must only ever skip work whose output is exact.
fn record_if_clean(model_name: &str, axiom: &str, cfg: &SynthConfig, r: &SynthResult) {
    let Some(journal) = &cfg.journal else {
        return;
    };
    if r.truncated || r.degraded > 0 || r.from_journal {
        return;
    }
    let key = query_key(model_name, axiom, cfg.events);
    if let Err(e) = journal.record(&key, config_fingerprint(model_name, axiom, cfg), &r.tests) {
        eprintln!("warning: could not journal {key}: {e}");
    }
}

/// Looks `(axiom, bound)` up in `cfg`'s journal (if any): `Some(tests)`
/// only when a complete prior run with the same config fingerprint was
/// recorded and its entry passes the checksum.
fn journal_lookup<M: MemoryModel>(
    model: &M,
    axiom: &str,
    cfg: &SynthConfig,
) -> Option<CanonicalSuite> {
    let journal = cfg.journal.as_ref()?;
    journal.lookup(
        &query_key(model.name(), axiom, cfg.events),
        config_fingerprint(model.name(), axiom, cfg),
    )
}

/// The static name of `axiom` in `model`'s axiom list.
///
/// # Panics
///
/// Panics if `axiom` is not one of the model's axioms.
fn static_axiom<M: MemoryModel>(model: &M, axiom: &str) -> &'static str {
    model
        .axioms()
        .iter()
        .copied()
        .find(|a| *a == axiom)
        .unwrap_or_else(|| panic!("unknown axiom {axiom:?} for {}", model.name()))
}

/// The (axiom × cube) task list for one bound, checking each axiom's
/// query against the journal first. Journal hits come back as ready-made
/// results keyed by axiom index; only the misses become tasks.
///
/// The lookups happen *here*, before any worker runs — never re-done at
/// merge time, when entries recorded mid-run could change the answer.
fn plan_with_journal<M: MemoryModel>(
    model: &M,
    cfg: &SynthConfig,
) -> (BTreeMap<usize, SynthResult>, Vec<Task>) {
    let cube_bits = effective_cube_bits(model, cfg);
    let mut hits = BTreeMap::new();
    let mut tasks = Vec::new();
    for (axiom_idx, &axiom) in model.axioms().iter().enumerate() {
        if let Some(tests) = journal_lookup(model, axiom, cfg) {
            hits.insert(axiom_idx, journal_hit_result(tests, Duration::ZERO));
            continue;
        }
        let query_key: Arc<str> = query_key(model.name(), axiom, cfg.events).into();
        let (shared, bus) = query_group(cfg, cube_bits);
        for cube in 0..(1usize << cube_bits) {
            tasks.push(Task {
                axiom_idx,
                axiom,
                query_key: query_key.clone(),
                cfg: cfg.clone(),
                cube,
                cube_bits,
                shared: shared.clone(),
                bus: bus.clone(),
                prebuilt: None,
                vault: None,
            });
        }
    }
    (hits, tasks)
}

/// Synthesizes the suite for one axiom of `model` at the bound in `cfg`:
/// all canonical tests of exactly `cfg.events` instructions satisfying the
/// minimality criterion (Figure 5c encoding). With `cfg.cube_bits > 0` the
/// query is cube-split and the cubes run on `cfg.threads` workers.
pub fn synthesize_axiom<M: MemoryModel + Sync>(
    model: &M,
    axiom: &str,
    cfg: &SynthConfig,
) -> SynthResult {
    let start = Instant::now();
    let axiom = static_axiom(model, axiom);
    if let Some(tests) = journal_lookup(model, axiom, cfg) {
        let r = journal_hit_result(tests, start.elapsed());
        cross_check_suite(model, axiom, cfg, &r);
        emit_progress(model.name(), axiom, cfg, &r);
        return r;
    }
    let cube_bits = effective_cube_bits(model, cfg);
    let query_key: Arc<str> = query_key(model.name(), axiom, cfg.events).into();
    let (shared, bus) = query_group(cfg, cube_bits);
    let tasks: Vec<Task> = (0..(1usize << cube_bits))
        .map(|cube| Task {
            axiom_idx: 0,
            axiom,
            query_key: query_key.clone(),
            cfg: cfg.clone(),
            cube,
            cube_bits,
            shared: shared.clone(),
            bus: bus.clone(),
            prebuilt: None,
            vault: None,
        })
        .collect();
    let runs = run_tasks(model, &tasks, cfg.threads);
    let r = merge_query(runs, start.elapsed());
    cross_check_suite(model, axiom, cfg, &r);
    record_if_clean(model.name(), axiom, cfg, &r);
    emit_progress(model.name(), axiom, cfg, &r);
    r
}

/// Synthesizes the per-axiom suites *and* their union for a model at one
/// bound. As the paper notes (§5.2), generating per-axiom suites and
/// merging at the end is much faster than a single union query — and the
/// per-axiom queries are fully independent, so they fan out across the
/// worker pool.
pub fn synthesize_union<M: MemoryModel + Sync>(
    model: &M,
    cfg: &SynthConfig,
) -> (BTreeMap<&'static str, SynthResult>, CanonicalSuite) {
    let start = Instant::now();
    let (hits, mut tasks) = plan_with_journal(model, cfg);
    if cfg.incremental && !tasks.is_empty() {
        let share = sweep_shares(model, &[(cfg, true)]).pop().flatten();
        let vault = cfg.vault.then(|| ClauseVault::new(VaultConfig::default()));
        attach_share(&mut tasks, &share, &vault);
    }
    let runs = run_tasks(model, &tasks, cfg.threads);
    let (per_axiom, union) = merge_union(model, tasks, runs, start, hits);
    for (&ax, r) in &per_axiom {
        cross_check_suite(model, ax, cfg, r);
        record_if_clean(model.name(), ax, cfg, r);
        emit_progress(model.name(), ax, cfg, r);
    }
    (per_axiom, union)
}

/// Groups task outputs by axiom (in axiom order), splices in the journal
/// hits, and builds the union. The union is assembled in axiom order
/// regardless of which axioms were replayed, so a resumed run merges
/// byte-identically to an uninterrupted one.
fn merge_union<M: MemoryModel>(
    model: &M,
    tasks: Vec<Task>,
    runs: Vec<CubeRun>,
    start: Instant,
    mut hits: BTreeMap<usize, SynthResult>,
) -> (BTreeMap<&'static str, SynthResult>, CanonicalSuite) {
    let mut grouped: Vec<Vec<CubeRun>> = model.axioms().iter().map(|_| Vec::new()).collect();
    for (task, run) in tasks.iter().zip(runs) {
        grouped[task.axiom_idx].push(run);
    }
    let mut per_axiom = BTreeMap::new();
    let mut union: CanonicalSuite = BTreeMap::new();
    for (idx, (&ax, runs)) in model.axioms().iter().zip(grouped).enumerate() {
        let r = hits
            .remove(&idx)
            .unwrap_or_else(|| merge_query(runs, start.elapsed()));
        for (k, v) in &r.tests {
            union.entry(k.clone()).or_insert_with(|| v.clone());
        }
        per_axiom.insert(ax, r);
    }
    (per_axiom, union)
}

/// Aggregate compile-reuse and clause-vault statistics for one sweep of
/// [`synthesize_union_up_to_with_stats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepStats {
    /// Full circuit→CNF compilations charged to the sweep's queries — the
    /// race-free per-query sum. Exactly 1 for a fully incremental sweep
    /// (the shared skeleton's compile, claimed by whichever query arrives
    /// first), one per query monolithically; journal hits charge 0.
    pub compilations: u64,
    /// Incremental layer extensions performed while the sweep ran: the
    /// skeleton-chain links after the first, plus one per derived query.
    /// A process-global delta of [`litsynth_relalg::incremental_extensions`]
    /// — exact when no other synthesis runs concurrently in the process.
    pub extensions: u64,
    /// Already-encoded clauses reused by those extensions instead of being
    /// re-encoded (delta of [`litsynth_relalg::reused_clauses`], same
    /// caveat).
    pub reused_clauses: u64,
    /// Cross-query clause-vault counters (all zero with the vault off).
    pub vault: VaultStats,
    /// Raw solver instances enumerated, summed over the sweep's queries.
    pub raw_instances: u64,
    /// Retry attempts beyond each worker's first, summed over the sweep.
    pub retries: u64,
    /// Workers whose every attempt failed, summed over the sweep.
    pub degraded: u64,
    /// Exchange-bus totals over all workers: (exported, imported,
    /// filtered).
    pub exchange: (u64, u64, u64),
    /// Unit propagations, summed over the sweep's workers. The number
    /// [`SynthConfig::lazy`] exists to shrink: dormant definitional layers
    /// propagate nothing.
    pub propagations: u64,
    /// Solver decisions, summed over the sweep's workers.
    pub decisions: u64,
    /// Decisions served from the local level of the two-level decision
    /// domain, summed over the sweep's workers (0 with
    /// [`SynthConfig::domain`] off — a zero here with the domain on means
    /// it was silently disabled somewhere).
    pub domain_decisions: u64,
    /// Shelved imports replayed after their cone activated, summed over
    /// the sweep's workers (0 with [`SynthConfig::shelve`] off or the
    /// lazy path inactive).
    pub shelved_replayed: u64,
    /// Clauses purged by level-0 inprocessing, summed over the sweep's
    /// workers (0 with [`SynthConfig::inprocess`] off).
    pub simplify_removed: u64,
    /// Learnt clauses deleted by on-the-fly subsumption, summed over the
    /// sweep's workers.
    pub subsumed: u64,
    /// Literals removed by stripping / self-subsuming resolution, summed
    /// over the sweep's workers.
    pub strengthened: u64,
    /// Clause-arena garbage collections, summed over the sweep's workers.
    pub gc_runs: u64,
    /// Arena words reclaimed by those collections, summed over the
    /// sweep's workers.
    pub gc_reclaimed_words: u64,
}

/// Synthesizes the union suite over a range of bounds, merging canonical
/// sets (tests of different sizes never collide). Every (bound, axiom,
/// cube) task across the whole range fans out over one shared worker pool.
pub fn synthesize_union_up_to<M: MemoryModel + Sync>(
    model: &M,
    bounds: std::ops::RangeInclusive<usize>,
    mk_cfg: impl Fn(usize) -> SynthConfig,
) -> CanonicalSuite {
    synthesize_union_up_to_with_stats(model, bounds, mk_cfg).0
}

/// Like [`synthesize_union_up_to`], also reporting the sweep's
/// [`SweepStats`].
pub fn synthesize_union_up_to_with_stats<M: MemoryModel + Sync>(
    model: &M,
    bounds: std::ops::RangeInclusive<usize>,
    mk_cfg: impl Fn(usize) -> SynthConfig,
) -> (CanonicalSuite, SweepStats) {
    let cfgs: Vec<SynthConfig> = bounds.map(mk_cfg).collect();
    let threads = cfgs.iter().map(|c| c.threads).max().unwrap_or(1);
    let extensions0 = litsynth_relalg::incremental_extensions();
    let reused0 = litsynth_relalg::reused_clauses();
    // (journal hits, task count) per bound. The journal is consulted once,
    // up front — entries recorded while the pool runs must not change
    // which tasks this invocation planned.
    let mut plans = Vec::new();
    let mut per_bound: Vec<Vec<Task>> = Vec::new();
    for cfg in &cfgs {
        let (hits, bound_tasks) = plan_with_journal(model, cfg);
        plans.push((hits, bound_tasks.len()));
        per_bound.push(bound_tasks);
    }
    // Prebuild one shared arena and skeleton layer chain for the bounds
    // that asked for incremental compilation and still have work, plus one
    // sweep-wide vault — later bounds' chains contain the earlier bounds'
    // chains as prefixes, so clauses vaulted at bound n seed bound n+1 too.
    let specs: Vec<(&SynthConfig, bool)> = cfgs
        .iter()
        .zip(&per_bound)
        .map(|(cfg, tasks)| (cfg, cfg.incremental && !tasks.is_empty()))
        .collect();
    let shares = sweep_shares(model, &specs);
    let vault = cfgs
        .iter()
        .any(|c| c.vault)
        .then(|| ClauseVault::new(VaultConfig::default()));
    for (tasks, share) in per_bound.iter_mut().zip(&shares) {
        attach_share(tasks, share, &vault);
    }
    let tasks: Vec<Task> = per_bound.into_iter().flatten().collect();
    let runs = run_tasks(model, &tasks, threads);

    // Merge in bound order, each bound in axiom order — the same shape as
    // the sequential loop, so the result is byte-identical to it.
    let mut stats = SweepStats::default();
    let mut union: CanonicalSuite = BTreeMap::new();
    let mut tasks = tasks.into_iter();
    let mut runs = runs.into_iter();
    for (cfg, (hits, count)) in cfgs.iter().zip(plans) {
        let bound_tasks: Vec<Task> = tasks.by_ref().take(count).collect();
        let bound_runs: Vec<CubeRun> = runs.by_ref().take(count).collect();
        let start = Instant::now();
        let (per_axiom, u) = merge_union(model, bound_tasks, bound_runs, start, hits);
        for (&ax, r) in &per_axiom {
            stats.compilations += r.compilations as u64;
            stats.raw_instances += r.raw_instances as u64;
            stats.retries += r.retries;
            stats.degraded += r.degraded as u64;
            stats.exchange.0 += r.exchange.0;
            stats.exchange.1 += r.exchange.1;
            stats.exchange.2 += r.exchange.2;
            stats.propagations += r.propagations;
            stats.decisions += r.decisions;
            stats.domain_decisions += r.domain_decisions;
            stats.shelved_replayed += r.shelved_replayed;
            stats.simplify_removed += r.simplify_removed;
            stats.subsumed += r.subsumed;
            stats.strengthened += r.strengthened;
            stats.gc_runs += r.gc_runs;
            stats.gc_reclaimed_words += r.gc_reclaimed_words;
            cross_check_suite(model, ax, cfg, r);
            record_if_clean(model.name(), ax, cfg, r);
            emit_progress(model.name(), ax, cfg, r);
        }
        union.extend(u);
    }
    stats.extensions = litsynth_relalg::incremental_extensions() - extensions0;
    stats.reused_clauses = litsynth_relalg::reused_clauses() - reused0;
    if let Some(v) = &vault {
        stats.vault = v.stats();
    }
    (union, stats)
}

/// One shard-claimable unit of a sweep: a single (axiom, bound) query with
/// its fingerprinted [`WorkUnit`](litsynth_portfolio::WorkUnit) identity
/// and the config to run it under. The unit's `seq` is its position in the
/// sweep's deterministic merge order.
#[derive(Clone, Debug)]
pub struct UnitPlan {
    /// The unit's claimable identity (key, config fingerprint, merge seq).
    pub unit: litsynth_portfolio::WorkUnit,
    /// The query's axiom.
    pub axiom: &'static str,
    /// The query's event bound.
    pub bound: usize,
    /// The config the unit runs under.
    pub cfg: SynthConfig,
}

/// Plans a sweep as independent work units, in deterministic merge order:
/// bounds ascending, each bound's axioms in model order, `seq` numbering
/// the lot. The shard layer hands these out (in any order, to any worker)
/// and [`merge_unit_suites`] reassembles the results by `seq` — the merge
/// then matches [`synthesize_union_up_to`]'s bound-then-axiom loop
/// exactly, which is what makes served suites byte-identical to a direct
/// sweep.
pub fn plan_units<M: MemoryModel>(
    model: &M,
    bounds: std::ops::RangeInclusive<usize>,
    mk_cfg: impl Fn(usize) -> SynthConfig,
) -> Vec<UnitPlan> {
    plan_query(model, model.axioms(), bounds, mk_cfg)
}

/// [`plan_units`] restricted to `axioms`: the model's axiom order is kept
/// within each bound, so a request for an axiom subset is still planned
/// (and therefore merged and fingerprinted) in model order, never request
/// order.
pub fn plan_query<M: MemoryModel>(
    model: &M,
    axioms: &[&'static str],
    bounds: std::ops::RangeInclusive<usize>,
    mk_cfg: impl Fn(usize) -> SynthConfig,
) -> Vec<UnitPlan> {
    let mut units = Vec::new();
    for bound in bounds {
        let cfg = mk_cfg(bound);
        for &axiom in model.axioms().iter().filter(|a| axioms.contains(a)) {
            let seq = units.len();
            units.push(UnitPlan {
                unit: litsynth_portfolio::WorkUnit {
                    key: query_key(model.name(), axiom, bound).into(),
                    fingerprint: config_fingerprint(model.name(), axiom, &cfg),
                    seq,
                },
                axiom,
                bound,
                cfg: cfg.clone(),
            });
        }
    }
    units
}

/// Runs one planned unit to completion on the calling thread('s pool):
/// exactly [`synthesize_axiom`] under the unit's config — journaled,
/// resilient, byte-identical to the same query inside a direct sweep.
pub fn run_unit<M: MemoryModel + Sync>(model: &M, plan: &UnitPlan) -> SynthResult {
    synthesize_axiom(model, plan.axiom, &plan.cfg)
}

/// Merges per-unit suites *in `seq` order* into the sweep union.
///
/// Determinism: [`synthesize_union_up_to`] builds its union bound-by-bound
/// (each bound's axioms first-wins-merged in axiom order, bounds then
/// concatenated — cross-bound canonical keys are disjoint because every
/// test has exactly its bound's event count). A first-wins fold over the
/// unit suites in `seq` order is the same computation, so a sharded sweep
/// serves byte-identical suites no matter which shard ran which unit.
pub fn merge_unit_suites<'a>(
    suites: impl IntoIterator<Item = &'a CanonicalSuite>,
) -> CanonicalSuite {
    let mut union = CanonicalSuite::new();
    for suite in suites {
        for (k, v) in suite {
            union.entry(k.clone()).or_insert_with(|| v.clone());
        }
    }
    union
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimal::check_minimal;
    use litsynth_models::{Sc, Tso};

    #[test]
    fn tso_sc_per_loc_bound_2_finds_the_three_coherence_kernels() {
        // At 2 instructions the minimal sc_per_loc tests are the three
        // single-thread coherence kernels: CoWW (write-write order), the
        // read-own-future-write test, and the overtaken-own-write test.
        let cfg = SynthConfig::new(2);
        let r = synthesize_axiom(&Tso::new(), "sc_per_loc", &cfg);
        assert_eq!(r.len(), 3, "{:?}", r.tests.keys().collect::<Vec<_>>());
        for (t, o) in r.tests.values() {
            assert_eq!(t.num_threads(), 1);
            assert_eq!(t.num_events(), 2);
            assert!(check_minimal(&Tso::new(), "sc_per_loc", t, o).is_minimal());
        }
        // CoWW is among them.
        assert!(r
            .tests
            .values()
            .any(|(t, _)| t.instr(0).is_write() && t.instr(1).is_write()));
    }

    #[test]
    fn every_synthesized_test_is_oracle_minimal_tso_bound_3() {
        // Cross-validation at bound 3: everything the SAT path emits must
        // pass the exact exists-forall oracle (the Figure 5c approximation
        // only *loses* tests, it must not invent them — modulo the co
        // ambiguity that needs ≥3 same-address writes, impossible at 3
        // events with a read present).
        let m = Tso::new();
        let cfg = SynthConfig::new(3);
        for ax in m.axioms() {
            let r = synthesize_axiom(&m, ax, &cfg);
            for (t, o) in r.tests.values() {
                let v = check_minimal(&m, ax, t, o);
                assert!(
                    v.is_minimal(),
                    "{ax}: {t} {} not oracle-minimal: {v:?}",
                    o.display(t)
                );
            }
        }
    }

    #[test]
    fn sc_causality_bound_4_includes_the_classics() {
        let m = Sc::new();
        let cfg = SynthConfig::new(4);
        let r = synthesize_axiom(&m, "causality", &cfg);
        // SB, MP, LB, S, 2+2W, R all live at 4 instructions under SC.
        assert!(r.len() >= 6, "found {}", r.len());
        // And everything is oracle-minimal.
        for (t, o) in r.tests.values() {
            assert!(check_minimal(&m, "causality", t, o).is_minimal(), "{t}");
        }
    }

    /// Flattens a union result for byte-for-byte comparison.
    fn fingerprint(
        per_axiom: &BTreeMap<&'static str, SynthResult>,
        union: &CanonicalSuite,
    ) -> String {
        let mut s = String::new();
        for (ax, r) in per_axiom {
            for (k, (t, o)) in &r.tests {
                s.push_str(&format!("{ax}|{k}|{}\n", serialize(t, o)));
            }
        }
        for (k, (t, o)) in union {
            s.push_str(&format!("U|{k}|{}\n", serialize(t, o)));
        }
        s
    }

    #[test]
    fn parallel_union_is_byte_identical_to_sequential() {
        // The acceptance property of the parallel engine: any combination
        // of worker threads and cube splitting produces exactly the
        // sequential suite.
        for bound in 2..=4usize {
            for model_idx in 0..2 {
                let run = |threads: usize, cube_bits: usize| {
                    let mut cfg = SynthConfig::new(bound);
                    cfg.threads = threads;
                    cfg.cube_bits = cube_bits;
                    if model_idx == 0 {
                        let (p, u) = synthesize_union(&Sc::new(), &cfg);
                        (
                            fingerprint(&p, &u),
                            p.values().map(|r| r.raw_instances).sum::<usize>(),
                        )
                    } else {
                        let (p, u) = synthesize_union(&Tso::new(), &cfg);
                        (
                            fingerprint(&p, &u),
                            p.values().map(|r| r.raw_instances).sum::<usize>(),
                        )
                    }
                };
                let (seq, seq_raw) = run(1, 0);
                for (threads, cube_bits) in [(1, 2), (2, 0), (2, 2), (4, 0), (4, 2)] {
                    let (par, par_raw) = run(threads, cube_bits);
                    assert_eq!(
                        par, seq,
                        "threads={threads} cube_bits={cube_bits} bound={bound} model={model_idx}"
                    );
                    // Cubes partition the enumeration exactly: same number
                    // of raw instances in total.
                    assert_eq!(
                        par_raw, seq_raw,
                        "raw count drifted: threads={threads} cube_bits={cube_bits} \
                         bound={bound} model={model_idx}"
                    );
                }
            }
        }
    }

    #[test]
    fn union_up_to_is_byte_identical_across_thread_counts() {
        let suites: Vec<String> = [1usize, 2, 4]
            .iter()
            .map(|&threads| {
                let u = synthesize_union_up_to(&Tso::new(), 2..=3, |n| {
                    SynthConfig::new(n).with_threads(threads).with_cube_bits(1)
                });
                u.iter()
                    .map(|(k, (t, o))| format!("{k}|{}\n", serialize(t, o)))
                    .collect()
            })
            .collect();
        assert_eq!(suites[0], suites[1]);
        assert_eq!(suites[0], suites[2]);
    }

    #[test]
    fn worker_stats_cover_every_cube() {
        // Adaptive engagement would (correctly) unsplit this small bound;
        // disabled here because cube accounting is exactly what's tested.
        let cfg = SynthConfig::new(2)
            .with_threads(2)
            .with_cube_bits(2)
            .with_adaptive_engage(false);
        let r = synthesize_axiom(&Tso::new(), "sc_per_loc", &cfg);
        assert_eq!(r.workers.len(), 4);
        for (i, w) in r.workers.iter().enumerate() {
            assert_eq!(w.cube, i);
            assert_eq!(w.num_cubes, 4);
            assert_eq!(w.axiom, "sc_per_loc");
            assert_eq!(w.bound, 2);
        }
        assert_eq!(
            r.raw_instances,
            r.workers.iter().map(|w| w.raw_instances).sum::<usize>()
        );
        // Splitting never changes the canonical suite.
        let seq = synthesize_axiom(&Tso::new(), "sc_per_loc", &SynthConfig::new(2));
        assert_eq!(
            seq.tests.keys().collect::<Vec<_>>(),
            r.tests.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn exchange_matrix_is_byte_identical() {
        // The acceptance matrix of the portfolio subsystem: every
        // combination of worker threads, cube splitting, and clause
        // exchange produces exactly the sequential suite — the exchange may
        // prune search, never change the enumerated set. Raw instance
        // counts are compared too: imports must not swallow classes.
        let m = Tso::new();
        let run = |threads: usize, cube_bits: usize, exchange: bool| {
            // cross_check: every matrix leg is also semantically
            // re-verified by the polynomial consistency checker (CI's
            // determinism job rides on this test).
            let cfg = SynthConfig::new(3)
                .with_threads(threads)
                .with_cube_bits(cube_bits)
                .with_exchange(exchange)
                .with_cross_check(true);
            let (p, u) = synthesize_union(&m, &cfg);
            (
                fingerprint(&p, &u),
                p.values().map(|r| r.raw_instances).sum::<usize>(),
            )
        };
        let (seq, seq_raw) = run(1, 0, false);
        for threads in [1usize, 4] {
            for cube_bits in [0usize, 2] {
                for exchange in [false, true] {
                    let (got, got_raw) = run(threads, cube_bits, exchange);
                    assert_eq!(
                        got, seq,
                        "threads={threads} cube_bits={cube_bits} exchange={exchange}"
                    );
                    assert_eq!(
                        got_raw, seq_raw,
                        "raw drift: threads={threads} cube_bits={cube_bits} exchange={exchange}"
                    );
                }
            }
        }
        // Adaptive cube selection may repartition the cubes, but the union
        // and the total class count are invariant as well.
        let cfg = SynthConfig::new(3)
            .with_threads(4)
            .with_cube_bits(2)
            .with_adaptive_cubes(false);
        let (p, u) = synthesize_union(&m, &cfg);
        assert_eq!(fingerprint(&p, &u), seq);
        assert_eq!(
            p.values().map(|r| r.raw_instances).sum::<usize>(),
            seq_raw,
            "slot-order pins must partition too"
        );
    }

    #[test]
    fn one_compilation_per_query_and_counters_surface() {
        let m = Tso::new();
        let before = litsynth_relalg::compilations();
        let cfg = SynthConfig::new(2)
            .with_threads(4)
            .with_cube_bits(2)
            .with_incremental(false)
            .with_adaptive_engage(false);
        let (p, _) = synthesize_union(&m, &cfg);
        let compiled = litsynth_relalg::compilations() - before;
        // The union must have compiled at least one CNF per query. The
        // process-wide counter can also tick from *other* tests running
        // concurrently in this binary, so exactness is asserted on the
        // race-free per-query counters below, not on the global delta.
        assert!(compiled as usize >= m.axioms().len());
        for (ax, r) in &p {
            // Monolithic mode: exactly one circuit→CNF compilation per
            // (axiom, bound) query, no matter how many cube workers
            // attached.
            assert_eq!(r.compilations, 1, "{ax}");
            assert_eq!(r.workers.len(), 4, "{ax}");
            // Worker counters roll up into the query-level totals.
            assert_eq!(
                r.exchange,
                (
                    r.workers.iter().map(|w| w.exported).sum::<u64>(),
                    r.workers.iter().map(|w| w.imported).sum::<u64>(),
                    r.workers.iter().map(|w| w.filtered).sum::<u64>(),
                ),
                "{ax}"
            );
        }
        // Incremental mode (the default): one full compilation for the
        // whole union — the shared skeleton's — claimed by exactly one
        // query; the bound's definition layers extend that chain and all
        // queries share the result, contributing only assumption roots.
        let extensions_before = litsynth_relalg::incremental_extensions();
        let cfg = SynthConfig::new(2)
            .with_threads(4)
            .with_cube_bits(2)
            .with_adaptive_engage(false);
        let (p, _) = synthesize_union(&m, &cfg);
        assert_eq!(
            p.values().map(|r| r.compilations).sum::<usize>(),
            1,
            "an incremental sweep compiles in full exactly once"
        );
        assert!(
            litsynth_relalg::incremental_extensions() > extensions_before,
            "the definition layers must extend the skeleton chain"
        );
    }

    #[test]
    fn incremental_chain_cnf_matches_from_scratch_modulo_renaming() {
        // The tentpole soundness property, for bounds 2..=4: the shared
        // layer chain — each bound's skeleton link followed by one
        // definitional link per axiom — contains exactly the clauses a
        // from-scratch compilation of the same cumulative roots produces,
        // modulo variable renaming. Every cone is Tseitin-encoded exactly
        // once per sweep, nothing more and nothing less.
        let m = Tso::new();
        let mut alg = litsynth_models::SymAlg::new();
        let mut chain: Option<CompiledCircuit> = None;
        let mut cumulative_roots: Vec<Bit> = Vec::new();
        for bound in 2..=4usize {
            let cfg = SynthConfig::new(bound);
            let st = SymbolicTest::build(&mut alg, &m, &cfg);
            let candidates: Vec<Bit> = st.kind.iter().flatten().copied().collect();
            let roots: Vec<Bit> = st
                .wellformed
                .iter()
                .chain(&st.observables)
                .chain(&candidates)
                .copied()
                .collect();
            let skeleton = match &chain {
                None => CompiledCircuit::compile_tagged(&alg.circuit, roots.iter().copied(), true),
                Some(prev) => {
                    CompiledCircuit::extend(prev, &alg.circuit, roots.iter().copied(), true)
                }
            };
            cumulative_roots.extend(&roots);
            let scratch = CompiledCircuit::compile(&alg.circuit, cumulative_roots.iter().copied());
            assert!(
                skeleton.same_cnf_modulo_renaming(&scratch),
                "skeleton chain diverged from scratch at bound {bound}"
            );
            let asserts: Vec<Vec<Bit>> = m
                .axioms()
                .iter()
                .map(|&ax| minimality_asserts_opts(&mut alg, &m, &st, ax, cfg.orphan_unconstrained))
                .collect();
            let mut full = skeleton;
            for ax_asserts in &asserts {
                full = CompiledCircuit::extend_definitional(
                    &full,
                    &alg.circuit,
                    ax_asserts.iter().copied(),
                    true,
                );
            }
            cumulative_roots.extend(asserts.iter().flatten());
            let scratch = CompiledCircuit::compile(&alg.circuit, cumulative_roots.iter().copied());
            assert!(
                full.same_cnf_modulo_renaming(&scratch),
                "definitions link diverged from scratch at bound {bound}"
            );
            chain = Some(full);
        }
    }

    #[test]
    fn union_up_to_is_byte_identical_across_incremental_and_vault_modes() {
        // Tentpole acceptance: layered sweep compilation and the
        // cross-query clause vault may only change how fast the suite is
        // found, never the suite itself, at any thread count or cube split.
        let m = Tso::new();
        let run = |incremental: bool, vault: bool, threads: usize, cube_bits: usize| {
            let u = synthesize_union_up_to(&m, 2..=3, |n| {
                SynthConfig::new(n)
                    .with_threads(threads)
                    .with_cube_bits(cube_bits)
                    .with_incremental(incremental)
                    .with_vault(vault)
            });
            suite_bytes(&u)
        };
        let baseline = run(false, false, 1, 0);
        for (incremental, vault, threads, cube_bits) in [
            (true, false, 1, 0),
            (true, true, 1, 0),
            (false, true, 1, 0),
            (true, true, 2, 1),
            (true, true, 4, 2),
        ] {
            assert_eq!(
                run(incremental, vault, threads, cube_bits),
                baseline,
                "incremental={incremental} vault={vault} \
                 threads={threads} cube_bits={cube_bits}"
            );
        }
    }

    #[test]
    fn union_up_to_is_byte_identical_with_lazy_on_and_off() {
        // Lazy definitional propagation — and the mechanisms layered on
        // it: shelve-and-replay of dormant-cone imports and the two-level
        // decision domain — may only change how much work the solvers do,
        // never the suite. Activation only adds constraints the full
        // formula already contains, a shelved import only prunes, and the
        // domain only reorders decisions (DESIGN §3b), so the suite is
        // byte-identical across the whole {lazy} × {shelve} × {domain} ×
        // {vault} knob matrix at any thread count or cube split.
        let m = Tso::new();
        let run = |lazy: bool,
                   shelve: bool,
                   domain: bool,
                   vault: bool,
                   threads: usize,
                   cube_bits: usize| {
            let u = synthesize_union_up_to(&m, 2..=3, |n| {
                SynthConfig::new(n)
                    .with_threads(threads)
                    .with_cube_bits(cube_bits)
                    .with_lazy(lazy)
                    .with_shelve(shelve)
                    .with_domain(domain)
                    .with_vault(vault)
                    .with_cross_check(true)
            });
            suite_bytes(&u)
        };
        let baseline = run(false, false, false, false, 1, 0);
        for (lazy, shelve, domain, vault, threads, cube_bits) in [
            // the original lazy legs (defaults now carry shelve+domain on)
            (true, true, true, true, 1, 0),
            (true, true, true, true, 2, 1),
            (true, true, true, true, 4, 2),
            (false, true, true, true, 2, 1),
            // each new knob isolated, vault on and off
            (true, false, true, true, 1, 0),
            (true, true, false, true, 1, 0),
            (true, false, false, true, 2, 1),
            (true, true, true, false, 2, 1),
            (true, false, true, false, 1, 0),
            (true, true, false, false, 1, 0),
            // domain without lazy (eager attach, cone-scoped branching)
            (false, true, true, false, 1, 0),
        ] {
            assert_eq!(
                run(lazy, shelve, domain, vault, threads, cube_bits),
                baseline,
                "lazy={lazy} shelve={shelve} domain={domain} vault={vault} \
                 threads={threads} cube_bits={cube_bits}"
            );
        }
    }

    #[test]
    fn union_up_to_is_byte_identical_across_sat_core_toggles() {
        // The SAT-core modernization matrix: level-0 inprocessing only
        // removes satisfied/subsumed clauses and false literals, tiered
        // retention only discards learnt clauses, and the clause arena is
        // pure storage — all only-prune or storage-only, so the suite is
        // byte-identical across {inprocess} × {tiered} crossed with the
        // existing {shelve} × {domain} × {vault} legs at any thread count
        // or cube split (DESIGN §3c).
        let m = Tso::new();
        let run = |inprocess: bool,
                   tiered: bool,
                   shelve: bool,
                   domain: bool,
                   vault: bool,
                   threads: usize,
                   cube_bits: usize| {
            let u = synthesize_union_up_to(&m, 2..=3, |n| {
                SynthConfig::new(n)
                    .with_threads(threads)
                    .with_cube_bits(cube_bits)
                    .with_inprocess(inprocess)
                    .with_tiered(tiered)
                    .with_shelve(shelve)
                    .with_domain(domain)
                    .with_vault(vault)
                    .with_cross_check(true)
            });
            suite_bytes(&u)
        };
        // Everything off, sequential: the legacy core.
        let baseline = run(false, false, false, false, false, 1, 0);
        for (inprocess, tiered, shelve, domain, vault, threads, cube_bits) in [
            // each new knob isolated on the sequential path
            (true, false, false, false, false, 1, 0),
            (false, true, false, false, false, 1, 0),
            // both on (the default core), sequential and parallel
            (true, true, false, false, false, 1, 0),
            (true, true, true, true, true, 1, 0),
            (true, true, true, true, true, 4, 2),
            // modern core against individual portfolio knobs
            (true, true, false, true, true, 2, 1),
            (true, true, true, false, true, 2, 1),
            (true, true, true, true, false, 2, 1),
            // legacy core under the full portfolio stack
            (false, false, true, true, true, 4, 2),
        ] {
            assert_eq!(
                run(inprocess, tiered, shelve, domain, vault, threads, cube_bits),
                baseline,
                "inprocess={inprocess} tiered={tiered} shelve={shelve} \
                 domain={domain} vault={vault} threads={threads} cube_bits={cube_bits}"
            );
        }
    }

    #[test]
    fn tso_cross_check_up_to_bound_4_exempts_only_three_write_tests() {
        // Bound 4 is the first to emit tests writing one address three
        // times; the cross-check must run through them without a panic,
        // and the exemption must not silently widen: exactly two emitted
        // tests are checker-observable, and both are in that class.
        let m = Tso::new();
        let suite =
            synthesize_union_up_to(&m, 2..=4, |n| SynthConfig::new(n).with_cross_check(true));
        let observable: Vec<(&String, &LitmusTest)> = suite
            .iter()
            .filter(|(_, (t, o))| !litsynth_models::check::forbidden(&m, t, o))
            .map(|(k, (t, _))| (k, t))
            .collect();
        assert_eq!(observable.len(), 2, "{observable:?}");
        for (key, test) in observable {
            assert!(writes_one_address_thrice(test), "{key}: {test}");
        }
    }

    #[test]
    fn sweep_reports_inprocessing_counters_when_enabled() {
        // The new counters must roll all the way up: with the default
        // config (inprocessing on) a sweep records purged clauses, and
        // with the knob off every inprocessing counter is exactly zero.
        let m = Tso::new();
        let (_, s_on) = synthesize_union_up_to_with_stats(&m, 2..=3, SynthConfig::new);
        assert!(
            s_on.simplify_removed > 0,
            "inprocessing enabled but nothing purged across a sweep"
        );
        let (_, s_off) = synthesize_union_up_to_with_stats(&m, 2..=3, |n| {
            SynthConfig::new(n).with_inprocess(false)
        });
        assert_eq!(s_off.simplify_removed, 0);
        assert_eq!(s_off.subsumed, 0);
        assert_eq!(s_off.strengthened, 0);
    }

    #[test]
    fn lazy_attach_reduces_sweep_propagations() {
        // The tentpole perf claim, in miniature: on a sequential
        // incremental sweep, leaving sibling axioms' definitional cones
        // dormant must strictly reduce total unit propagations while
        // finding the identical suite.
        let m = Tso::new();
        let run = |lazy: bool| {
            synthesize_union_up_to_with_stats(&m, 2..=3, |n| {
                SynthConfig::new(n).with_lazy(lazy).with_vault(false)
            })
        };
        let (u_lazy, s_lazy) = run(true);
        let (u_eager, s_eager) = run(false);
        assert_eq!(suite_bytes(&u_lazy), suite_bytes(&u_eager));
        assert!(s_lazy.propagations > 0, "counters must be recorded");
        assert!(s_lazy.decisions > 0, "counters must be recorded");
        assert!(
            s_lazy.propagations < s_eager.propagations,
            "lazy {} !< eager {}",
            s_lazy.propagations,
            s_eager.propagations
        );
    }

    #[test]
    fn sweep_reports_domain_decisions_when_enabled() {
        // A silently disabled domain must be visible: with the default
        // config (incremental + domain on) the local-level decision
        // counter is non-zero and bounded by total decisions; with the
        // knob off it is exactly zero.
        let m = Tso::new();
        let (_, s_on) = synthesize_union_up_to_with_stats(&m, 2..=3, SynthConfig::new);
        assert!(
            s_on.domain_decisions > 0,
            "domain enabled but no local decisions recorded"
        );
        assert!(s_on.domain_decisions <= s_on.decisions);
        let (_, s_off) = synthesize_union_up_to_with_stats(&m, 2..=3, |n| {
            SynthConfig::new(n).with_domain(false)
        });
        assert_eq!(s_off.domain_decisions, 0);
    }

    #[test]
    fn incremental_sweep_compiles_once_and_reuses_the_skeleton() {
        let m = Tso::new();
        let (u_inc, s_inc) = synthesize_union_up_to_with_stats(&m, 2..=3, SynthConfig::new);
        let (u_mono, s_mono) = synthesize_union_up_to_with_stats(&m, 2..=3, |n| {
            SynthConfig::new(n)
                .with_incremental(false)
                .with_vault(false)
        });
        assert_eq!(suite_bytes(&u_inc), suite_bytes(&u_mono));
        assert_eq!(s_inc.compilations, 1, "one full compile per sweep");
        // Two participating bounds → one definitional link per axiom on
        // the first and a skeleton link plus one definitional link per
        // axiom on the second, i.e. 2·A+1 extensions (the global counter
        // may only over-count, from tests running concurrently in this
        // binary).
        let expected = 2 * m.axioms().len() as u64 + 1;
        assert!(s_inc.extensions >= expected, "{}", s_inc.extensions);
        assert!(s_inc.reused_clauses > 0, "extensions must reuse clauses");
        assert_eq!(
            s_mono.compilations as usize,
            2 * m.axioms().len(),
            "monolithic mode compiles once per query"
        );
        assert_eq!(s_mono.vault, VaultStats::default());
    }

    #[test]
    fn cube_bits_clamp_to_the_selector_count() {
        // 2 events × 3 TSO shapes = 6 selector bits; asking for 40 must
        // clamp, not allocate 2^40 cubes. (Engagement heuristic off: the
        // clamp is what's tested, not the small-bound downgrade.)
        let cfg = SynthConfig::new(2)
            .with_cube_bits(40)
            .with_adaptive_engage(false);
        let r = synthesize_axiom(&Tso::new(), "sc_per_loc", &cfg);
        assert_eq!(r.workers.len(), 1 << 6);
        assert_eq!(r.len(), 3);
    }

    // ----- resilience: journal resume, panic retry, degradation -----

    use crate::journal::Journal;
    use litsynth_sat::FaultPlan;

    fn temp_journal(tag: &str) -> (std::path::PathBuf, Arc<Journal>) {
        let dir =
            std::env::temp_dir().join(format!("litsynth-synth-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let j = Journal::open(&dir).expect("journal opens");
        (dir, j)
    }

    fn suite_bytes(tests: &CanonicalSuite) -> String {
        tests
            .iter()
            .map(|(k, (t, o))| format!("{k}|{}\n", serialize(t, o)))
            .collect()
    }

    #[test]
    fn journaled_query_is_replayed_byte_identically_without_solving() {
        let (dir, j) = temp_journal("axiom-resume");
        let cfg = SynthConfig::new(2).with_journal(Some(j));
        let first = synthesize_axiom(&Tso::new(), "sc_per_loc", &cfg);
        assert!(!first.from_journal);
        assert_eq!(first.compilations, 1);
        let second = synthesize_axiom(&Tso::new(), "sc_per_loc", &cfg);
        assert!(second.from_journal, "second run must hit the journal");
        assert_eq!(second.compilations, 0, "no solver work on a replay");
        assert_eq!(second.raw_instances, 0);
        assert_eq!(suite_bytes(&first.tests), suite_bytes(&second.tests));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_fingerprint_guards_against_config_drift() {
        // A journal entry recorded at one bound/config must not satisfy a
        // different query — but *parallelism* knobs don't re-run anything,
        // because suites are byte-identical across them by construction.
        let (dir, j) = temp_journal("fingerprint");
        let cfg = SynthConfig::new(2).with_journal(Some(j.clone()));
        synthesize_axiom(&Tso::new(), "sc_per_loc", &cfg);
        let other_bound = SynthConfig::new(3).with_journal(Some(j.clone()));
        assert!(
            !synthesize_axiom(&Tso::new(), "sc_per_loc", &other_bound).from_journal,
            "bound 3 must not reuse the bound-2 entry"
        );
        let more_threads = SynthConfig::new(2)
            .with_journal(Some(j))
            .with_threads(4)
            .with_cube_bits(2);
        assert!(
            synthesize_axiom(&Tso::new(), "sc_per_loc", &more_threads).from_journal,
            "parallelism knobs don't invalidate the journal"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn union_resume_skips_journaled_axioms_and_stays_byte_identical() {
        let (dir, j) = temp_journal("union-resume");
        let m = Tso::new();
        let clean = {
            let cfg = SynthConfig::new(2);
            let (p, u) = synthesize_union(&m, &cfg);
            (fingerprint(&p, &u), suite_bytes(&u))
        };
        let cfg = SynthConfig::new(2).with_journal(Some(j.clone()));
        let (p1, u1) = synthesize_union(&m, &cfg);
        assert!(p1.values().all(|r| !r.from_journal));
        assert_eq!(j.entries(), m.axioms().len(), "every axiom journaled");
        let (p2, u2) = synthesize_union(&m, &cfg);
        assert!(
            p2.values().all(|r| r.from_journal),
            "every axiom must be replayed on resume"
        );
        assert_eq!(clean.0, fingerprint(&p1, &u1));
        assert_eq!(clean.1, suite_bytes(&u2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn union_up_to_resumes_from_a_partially_filled_journal() {
        // Journal only *some* of the range's queries (as a kill mid-run
        // would), then resume: the final union must be byte-identical to
        // an uninterrupted run and the journaled bound must be skipped.
        let (dir, j) = temp_journal("upto-resume");
        let m = Tso::new();
        let clean = synthesize_union_up_to(&m, 2..=3, SynthConfig::new);
        // Pre-fill bound 2 only, as if the process died during bound 3.
        let cfg2 = SynthConfig::new(2).with_journal(Some(j.clone()));
        synthesize_union(&m, &cfg2);
        assert_eq!(j.entries(), m.axioms().len());
        let resumed = synthesize_union_up_to(&m, 2..=3, {
            let j = j.clone();
            move |n| SynthConfig::new(n).with_journal(Some(j.clone()))
        });
        assert_eq!(suite_bytes(&clean), suite_bytes(&resumed));
        assert_eq!(
            j.entries(),
            2 * m.axioms().len(),
            "the resumed run journals the remaining bound"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_panic_is_retried_and_the_suite_is_unchanged() {
        let clean = synthesize_axiom(&Tso::new(), "sc_per_loc", &SynthConfig::new(2));
        // Panic on the first attempt of cube 0, first restart; the retry
        // (attempt 1) doesn't match and completes.
        let plan = FaultPlan::parse("tso/sc_per_loc/2@0@0@0@panic").expect("plan parses");
        let cfg = SynthConfig::new(2).with_fault_plan(Some(Arc::new(plan)));
        let r = synthesize_axiom(&Tso::new(), "sc_per_loc", &cfg);
        assert_eq!(r.degraded, 0, "failures: {:?}", r.workers[0].failures);
        assert!(r.retries > 0, "the panicked attempt must be retried");
        assert!(!r.workers[0].failures.is_empty());
        assert_eq!(suite_bytes(&clean.tests), suite_bytes(&r.tests));
    }

    #[test]
    fn persistent_panic_degrades_without_poisoning_the_run() {
        // Panic on *every* attempt of cube 0: the query must still return,
        // marked degraded, with the other cubes' results intact.
        let plan = FaultPlan::parse("tso/sc_per_loc/2@0@*@0@panic").expect("plan parses");
        let cfg = SynthConfig::new(2)
            .with_cube_bits(1)
            .with_adaptive_engage(false)
            .with_fault_plan(Some(Arc::new(plan)));
        let r = synthesize_axiom(&Tso::new(), "sc_per_loc", &cfg);
        assert_eq!(r.degraded, 1);
        assert!(r.workers[0].degraded);
        assert_eq!(r.workers[0].failures.len(), cfg.max_attempts);
        assert!(!r.workers[1].degraded, "cube 1 must be unaffected");
        // And a degraded result is never journaled.
        let (dir, j) = temp_journal("degraded");
        let cfg = cfg.with_journal(Some(j.clone()));
        synthesize_axiom(&Tso::new(), "sc_per_loc", &cfg);
        assert_eq!(j.entries(), 0, "degraded queries must not checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_interrupt_keeps_partial_work_and_retries_to_the_full_suite() {
        let clean = synthesize_axiom(&Tso::new(), "sc_per_loc", &SynthConfig::new(2));
        // Force a budget-style interrupt on attempt 0 at every restart;
        // attempt 1 runs uninterrupted.
        let plan = FaultPlan::parse("tso/sc_per_loc/2@*@0@*@interrupt").expect("plan parses");
        let cfg = SynthConfig::new(2).with_fault_plan(Some(Arc::new(plan)));
        let r = synthesize_axiom(&Tso::new(), "sc_per_loc", &cfg);
        assert_eq!(r.degraded, 0);
        assert!(r.retries > 0);
        assert_eq!(suite_bytes(&clean.tests), suite_bytes(&r.tests));

        // Interrupt *every* attempt: the result degrades to the partial
        // enumeration instead of hanging or panicking.
        let plan = FaultPlan::parse("tso/sc_per_loc/2@*@*@*@interrupt").expect("plan parses");
        let cfg = SynthConfig::new(2).with_fault_plan(Some(Arc::new(plan)));
        let r = synthesize_axiom(&Tso::new(), "sc_per_loc", &cfg);
        assert!(r.degraded > 0);
        assert!(r.workers.iter().all(|w| w.attempts == cfg.max_attempts));
    }

    #[test]
    fn budget_plumbing_with_default_knobs_leaves_the_suite_exact() {
        // All budget knobs at their defaults (0 = unlimited) must take the
        // unlimited path: no interrupts, no retries, the exact suite.
        // (Deterministic budget *trips* are covered by the injected
        // `interrupt` action above and by the solver-level budget tests —
        // real conflict/deadline limits at this bound would be timing- or
        // heuristic-dependent.)
        let r = synthesize_axiom(&Tso::new(), "sc_per_loc", &SynthConfig::new(2));
        assert_eq!(r.degraded, 0);
        assert_eq!(r.retries, 0);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn units_run_in_any_order_merge_to_the_direct_sweep() {
        // The shard layer's contract: run the planned units in *any* order
        // (here: reversed, the worst case for a completion-order merge),
        // merge by seq, and the union is byte-identical to a direct sweep.
        let m = Tso::new();
        let direct = synthesize_union_up_to(&m, 2..=3, SynthConfig::new);
        let plans = plan_units(&m, 2..=3, SynthConfig::new);
        assert_eq!(plans.len(), 2 * m.axioms().len());
        assert!(plans.iter().enumerate().all(|(i, p)| p.unit.seq == i));
        let mut suites: Vec<(usize, CanonicalSuite)> = plans
            .iter()
            .rev()
            .map(|p| (p.unit.seq, run_unit(&m, p).tests))
            .collect();
        suites.sort_by_key(|&(seq, _)| seq);
        let merged = merge_unit_suites(suites.iter().map(|(_, s)| s));
        assert_eq!(suite_bytes(&direct), suite_bytes(&merged));
    }

    #[test]
    fn adaptive_engagement_downgrades_small_bounds_to_one_worker() {
        // Below the engagement threshold the portfolio machinery is pure
        // overhead: the heuristic must collapse cube splitting to a single
        // worker, count the downgrade, and leave the suite untouched.
        let engaged = SynthConfig::new(2)
            .with_threads(2)
            .with_cube_bits(2)
            .with_adaptive_engage(false);
        let full = synthesize_axiom(&Tso::new(), "sc_per_loc", &engaged);
        assert_eq!(full.workers.len(), 4, "opt-out keeps all 2^2 cubes");

        let before = engage_downgrades();
        let auto = SynthConfig::new(2).with_threads(2).with_cube_bits(2);
        assert!(auto.adaptive_engage, "the heuristic is on by default");
        let small = synthesize_axiom(&Tso::new(), "sc_per_loc", &auto);
        assert_eq!(small.workers.len(), 1, "downgraded to a single worker");
        assert!(
            engage_downgrades() > before,
            "the downgrade counter must prove which path ran"
        );
        assert_eq!(suite_bytes(&full.tests), suite_bytes(&small.tests));

        // At or above the threshold the knobs are honored as given.
        let at = SynthConfig::new(3).with_cube_bits(1);
        let r = synthesize_axiom(&Tso::new(), "sc_per_loc", &at);
        assert_eq!(r.workers.len(), 2, "bound 3 engages the portfolio");
    }

    #[test]
    fn progress_sink_reports_every_query_and_flags_journal_replays() {
        use crate::symbolic::{ProgressEvent, ProgressSink};
        let (dir, j) = temp_journal("progress");
        let events: Arc<std::sync::Mutex<Vec<ProgressEvent>>> = Arc::default();
        let mk_cfg = {
            let (j, events) = (j.clone(), events.clone());
            move |n: usize| {
                let events = events.clone();
                SynthConfig::new(n)
                    .with_journal(Some(j.clone()))
                    .with_progress(Some(ProgressSink::new(move |e| {
                        events.lock().unwrap().push(e.clone())
                    })))
            }
        };
        let m = Tso::new();
        synthesize_union_up_to(&m, 2..=3, mk_cfg.clone());
        {
            let got = events.lock().unwrap();
            assert_eq!(got.len(), 2 * m.axioms().len(), "one event per query");
            assert!(got.iter().all(|e| !e.from_journal));
            // Not every query yields tests (rmw_atomicity/2 is empty), but
            // the sweep as a whole must.
            assert!(got.iter().any(|e| e.tests > 0));
            assert!(got.iter().any(|e| e.key == "tso/sc_per_loc/2"));
            assert!(got.iter().any(|e| e.key == "tso/causality/3"));
        }
        events.lock().unwrap().clear();
        synthesize_union_up_to(&m, 2..=3, mk_cfg);
        let got = events.lock().unwrap();
        assert_eq!(got.len(), 2 * m.axioms().len());
        assert!(
            got.iter().all(|e| e.from_journal),
            "replayed queries must be flagged as journal hits"
        );
        drop(got);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
