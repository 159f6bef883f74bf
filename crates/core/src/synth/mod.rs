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
//! ([`SynthConfig::incremental`]):
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
//! All three drivers — [`synthesize_axiom`], [`synthesize_union`] and
//! [`synthesize_union_up_to`] — run one path: **plan** (every journal
//! lookup, the shared chain and vault when the caller shares, every cube
//! task), **run** (one resilient worker pool), **merge** (each query's
//! cubes) and **finish** (cross-check, journal, progress), query by query
//! in (bound, axiom) order. `synthesize_axiom` never shares a chain: it is
//! the monolithic path [`run_unit`] serves.
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
//!   the same, so suites stay byte-identical with the switch flipped.

use crate::journal::{config_fingerprint, query_key};
use crate::symbolic::SynthConfig;
use cube::run_tasks;
use litsynth_litmus::{LitmusTest, Outcome};
use litsynth_models::MemoryModel;
use litsynth_portfolio::VaultStats;
pub use merge::merge_unit_suites;
use merge::{cross_check_suite, emit_progress, journal_hit_result, merge_query, record_if_clean};
use plan::{plan, static_axiom, Plan};
use std::collections::BTreeMap;
use std::time::Duration;

/// A deduplicated suite: canonical key → (test, outcome).
pub type CanonicalSuite = BTreeMap<String, (LitmusTest, Outcome)>;

/// Statistics for one enumeration worker — one (axiom, bound, cube) task.
#[derive(Clone, Debug, Default)]
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
#[derive(Debug, Default)]
pub struct SynthResult {
    /// Canonical tests, keyed by canonical form.
    pub tests: BTreeMap<String, (LitmusTest, Outcome)>,
    /// Raw solver instances enumerated (before canonicalization), summed
    /// over workers.
    pub raw_instances: usize,
    /// Wall-clock time of the query: from its first worker's start to its
    /// last worker's end, retries included (not the sum of workers). Zero
    /// for a journal replay.
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

    /// A result that merely *carries* `tests` with every work counter
    /// zero — the shape of a journal replay or of a remotely computed unit
    /// folded in by a coordinator (the solver work happened elsewhere).
    pub fn carrying(tests: CanonicalSuite) -> SynthResult {
        SynthResult {
            tests,
            ..SynthResult::default()
        }
    }
}

/// The one driver path: plans `axioms` at every bound of `cfgs`, runs
/// every task on one worker pool, merges each query's cubes, and finishes
/// each query (cross-check, journal, progress). Returns the per-query
/// results in merge order and the sweep's shared-chain counters (chain
/// reuse and vault; every per-query sum is left at zero).
fn synthesize<M: MemoryModel + Sync>(
    model: &M,
    cfgs: &[SynthConfig],
    axioms: &[&'static str],
    share: bool,
) -> (Vec<(&'static str, SynthResult)>, SweepStats) {
    let Plan {
        queries,
        tasks,
        vault,
        reuse,
    } = plan(model, cfgs, axioms, share);
    let threads = cfgs.iter().map(|c| c.threads).max().unwrap_or(1);
    let mut runs = run_tasks(model, &tasks, threads).into_iter();
    let results = queries
        .into_iter()
        .map(|q| {
            let cfg = &cfgs[q.bound];
            let r = match q.hit {
                Some(tests) => journal_hit_result(tests),
                None => merge_query(runs.by_ref().take(q.tasks).collect()),
            };
            cross_check_suite(model, q.axiom, cfg, &r);
            record_if_clean(model.name(), q.axiom, cfg, &r);
            emit_progress(model.name(), q.axiom, cfg, &r);
            (q.axiom, r)
        })
        .collect();
    let stats = SweepStats {
        extensions: reuse.extensions,
        reused_clauses: reuse.reused_clauses,
        vault: vault.map(|v| v.stats()).unwrap_or_default(),
        ..SweepStats::default()
    };
    (results, stats)
}

/// Synthesizes the suite for one axiom of `model` at the bound in `cfg`:
/// all canonical tests of exactly `cfg.events` instructions satisfying the
/// minimality criterion (Figure 5c encoding). With `cfg.cube_bits > 0` the
/// query is cube-split and the cubes run on `cfg.threads` workers. The
/// query always compiles monolithically.
pub fn synthesize_axiom<M: MemoryModel + Sync>(
    model: &M,
    axiom: &str,
    cfg: &SynthConfig,
) -> SynthResult {
    let axiom = static_axiom(model, axiom);
    let (mut results, _) = synthesize(model, std::slice::from_ref(cfg), &[axiom], false);
    results.pop().expect("one query planned").1
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
    let (results, _) = synthesize(model, std::slice::from_ref(cfg), model.axioms(), true);
    let union = merge_unit_suites(results.iter().map(|(_, r)| &r.tests));
    (results.into_iter().collect(), union)
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
    /// Incremental layer extensions of the sweep's shared chain: every
    /// link after the first (per participating bound, a skeleton link and
    /// one definitional link per axiom). Counted where the chain is built,
    /// so exact whatever else runs in the process.
    pub extensions: u64,
    /// Already-encoded clauses (units included) those extensions inherited
    /// from their base instead of re-encoding, summed over extensions.
    pub reused_clauses: u64,
    /// Cross-query clause-vault counters (all zero when no bound shares
    /// a chain).
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
    // Later bounds' chains contain the earlier bounds' chains as
    // prefixes, so clauses vaulted at bound n seed bound n+1 too.
    let (results, mut stats) = synthesize(model, &cfgs, model.axioms(), true);
    for (_, r) in &results {
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
    }
    // Bound-then-axiom order, first wins: the sequential loop's merge.
    let union = merge_unit_suites(results.iter().map(|(_, r)| &r.tests));
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

mod cube;
mod merge;
mod plan;

#[cfg(test)]
mod tests;
