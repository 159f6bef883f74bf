//! Planning: journal lookups, the shared layer chain, and every cube task.

use super::CanonicalSuite;
use crate::journal::{config_fingerprint, query_key};
use crate::perturb::minimality_asserts_opts;
use crate::symbolic::{vocabulary, SymbolicTest, SynthConfig};
use litsynth_models::{MemoryModel, SymAlg};
use litsynth_portfolio::{
    ClauseVault, CompiledQuery, CubeConfig, ExchangeBus, ExchangeConfig, VaultConfig,
};
use litsynth_relalg::{Bit, Circuit, CompiledCircuit, Finder};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Queries with fewer events than this never cube-split: below it the
/// portfolio machinery (cube workers, exchange bus, pin probe) loses
/// outright (0.58× measured), and splitting is
/// byte-identity-preserving, so running unsplit changes wall-clock only.
const CUBE_MIN_EVENTS: usize = 3;

/// `cube_bits` clamped to the number of pinnable selector bits the query
/// actually has. The pin *candidates* are the instruction-kind selector
/// bits — distinct circuit inputs, and observables, so pinning them
/// partitions the observable space (every blocked class determines the
/// pinned bits' values and falls in exactly one cube).
///
/// A query below [`CUBE_MIN_EVENTS`] events runs unsplit — no exchange
/// bus, no probe.
pub(super) fn effective_cube_bits<M: MemoryModel>(model: &M, cfg: &SynthConfig) -> usize {
    if cfg.events < CUBE_MIN_EVENTS {
        return 0;
    }
    cfg.cube_bits.min(vocabulary(model).len() * cfg.events)
}

/// One (axiom, bound) query, compiled once and shared by its cube workers.
pub(super) struct Query {
    pub(super) st: Arc<SymbolicTest>,
    /// The minimality asserts, without cube pins.
    pub(super) asserts: Vec<Bit>,
    pub(super) query: CompiledQuery,
    /// Full circuit→CNF compilations charged to this query. On the
    /// monolithic path this is always 1, measured with the thread-local
    /// counter (the whole build runs on one thread, so sibling queries
    /// compiling concurrently cannot inflate it). On the incremental path
    /// the sweep's one full compilation is claimed by whichever query
    /// arrives first and everyone else charges 0 — so the per-query *sum*
    /// is exactly 1 per sweep, which `experiments speedup` asserts.
    pub(super) compilations: usize,
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
pub(super) fn build_query<M: MemoryModel>(
    model: &M,
    cfg: &SynthConfig,
    axiom: &'static str,
) -> Query {
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
pub(super) struct BoundShare {
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
    pub(super) pool: Mutex<Vec<Finder>>,
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
pub(super) fn build_query_from_share(
    share: &BoundShare,
    axiom_idx: usize,
    cfg: &SynthConfig,
) -> Query {
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
pub(super) struct Task {
    pub(super) axiom_idx: usize,
    pub(super) axiom: &'static str,
    /// Journal/fault-plan key of the owning query, e.g. `tso/sc_per_loc/2`.
    pub(super) query_key: Arc<str>,
    pub(super) cfg: SynthConfig,
    pub(super) cube: usize,
    pub(super) cube_bits: usize,
    pub(super) shared: Arc<OnceLock<Query>>,
    pub(super) bus: Arc<ExchangeBus>,
    /// The bound's prebuilt share when the sweep compiles incrementally;
    /// `None` makes the query compile monolithically on first touch.
    pub(super) prebuilt: Option<Arc<BoundShare>>,
    /// The sweep-wide cross-query clause vault, on prebuilt bounds only.
    pub(super) vault: Option<Arc<ClauseVault>>,
    /// When the task's first attempt started: the start of its span in
    /// the query's [`SynthResult::elapsed`].
    pub(super) started: OnceLock<Instant>,
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
pub(super) fn static_axiom<M: MemoryModel>(model: &M, axiom: &str) -> &'static str {
    model
        .axioms()
        .iter()
        .copied()
        .find(|a| *a == axiom)
        .unwrap_or_else(|| panic!("unknown axiom {axiom:?} for {}", model.name()))
}

/// One planned (axiom, bound) query, in merge order.
pub(super) struct PlannedQuery {
    /// Index of the query's bound in the planned configs.
    pub(super) bound: usize,
    /// Index of the query's axiom in the model's axiom list.
    axiom_idx: usize,
    pub(super) axiom: &'static str,
    /// The journaled suite when a complete prior run was recorded; the
    /// query then has no tasks.
    pub(super) hit: Option<CanonicalSuite>,
    /// How many consecutive [`Plan::tasks`] are this query's cubes.
    pub(super) tasks: usize,
}

/// Every query a driver runs, their cube tasks in the same order, and the
/// sweep vault when the plan shares a chain.
pub(super) struct Plan {
    pub(super) queries: Vec<PlannedQuery>,
    pub(super) tasks: Vec<Task>,
    pub(super) vault: Option<Arc<ClauseVault>>,
}

/// Plans `axioms` (in model order) at every bound of `cfgs`, bounds
/// ascending: the merge order of every driver.
///
/// Every journal lookup happens *here*, before any worker runs — never at
/// merge time, when entries recorded mid-run could change the answer.
/// Journal hits come back as ready-made suites; only the misses get
/// tasks. With `share`, every bound that asks for incremental compilation
/// and still has work joins one sweep-wide layer chain ([`sweep_shares`])
/// and its tasks one sweep-wide clause vault; every other query compiles
/// monolithically on first touch.
pub(super) fn plan<M: MemoryModel>(
    model: &M,
    cfgs: &[SynthConfig],
    axioms: &[&'static str],
    share: bool,
) -> Plan {
    let mut queries = Vec::new();
    let mut has_work = vec![false; cfgs.len()];
    for (bound, cfg) in cfgs.iter().enumerate() {
        for (axiom_idx, &axiom) in model.axioms().iter().enumerate() {
            if !axioms.contains(&axiom) {
                continue;
            }
            let hit = journal_lookup(model, axiom, cfg);
            has_work[bound] |= hit.is_none();
            queries.push(PlannedQuery {
                bound,
                axiom_idx,
                axiom,
                hit,
                tasks: 0,
            });
        }
    }
    let specs: Vec<(&SynthConfig, bool)> = cfgs
        .iter()
        .zip(&has_work)
        .map(|(cfg, &work)| (cfg, share && cfg.incremental && work))
        .collect();
    // A plan that shares nothing (every `run_unit`) builds no arena.
    let shares = if specs.iter().any(|&(_, joins)| joins) {
        sweep_shares(model, &specs)
    } else {
        vec![None; cfgs.len()]
    };
    let vault = shares
        .iter()
        .any(Option::is_some)
        .then(|| ClauseVault::new(VaultConfig::default()));
    let cube_bits: Vec<usize> = cfgs.iter().map(|c| effective_cube_bits(model, c)).collect();
    let mut tasks = Vec::new();
    for q in queries.iter_mut().filter(|q| q.hit.is_none()) {
        let (cfg, cube_bits) = (&cfgs[q.bound], cube_bits[q.bound]);
        let prebuilt = &shares[q.bound];
        let query_key: Arc<str> = query_key(model.name(), q.axiom, cfg.events).into();
        let (shared, bus) = query_group(cfg, cube_bits);
        q.tasks = 1 << cube_bits;
        tasks.extend((0..q.tasks).map(|cube| Task {
            axiom_idx: q.axiom_idx,
            axiom: q.axiom,
            query_key: query_key.clone(),
            cfg: cfg.clone(),
            cube,
            cube_bits,
            shared: shared.clone(),
            bus: bus.clone(),
            prebuilt: prebuilt.clone(),
            vault: prebuilt.as_ref().and_then(|_| vault.clone()),
            started: OnceLock::new(),
        }));
    }
    Plan {
        queries,
        tasks,
        vault,
    }
}
