//! Running: one cube worker's attempt, and the resilient pool over all tasks.

use super::merge::insert_dedup;
use super::plan::{build_query, build_query_from_share, Task};
use super::{CanonicalSuite, WorkerStats};
use litsynth_litmus::{canonical_key_hash, TwoTierCanon};
use litsynth_models::MemoryModel;
use litsynth_portfolio::{
    run_resilient, Attempt, ExchangeEndpoint, ExchangeStats, VaultedExchange, MAX_ATTEMPTS,
};
use litsynth_relalg::Bit;
use litsynth_sat::{ClauseExchange, FaultCtx, Interrupt, Lit, SolveBudget, SolverStats};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

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

/// The output of one worker.
pub(super) struct CubeRun {
    pub(super) tests: CanonicalSuite,
    pub(super) stats: WorkerStats,
    /// Compilations charged to this worker (the query's one compilation is
    /// charged to cube 0).
    pub(super) compilations: usize,
    /// From the task's first attempt's start to this attempt's end; `None`
    /// when no attempt produced a run.
    pub(super) span: Option<(Instant, Instant)>,
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
    let started = *task.started.get_or_init(|| start);
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
    let before = finder.solver_stats();
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
    let last_attempt = attempt + 1 >= MAX_ATTEMPTS;
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
    // Enumeration runs unlimited: the budget only carries the
    // fault-injection coordinates when a plan is armed.
    let budget = SolveBudget {
        max_conflicts: 0,
        fault: cfg.fault_plan.clone().map(|plan| FaultCtx {
            plan,
            query: task.query_key.clone(),
            cube: task.cube,
            attempt,
        }),
    };

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
    let after = finder.solver_stats();
    let head = format!("{} cube {} attempt {}", task.query_key, task.cube, attempt);
    if std::env::var_os("LITSYNTH_TRACE").is_some() {
        eprintln!(
            "{}",
            trace_line(
                &head,
                start.elapsed(),
                query.query.probe_time(),
                raw,
                &before,
                &after,
                (finder.active_var_count(), cnf_vars),
            )
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
        // The query's one compilation is attributed to cube 0 so that
        // summing workers counts each query exactly once.
        compilations: if task.cube == 0 {
            query.compilations
        } else {
            0
        },
        stats: WorkerStats {
            axiom: task.axiom,
            bound: cfg.events,
            cube: task.cube,
            num_cubes: 1 << task.cube_bits,
            raw_instances: raw,
            cnf_vars,
            cnf_clauses,
            propagations: after.propagations - before.propagations,
            decisions: after.decisions - before.decisions,
            domain_decisions: after.domain_decisions - before.domain_decisions,
            shelved_replayed: after.shelved_replayed - before.shelved_replayed,
            simplify_removed: after.simplify_removed - before.simplify_removed,
            subsumed: after.subsumed - before.subsumed,
            strengthened: after.strengthened - before.strengthened,
            gc_runs: after.gc_runs - before.gc_runs,
            gc_reclaimed_words: after.gc_reclaimed_words - before.gc_reclaimed_words,
            truncated,
            exported: xs.exported,
            imported: xs.imported,
            filtered: xs.filtered,
            attempts: 1,
            degraded: false,
            failures: Vec::new(),
        },
        span: Some((started, Instant::now())),
    };
    match interrupted {
        None => Attempt::Done(run),
        Some(i) => Attempt::Interrupted {
            reason: format!("{head}: {i}"),
            partial: Some(run),
        },
    }
}

/// The `LITSYNTH_TRACE` line for one finished attempt (`head` names it).
/// Every count is this task's delta between the possibly pooled solver's
/// `before` and `after` stats; only the learnt tiers and the `(active,
/// total)` variable counts are snapshots of the solver as it stands.
pub(super) fn trace_line(
    head: &str,
    wall: Duration,
    probe: Duration,
    raw: usize,
    before: &SolverStats,
    after: &SolverStats,
    (active, vars): (usize, usize),
) -> String {
    format!(
        "trace {head}: wall {wall:?} probe {probe:?} raw {raw} conflicts {} props {} decs {} \
         domdecs {} replayed {} simp {} subs {} str {} gc {}/{}w tiers {}/{}/{} active {active}/{vars}",
        after.conflicts - before.conflicts,
        after.propagations - before.propagations,
        after.decisions - before.decisions,
        after.domain_decisions - before.domain_decisions,
        after.shelved_replayed - before.shelved_replayed,
        after.simplify_removed - before.simplify_removed,
        after.subsumed - before.subsumed,
        after.strengthened - before.strengthened,
        after.gc_runs - before.gc_runs,
        after.gc_reclaimed_words - before.gc_reclaimed_words,
        after.learnts_core,
        after.learnts_mid,
        after.learnts_local,
    )
}

/// A stand-in for a worker whose every attempt panicked before producing
/// even a partial run: an empty (degraded) cube.
fn placeholder_run(task: &Task) -> CubeRun {
    CubeRun {
        tests: BTreeMap::new(),
        compilations: 0,
        stats: WorkerStats {
            axiom: task.axiom,
            bound: task.cfg.events,
            cube: task.cube,
            num_cubes: 1 << task.cube_bits,
            degraded: true,
            ..WorkerStats::default()
        },
        span: None,
    }
}

/// Runs the tasks on the portfolio's resilient worker pool and returns
/// their outputs in task order (never completion order). Each task runs
/// under panic isolation with retry/backoff; a task whose every attempt
/// fails comes back with `stats.degraded` set (carrying its best partial
/// result) instead of poisoning the pool.
pub(super) fn run_tasks<M: MemoryModel + Sync>(
    model: &M,
    tasks: &[Task],
    threads: usize,
) -> Vec<CubeRun> {
    run_resilient(tasks, threads, |_, t, attempt| {
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
