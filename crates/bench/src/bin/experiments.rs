//! The evaluation harness: regenerates every table and figure of the
//! paper's evaluation (see DESIGN.md §6 for the experiment index).
//!
//! Usage: `experiments <id> [budget_ms_per_query]` where `<id>` is one of
//! `table2 table4 fig11 fig12 fig13 fig14 fig16 fig20 c11 scc_wa soundness
//! speedup all`, `experiments emit <model> <max_bound> [budget_ms]` to
//! write the synthesized union suite to `suites_out/<model>/` in the
//! textual litmus format, or `experiments serve [max_bound] [clients]` to
//! benchmark a loopback `litsynth-serve` server (cold/warm latency, cache
//! hit rate, shard counters — written to `BENCH_synth.json`). Suite files are written atomically
//! (temp + rename), so a killed `emit` never leaves a half-written test.
//!
//! `experiments oracle` is the consistency-oracle acceptance run: the
//! saturation checker against the enumeration oracle on a factorial
//! stress row and across every reference-suite verdict, plus a loopback
//! `CHECK` serving benchmark (speedup, agreement counts, and qps go to
//! `BENCH_synth.json` for CI's oracle-smoke).
//!
//! `experiments remote [max_bound]` exercises the multi-host tier over
//! loopback: a no-fault leg (coordinator + 2 workers, everything remote,
//! zero degradation) and a kill leg (one worker dies mid-unit; its lease
//! is reclaimed and the unit re-run), asserting byte identity against
//! the direct sweep in both and writing the counters to
//! `BENCH_synth.json` (CI's remote-smoke greps them). Workers run as
//! real `litsynth-serve worker` processes when the sibling binary is
//! built, in-process threads otherwise.
//!
//! Passing `--resume` (any position) turns on the checkpoint journal:
//! every completed (axiom, bound) query is recorded under
//! `suites_out/journal/`, and a re-run skips the recorded queries,
//! reproducing byte-identical suites after a crash or kill at any point.
//!
//! The parallel synthesis engine is controlled by environment variables
//! picked up by every experiment:
//!
//! * `LITSYNTH_THREADS` — worker threads per query (`0` = all cores;
//!   default `1`, fully sequential).
//! * `LITSYNTH_CUBE_BITS` — split each query into `2^bits` cubes
//!   (default `0`, unsplit).
//! * `LITSYNTH_SHARD_THREADS` — `experiments all` shards the whole
//!   experiment list (≈ one shard per model/figure) over the same
//!   deterministic worker pool the synthesis engine uses (`0` = all
//!   cores, the default). Each experiment renders into its own buffer
//!   and the buffers are printed in the fixed experiment order, so
//!   sharding never interleaves or reorders output (only the wall-clock
//!   columns vary, as they do run to run anyway).
//! * `LITSYNTH_RESUME` / `LITSYNTH_JOURNAL` — what `--resume` sets:
//!   truthy `LITSYNTH_RESUME` enables the journal, `LITSYNTH_JOURNAL`
//!   overrides its directory (default `suites_out/journal`).
//! * `LITSYNTH_FAULT_PLAN` — deterministic fault injection for the
//!   resilience harness: a `;`-separated list of
//!   `query@cube@attempt@restart@action` sites (`*` wildcards; actions
//!   `panic`, `interrupt`, `slow:<ms>`), e.g.
//!   `tso/sc_per_loc/4@0@0@2@panic`. Injected faults exercise the
//!   retry/degrade ladder; `experiments speedup` reports the counters.
//!
//! `experiments speedup` runs the TSO bound sweep six ways — a
//! per-query-recompile baseline, the eager incremental control, the lazy
//! incremental engine, its `lazy-noshelve`/`lazy-nodomain` ablations, and
//! the full portfolio — asserting all six suites are byte-identical and
//! auditing the perf invariants: exactly one full circuit→CNF compilation
//! per incremental sweep, nonzero reuse counters, lazy strictly cutting
//! propagations vs. eager at bounds 3–5 (diffed against the committed
//! `BENCH_baseline.json` with a tolerance), and — on a fault-free run —
//! zero degraded workers. Results are also written to `BENCH_synth.json`
//! for machine consumption (CI's perf-smoke).

use litsynth_bench::baselines::DiyBaseline;
use litsynth_bench::report;
use litsynth_core::{
    check_minimal, count_programs, covering_subtests, minimal_for_some_axiom, synthesize_axiom,
    SynthConfig,
};
use litsynth_litmus::canonical_key_exact;
use litsynth_litmus::suites::{cambridge, owens};
use litsynth_models::{oracle, MemoryModel, Power, RelaxKind, Sc, Scc, Tso, C11};
use litsynth_portfolio::{resolve_threads, run_ordered};
use std::collections::BTreeMap;

/// `writeln!` into an experiment's output buffer, ignoring the (infallible
/// for `String`) result.
macro_rules! outln {
    ($out:expr) => {{
        use std::fmt::Write as _;
        let _ = writeln!($out);
    }};
    ($out:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = writeln!($out, $($arg)*);
    }};
}

/// One shardable experiment: a stable name and a renderer that writes the
/// full report into `out` given the per-query time budget.
type Experiment = (&'static str, fn(&mut String, u64));

/// Every experiment `all` runs, in the order their output is printed.
/// Sharding granularity is the experiment, which is per-model for the
/// result figures (fig13/fig16/fig20/c11 are the TSO/Power/SCC/C11 runs).
fn experiments() -> Vec<Experiment> {
    vec![
        ("table2", |out, _| table2(out)),
        ("table4", table4),
        ("fig11", fig11),
        ("fig12", fig12),
        ("fig13", fig13),
        ("fig14", fig14),
        ("fig16", fig16),
        ("fig20", fig20),
        ("c11", c11),
        ("scc_wa", scc_wa),
        ("soundness", soundness),
        ("orphan", orphan),
        ("armv7", armv7),
    ]
}

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    // `--resume` is positional-argument-agnostic sugar for
    // LITSYNTH_RESUME=1: the journal is picked up through the environment
    // so that every config constructed anywhere (including inside sharded
    // experiment closures) sees it.
    if let Some(pos) = args.iter().position(|a| a == "--resume") {
        args.remove(pos);
        std::env::set_var("LITSYNTH_RESUME", "1");
    }
    let which = args.get(1).map(String::as_str).unwrap_or("all");
    let budget: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(120_000);
    match which {
        "speedup" => speedup(
            args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4),
            args.get(3).and_then(|s| s.parse().ok()).unwrap_or(0),
        ),
        "emit" => emit(
            args.get(2).map(String::as_str).unwrap_or("tso"),
            args.get(3).and_then(|s| s.parse().ok()).unwrap_or(5),
            args.get(4).and_then(|s| s.parse().ok()).unwrap_or(120_000),
        ),
        "serve" => serve(
            args.get(2).and_then(|s| s.parse().ok()).unwrap_or(3),
            args.get(3).and_then(|s| s.parse().ok()).unwrap_or(4),
        ),
        "remote" => remote(args.get(2).and_then(|s| s.parse().ok()).unwrap_or(3)),
        "oracle" => oracle(),
        "all" => all(budget),
        other => match experiments().into_iter().find(|(name, _)| *name == other) {
            Some((_, run)) => {
                let mut out = String::new();
                run(&mut out, budget);
                print!("{out}");
            }
            None => eprintln!("unknown experiment {other:?}"),
        },
    }
}

/// Shards the experiment list over the portfolio worker pool and prints
/// the buffers in experiment order, whatever the shard count.
fn all(budget: u64) {
    let shards = resolve_threads(env_usize("LITSYNTH_SHARD_THREADS", 0));
    let exps = experiments();
    let outputs = run_ordered(&exps, shards, |_, (_, run)| {
        let mut out = String::new();
        run(&mut out, budget);
        out
    });
    for out in outputs {
        print!("{out}");
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn cfg(n: usize, budget: u64) -> SynthConfig {
    let mut c = SynthConfig::new(n);
    c.time_budget_ms = budget;
    c.threads = env_usize("LITSYNTH_THREADS", 1);
    c.cube_bits = env_usize("LITSYNTH_CUBE_BITS", 0);
    c.journal = litsynth_core::env_journal();
    c
}

/// One phase of the `speedup` experiment: a full `2..=bound` sweep plus
/// the sweep's statistics and wall-clock.
struct Phase {
    name: &'static str,
    union: litsynth_core::CanonicalSuite,
    stats: litsynth_core::SweepStats,
    wall: std::time::Duration,
}

/// Serializes a suite for byte-for-byte comparison across phases.
fn suite_digest(union: &litsynth_core::CanonicalSuite) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for (k, (t, o)) in union {
        let _ = writeln!(s, "{k}|{}", litsynth_litmus::serialize(t, o));
    }
    s
}

/// One phase's JSON object for `BENCH_synth.json` (hand-rolled — the tree
/// has no JSON dependency; every value is a number, so no escaping).
fn phase_json(p: &Phase) -> String {
    let s = &p.stats;
    format!(
        "{{\"wall_s\": {:.6}, \"compilations\": {}, \"extensions\": {}, \
         \"reused_clauses\": {}, \"vault_published\": {}, \"vault_imported\": {}, \
         \"vault_filtered\": {}, \"raw_instances\": {}, \"exchange_exported\": {}, \
         \"exchange_imported\": {}, \"propagations\": {}, \"decisions\": {}, \
         \"domain_decisions\": {}, \"shelved_replayed\": {}, \
         \"simplify_removed\": {}, \"subsumed\": {}, \"strengthened\": {}, \
         \"gc_runs\": {}, \"gc_reclaimed_words\": {}, \
         \"retries\": {}, \"degraded\": {}}}",
        p.wall.as_secs_f64(),
        s.compilations,
        s.extensions,
        s.reused_clauses,
        s.vault.published,
        s.vault.imported,
        s.vault.filtered,
        s.raw_instances,
        s.exchange.0,
        s.exchange.1,
        s.propagations,
        s.decisions,
        s.domain_decisions,
        s.shelved_replayed,
        s.simplify_removed,
        s.subsumed,
        s.strengthened,
        s.gc_runs,
        s.gc_reclaimed_words,
        s.retries,
        s.degraded,
    )
}

/// Extracts the `f64` following `"key":` from hand-rolled JSON (no JSON
/// dependency in the tree; keys are unique and values are plain numbers).
fn json_f64(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let rest = &text[text.find(&needle)? + needle.len()..];
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The perf acceptance experiment: the TSO union over bounds `2..=bound`,
/// seven ways —
///
/// 1. **baseline** — monolithic per-query compilation, 1 thread (every
///    query re-runs the Tseitin transform from scratch, and with no shared
///    chain there is nothing to vault);
/// 2. **eager** — layered sweep compilation plus the cross-query clause
///    vault, 1 thread, with every definitional layer watcher-attached up
///    front (PR 4's behavior — the propagation-tax control);
/// 3. **incremental** — the same, but with lazy definitional propagation
///    and both of its fixes on: shelve-and-replay of dormant-cone imports
///    and the two-level decision domain (still 1 thread);
/// 4. **lazy-noshelve** — incremental with shelving ablated (dormant-cone
///    imports dropped, the PR 5 behavior);
/// 5. **lazy-nodomain** — incremental with the decision domain ablated
///    (global VSIDS only, the PR 5 behavior);
/// 6. **legacy-db** — incremental with the modernized SAT core ablated:
///    level-0 inprocessing off and single-activity learnt retention
///    instead of LBD tiers (the pre-modernization solver on the same
///    engine configuration);
/// 7. **portfolio** — the full engine at `threads` threads with cube
///    splitting.
///
/// All seven suites must be byte-identical; the incremental phases must
/// compile in full exactly once per sweep and show nonzero reuse counters;
/// lazy (with its fixes) must strictly reduce propagations vs. eager at
/// bounds 3–5, and the modernized SAT core must strictly reduce
/// propagations vs. legacy-db at bounds 3–5 (at other bounds the
/// reductions are only reported — see the calibration notes at the
/// assertions); both reductions are diffed against the committed
/// `BENCH_baseline.json` with a tolerance. Results also go to
/// `BENCH_synth.json` (written atomically).
fn speedup(bound: usize, threads: usize) {
    let threads = resolve_threads(threads);
    let cube_bits = env_usize("LITSYNTH_CUBE_BITS", 2);
    println!(
        "\n## Incremental + parallel speedup — TSO union, bounds 2..={bound}, {threads} threads\n"
    );
    let tso = Tso::new();

    struct Knobs {
        incremental: bool,
        lazy: bool,
        shelve: bool,
        domain: bool,
        inprocess: bool,
        tiered: bool,
        threads: usize,
        cube_bits: usize,
    }
    let run = |name, k: Knobs| {
        let t0 = std::time::Instant::now();
        let (union, stats) =
            litsynth_core::synthesize_union_up_to_with_stats(&tso, 2..=bound, |n| {
                let mut c = SynthConfig::new(n);
                c.threads = k.threads;
                c.cube_bits = k.cube_bits;
                c.incremental = k.incremental;
                c.lazy = k.lazy;
                c.shelve = k.shelve;
                c.domain = k.domain;
                c.inprocess = k.inprocess;
                c.tiered = k.tiered;
                c.journal = litsynth_core::env_journal();
                c
            });
        Phase {
            name,
            union,
            stats,
            wall: t0.elapsed(),
        }
    };
    let modern = |incremental, lazy, shelve, domain, threads, cube_bits| Knobs {
        incremental,
        lazy,
        shelve,
        domain,
        inprocess: true,
        tiered: true,
        threads,
        cube_bits,
    };
    let baseline = run("baseline", modern(false, false, true, false, 1, 0));
    let eager = run("eager", modern(true, false, true, false, 1, 0));
    let incremental = run("incremental", modern(true, true, true, true, 1, 0));
    let noshelve = run("lazy-noshelve", modern(true, true, false, true, 1, 0));
    let nodomain = run("lazy-nodomain", modern(true, true, true, false, 1, 0));
    let legacy_db = run(
        "legacy-db",
        Knobs {
            inprocess: false,
            tiered: false,
            ..modern(true, true, true, true, 1, 0)
        },
    );
    let portfolio = run(
        "portfolio",
        modern(true, true, true, true, threads, cube_bits),
    );
    let phases = [
        &baseline,
        &eager,
        &incremental,
        &noshelve,
        &nodomain,
        &legacy_db,
        &portfolio,
    ];

    // Byte-identical output is the precondition for comparing the modes at
    // all — the layered arenas and the vault must only change speed.
    let digest = suite_digest(&baseline.union);
    for p in &phases[1..] {
        assert_eq!(
            suite_digest(&p.union),
            digest,
            "{} suite diverged from baseline",
            p.name
        );
    }
    // The exactly-once-per-sweep invariant: the whole incremental sweep
    // performs one full circuit→CNF compilation (the shared skeleton's);
    // everything else — later bounds, per-axiom queries — extends it.
    let num_queries = (bound - 1) * tso.axioms().len();
    assert_eq!(
        baseline.stats.compilations as usize, num_queries,
        "baseline must compile once per query"
    );
    // Per participating bound the chain grows by a skeleton link and one
    // definitional link per axiom; the very first link is the sweep's one
    // full compilation, everything after extends.
    let num_extensions = ((1 + tso.axioms().len()) * (bound - 1) - 1) as u64;
    for p in &phases[1..] {
        assert_eq!(
            p.stats.compilations, 1,
            "{}: an incremental sweep must compile in full exactly once",
            p.name
        );
        assert_eq!(
            p.stats.extensions, num_extensions,
            "{}: every link after the first must extend the chain",
            p.name
        );
        assert!(
            p.stats.reused_clauses > 0,
            "{}: extensions must reuse clauses",
            p.name
        );
    }

    println!(
        "suite: {} tests (byte-identical in all modes)",
        baseline.union.len()
    );
    for p in &phases {
        println!(
            "{:<12} {:>8.2}s  compiles {:<3} extensions {:<4} reused clauses {:<8} \
             vault {}/{} published/imported",
            p.name,
            p.wall.as_secs_f64(),
            p.stats.compilations,
            p.stats.extensions,
            p.stats.reused_clauses,
            p.stats.vault.published,
            p.stats.vault.imported,
        );
    }
    // The lazy claim, calibrated to measurement: on one thread over the
    // identical formula chain, dormant definitional cones strictly cut
    // unit propagations at bounds 3–5. PR 5's laziness alone inverted at
    // bound 5 (+25% propagations with the vault on): pooled solvers
    // accumulate the union of their tasks' cones while dropped
    // stale-cone vault imports cost more pruning than dormancy saves.
    // The two fixes measured by the ablation phases — shelve-and-replay
    // of dormant-cone imports and the cone-scoped two-level decision
    // domain — recover the win, so the strict inequality now extends
    // through bound 5. Bound 2's sweep is a single trivially small link
    // where the few level-0 activation propagations are the whole story,
    // so the comparison is noise there and only reported. The assertion
    // compares the *deterministic* counters of the two single-threaded
    // phases (propagations, never wall time — a loaded CI host cannot
    // flake it), and both sides must have done real solver work: a
    // journal replay does zero solver work in every phase, leaving
    // nothing to compare. See DESIGN §3b for the measurement story.
    let reduction_vs_eager =
        |p: &Phase| 1.0 - p.stats.propagations as f64 / eager.stats.propagations.max(1) as f64;
    let reduction = reduction_vs_eager(&incremental);
    let deterministic = incremental.stats.raw_instances > 0 && eager.stats.raw_instances > 0;
    if deterministic && (3..=5).contains(&bound) {
        assert!(
            incremental.stats.propagations < eager.stats.propagations,
            "lazy propagation must beat eager through bound {bound}: {} !< {}",
            incremental.stats.propagations,
            eager.stats.propagations
        );
    }
    println!(
        "lazy: {} propagations vs {} eager ({:.1}% reduction), \
         {} vs {} decisions",
        incremental.stats.propagations,
        eager.stats.propagations,
        reduction * 100.0,
        incremental.stats.decisions,
        eager.stats.decisions,
    );
    println!(
        "ablation: noshelve {:.1}% / nodomain {:.1}% / full {:.1}% propagation \
         reduction vs eager",
        reduction_vs_eager(&noshelve) * 100.0,
        reduction_vs_eager(&nodomain) * 100.0,
        reduction * 100.0,
    );
    // The SAT-core modernization claim: on the identical engine
    // configuration, level-0 inprocessing + tiered retention strictly cut
    // unit propagations vs. the legacy core at bounds 3–5 — pooled
    // solvers shed retired tasks' blocking clauses and low-value learnts
    // instead of propagating through them for the rest of the bound. Same
    // calibration as the lazy assertion: deterministic single-threaded
    // counters only, bound 2 is noise and only reported.
    let modern_db_reduction =
        1.0 - incremental.stats.propagations as f64 / legacy_db.stats.propagations.max(1) as f64;
    println!(
        "sat-core: {:.1}% propagation reduction vs legacy-db \
         ({} vs {} props, {} vs {} decisions; \
         {} simplify_removed, {} subsumed, {} strengthened, {} gc runs / {} words)",
        modern_db_reduction * 100.0,
        incremental.stats.propagations,
        legacy_db.stats.propagations,
        incremental.stats.decisions,
        legacy_db.stats.decisions,
        incremental.stats.simplify_removed,
        incremental.stats.subsumed,
        incremental.stats.strengthened,
        incremental.stats.gc_runs,
        incremental.stats.gc_reclaimed_words,
    );
    if deterministic && (3..=5).contains(&bound) {
        // At bounds 3–4 the learnt database never outgrows its budget and
        // batch subsumption barely binds, so the modern core is designed
        // to be propagation-neutral there (never worse); the retention
        // win is structural only once pooled solvers accrete a full
        // bound-5 sweep's database, and there it must be strict.
        assert!(
            incremental.stats.propagations <= legacy_db.stats.propagations,
            "modern SAT core must never lose to legacy-db through bound {bound}: {} > {}",
            incremental.stats.propagations,
            legacy_db.stats.propagations
        );
        assert!(
            bound < 5 || incremental.stats.propagations < legacy_db.stats.propagations,
            "modern SAT core must strictly beat legacy-db through bound {bound}: {} !< {}",
            incremental.stats.propagations,
            legacy_db.stats.propagations
        );
        assert!(
            incremental.stats.simplify_removed > 0 && incremental.stats.gc_runs > 0,
            "inprocessing must do visible work at bound {bound} \
             (simplify_removed {}, gc_runs {})",
            incremental.stats.simplify_removed,
            incremental.stats.gc_runs
        );
    }
    // Regression gate against the committed baseline: the checked-in
    // `BENCH_baseline.json` records the reduction this tree achieved per
    // bound; a fresh deterministic run may not fall more than `tolerance`
    // below it. (The perf-smoke grep alone only validates a run against
    // itself.) Skipped when the file is absent — e.g. run from outside
    // the repo root — or records nothing for this bound.
    if deterministic {
        if let Ok(text) = std::fs::read_to_string("BENCH_baseline.json") {
            let tolerance = json_f64(&text, "tolerance").unwrap_or(0.05);
            if let Some(expected) = json_f64(&text, &format!("bound_{bound}")) {
                println!(
                    "baseline diff: reduction {:.4} vs committed {:.4} (tolerance {:.3})",
                    reduction, expected, tolerance
                );
                assert!(
                    reduction >= expected - tolerance,
                    "lazy_propagation_reduction regressed: {reduction:.4} < \
                     committed {expected:.4} - tolerance {tolerance:.3} at bound {bound}"
                );
            }
            if let Some(expected) = json_f64(&text, &format!("modern_bound_{bound}")) {
                println!(
                    "baseline diff: modern-db reduction {:.4} vs committed {:.4} \
                     (tolerance {:.3})",
                    modern_db_reduction, expected, tolerance
                );
                assert!(
                    modern_db_reduction >= expected - tolerance,
                    "modern_db_reduction regressed: {modern_db_reduction:.4} < \
                     committed {expected:.4} - tolerance {tolerance:.3} at bound {bound}"
                );
            }
        }
    }
    let ratio = |p: &Phase| baseline.wall.as_secs_f64() / p.wall.as_secs_f64().max(1e-9);
    println!(
        "speedup: incremental {:.2}x, portfolio ({} threads, {} cubes/query) {:.2}x \
         over the per-query-recompile baseline",
        ratio(&incremental),
        threads,
        1usize << cube_bits,
        ratio(&portfolio),
    );
    println!(
        "compile-once: {num_queries} queries → {} baseline / {} incremental full \
         CNF compilations",
        baseline.stats.compilations, incremental.stats.compilations
    );
    let (exported, imported, filtered) = portfolio.stats.exchange;
    println!("exchange: {exported} clauses exported, {imported} imported, {filtered} filtered");
    // Cone-aware counters: shelved imports that replayed once their cone
    // woke, and decisions the two-level domain served from the local cone.
    let replayed: u64 = phases.iter().map(|p| p.stats.shelved_replayed).sum();
    let domdecs: u64 = phases.iter().map(|p| p.stats.domain_decisions).sum();
    println!("cone: {replayed} shelved imports replayed, {domdecs} domain decisions");
    // Resilience counters: retried attempts and degraded workers over all
    // phases, plus faults injected via LITSYNTH_FAULT_PLAN (if any).
    let retries: u64 = phases.iter().map(|p| p.stats.retries).sum();
    let degraded: u64 = phases.iter().map(|p| p.stats.degraded).sum();
    let plan = litsynth_sat::FaultPlan::global();
    let injections = plan.as_ref().map(|p| p.injections()).unwrap_or(0);
    println!(
        "resilience: {retries} retried attempts, {degraded} degraded workers, \
         {injections} injected faults"
    );
    if plan.is_none() {
        assert_eq!(
            degraded, 0,
            "a fault-free run must not produce degraded workers"
        );
    }

    // Machine-readable results, written atomically next to the suites.
    let json = format!(
        "{{\n  \"experiment\": \"speedup\",\n  \"model\": \"tso\",\n  \
         \"bounds\": [2, {bound}],\n  \"threads\": {threads},\n  \
         \"cube_bits\": {cube_bits},\n  \"suite_tests\": {},\n  \
         \"byte_identical\": true,\n  \"phases\": {{\n    \"baseline\": {},\n    \
         \"eager\": {},\n    \"incremental\": {},\n    \"lazy-noshelve\": {},\n    \
         \"lazy-nodomain\": {},\n    \"legacy-db\": {},\n    \"portfolio\": {}\n  }},\n  \
         \"speedup_incremental\": {:.4},\n  \"speedup_portfolio\": {:.4},\n  \
         \"lazy_propagation_reduction\": {:.4},\n  \
         \"lazy_noshelve_reduction\": {:.4},\n  \
         \"lazy_nodomain_reduction\": {:.4},\n  \
         \"modern_db_reduction\": {:.4},\n  \
         \"resilience\": {{\"retries\": {retries}, \"degraded\": {degraded}, \
         \"injected_faults\": {injections}}}\n}}\n",
        baseline.union.len(),
        phase_json(&baseline),
        phase_json(&eager),
        phase_json(&incremental),
        phase_json(&noshelve),
        phase_json(&nodomain),
        phase_json(&legacy_db),
        phase_json(&portfolio),
        ratio(&incremental),
        ratio(&portfolio),
        reduction,
        reduction_vs_eager(&noshelve),
        reduction_vs_eager(&nodomain),
        modern_db_reduction,
    );
    let path = std::path::Path::new("BENCH_synth.json");
    match litsynth_core::atomic_write(path, json.as_bytes()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Writes the synthesized union suite to `suites_out/<model>/NNN.litmus`.
fn emit(model: &str, max_bound: usize, budget: u64) {
    fn go<M: MemoryModel + Sync>(m: &M, max_bound: usize, budget: u64) {
        let dir = std::path::PathBuf::from("suites_out").join(m.name().to_lowercase());
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("create output dir {}: {e}", dir.display()));
        let union = report::union_suite(m, 2..=max_bound, budget);
        for (i, (test, outcome)) in union.values().enumerate() {
            let named = test
                .clone()
                .with_name(format!("{}-{:04}", m.name().to_lowercase(), i));
            let text = litsynth_litmus::format::to_text(&named, outcome);
            let path = dir.join(format!("{i:04}.litmus"));
            // Atomic (temp + rename): a kill mid-emit leaves complete
            // files only, never a torn .litmus.
            litsynth_core::atomic_write(&path, text.as_bytes())
                .unwrap_or_else(|e| panic!("write test file {}: {e}", path.display()));
        }
        println!("wrote {} tests to {}", union.len(), dir.display());
    }
    match model {
        "sc" => go(&Sc::new(), max_bound, budget),
        "tso" => go(&Tso::new(), max_bound, budget),
        "power" => go(&Power::new(), max_bound, budget),
        "armv7" => go(&Power::armv7(), max_bound, budget),
        "scc" => go(&Scc::new(), max_bound, budget),
        "c11" => go(&C11::new(), max_bound, budget),
        other => eprintln!("unknown model {other:?}"),
    }
}

/// The serving acceptance experiment: a loopback `litsynth-serve` server
/// answering the TSO union over bounds `2..=bound`, timed cold (through
/// the shard layer) and warm (from the suite cache), then hammered by
/// `clients` concurrent connections repeating the warm query.
///
/// Asserts the serving contract — the cold suite is byte-identical to a
/// direct `synthesize_union_up_to` call, and the warm repeat is a cache
/// hit with zero compilations — and writes the latencies, hit rate, and
/// shard counters to `BENCH_synth.json` (CI's serve-smoke greps it).
fn serve(bound: usize, clients: usize) {
    use litsynth_serve::{Client, QueryRequest, ServeConfig, Server};
    let clients = clients.max(1);
    println!("\n## Serving — loopback litsynth-serve, TSO bounds 2..={bound}, {clients} clients\n");
    let server = Server::start(ServeConfig {
        unit_threads: env_usize("LITSYNTH_THREADS", 1),
        cube_bits: env_usize("LITSYNTH_CUBE_BITS", 0),
        max_bound: bound,
        ..ServeConfig::default()
    })
    .expect("loopback server starts");
    let addr = server.addr();
    println!("serving on {addr}");
    let req = QueryRequest::sweep("tso", 2, bound);

    let mut client = Client::connect(addr).expect("client connects");
    let t0 = std::time::Instant::now();
    let cold = client.query(&req).expect("cold query succeeds");
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(!cold.reply.cached, "first query must be cold");
    let direct = litsynth_core::encode_suite_body(&litsynth_core::synthesize_union_up_to(
        &Tso::new(),
        2..=bound,
        SynthConfig::new,
    ));
    assert_eq!(
        cold.reply.suite, direct,
        "served suite must be byte-identical"
    );

    let t1 = std::time::Instant::now();
    let warm = client.query(&req).expect("warm query succeeds");
    let warm_ms = t1.elapsed().as_secs_f64() * 1e3;
    assert!(warm.reply.cached, "repeat must hit the suite cache");
    assert_eq!(warm.reply.compilations, 0, "warm queries must not compile");
    assert_eq!(warm.reply.suite, cold.reply.suite);
    println!(
        "cold: {cold_ms:.1} ms ({} compilations) | warm: {warm_ms:.3} ms (cached, 0 compilations)",
        cold.reply.compilations
    );

    // Concurrent warm load: every client repeats the cached query.
    const REPEATS: usize = 8;
    let t2 = std::time::Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut c = Client::connect(addr).expect("load client connects");
                for _ in 0..REPEATS {
                    let served = c.query(&req).expect("load query succeeds");
                    assert!(served.reply.cached);
                }
            });
        }
    });
    let load_s = t2.elapsed().as_secs_f64();
    let warm_qps = (clients * REPEATS) as f64 / load_s.max(1e-9);
    println!(
        "load: {clients} clients x {REPEATS} warm queries in {load_s:.3} s ({warm_qps:.0} qps)"
    );

    let stats = server.stats();
    let hit_rate = stats.cache.hits as f64 / (stats.cache.hits + stats.cache.misses).max(1) as f64;
    println!(
        "cache: {} hits, {} misses ({:.1}% hit rate) | shard: {} retried",
        stats.cache.hits,
        stats.cache.misses,
        hit_rate * 100.0,
        stats.shard.retried,
    );
    server.shutdown();

    let json = format!(
        "{{\n  \"experiment\": \"serve\",\n  \"model\": \"tso\",\n  \
         \"bounds\": [2, {bound}],\n  \"clients\": {clients},\n  \
         \"cold_ms\": {cold_ms:.3},\n  \"warm_ms\": {warm_ms:.3},\n  \
         \"warm_qps\": {warm_qps:.1},\n  \"suite_tests\": {},\n  \
         \"byte_identical\": true,\n  \"cold_compilations\": {},\n  \
         \"warm_compilations\": {},\n  \"cache_hits\": {},\n  \
         \"cache_misses\": {},\n  \"cache_hit_rate\": {hit_rate:.4},\n  \
         \"shard\": {{\"retried\": {}}}\n}}\n",
        cold.reply.tests,
        cold.reply.compilations,
        warm.reply.compilations,
        stats.cache.hits,
        stats.cache.misses,
        stats.shard.retried,
    );
    let path = std::path::Path::new("BENCH_synth.json");
    match litsynth_core::atomic_write(path, json.as_bytes()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// The consistency-oracle acceptance experiment (CI's oracle-smoke greps
/// its JSON):
///
/// 1. **Stress row** — a test with 6 same-address writes whose outcome is
///    SC-forbidden: enumeration walks every (rf, co) candidate (5040
///    executions), the saturation checker refutes it from one forced
///    cycle. `oracle_speedup` is the wall-clock ratio, reported as an
///    integer so the CI grep (`"oracle_speedup": [0-9]{2,}` — i.e. ≥ 10×)
///    stays a plain regex.
/// 2. **Suite sweep** — every classics/owens/cambridge verdict computed
///    both ways; `oracle_agreements` must equal `oracle_total` and
///    `oracle_disagreements` must be 0.
/// 3. **CHECK serving** — a loopback server answering the owens suite
///    over the `CHECK` verb, cold then cached; `check_qps` is the
///    sustained rate.
fn oracle() {
    use litsynth_litmus::suites::classics;
    use litsynth_litmus::{Execution, Instr, LitmusTest};
    use litsynth_models::check;

    println!("\n## Consistency oracle — saturation checker vs enumeration\n");

    // Stress row: T0 = Wx;Wx;Wx;Rx, T1 = Wx;Wx;Wx, and the read observes
    // the initial value — po already orders three writes before it, so
    // the verdict is forbidden and saturation finds the fr/po cycle
    // during seeding, while enumeration must reject all 7 rf choices
    // x 720 coherence orders one by one.
    let stress = LitmusTest::new(
        "OracleStress",
        vec![
            vec![
                Instr::store(0),
                Instr::store(0),
                Instr::store(0),
                Instr::load(0),
            ],
            vec![Instr::store(0), Instr::store(0), Instr::store(0)],
        ],
    );
    let weak = classics::oc([(3, None)], []);
    let executions = Execution::iter(&stress).count();
    let sc = Sc::new();
    let t0 = std::time::Instant::now();
    assert!(
        oracle::forbidden(&sc, &stress, &weak),
        "stress outcome must be forbidden by enumeration"
    );
    let enum_s = t0.elapsed().as_secs_f64();
    // The checker refutes this in microseconds; average a batch so the
    // ratio isn't timer-resolution noise.
    const CHECK_ITERS: u32 = 100;
    let t1 = std::time::Instant::now();
    for _ in 0..CHECK_ITERS {
        assert!(
            check::forbidden(&sc, &stress, &weak),
            "stress outcome must be forbidden by the checker"
        );
    }
    let check_s = t1.elapsed().as_secs_f64() / f64::from(CHECK_ITERS);
    let oracle_speedup = (enum_s / check_s.max(1e-12)).round() as u64;
    println!(
        "stress: {executions} executions | enumeration {:.2} ms | checker {:.4} ms | {}x",
        enum_s * 1e3,
        check_s * 1e3,
        oracle_speedup
    );

    // Suite sweep: both deciders over every reference verdict.
    let tso = Tso::new();
    let power = Power::new();
    let mut entries: Vec<(&'static str, LitmusTest, litsynth_litmus::Outcome)> = Vec::new();
    for e in owens::suite() {
        entries.push(("tso", e.test, e.outcome));
    }
    for e in cambridge::suite() {
        entries.push(("power", e.test, e.outcome));
    }
    for (t, o) in [
        classics::mp(),
        classics::sb(),
        classics::lb(),
        classics::s(),
        classics::r(),
        classics::two_plus_two_w(),
        classics::wrc(),
        classics::iriw(),
        classics::corr(),
        classics::coww(),
        classics::corw(),
        classics::cowr(),
        classics::colb(),
        classics::sb_fences(),
        classics::rwc(),
        classics::rwc_fence(),
        classics::rmw_rmw(),
    ] {
        entries.push(("sc", t.clone(), o.clone()));
        entries.push(("tso", t, o));
    }
    let decide_enum = |m: &str, t: &LitmusTest, o: &litsynth_litmus::Outcome| match m {
        "sc" => oracle::forbidden(&sc, t, o),
        "tso" => oracle::forbidden(&tso, t, o),
        _ => oracle::forbidden(&power, t, o),
    };
    let decide_check = |m: &str, t: &LitmusTest, o: &litsynth_litmus::Outcome| match m {
        "sc" => check::forbidden(&sc, t, o),
        "tso" => check::forbidden(&tso, t, o),
        _ => check::forbidden(&power, t, o),
    };
    let t2 = std::time::Instant::now();
    let enum_verdicts: Vec<bool> = entries
        .iter()
        .map(|(m, t, o)| decide_enum(m, t, o))
        .collect();
    let suite_enum_s = t2.elapsed().as_secs_f64();
    let t3 = std::time::Instant::now();
    let check_verdicts: Vec<bool> = entries
        .iter()
        .map(|(m, t, o)| decide_check(m, t, o))
        .collect();
    let suite_check_s = t3.elapsed().as_secs_f64();
    let oracle_total = entries.len();
    let oracle_agreements = enum_verdicts
        .iter()
        .zip(&check_verdicts)
        .filter(|(a, b)| a == b)
        .count();
    let oracle_disagreements = oracle_total - oracle_agreements;
    println!(
        "suites: {oracle_agreements}/{oracle_total} agree | enumeration {:.1} ms | \
         checker {:.1} ms",
        suite_enum_s * 1e3,
        suite_check_s * 1e3,
    );
    assert_eq!(
        oracle_disagreements, 0,
        "checker must agree with enumeration"
    );

    // CHECK serving over loopback: cold round, then two cached rounds.
    let (check_qps, check_cache_hits) = {
        use litsynth_serve::{Client, ServeConfig, Server};
        let server = Server::start(ServeConfig::default()).expect("loopback server starts");
        let mut client = Client::connect(server.addr()).expect("client connects");
        let suite = owens::suite();
        let mut requests = 0usize;
        let t4 = std::time::Instant::now();
        for _round in 0..3 {
            for e in &suite {
                let verdict = client
                    .check("tso", &e.test, &e.outcome)
                    .expect("CHECK round-trips");
                assert_eq!(
                    !verdict.consistent,
                    e.forbidden,
                    "{}: served verdict must match the suite",
                    e.test.name()
                );
                requests += 1;
            }
        }
        let qps = requests as f64 / t4.elapsed().as_secs_f64().max(1e-9);
        let stats = server.stats();
        assert_eq!(stats.check_requests, requests as u64);
        assert!(
            stats.check_cache_hits >= (2 * suite.len()) as u64,
            "repeat rounds must hit the check cache"
        );
        println!(
            "serve: {requests} CHECKs ({} cached) in {:.3} s ({qps:.0} qps)",
            stats.check_cache_hits,
            t4.elapsed().as_secs_f64()
        );
        server.shutdown();
        (qps, stats.check_cache_hits)
    };

    let json = format!(
        "{{\n  \"experiment\": \"oracle\",\n  \"stress_test\": \"OracleStress\",\n  \
         \"stress_executions\": {executions},\n  \"enum_ms\": {:.3},\n  \
         \"check_ms\": {:.5},\n  \"oracle_speedup\": {oracle_speedup},\n  \
         \"oracle_agreements\": {oracle_agreements},\n  \"oracle_total\": {oracle_total},\n  \
         \"oracle_disagreements\": {oracle_disagreements},\n  \
         \"suite_enum_ms\": {:.3},\n  \"suite_check_ms\": {:.3},\n  \
         \"check_qps\": {check_qps:.1},\n  \"check_cache_hits\": {check_cache_hits}\n}}\n",
        enum_s * 1e3,
        check_s * 1e3,
        suite_enum_s * 1e3,
        suite_check_s * 1e3,
    );
    let path = std::path::Path::new("BENCH_synth.json");
    match litsynth_core::atomic_write(path, json.as_bytes()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Either flavor of remote worker: a real `litsynth-serve worker`
/// process (when the sibling binary is built) or an in-process thread.
enum RemoteWorker {
    Process(std::process::Child),
    Thread(litsynth_serve::WorkerHandle),
}

impl RemoteWorker {
    fn stop(self) {
        match self {
            RemoteWorker::Process(mut child) => {
                let _ = child.kill();
                let _ = child.wait();
            }
            RemoteWorker::Thread(handle) => handle.stop(),
        }
    }
}

/// The multi-host tier over loopback: a no-fault leg and a worker-kill
/// leg, both asserting byte identity against the direct sweep. Counters
/// go to `BENCH_synth.json` for CI's remote-smoke.
fn remote(bound: usize) {
    use litsynth_serve::{
        Client, FaultKind, QueryRequest, ServeConfig, Server, WorkerConfig, WorkerFault,
    };
    println!("\n## Remote — loopback coordinator + 2 workers, TSO bounds 2..={bound}\n");
    let worker_bin = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("litsynth-serve")))
        .filter(|p| p.is_file());
    let worker_mode = if worker_bin.is_some() {
        "process"
    } else {
        "thread"
    };
    println!("worker mode: {worker_mode}");
    let direct = litsynth_core::encode_suite_body(&litsynth_core::synthesize_union_up_to(
        &Tso::new(),
        2..=bound,
        SynthConfig::new,
    ));
    // Both kill-leg workers carry the same exit fault: whichever claims
    // the unit dies mid-run, deterministically, like a kill -9.
    let kill_key = "tso/sc_per_loc/2";
    let spawn = |addr: std::net::SocketAddr, fault_key: Option<&str>| -> RemoteWorker {
        match &worker_bin {
            Some(bin) => {
                let mut cmd = std::process::Command::new(bin);
                cmd.arg("worker").arg(addr.to_string());
                if let Some(key) = fault_key {
                    cmd.arg("--fault-exit-key").arg(key);
                }
                RemoteWorker::Process(cmd.spawn().expect("worker process spawns"))
            }
            None => RemoteWorker::Thread(litsynth_serve::WorkerHandle::spawn(
                addr.to_string(),
                WorkerConfig {
                    fault: fault_key.map(|key| WorkerFault {
                        key: key.to_string(),
                        kind: FaultKind::ExitMidUnit,
                    }),
                    ..WorkerConfig::default()
                },
            )),
        }
    };
    let leg = |fault_key: Option<&str>| {
        let server = Server::start(ServeConfig {
            max_bound: bound,
            lease_ms: 2_000,
            ..ServeConfig::default()
        })
        .expect("coordinator starts");
        let addr = server.addr();
        let workers = vec![spawn(addr, fault_key), spawn(addr, fault_key)];
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while server.stats().remote.workers_live < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "both workers must register within 10s"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let mut client = Client::connect(addr).expect("client connects");
        let t0 = std::time::Instant::now();
        let served = client
            .query(&QueryRequest::sweep("tso", 2, bound))
            .expect("remote query completes");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            served.reply.suite, direct,
            "served suite must be byte-identical"
        );
        let stats = server.stats().remote;
        for w in workers {
            w.stop();
        }
        server.shutdown();
        (ms, stats)
    };

    let (nofault_ms, nofault) = leg(None);
    assert_eq!(
        nofault.degraded_to_local, 0,
        "a healthy fleet must not degrade: {nofault:?}"
    );
    println!(
        "no-fault: {nofault_ms:.1} ms, {} units remote, 0 degraded",
        nofault.completed_remote
    );
    let (kill_ms, kill) = leg(Some(kill_key));
    assert!(
        kill.reclaimed_leases >= 1,
        "the killed worker's lease must be reclaimed: {kill:?}"
    );
    println!(
        "kill: {kill_ms:.1} ms, {} leases reclaimed, {} degraded to local — bytes unchanged",
        kill.reclaimed_leases, kill.degraded_to_local
    );

    let json = format!(
        "{{\n  \"experiment\": \"remote\",\n  \"model\": \"tso\",\n  \
         \"bounds\": [2, {bound}],\n  \"worker_mode\": \"{worker_mode}\",\n  \
         \"byte_identical\": true,\n  \"nofault_ms\": {nofault_ms:.3},\n  \
         \"nofault_completed_remote\": {},\n  \"nofault_degraded_to_local\": {},\n  \
         \"kill_ms\": {kill_ms:.3},\n  \"reclaimed_leases\": {},\n  \
         \"lease_expiries\": {},\n  \"degraded_to_local\": {},\n  \
         \"rejected_results\": {}\n}}\n",
        nofault.completed_remote,
        nofault.degraded_to_local,
        kill.reclaimed_leases,
        kill.lease_expiries,
        kill.degraded_to_local,
        kill.rejected_results,
    );
    let path = std::path::Path::new("BENCH_synth.json");
    match litsynth_core::atomic_write(path, json.as_bytes()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Table 2: which instruction relaxations apply to which model.
fn table2(out: &mut String) {
    outln!(out, "\n## Table 2 — relaxation applicability\n");
    outln!(out, "| model | RI | DRMW | DF | DMO | RD | DS |");
    outln!(out, "|-------|----|------|----|-----|----|----|");
    fn row<M: MemoryModel>(out: &mut String, m: &M) {
        let r = m.relaxations();
        let mark = |k: RelaxKind| if r.contains(&k) { "x" } else { " " };
        outln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} |",
            m.name(),
            mark(RelaxKind::Ri),
            mark(RelaxKind::Drmw),
            mark(RelaxKind::Df),
            mark(RelaxKind::Dmo),
            mark(RelaxKind::Rd),
            mark(RelaxKind::Ds),
        );
    }
    row(out, &Sc::new());
    row(out, &Tso::new());
    row(out, &Power::new());
    row(out, &Power::armv7());
    row(out, &Scc::new());
    row(out, &C11::new());
}

/// Table 4: the Owens suite vs the synthesized TSO union, with subtest
/// coverage for the non-minimal entries.
fn table4(out: &mut String, budget: u64) {
    outln!(
        out,
        "\n## Table 4 — Owens suite vs synthesized TSO suites (bounds 2–6)\n"
    );
    let tso = Tso::new();
    let union = report::union_suite(&tso, 2..=6, budget);
    outln!(
        out,
        "synthesized TSO-union (≤6 insts): {} tests",
        union.len()
    );

    let mut rows: Vec<(usize, String, String)> = Vec::new();
    for e in owens::suite() {
        if !e.forbidden {
            continue;
        }
        let minimal = minimal_for_some_axiom(&tso, &e.test, &e.outcome);
        let status = if minimal {
            "minimal (in union)".to_string()
        } else {
            let covers = covering_subtests(&tso, &e.test, union.values());
            let names: Vec<String> = covers.iter().take(3).map(|(t, o)| o.display(t)).collect();
            format!(
                "non-minimal; covered by {} union test(s) {}",
                covers.len(),
                names.join(" | ")
            )
        };
        rows.push((e.test.num_events(), e.test.name().to_string(), status));
    }
    rows.sort();
    outln!(out, "\n| #insts | Owens test | verdict |");
    outln!(out, "|--------|------------|---------|");
    for (n, name, status) in rows {
        outln!(out, "| {n} | {name} | {status} |");
    }
}

/// Figure 11: the sc_per_loc tests that are in neither causality nor Owens.
fn fig11(out: &mut String, budget: u64) {
    outln!(out, "\n## Figure 11 — sc_per_loc-only TSO tests\n");
    let tso = Tso::new();
    let mut scl: BTreeMap<String, _> = BTreeMap::new();
    let mut caus: BTreeMap<String, _> = BTreeMap::new();
    for n in 2..=4 {
        let r = synthesize_axiom(&tso, "sc_per_loc", &cfg(n, budget));
        scl.extend(r.tests);
        let r = synthesize_axiom(&tso, "causality", &cfg(n, budget));
        caus.extend(r.tests);
    }
    outln!(out, "sc_per_loc total: {} (paper: 10)", scl.len());
    let only: Vec<_> = scl.iter().filter(|(k, _)| !caus.contains_key(*k)).collect();
    outln!(out, "sc_per_loc ∖ causality: {} tests:", only.len());
    for (_, (t, o)) in only {
        outln!(out, "{t}  outcome: {}\n", o.display(t));
    }
}

/// Figure 12: the rmw_atomicity tests.
fn fig12(out: &mut String, budget: u64) {
    outln!(out, "\n## Figure 12 — TSO rmw_atomicity tests\n");
    let tso = Tso::new();
    let mut all: BTreeMap<String, _> = BTreeMap::new();
    for n in 2..=5 {
        let r = synthesize_axiom(&tso, "rmw_atomicity", &cfg(n, budget));
        all.extend(r.tests);
    }
    outln!(out, "rmw_atomicity total: {} (paper: 4)", all.len());
    for (t, o) in all.values() {
        outln!(out, "{t}  outcome: {}\n", o.display(t));
    }
}

/// Figure 13: TSO counts and runtimes per bound.
fn fig13(out: &mut String, budget: u64) {
    outln!(out, "\n## Figure 13 — TSO results\n");
    let tso = Tso::new();
    let owens_forbidden: Vec<_> = owens::suite().into_iter().filter(|e| e.forbidden).collect();

    outln!(out, "| bound | Owens(≤) | tso-union(≤) | all-progs(=) | sc_per_loc | rmw_atom | causality | runtime(s) |");
    outln!(out, "|-------|----------|--------------|--------------|------------|----------|-----------|------------|");
    let mut union: BTreeMap<String, _> = BTreeMap::new();
    for n in 2..=6 {
        let mut per_axiom = Vec::new();
        let mut secs = 0.0;
        let mut trunc = false;
        for ax in tso.axioms() {
            let r = synthesize_axiom(&tso, ax, &cfg(n, budget));
            secs += r.elapsed.as_secs_f64();
            trunc |= r.truncated;
            per_axiom.push(r.len());
            union.extend(r.tests);
        }
        let owens_n = owens_forbidden
            .iter()
            .filter(|e| e.test.num_events() <= n)
            .count();
        outln!(
            out,
            "| {n} | {owens_n} | {} | {} | {} | {} | {} | {:.2}{} |",
            union.len(),
            count_programs(&tso, n, 3),
            per_axiom[0],
            per_axiom[1],
            per_axiom[2],
            secs,
            if trunc { " (truncated)" } else { "" },
        );
    }
}

/// Figure 14: the WWC symmetry the hash canonicalizer misses.
fn fig14(out: &mut String, budget: u64) {
    outln!(
        out,
        "\n## Figure 14 — canonicalizer ablation (hash vs exact)\n"
    );
    let tso = Tso::new();
    for n in 4..=5 {
        let mut exact_cfg = cfg(n, budget);
        exact_cfg.exact_canon = true;
        let mut hash_cfg = cfg(n, budget);
        hash_cfg.exact_canon = false;
        let mut exact = 0;
        let mut hash = 0;
        for ax in tso.axioms() {
            exact += synthesize_axiom(&tso, ax, &exact_cfg).len();
            hash += synthesize_axiom(&tso, ax, &hash_cfg).len();
        }
        outln!(
            out,
            "bound {n}: exact canonicalizer {exact} tests, paper's hash scheme {hash} \
             ({} redundant duplicates, the WWC effect)",
            hash - exact
        );
    }
}

/// Figure 16: Power results vs the Cambridge suite and a diy-style
/// baseline (the cats-suite stand-in; DESIGN.md substitution 2).
fn fig16(out: &mut String, budget: u64) {
    outln!(out, "\n## Figure 16 — Power results\n");
    let power = Power::new();
    let cambridge_forbidden: Vec<_> = cambridge::suite()
        .into_iter()
        .filter(|e| e.forbidden)
        .collect();
    let diy = DiyBaseline::generate(&power, 500);
    outln!(
        out,
        "baselines: Cambridge {} forbidden tests; diy-style {} distinct forbidden tests",
        cambridge_forbidden.len(),
        diy.len()
    );

    outln!(out, "\n| bound | Cambridge(≤) | diy(≤) | power-union(≤) | sc_per_loc | no_thin_air | observation | propagation | runtime(s) |");
    outln!(out, "|-------|--------------|--------|----------------|------------|-------------|-------------|-------------|------------|");
    let mut union: BTreeMap<String, _> = BTreeMap::new();
    for n in 2..=5 {
        let mut per_axiom = Vec::new();
        let mut secs = 0.0;
        let mut trunc = false;
        for ax in power.axioms() {
            let r = synthesize_axiom(&power, ax, &cfg(n, budget));
            secs += r.elapsed.as_secs_f64();
            trunc |= r.truncated;
            per_axiom.push(r.len());
            union.extend(r.tests);
        }
        let cam = cambridge_forbidden
            .iter()
            .filter(|e| e.test.num_events() <= n)
            .count();
        let d = diy.iter().filter(|(t, _)| t.num_events() <= n).count();
        outln!(
            out,
            "| {n} | {cam} | {d} | {} | {} | {} | {} | {} | {:.2}{} |",
            union.len(),
            per_axiom[0],
            per_axiom[1],
            per_axiom[2],
            per_axiom[3],
            secs,
            if trunc { " (truncated)" } else { "" },
        );
    }

    // Cambridge coverage check (the PPOAA remark in §6.2).
    outln!(out, "\nCambridge forbidden tests vs minimality:");
    for e in &cambridge_forbidden {
        let minimal = minimal_for_some_axiom(&power, &e.test, &e.outcome);
        if !minimal {
            outln!(
                out,
                "  {}: NOT minimal as presented (cf. PPOAA, §6.2)",
                e.test.name()
            );
        }
    }
}

/// Figure 20: SCC results.
fn fig20(out: &mut String, budget: u64) {
    outln!(out, "\n## Figure 20 — SCC results\n");
    let scc = Scc::new();
    outln!(
        out,
        "| bound | scc-union(≤) | sc_per_loc | no_thin_air | rmw_atom | causality | runtime(s) |"
    );
    outln!(
        out,
        "|-------|--------------|------------|-------------|----------|-----------|------------|"
    );
    let mut union: BTreeMap<String, _> = BTreeMap::new();
    for n in 2..=5 {
        let mut per_axiom = Vec::new();
        let mut secs = 0.0;
        let mut trunc = false;
        for ax in scc.axioms() {
            let r = synthesize_axiom(&scc, ax, &cfg(n, budget));
            secs += r.elapsed.as_secs_f64();
            trunc |= r.truncated;
            per_axiom.push(r.len());
            union.extend(r.tests);
        }
        outln!(
            out,
            "| {n} | {} | {} | {} | {} | {} | {:.2}{} |",
            union.len(),
            per_axiom[0],
            per_axiom[1],
            per_axiom[2],
            per_axiom[3],
            secs,
            if trunc { " (truncated)" } else { "" },
        );
    }
}

/// §6.4: C11 per-axiom counts (the paper's text truncates mid-section; the
/// same per-axiom/per-bound shape is reported).
fn c11(out: &mut String, budget: u64) {
    outln!(out, "\n## §6.4 — C11 results (reconstructed shape)\n");
    let m = C11::new();
    outln!(
        out,
        "| bound | c11-union(≤) | coherence | atomicity | no_thin_air | seq_cst | runtime(s) |"
    );
    outln!(
        out,
        "|-------|--------------|-----------|-----------|-------------|---------|------------|"
    );
    let mut union: BTreeMap<String, _> = BTreeMap::new();
    for n in 2..=4 {
        let mut per_axiom = Vec::new();
        let mut secs = 0.0;
        let mut trunc = false;
        for ax in m.axioms() {
            let r = synthesize_axiom(&m, ax, &cfg(n, budget));
            secs += r.elapsed.as_secs_f64();
            trunc |= r.truncated;
            per_axiom.push(r.len());
            union.extend(r.tests);
        }
        outln!(
            out,
            "| {n} | {} | {} | {} | {} | {} | {:.2}{} |",
            union.len(),
            per_axiom[0],
            per_axiom[1],
            per_axiom[2],
            per_axiom[3],
            secs,
            if trunc { " (truncated)" } else { "" },
        );
    }
}

/// Figures 18/19: the SB false negative and its workaround.
fn scc_wa(out: &mut String, budget: u64) {
    outln!(out, "\n## Figures 18/19 — SCC sc workaround\n");
    let scc = Scc::new();
    // SB with two FenceSC instructions is 6 events.
    let r = synthesize_axiom(&scc, "causality", &cfg(6, budget));
    let sb_like = r
        .tests
        .values()
        .filter(|(t, _)| {
            let fences = (0..t.num_events())
                .filter(|&g| t.instr(g).is_fence())
                .count();
            fences == 2
        })
        .count();
    outln!(
        out,
        "SCC causality bound 6: {} tests, {} with two FenceSC instructions \
         (SB+FenceSCs present ⇒ the Figure 19 workaround recovered the \
         Figure 18 false negative){}",
        r.len(),
        sb_like,
        if r.truncated { " [truncated]" } else { "" }
    );
    for (t, o) in r.tests.values().filter(|(t, _)| {
        (0..t.num_events())
            .filter(|&g| t.instr(g).is_fence())
            .count()
            == 2
    }) {
        outln!(out, "{t}  outcome: {}", o.display(t));
    }
}

/// §6.2's ARMv7 remark: "broadly similar to Power, but … no equivalent of
/// the Power lwsync" — compare the two unions directly.
fn armv7(out: &mut String, budget: u64) {
    outln!(out, "\n## §6.2 — Power vs ARMv7 (no lwsync)\n");
    let power = Power::new();
    let armv7 = Power::armv7();
    outln!(
        out,
        "| bound | power-union | armv7-union | lwsync tests (power only) |"
    );
    outln!(
        out,
        "|-------|-------------|-------------|---------------------------|"
    );
    let mut pu: BTreeMap<String, _> = BTreeMap::new();
    let mut au: BTreeMap<String, _> = BTreeMap::new();
    for n in 2..=5 {
        for ax in power.axioms() {
            pu.extend(synthesize_axiom(&power, ax, &cfg(n, budget)).tests);
            au.extend(synthesize_axiom(&armv7, ax, &cfg(n, budget)).tests);
        }
        let lw = pu
            .values()
            .filter(|(t, _)| {
                (0..t.num_events()).any(|g| {
                    matches!(
                        t.instr(g),
                        litsynth_litmus::Instr::Fence {
                            kind: litsynth_litmus::FenceKind::Lightweight,
                            ..
                        }
                    )
                })
            })
            .count();
        outln!(out, "| {n} | {} | {} | {lw} |", pu.len(), au.len());
    }
    // Every ARMv7 test is (canonically) a Power test: the models agree on
    // the lwsync-free fragment at these bounds.
    let only_armv7 = au.keys().filter(|k| !pu.contains_key(*k)).count();
    outln!(
        out,
        "\ntests in armv7-union but not power-union: {only_armv7}"
    );
}

/// §4.3 ablation: what the orphaned-read policy is worth. With
/// `orphan_unconstrained = false`, a read whose rf source was removed by RI
/// snaps to the initial value — reintroducing exactly the class of false
/// negatives §4.3's "leave it unconstrained" choice avoids.
fn orphan(out: &mut String, budget: u64) {
    outln!(
        out,
        "\n## §4.3 ablation — orphaned-read policy (TSO sc_per_loc)\n"
    );
    let tso = Tso::new();
    for unconstrained in [true, false] {
        let mut total = 0;
        for n in 2..=4 {
            let mut c = cfg(n, budget);
            c.orphan_unconstrained = unconstrained;
            total += synthesize_axiom(&tso, "sc_per_loc", &c).len();
        }
        outln!(
            out,
            "orphan reads {:<14} → sc_per_loc suite (bounds ≤4): {} tests{}",
            if unconstrained {
                "unconstrained"
            } else {
                "read-initial"
            },
            total,
            if unconstrained {
                " (paper: 10)"
            } else {
                " (CoWR-class false negatives)"
            },
        );
    }
}

/// §4.2/§6.3: quantifying the Figure 5c approximation against the exact
/// exists-forall oracle, by exhaustive program enumeration at small bounds.
fn soundness(out: &mut String, budget: u64) {
    outln!(
        out,
        "\n## Soundness — Figure 5c vs the exact oracle (TSO)\n"
    );
    let tso = Tso::new();
    for n in 2..=3 {
        let mut synth: BTreeMap<String, _> = BTreeMap::new();
        for ax in tso.axioms() {
            synth.extend(synthesize_axiom(&tso, ax, &cfg(n, budget)).tests);
        }
        // Exhaustive ground truth: every canonical program of n events,
        // every candidate outcome, exact minimality for some axiom.
        let mut truth: BTreeMap<String, _> = BTreeMap::new();
        for (t, o) in report::enumerate_all_tests(&tso, n) {
            if minimal_for_some_axiom(&tso, &t, &o) {
                truth.insert(canonical_key_exact(&t, &o), (t, o));
            }
        }
        let both = synth.keys().filter(|k| truth.contains_key(*k)).count();
        let only_synth = synth.len() - both;
        let only_truth = truth.len() - both;
        outln!(
            out,
            "bound {n}: exact-minimal {} | Fig5c-synthesized {} | both {} | \
             false positives {} | false negatives {}",
            truth.len(),
            synth.len(),
            both,
            only_synth,
            only_truth
        );
        for (k, (t, o)) in &truth {
            if !synth.contains_key(k) {
                outln!(out, "  missed (false negative): {t}  {}", o.display(t));
            }
        }
        for (k, (t, o)) in &synth {
            if !truth.contains_key(k) {
                outln!(out, "  extra (false positive): {t}  {}", o.display(t));
                // False positives are harmless (§4.3) but must still be
                // forbidden outcomes.
                assert!(
                    tso.axioms()
                        .iter()
                        .any(|ax| !oracle::observable_axiom(&tso, ax, t, o)),
                    "a synthesized test must at least be forbidden"
                );
            }
        }
    }
    let _ = check_minimal(
        &tso,
        "causality",
        &litsynth_litmus::suites::classics::mp().0,
        &litsynth_litmus::suites::classics::mp().1,
    );
}
