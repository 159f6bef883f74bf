use super::cube::trace_line;
use super::merge::writes_one_address_thrice;
use super::plan::effective_cube_bits;
use super::*;
use crate::minimal::check_minimal;
use crate::perturb::minimality_asserts_opts;
use crate::symbolic::SymbolicTest;
use litsynth_litmus::serialize;
use litsynth_models::{Power, Sc, Tso};
use litsynth_portfolio::MAX_ATTEMPTS;
use litsynth_relalg::{Bit, CompiledCircuit};
use litsynth_sat::SolverStats;
use std::sync::{Arc, Mutex};
use std::time::Instant;

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
fn fingerprint(per_axiom: &BTreeMap<&'static str, SynthResult>, union: &CanonicalSuite) -> String {
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
    // Bound 3: smaller queries never split.
    let cfg = SynthConfig::new(3).with_threads(2).with_cube_bits(2);
    let r = synthesize_axiom(&Tso::new(), "sc_per_loc", &cfg);
    assert_eq!(r.workers.len(), 4);
    for (i, w) in r.workers.iter().enumerate() {
        assert_eq!(w.cube, i);
        assert_eq!(w.num_cubes, 4);
        assert_eq!(w.axiom, "sc_per_loc");
        assert_eq!(w.bound, 3);
    }
    assert_eq!(
        r.raw_instances,
        r.workers.iter().map(|w| w.raw_instances).sum::<usize>()
    );
    // Splitting never changes the canonical suite.
    let seq = synthesize_axiom(&Tso::new(), "sc_per_loc", &SynthConfig::new(3));
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
    let cfg = SynthConfig::new(3)
        .with_threads(4)
        .with_cube_bits(2)
        .with_incremental(false);
    let (p, _) = synthesize_union(&m, &cfg);
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
    let (_, stats) = synthesize_union_up_to_with_stats(&m, 3..=3, |n| {
        SynthConfig::new(n).with_threads(4).with_cube_bits(2)
    });
    assert_eq!(
        stats.compilations, 1,
        "an incremental sweep compiles in full exactly once"
    );
    assert_eq!(
        stats.extensions,
        m.axioms().len() as u64,
        "one definitional link per axiom extends the skeleton"
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
            Some(prev) => CompiledCircuit::extend(prev, &alg.circuit, roots.iter().copied(), true),
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
    // cross-query clause vault that rides on it may only change how
    // fast the suite is found, never the suite itself, at any thread
    // count or cube split.
    let m = Tso::new();
    let run = |incremental: bool, threads: usize, cube_bits: usize| {
        let u = synthesize_union_up_to(&m, 2..=3, |n| {
            SynthConfig::new(n)
                .with_threads(threads)
                .with_cube_bits(cube_bits)
                .with_incremental(incremental)
        });
        suite_bytes(&u)
    };
    let baseline = run(false, 1, 0);
    for (incremental, threads, cube_bits) in [(true, 1, 0), (true, 2, 1), (true, 4, 2)] {
        assert_eq!(
            run(incremental, threads, cube_bits),
            baseline,
            "incremental={incremental} threads={threads} cube_bits={cube_bits}"
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
    // byte-identical across the whole {lazy} × {shelve} × {domain}
    // knob matrix at any thread count or cube split.
    let m = Tso::new();
    let run = |lazy: bool, shelve: bool, domain: bool, threads: usize, cube_bits: usize| {
        let u = synthesize_union_up_to(&m, 2..=3, |n| {
            SynthConfig::new(n)
                .with_threads(threads)
                .with_cube_bits(cube_bits)
                .with_lazy(lazy)
                .with_shelve(shelve)
                .with_domain(domain)
                .with_cross_check(true)
        });
        suite_bytes(&u)
    };
    let baseline = run(false, false, false, 1, 0);
    for (lazy, shelve, domain, threads, cube_bits) in [
        // the original lazy legs (defaults now carry shelve+domain on)
        (true, true, true, 1, 0),
        (true, true, true, 2, 1),
        (true, true, true, 4, 2),
        (false, true, true, 2, 1),
        // each new knob isolated
        (true, false, true, 1, 0),
        (true, true, false, 1, 0),
        (true, false, false, 2, 1),
        // domain without lazy (eager attach, cone-scoped branching)
        (false, true, true, 1, 0),
    ] {
        assert_eq!(
            run(lazy, shelve, domain, threads, cube_bits),
            baseline,
            "lazy={lazy} shelve={shelve} domain={domain} \
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
    // existing {shelve} × {domain} legs at any thread count or cube
    // split (DESIGN §3c).
    let m = Tso::new();
    let run = |inprocess: bool,
               tiered: bool,
               shelve: bool,
               domain: bool,
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
                .with_cross_check(true)
        });
        suite_bytes(&u)
    };
    // Everything off, sequential: the legacy core.
    let baseline = run(false, false, false, false, 1, 0);
    for (inprocess, tiered, shelve, domain, threads, cube_bits) in [
        // each new knob isolated on the sequential path
        (true, false, false, false, 1, 0),
        (false, true, false, false, 1, 0),
        // both on (the default core), sequential and parallel
        (true, true, false, false, 1, 0),
        (true, true, true, true, 1, 0),
        (true, true, true, true, 4, 2),
        // modern core against individual portfolio knobs
        (true, true, false, true, 2, 1),
        (true, true, true, false, 2, 1),
        // legacy core under the full portfolio stack
        (false, false, true, true, 4, 2),
    ] {
        assert_eq!(
            run(inprocess, tiered, shelve, domain, threads, cube_bits),
            baseline,
            "inprocess={inprocess} tiered={tiered} shelve={shelve} \
             domain={domain} threads={threads} cube_bits={cube_bits}"
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
    let suite = synthesize_union_up_to(&m, 2..=4, |n| SynthConfig::new(n).with_cross_check(true));
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
    let (_, s_off) =
        synthesize_union_up_to_with_stats(&m, 2..=3, |n| SynthConfig::new(n).with_inprocess(false));
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
        synthesize_union_up_to_with_stats(&m, 2..=3, |n| SynthConfig::new(n).with_lazy(lazy))
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
    let (_, s_off) =
        synthesize_union_up_to_with_stats(&m, 2..=3, |n| SynthConfig::new(n).with_domain(false));
    assert_eq!(s_off.domain_decisions, 0);
}

#[test]
fn incremental_sweep_compiles_once_and_reuses_the_skeleton() {
    let m = Tso::new();
    let (u_inc, s_inc) = synthesize_union_up_to_with_stats(&m, 2..=3, SynthConfig::new);
    let (u_mono, s_mono) = synthesize_union_up_to_with_stats(&m, 2..=3, |n| {
        SynthConfig::new(n).with_incremental(false)
    });
    assert_eq!(suite_bytes(&u_inc), suite_bytes(&u_mono));
    assert_eq!(s_inc.compilations, 1, "one full compile per sweep");
    // Two participating bounds → one definitional link per axiom on
    // the first and a skeleton link plus one definitional link per
    // axiom on the second, i.e. 2·A+1 extensions.
    assert_eq!(s_inc.extensions, 2 * m.axioms().len() as u64 + 1);
    assert!(s_inc.reused_clauses > 0, "extensions must reuse clauses");
    assert_eq!(s_mono.extensions, 0);
    assert_eq!(s_mono.reused_clauses, 0);
    assert_eq!(
        s_mono.compilations as usize,
        2 * m.axioms().len(),
        "monolithic mode compiles once per query"
    );
    assert_eq!(s_mono.vault, VaultStats::default());
}

#[test]
fn cube_bits_clamp_to_the_selector_count() {
    // Bound 2 never splits, whatever `cube_bits` asks for. From bound 3
    // up the width clamps to the selector count: 3 events × 3 TSO
    // shapes = 9 bits, so asking for 40 must not allocate 2^40 cubes.
    let m = Tso::new();
    for cube_bits in [0, 1, 2, 40] {
        let cfg = SynthConfig::new(2).with_cube_bits(cube_bits);
        assert_eq!(effective_cube_bits(&m, &cfg), 0, "cube_bits={cube_bits}");
    }
    assert_eq!(
        effective_cube_bits(&m, &SynthConfig::new(3).with_cube_bits(40)),
        9
    );
    assert_eq!(
        effective_cube_bits(&m, &SynthConfig::new(3).with_cube_bits(2)),
        2
    );
}

#[test]
fn the_three_drivers_agree_at_bound_3() {
    // One path behind all three drivers: the union's per-axiom suites
    // are the single-axiom suites, and its union is the one-bound
    // sweep's.
    fn check<M: MemoryModel + Sync>(m: &M) {
        let cfg = SynthConfig::new(3);
        let (per_axiom, union) = synthesize_union(m, &cfg);
        for &ax in m.axioms() {
            let alone = synthesize_axiom(m, ax, &cfg);
            assert_eq!(
                suite_bytes(&per_axiom[ax].tests),
                suite_bytes(&alone.tests),
                "{} {ax}",
                m.name()
            );
        }
        let swept = synthesize_union_up_to(m, 3..=3, SynthConfig::new);
        assert_eq!(suite_bytes(&union), suite_bytes(&swept), "{}", m.name());
    }
    check(&Tso::new());
    check(&Power::new());
}

#[test]
fn trace_line_reports_per_task_deltas() {
    // A pooled solver carries earlier tasks' totals: every count on
    // the line is this task's delta, conflicts included.
    let before = SolverStats {
        conflicts: 63,
        propagations: 1_000,
        decisions: 40,
        subsumed: 4,
        learnts_core: 9,
        ..SolverStats::default()
    };
    let after = SolverStats {
        conflicts: 100,
        propagations: 1_500,
        decisions: 52,
        domain_decisions: 7,
        subsumed: 6,
        gc_runs: 1,
        gc_reclaimed_words: 64,
        learnts_core: 3,
        learnts_mid: 2,
        learnts_local: 1,
        ..before
    };
    let line = trace_line(
        "tso/sc_per_loc/3 cube 0 attempt 0",
        Duration::from_millis(2),
        Duration::ZERO,
        5,
        &before,
        &after,
        (10, 20),
    );
    assert_eq!(
        line,
        "trace tso/sc_per_loc/3 cube 0 attempt 0: wall 2ms probe 0ns raw 5 conflicts 37 \
         props 500 decs 12 domdecs 7 replayed 0 simp 0 subs 2 str 0 gc 1/64w tiers 3/2/1 \
         active 10/20"
    );
}

#[test]
fn progress_elapsed_spans_each_querys_workers() {
    // A query's elapsed runs from its first worker's start to its last
    // worker's end. On one thread the spans are disjoint and cover the
    // search, so they sum to a real share of the sweep's wall time.
    use crate::symbolic::{ProgressEvent, ProgressSink};
    let events: Arc<Mutex<Vec<ProgressEvent>>> = Arc::default();
    let sink = {
        let events = events.clone();
        ProgressSink::new(move |e| events.lock().unwrap().push(e.clone()))
    };
    let m = Tso::new();
    let start = Instant::now();
    synthesize_union_up_to(&m, 2..=3, |n| {
        SynthConfig::new(n)
            .with_threads(1)
            .with_progress(Some(sink.clone()))
    });
    let wall = start.elapsed();
    let got = events.lock().unwrap();
    assert_eq!(got.len(), 2 * m.axioms().len());
    assert!(got.iter().all(|e| e.elapsed > Duration::ZERO), "{got:?}");
    let sum: Duration = got.iter().map(|e| e.elapsed).sum();
    assert!(sum > wall / 10 && sum <= wall, "sum {sum:?}, wall {wall:?}");
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
    let plan = FaultPlan::parse("tso/sc_per_loc/3@0@*@0@panic").expect("plan parses");
    let cfg = SynthConfig::new(3)
        .with_cube_bits(1)
        .with_fault_plan(Some(Arc::new(plan)));
    let r = synthesize_axiom(&Tso::new(), "sc_per_loc", &cfg);
    assert_eq!(r.degraded, 1);
    assert!(r.workers[0].degraded);
    assert_eq!(r.workers[0].failures.len(), MAX_ATTEMPTS);
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
    assert!(r.workers.iter().all(|w| w.attempts == MAX_ATTEMPTS));
}

#[test]
fn budget_plumbing_with_default_knobs_leaves_the_suite_exact() {
    // With no fault plan armed the enumeration budget is unlimited: no
    // interrupts, no retries, the exact suite. (Interrupts are covered
    // by the injected `interrupt` action above and by the solver-level
    // budget tests.)
    let r = synthesize_axiom(&Tso::new(), "sc_per_loc", &SynthConfig::new(2));
    assert_eq!(r.degraded, 0);
    assert_eq!(r.retries, 0);
    assert_eq!(r.len(), 3);
}

#[test]
fn units_run_in_any_order_merge_to_the_direct_sweep() {
    // The shard layer's contract: run the planned units in *any* order
    // (here: reversed, the worst case for a completion-order merge),
    // merge in plan order, and the union is byte-identical to a direct
    // sweep.
    let m = Tso::new();
    let direct = synthesize_union_up_to(&m, 2..=3, SynthConfig::new);
    let plans = plan_units(&m, 2..=3, SynthConfig::new);
    assert_eq!(plans.len(), 2 * m.axioms().len());
    let mut suites: Vec<(usize, CanonicalSuite)> = plans
        .iter()
        .enumerate()
        .rev()
        .map(|(i, p)| (i, run_unit(&m, p).tests))
        .collect();
    suites.sort_by_key(|&(i, _)| i);
    let merged = merge_unit_suites(suites.iter().map(|(_, s)| s));
    assert_eq!(suite_bytes(&direct), suite_bytes(&merged));
}

#[test]
fn adaptive_engagement_downgrades_small_bounds_to_one_worker() {
    // Below three events the portfolio machinery is pure overhead: a
    // requested cube split must collapse to a single worker and leave
    // the suite untouched.
    let unsplit = synthesize_axiom(&Tso::new(), "sc_per_loc", &SynthConfig::new(2));
    let asked = SynthConfig::new(2).with_threads(2).with_cube_bits(2);
    let small = synthesize_axiom(&Tso::new(), "sc_per_loc", &asked);
    assert_eq!(small.workers.len(), 1, "downgraded to a single worker");
    assert_eq!(suite_bytes(&unsplit.tests), suite_bytes(&small.tests));

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
