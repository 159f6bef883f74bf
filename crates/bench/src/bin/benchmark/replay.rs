//! Traced replays of the synthesis engine, built from the same public
//! calls the engine makes, in the same order, with a timer around each.
//!
//! [`sweep`] replays `synthesize_union_up_to` at one thread and no cube
//! split: one sweep-shared circuit and layer chain, per-bound pooled
//! solvers under activation guards, and a sweep-wide clause vault.
//! [`unit`] replays `run_unit`, the serving tier's per-unit monolithic
//! path. Both must reproduce the engine's suites byte for byte and its
//! solver counters exactly; the tests below hold them to it.

use crate::trace::Trace;
use litsynth_core::perturb::minimality_asserts_opts;
use litsynth_core::{CanonicalSuite, SymbolicTest, SynthConfig, UnitPlan};
use litsynth_litmus::{serialize, LitmusTest, Outcome, TwoTierCanon};
use litsynth_models::{MemoryModel, SymAlg};
use litsynth_portfolio::{
    ClauseVault, CompiledQuery, CubeConfig, ExchangeBus, ExchangeConfig, VaultConfig,
    VaultedExchange,
};
use litsynth_relalg::{Bit, CompiledCircuit, Finder};
use litsynth_sat::{ClauseExchange, SolveBudget};
use std::collections::btree_map::Entry;
use std::sync::Arc;

/// The bits a query is compiled over and branches on: its assertions,
/// the observables and the instruction-kind selectors.
fn cone(asserts: &[Bit], st: &SymbolicTest) -> Vec<Bit> {
    asserts
        .iter()
        .chain(&st.observables)
        .chain(st.kind.iter().flatten())
        .copied()
        .collect()
}

/// The engine's pin-selection config: without a cube split the pins are
/// ranked without probing and then discarded.
fn cube_config(cfg: &SynthConfig) -> CubeConfig {
    CubeConfig {
        adaptive: cfg.adaptive_cubes && cfg.cube_bits > 0,
        probe_conflicts: cfg.probe_conflicts,
    }
}

/// The engine's representative rule: the least serialization wins.
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

/// Where an enumeration's solver comes from and goes back to: a bound's
/// pool of live solvers (sweep path) or a fresh attach (unit path).
struct Solvers<'a> {
    pool: Option<&'a mut Vec<Finder>>,
    vault: Option<&'a Arc<ClauseVault>>,
}

/// Enumerates one unsplit query to exhaustion, exactly as the engine's
/// cube worker does for cube 0 of 1 on its first attempt.
fn enumerate(
    trace: &mut Trace,
    query: &CompiledQuery,
    st: &SymbolicTest,
    asserts: &[Bit],
    cfg: &SynthConfig,
    solvers: Solvers<'_>,
) -> CanonicalSuite {
    let circuit = query.circuit();
    let Solvers { mut pool, vault } = solvers;
    let mut finder = match pool.as_mut().and_then(|p| p.pop()) {
        Some(f) => {
            trace.count("core.pool_reuses", 1);
            f
        }
        None => trace.time("relalg.attach_s", || {
            if cfg.lazy {
                query.attach_lazy()
            } else {
                query.attach()
            }
        }),
    };
    let before = finder.solver_stats();
    finder.set_shelving(cfg.shelve);
    finder.set_domain_enabled(cfg.domain && cfg.incremental);
    finder.set_inprocessing(cfg.inprocess);
    finder.set_tiered_retention(cfg.tiered);
    let guard = pool.as_ref().map(|_| finder.new_guard());
    let roots = cone(asserts, st);
    trace.time("relalg.activate_s", || {
        finder.warm(circuit, roots.iter().copied());
        finder.declare_roots(circuit, &roots);
    });
    let bus = ExchangeBus::new(ExchangeConfig {
        enabled: cfg.exchange && cfg.cube_bits > 0,
        max_lbd: cfg.exchange_max_lbd,
        max_len: cfg.exchange_max_len,
        ..ExchangeConfig::default()
    });
    let endpoint = bus.endpoint(0);
    let fingerprints = query.compiled().cnf().skeleton_fingerprints();
    let mut exchange: Box<dyn ClauseExchange> = match (vault, fingerprints.last().copied()) {
        (Some(v), Some(fp)) => {
            Box::new(VaultedExchange::new(endpoint, v.clone(), fp, fingerprints))
        }
        _ => Box::new(endpoint),
    };
    let budget = SolveBudget::unlimited();
    let extra: Vec<_> = guard.into_iter().collect();
    let mut tests = CanonicalSuite::new();
    let mut canon = TwoTierCanon::new();
    let mut raw = 0u64;
    loop {
        let next = trace.time("sat.search_s", || {
            finder.next_instance_budgeted_assuming(
                circuit,
                asserts,
                &extra,
                exchange.as_mut(),
                &budget,
            )
        });
        let inst = match next {
            Ok(Some(inst)) => inst,
            Ok(None) => break,
            Err(i) => panic!("an unlimited budget cannot interrupt, got {i:?}"),
        };
        raw += 1;
        let (test, outcome) = trace.time("core.extract_s", || st.extract(circuit, &inst));
        let (key, t, o) = trace.time("litmus.canon_s", || canon.canonicalize(&test, &outcome));
        trace.time("core.merge_s", || insert_dedup(&mut tests, key, t, o));
        trace.time("relalg.block_s", || {
            finder.block_guarded(circuit, &inst, &st.observables, guard)
        });
        if raw >= cfg.max_instances as u64 {
            break;
        }
    }
    let after = finder.solver_stats();
    trace.count("sat.propagations", after.propagations - before.propagations);
    trace.count("sat.decisions", after.decisions - before.decisions);
    trace.count("sat.conflicts", after.conflicts - before.conflicts);
    trace.count("core.raw_instances", raw);
    trace.count("litmus.canon_hits", canon.hits());
    trace.count("litmus.canon_misses", canon.misses());
    if let (Some(pool), Some(g)) = (pool, guard) {
        finder.retire_guard(g);
        pool.push(finder);
    }
    tests
}

/// The counters a replay must reproduce exactly (propagations,
/// decisions, raw instances), as `trace` holds them now.
pub fn fidelity_counters(trace: &Trace) -> [u64; 3] {
    ["sat.propagations", "sat.decisions", "core.raw_instances"].map(|c| trace.counter(c))
}

/// Replays `synthesize_union_up_to(model, bounds, SynthConfig::new)`.
pub fn sweep<M: MemoryModel>(
    model: &M,
    bounds: std::ops::RangeInclusive<usize>,
    trace: &mut Trace,
) -> CanonicalSuite {
    let cfgs: Vec<SynthConfig> = bounds.map(SynthConfig::new).collect();
    // One circuit arena and one layer chain for the whole sweep: per
    // bound the skeleton, then one definitional layer per axiom.
    let mut alg = SymAlg::new();
    let mut chain: Option<Arc<CompiledCircuit>> = None;
    let mut shares = Vec::with_capacity(cfgs.len());
    for cfg in &cfgs {
        let (st, asserts) = trace.time("core.circuit_build_s", || {
            let st = SymbolicTest::build(&mut alg, model, cfg);
            let asserts: Vec<Vec<Bit>> = model
                .axioms()
                .iter()
                .map(|&ax| {
                    minimality_asserts_opts(&mut alg, model, &st, ax, cfg.orphan_unconstrained)
                })
                .collect();
            (st, asserts)
        });
        let candidates: Vec<Bit> = st.kind.iter().flatten().copied().collect();
        let roots: Vec<Bit> = st
            .wellformed
            .iter()
            .chain(&st.observables)
            .chain(&candidates)
            .copied()
            .collect();
        let link = trace.time("relalg.tseitin_s", || {
            let mut link = match &chain {
                None => CompiledCircuit::compile_tagged(&alg.circuit, roots, true),
                Some(prev) => CompiledCircuit::extend(prev, &alg.circuit, roots, true),
            };
            for ax_asserts in &asserts {
                link = CompiledCircuit::extend_definitional(
                    &link,
                    &alg.circuit,
                    ax_asserts.iter().copied(),
                    true,
                );
            }
            Arc::new(link)
        });
        chain = Some(link.clone());
        shares.push((st, link, asserts, candidates));
    }
    if let Some(chain) = &chain {
        trace.count("relalg.cnf_clauses", chain.num_clauses() as u64);
    }
    let circuit = Arc::new(alg.into_circuit());
    let vault = ClauseVault::new(VaultConfig::default());
    let mut union = CanonicalSuite::new();
    for (cfg, (st, compiled, asserts, candidates)) in cfgs.iter().zip(shares) {
        // Solvers are pooled per bound: every query of a bound solves the
        // same formula under different assumptions.
        let mut pool: Vec<Finder> = Vec::new();
        for ax_asserts in &asserts {
            let query = trace.time("portfolio.pin_rank_s", || {
                CompiledQuery::from_compiled(
                    circuit.clone(),
                    compiled.clone(),
                    ax_asserts,
                    &candidates,
                    &cube_config(cfg),
                )
            });
            let solvers = Solvers {
                pool: Some(&mut pool),
                vault: Some(&vault),
            };
            let tests = enumerate(trace, &query, &st, ax_asserts, cfg, solvers);
            trace.time("core.merge_s", || {
                for (k, v) in tests {
                    union.entry(k).or_insert(v);
                }
            });
        }
    }
    let v = vault.stats();
    trace.count("portfolio.vault_published", v.published);
    trace.count("portfolio.vault_imported", v.imported);
    union
}

/// Replays `run_unit(model, plan)`: one (axiom, bound) query, compiled
/// on its own and enumerated on a fresh solver.
pub fn unit<M: MemoryModel>(model: &M, plan: &UnitPlan, trace: &mut Trace) -> CanonicalSuite {
    let cfg = &plan.cfg;
    let (st, asserts, circuit) = trace.time("core.circuit_build_s", || {
        let mut alg = SymAlg::new();
        let st = SymbolicTest::build(&mut alg, model, cfg);
        let asserts =
            minimality_asserts_opts(&mut alg, model, &st, plan.axiom, cfg.orphan_unconstrained);
        (st, asserts, alg.into_circuit())
    });
    let candidates: Vec<Bit> = st.kind.iter().flatten().copied().collect();
    let roots: Vec<Bit> = asserts
        .iter()
        .chain(&st.observables)
        .chain(&candidates)
        .copied()
        .collect();
    let compiled = trace.time("relalg.tseitin_s", || {
        Arc::new(CompiledCircuit::compile(&circuit, roots))
    });
    trace.count("relalg.cnf_clauses", compiled.num_clauses() as u64);
    let query = trace.time("portfolio.pin_rank_s", || {
        CompiledQuery::from_compiled(
            Arc::new(circuit),
            compiled,
            &asserts,
            &candidates,
            &cube_config(cfg),
        )
    });
    let solvers = Solvers {
        pool: None,
        vault: None,
    };
    enumerate(trace, &query, &st, &asserts, cfg, solvers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use litsynth_core::{
        encode_suite_body, plan_units, run_unit, synthesize_union_up_to_with_stats,
    };
    use litsynth_models::{Power, Tso};

    /// Sweep and unit replays must match the engine byte for byte and
    /// counter for counter; otherwise the per-layer split describes some
    /// other computation than the one the end-to-end numbers time.
    fn assert_replays_match_the_engine<M: MemoryModel + Sync>(model: &M) {
        let (suite, stats) = synthesize_union_up_to_with_stats(model, 2..=3, SynthConfig::new);
        let mut trace = Trace::default();
        let replayed = sweep(model, 2..=3, &mut trace);
        assert_eq!(encode_suite_body(&replayed), encode_suite_body(&suite));
        assert_eq!(trace.counter("sat.propagations"), stats.propagations);
        assert_eq!(trace.counter("sat.decisions"), stats.decisions);
        assert_eq!(trace.counter("core.raw_instances"), stats.raw_instances);
        assert_eq!(
            trace.counter("portfolio.vault_published"),
            stats.vault.published
        );
        assert_eq!(
            trace.counter("portfolio.vault_imported"),
            stats.vault.imported
        );
        assert!(
            trace.counter("core.pool_reuses") > 0,
            "pooled solvers are reused"
        );

        for plan in plan_units(model, 2..=3, SynthConfig::new) {
            let r = run_unit(model, &plan);
            let mut trace = Trace::default();
            let replayed = unit(model, &plan, &mut trace);
            let key = &plan.unit.key;
            assert_eq!(
                encode_suite_body(&replayed),
                encode_suite_body(&r.tests),
                "{key}"
            );
            assert_eq!(trace.counter("sat.propagations"), r.propagations, "{key}");
            assert_eq!(trace.counter("sat.decisions"), r.decisions, "{key}");
            assert_eq!(
                trace.counter("core.raw_instances"),
                r.raw_instances as u64,
                "{key}"
            );
        }
    }

    #[test]
    fn tso_replays_match_the_engine_exactly() {
        assert_replays_match_the_engine(&Tso::new());
    }

    #[test]
    fn power_replays_match_the_engine_exactly() {
        assert_replays_match_the_engine(&Power::new());
    }
}
