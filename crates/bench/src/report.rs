//! Report helpers: cumulative union suites and exhaustive ground-truth
//! enumeration for the soundness experiment.

use litsynth_core::{SymbolicTest, SynthConfig};
use litsynth_litmus::{canonical_key_exact, Execution, LitmusTest, Outcome};
use litsynth_models::{MemoryModel, SymAlg};
use litsynth_relalg::{Bit, Finder};
use litsynth_sat::{NoExchange, SolveBudget};
use std::collections::BTreeMap;

/// Synthesizes the union suite over a bound range on one thread with a
/// per-query time budget (milliseconds).
///
/// When `LITSYNTH_RESUME` is set (see [`litsynth_core::env_journal`]),
/// completed queries checkpoint to the journal and a re-run replays them
/// instead of re-solving — still byte-identical, because only exact
/// (non-truncated, non-degraded) queries are ever recorded.
pub fn union_suite<M: MemoryModel + Sync>(
    model: &M,
    bounds: std::ops::RangeInclusive<usize>,
    budget_ms: u64,
) -> BTreeMap<String, (LitmusTest, Outcome)> {
    litsynth_core::synthesize_union_up_to(model, bounds, |n| {
        let mut cfg = SynthConfig::new(n);
        cfg.time_budget_ms = budget_ms;
        cfg.journal = litsynth_core::env_journal();
        cfg
    })
}

/// The program-level bits of `st` (event kinds, threads, addresses,
/// dependencies, RMW pairs): blocking an instance on these alone
/// enumerates programs rather than executions.
fn static_bits(st: &SymbolicTest) -> Vec<Bit> {
    let mut bits: Vec<Bit> = Vec::new();
    for e in 0..st.n {
        bits.extend(st.kind[e].iter().copied());
        bits.extend(st.thread[e].iter().copied());
        bits.extend(st.addr[e].iter().copied());
    }
    for m in st.deps.values() {
        for i in 0..st.n {
            for j in (i + 1)..st.n {
                bits.push(m.get(i, j));
            }
        }
    }
    if st.has_rmw {
        for e in 0..st.n.saturating_sub(1) {
            bits.push(st.rmw.get(e, e + 1));
        }
    }
    bits
}

/// Exhaustively enumerates every well-formed canonical program of exactly
/// `n` events together with every distinct candidate outcome — the ground
/// truth for the soundness experiment. Only viable at small `n`.
pub fn enumerate_all_tests<M: MemoryModel>(model: &M, n: usize) -> Vec<(LitmusTest, Outcome)> {
    let cfg = SynthConfig::new(n);
    let mut alg = SymAlg::new();
    let st = SymbolicTest::build(&mut alg, model, &cfg);
    let static_bits = static_bits(&st);
    let circuit = alg.into_circuit();
    let mut finder = Finder::new(&circuit);
    let budget = SolveBudget::unlimited();
    let mut programs: BTreeMap<String, LitmusTest> = BTreeMap::new();
    while let Some(inst) = finder
        .next_instance_budgeted_assuming(&circuit, &st.wellformed, &[], &mut NoExchange, &budget)
        .expect("an unlimited budget never interrupts")
    {
        let (test, _) = st.extract(&circuit, &inst);
        programs
            .entry(canonical_key_exact(&test, &Outcome::empty()))
            .or_insert(test);
        finder.block_guarded(&circuit, &inst, &static_bits, None);
    }
    // All candidate outcomes per program.
    let mut out = Vec::new();
    for test in programs.into_values() {
        let mut outcomes: Vec<Outcome> = Execution::enumerate(&test)
            .iter()
            .map(|e| e.outcome())
            .collect();
        outcomes.sort();
        outcomes.dedup();
        for o in outcomes {
            out.push((test.clone(), o));
        }
    }
    out
}

/// Counts well-formed programs by raw SAT enumeration (static bits
/// blocked, no canonical dedup) — the ground truth for
/// `litsynth_core::count_programs`' DP, modulo the synthesizer's extra
/// no-boundary-fence pruning.
pub fn count_programs_sat<M: MemoryModel>(model: &M, n: usize) -> usize {
    let cfg = SynthConfig::new(n);
    let mut alg = SymAlg::new();
    let st = SymbolicTest::build(&mut alg, model, &cfg);
    let static_bits = static_bits(&st);
    let circuit = alg.into_circuit();
    let mut finder = Finder::new(&circuit);
    let budget = SolveBudget::unlimited();
    let mut count = 0;
    while let Some(inst) = finder
        .next_instance_budgeted_assuming(&circuit, &st.wellformed, &[], &mut NoExchange, &budget)
        .expect("an unlimited budget never interrupts")
    {
        count += 1;
        finder.block_guarded(&circuit, &inst, &static_bits, None);
        assert!(count < 5_000_000, "runaway enumeration");
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use litsynth_models::Sc;

    #[test]
    fn exhaustive_enumeration_bound_2_sc() {
        let all = enumerate_all_tests(&Sc::new(), 2);
        // Programs of 2 events over {Ld,St} with ≤2 addrs and 1–2 threads:
        // a modest, definite number; every (test, outcome) is realizable.
        assert!(!all.is_empty());
        for (t, o) in &all {
            assert_eq!(t.num_events(), 2);
            let ok = Execution::enumerate(t)
                .iter()
                .any(|e| o.matches(&e.outcome()));
            assert!(ok);
        }
        // Distinct canonical programs only.
        let mut keys: Vec<String> = all
            .iter()
            .map(|(t, _)| canonical_key_exact(t, &Outcome::empty()))
            .collect();
        keys.sort();
        keys.dedup();
        assert!(keys.len() >= 6, "saw {} programs", keys.len());
    }

    #[test]
    fn dp_count_matches_sat_enumeration_for_sc() {
        // SC has no fences (so the synthesizer's boundary-fence pruning is
        // vacuous), no deps, no RMW pairs: the closed-form program count
        // must equal raw SAT enumeration exactly.
        let m = Sc::new();
        for n in 1..=3usize {
            let dp = litsynth_core::count_programs(&m, n, n.min(3));
            let sat = count_programs_sat(&m, n) as u128;
            assert_eq!(dp, sat, "n={n}");
        }
    }

    #[test]
    fn dp_count_upper_bounds_sat_enumeration_for_tso() {
        // TSO adds fences, deps are absent, RMW pairs add structure beyond
        // the DP (which counts shapes only) — but boundary-fence pruning
        // also removes programs, so just sanity-check the relationship at
        // n=2: DP counts fence-only programs the synthesizer prunes.
        let m = litsynth_models::Tso::new();
        let dp = litsynth_core::count_programs(&m, 2, 2);
        let sat = count_programs_sat(&m, 2) as u128;
        // With 2 events, any fence is at a boundary; SAT sees none, but
        // gains rmw-pair placements. Both are modest finite numbers.
        assert!(sat > 0 && dp > 0);
        assert!(sat < 200 && dp < 200);
    }

    #[test]
    fn union_suite_accumulates_across_bounds() {
        let m = Sc::new();
        let u2 = union_suite(&m, 2..=2, 30_000);
        let u3 = union_suite(&m, 2..=3, 30_000);
        assert!(u3.len() > u2.len());
        for k in u2.keys() {
            assert!(u3.contains_key(k));
        }
    }
}
