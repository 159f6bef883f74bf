//! Adaptive cube selection.
//!
//! Cube splitting partitions one enumeration into `2^b` disjoint subqueries
//! by pinning `b` observed bits to every boolean pattern. *Which* bits are
//! pinned decides how balanced the split is: pinning bits the search never
//! branches on produces one giant cube and `2^b − 1` trivial ones. Instead
//! of the fixed slot-0 rule (first `b` selector bits in slot order), the
//! portfolio runs a short conflict-bounded probing solve on the compiled
//! query and ranks the candidate bits by the VSIDS activity the probe left
//! behind — the variables the solver actually fought over are the ones
//! worth splitting on.
//!
//! Selection is a pure function of the compiled query: the probe is
//! deterministic, ties break by candidate order, and the ranking is shared
//! by all workers — so suites stay byte-identical to the sequential path at
//! every setting.

use litsynth_relalg::{Bit, Circuit, CompiledCircuit, Finder};
use litsynth_sat::{NoExchange, SolveBudget};
use std::collections::HashSet;

/// Ranks `candidates` as cube-pin bits for the query `asserts` over the
/// compiled circuit, best pin first.
///
/// Constant bits and candidates sharing a circuit node with an earlier one
/// are dropped (pinning them would not split, or would split unevenly and
/// unsoundly); compilation gives every node its own CNF variable, so this
/// is the same as deduplicating by variable. With `probe_conflicts == 0`
/// the surviving candidates keep their given order — the classic slot-0
/// rule, which needs no solver; otherwise a conflict-budgeted probing
/// solve ranks them by VSIDS activity (descending, ties by candidate
/// order).
pub fn rank_pins(
    c: &Circuit,
    compiled: &CompiledCircuit,
    asserts: &[Bit],
    candidates: &[Bit],
    probe_conflicts: u64,
) -> Vec<Bit> {
    let mut seen_nodes: HashSet<usize> = HashSet::new();
    let uniq: Vec<Bit> = candidates
        .iter()
        .copied()
        .filter(|&b| b != Circuit::TRUE && b != Circuit::FALSE && seen_nodes.insert(b.node()))
        .collect();
    if probe_conflicts == 0 || uniq.len() <= 1 {
        return uniq;
    }
    // The probe is thrown away after at most `probe_conflicts` conflicts,
    // so it skips level-0 inprocessing: its activities then come from
    // plain search alone.
    let mut f = Finder::attach(compiled);
    f.set_inprocessing(false);
    // Focus the probe on this query's cone. On a sweep-shared layer chain
    // the compiled formula also carries other bounds' and axioms' layers;
    // an unwarmed probe would burn its conflict budget deciding those dead
    // variables in index order. Warming is a pure function of the query,
    // so the ranking stays deterministic.
    f.warm(c, asserts.iter().chain(&uniq).copied());
    let budget = SolveBudget::conflicts(probe_conflicts);
    let _ = f.next_instance_budgeted_assuming(c, asserts, &[], &mut NoExchange, &budget);
    let mut scored: Vec<(usize, Bit, f64)> = uniq
        .into_iter()
        .enumerate()
        .map(|(i, b)| {
            let a = f.activity_of(c, b);
            (i, b, a)
        })
        .collect();
    scored.sort_by(|x, y| {
        y.2.partial_cmp(&x.2)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(x.0.cmp(&y.0))
    });
    scored.into_iter().map(|(_, b, _)| b).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_duplicate_vars_are_dropped() {
        let mut c = Circuit::new();
        let x = c.input("x");
        let y = c.input("y");
        let candidates = [Circuit::TRUE, x, x.not(), y, Circuit::FALSE, x];
        let compiled = CompiledCircuit::compile(&c, [x, y]);
        let pins = rank_pins(&c, &compiled, &[], &candidates, 0);
        assert_eq!(pins, vec![x, y]);
    }

    #[test]
    fn ranking_is_deterministic() {
        let mut c = Circuit::new();
        let xs: Vec<Bit> = (0..6).map(|i| c.input(format!("x{i}"))).collect();
        // A lopsided formula: conflicts concentrate on x0..x2.
        let a = c.xor(xs[0], xs[1]);
        let b = c.xor(xs[1], xs[2]);
        let g = c.and(a, b);
        let roots: Vec<Bit> = [g].into_iter().chain(xs.iter().copied()).collect();
        let compiled = CompiledCircuit::compile(&c, roots);
        let r1 = rank_pins(&c, &compiled, &[g], &xs, 100);
        let r2 = rank_pins(&c, &compiled, &[g], &xs, 100);
        assert_eq!(r1, r2);
        assert_eq!(r1.len(), xs.len(), "ranking permutes, never drops");
        let mut sorted = r1.clone();
        sorted.sort();
        let mut all = xs.clone();
        all.sort();
        assert_eq!(sorted, all);
    }
}
