//! Counting the space of all litmus-test programs (Figure 13a's "All
//! Progs" line): the exponential blow-up the minimality criterion prunes.
//!
//! The count is exact for programs with *ordered* threads, canonical
//! addresses (first-use labelling), and the model's instruction
//! vocabulary; it is computed by dynamic programming, not enumeration, so
//! it scales to any bound.

use crate::symbolic::{vocabulary, Shape};
use litsynth_models::MemoryModel;

/// Number of well-formed programs of exactly `events` instructions over
/// `model`'s vocabulary, with at most `max_addrs` distinct addresses.
///
/// Threads are ordered (every composition of `events` into non-empty
/// segments counts once); addresses are canonical (first use of the k-th
/// address is labelled k), which undercounts nothing and overcounts
/// nothing.
pub fn count_programs<M: MemoryModel>(model: &M, events: usize, max_addrs: usize) -> u128 {
    let vocab = vocabulary(model);
    let mem_shapes = vocab
        .iter()
        .filter(|s| !matches!(s, Shape::Fence(_)))
        .count() as u128;
    let fence_shapes = vocab.len() as u128 - mem_shapes;
    if events == 0 {
        return 0;
    }
    // f[a] = #ways to choose shapes+addresses for the events so far with
    // exactly `a` addresses used.
    let mut f = vec![0u128; max_addrs + 1];
    f[0] = 1;
    for _ in 0..events {
        let mut next = vec![0u128; max_addrs + 1];
        for (a, &ways) in f.iter().enumerate() {
            if ways == 0 {
                continue;
            }
            // A fence: no address.
            next[a] += ways * fence_shapes;
            // A memory access reusing one of the `a` addresses.
            next[a] += ways * mem_shapes * a as u128;
            // A memory access introducing a fresh address.
            if a < max_addrs {
                next[a + 1] += ways * mem_shapes;
            }
        }
        f = next;
    }
    let shape_addr: u128 = f.iter().sum();
    // Thread structure: any composition of `events` into non-empty ordered
    // segments — 2^(events-1) break patterns.
    shape_addr * (1u128 << (events - 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use litsynth_models::{Sc, Tso};

    #[test]
    fn single_event_counts() {
        // SC: 1 load + 1 store shape, 1 address each, 1 thread.
        assert_eq!(count_programs(&Sc::new(), 1, 3), 2);
        // TSO adds mfence, but a 1-instruction program may be a fence.
        assert_eq!(count_programs(&Tso::new(), 1, 3), 3);
    }

    #[test]
    fn two_event_counts_by_hand() {
        // SC, 2 events, ≤2 addrs: shapes 2×2=4; addresses: both events
        // memory: (a=1): second reuses → 1 way; (a=2): fresh → 1 way ⇒ 2
        // address patterns; total shape·addr = 4·2 = 8; threads: 2
        // compositions ⇒ 16.
        assert_eq!(count_programs(&Sc::new(), 2, 2), 16);
    }

    #[test]
    fn growth_is_exponential() {
        let m = Tso::new();
        let mut prev = 1u128;
        for n in 1..=8 {
            let c = count_programs(&m, n, 3);
            assert!(c > prev, "n={n}");
            prev = c;
        }
        // Order-of-magnitude check against the paper's figure: thousands by
        // n=4, millions well before n=8.
        assert!(count_programs(&m, 4, 3) > 1_000);
        assert!(count_programs(&m, 8, 3) > 1_000_000);
    }

    #[test]
    fn zero_events_is_zero() {
        assert_eq!(count_programs(&Sc::new(), 0, 3), 0);
    }
}
