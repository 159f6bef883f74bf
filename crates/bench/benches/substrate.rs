//! Microbenchmarks of the substrates: the CDCL solver, the circuit
//! compiler, the explicit oracle, and the canonicalizers. These support
//! the ablation discussion in EXPERIMENTS.md (hash vs exact
//! canonicalization, oracle vs SAT minimality).
//!
//! Uses the in-tree timing harness (`litsynth_bench::timing`) — the
//! workspace carries no external dependencies.

#![allow(clippy::needless_range_loop)]

use litsynth_bench::timing::Group;
use litsynth_core::check_minimal;
use litsynth_litmus::suites::classics;
use litsynth_litmus::{canonical_key_exact, canonical_key_hash};
use litsynth_models::{oracle, Tso};
use litsynth_sat::{Lit, NoExchange, SolveBudget, Solver, Var};

fn pigeonhole(n: usize) -> Solver {
    let m = n - 1;
    let mut s = Solver::new();
    let p: Vec<Vec<Var>> = (0..n)
        .map(|_| (0..m).map(|_| s.new_var()).collect())
        .collect();
    for row in &p {
        s.add_clause(row.iter().map(|&v| Lit::pos(v)));
    }
    for j in 0..m {
        for i1 in 0..n {
            for i2 in (i1 + 1)..n {
                s.add_clause([Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
            }
        }
    }
    s
}

fn main() {
    let mut g = Group::new("substrate", 20);
    g.bench("sat/pigeonhole_7_into_6", || {
        let mut s = pigeonhole(7);
        assert!(!s
            .solve(&[], &mut NoExchange, &SolveBudget::unlimited())
            .is_sat());
    });

    let (wrc, o) = classics::wrc();
    g.bench("oracle/wrc_forbidden_tso", || {
        assert!(oracle::forbidden(&Tso::new(), &wrc, &o))
    });
    g.bench("oracle/wrc_minimality_tso", || {
        check_minimal(&Tso::new(), "causality", &wrc, &o)
    });

    g.bench("canon/exact_wrc", || canonical_key_exact(&wrc, &o));
    g.bench("canon/hash_wrc", || canonical_key_hash(&wrc, &o));
}
