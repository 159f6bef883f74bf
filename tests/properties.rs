//! Property-based tests over randomly generated litmus tests, relations,
//! and CNF formulas.
//!
//! The cases are driven by the in-tree [`SplitMix64`] PRNG with fixed
//! seeds, so every run checks the identical case set (no external
//! property-testing dependency, no flaky shrink phase).

use litsynth_core::{applications, apply};
use litsynth_litmus::{
    apply_thread_order, canonical_key_exact, Execution, Instr, LitmusTest, Outcome, Rel, SplitMix64,
};
use litsynth_models::{oracle, Power, Sc, Tso};

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// A random relaxed instruction (load/store over ≤3 addresses, or a full
/// fence).
fn gen_instr(rng: &mut SplitMix64, allow_fence: bool) -> Instr {
    let upper = if allow_fence { 7 } else { 5 };
    match rng.range(0, upper) as u8 {
        k @ 0..=2 => Instr::load(k),
        k @ 3..=5 => Instr::store(k - 3),
        _ => Instr::fence(litsynth_litmus::FenceKind::Full),
    }
}

/// A random multi-threaded program: 1–3 threads of 1–3 events each.
fn gen_test(rng: &mut SplitMix64, allow_fence: bool) -> LitmusTest {
    let threads: Vec<Vec<Instr>> = (0..rng.range(1, 3))
        .map(|_| {
            (0..rng.range(1, 3))
                .map(|_| gen_instr(rng, allow_fence))
                .collect()
        })
        .collect();
    LitmusTest::new("prop", threads)
}

/// A random (program, complete outcome) pair: the outcome of a random
/// candidate execution.
fn gen_test_outcome(rng: &mut SplitMix64, allow_fence: bool) -> (LitmusTest, Outcome) {
    let t = gen_test(rng, allow_fence);
    let execs = Execution::enumerate(&t);
    let o = execs[rng.below(execs.len())].outcome();
    (t, o)
}

/// A random relation on `n` atoms with up to `2n` pairs.
fn gen_rel(rng: &mut SplitMix64, n: usize) -> Rel {
    let pairs: Vec<(usize, usize)> = (0..rng.below(n * 2 + 1))
        .map(|_| (rng.below(n), rng.below(n)))
        .collect();
    Rel::from_pairs(n, pairs)
}

// ---------------------------------------------------------------------
// Canonicalization properties
// ---------------------------------------------------------------------

/// The exact canonical key is invariant under thread permutation.
#[test]
fn exact_canonical_key_thread_invariant() {
    let mut rng = SplitMix64::new(0x7001);
    for _ in 0..64 {
        let (t, o) = gen_test_outcome(&mut rng, true);
        let base = canonical_key_exact(&t, &o);
        let mut order: Vec<usize> = (0..t.num_threads()).collect();
        rng.shuffle(&mut order);
        let (t2, o2) = apply_thread_order(&t, &o, &order);
        assert_eq!(canonical_key_exact(&t2, &o2), base, "{t} under {order:?}");
    }
}

/// Canonicalization never changes legality: a model's verdict on the
/// canonical form equals its verdict on the original.
#[test]
fn canonicalization_preserves_legality() {
    let mut rng = SplitMix64::new(0x7002);
    let tso = Tso::new();
    for _ in 0..64 {
        let (t, o) = gen_test_outcome(&mut rng, true);
        let before = oracle::observable(&tso, &t, &o);
        let (_, ct, co) = litsynth_litmus::canonicalize_exact(&t, &o);
        let after = oracle::observable(&tso, &ct, &co);
        assert_eq!(before, after, "{t}");
    }
}

// ---------------------------------------------------------------------
// Relaxation properties
// ---------------------------------------------------------------------

/// Weakening monotonicity: relaxing a test never *un*-observes an
/// outcome — every relaxation application preserves observability.
#[test]
fn relaxations_preserve_observability() {
    let mut rng = SplitMix64::new(0x7003);
    let tso = Tso::new();
    for _ in 0..48 {
        let (t, o) = gen_test_outcome(&mut rng, true);
        if oracle::observable(&tso, &t, &o) {
            for app in applications(&tso, &t) {
                let (t2, o2) = apply(&t, &o, app);
                assert!(
                    oracle::observable(&tso, &t2, &o2),
                    "{} un-observed by {}",
                    t,
                    app.describe()
                );
            }
        }
    }
}

/// Model strength chain on the common vocabulary (no deps, no RMWs):
/// SC-observable ⊆ TSO-observable ⊆ Power-observable.
#[test]
fn model_strength_chain() {
    let mut rng = SplitMix64::new(0x7004);
    let sc = Sc::new();
    let tso = Tso::new();
    let power = Power::new();
    for _ in 0..48 {
        let (t, o) = gen_test_outcome(&mut rng, true);
        if oracle::observable(&sc, &t, &o) {
            assert!(oracle::observable(&tso, &t, &o), "SC ⊆ TSO on {}", t);
        }
        if oracle::observable(&tso, &t, &o) {
            assert!(oracle::observable(&power, &t, &o), "TSO ⊆ Power on {}", t);
        }
    }
}

/// Every candidate execution's outcome is either observable or
/// forbidden — and `forbidden` is the exact complement.
#[test]
fn forbidden_is_complement_of_observable() {
    let mut rng = SplitMix64::new(0x7005);
    let tso = Tso::new();
    for _ in 0..48 {
        let (t, o) = gen_test_outcome(&mut rng, true);
        assert_eq!(
            oracle::forbidden(&tso, &t, &o),
            !oracle::observable(&tso, &t, &o),
            "{t}"
        );
    }
}

// ---------------------------------------------------------------------
// Concrete relation algebra properties
// ---------------------------------------------------------------------

#[test]
fn compose_is_associative() {
    let mut rng = SplitMix64::new(0x7006);
    for _ in 0..128 {
        let a = gen_rel(&mut rng, 5);
        let b = gen_rel(&mut rng, 5);
        let c = gen_rel(&mut rng, 5);
        assert_eq!(a.compose(&b).compose(&c), a.compose(&b.compose(&c)));
    }
}

#[test]
fn closure_is_idempotent() {
    let mut rng = SplitMix64::new(0x7007);
    for _ in 0..128 {
        let a = gen_rel(&mut rng, 6);
        let tc = a.transitive_closure();
        assert_eq!(tc.transitive_closure(), tc.clone());
        // And the closure is transitive by definition.
        assert!(tc.compose(&tc).is_subset(&tc));
    }
}

#[test]
fn transpose_is_involutive() {
    let mut rng = SplitMix64::new(0x7008);
    for _ in 0..128 {
        let a = gen_rel(&mut rng, 6);
        assert_eq!(a.transpose().transpose(), a);
    }
}

#[test]
fn de_morgan_for_union_intersection() {
    let mut rng = SplitMix64::new(0x7009);
    for _ in 0..128 {
        let a = gen_rel(&mut rng, 5);
        let b = gen_rel(&mut rng, 5);
        // (a ∪ b)ᵀ = aᵀ ∪ bᵀ and (a ∩ b)ᵀ = aᵀ ∩ bᵀ.
        assert_eq!(a.union(&b).transpose(), a.transpose().union(&b.transpose()));
        assert_eq!(
            a.intersect(&b).transpose(),
            a.transpose().intersect(&b.transpose())
        );
    }
}

#[test]
fn acyclic_iff_no_self_reachability() {
    let mut rng = SplitMix64::new(0x700A);
    for _ in 0..128 {
        let a = gen_rel(&mut rng, 6);
        let tc = a.transitive_closure();
        let has_loop = (0..6).any(|i| tc.contains(i, i));
        assert_eq!(a.is_acyclic(), !has_loop);
    }
}

#[test]
fn permutation_preserves_execution_count() {
    let mut rng = SplitMix64::new(0x700B);
    for _ in 0..128 {
        // The candidate-execution count is invariant under thread renaming.
        let threads: Vec<Vec<Instr>> = (0..rng.range(1, 3))
            .map(|_| {
                (0..rng.range(1, 2))
                    .map(|_| gen_instr(&mut rng, false))
                    .collect()
            })
            .collect();
        let t = LitmusTest::new("p", threads);
        let count = Execution::enumerate(&t).len();
        let order: Vec<usize> = (0..t.num_threads()).rev().collect();
        let (t2, _) = apply_thread_order(&t, &Outcome::empty(), &order);
        assert_eq!(Execution::enumerate(&t2).len(), count);
    }
}

// ---------------------------------------------------------------------
// SAT solver properties
// ---------------------------------------------------------------------

/// A random CNF: `max_clauses` clauses of 1–3 literals over `vars` vars.
fn gen_cnf(rng: &mut SplitMix64, vars: usize, max_clauses: usize) -> Vec<Vec<(usize, bool)>> {
    (0..rng.range(1, max_clauses))
        .map(|_| {
            (0..rng.range(1, 3))
                .map(|_| (rng.below(vars), rng.bool()))
                .collect()
        })
        .collect()
}

/// CDCL agrees with brute force on random small CNFs.
#[test]
fn solver_matches_brute_force() {
    use litsynth_sat::{Lit, NoExchange, SolveBudget, Solver, Var};
    let mut rng = SplitMix64::new(0x700C);
    for _ in 0..96 {
        let clauses = gen_cnf(&mut rng, 6, 24);
        let brute = (0u32..64).any(|m| {
            clauses
                .iter()
                .all(|c| c.iter().any(|&(v, pos)| ((m >> v) & 1 == 1) == pos))
        });
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..6).map(|_| s.new_var()).collect();
        for c in &clauses {
            s.add_clause(c.iter().map(|&(v, pos)| Lit::new(vars[v], pos)));
        }
        let got = s.solve(&[], &mut NoExchange, &SolveBudget::unlimited());
        assert_eq!(got.is_sat(), brute, "{clauses:?}");
    }
}

// ---------------------------------------------------------------------
// Model differential: symbolic vs concrete evaluation
// ---------------------------------------------------------------------

/// Builds a symbolic context whose every bit is the *constant* matching a
/// concrete execution, evaluates an axiom through `SymAlg`, and compares
/// with `ConcreteAlg`. Because the models are generic over the algebra,
/// this checks the two instantiations agree gate-for-gate.
fn symbolic_equals_concrete<M: litsynth_models::MemoryModel>(
    model: &M,
    t: &LitmusTest,
    e: &Execution,
) -> bool {
    use litsynth_models::{concrete_ctx, ConcreteAlg, Ctx, SymAlg};
    use litsynth_relalg::{Circuit, Matrix1, Matrix2};

    let cctx = concrete_ctx(t, e, &[]);
    let n = t.num_events();
    let lift_set = |s: &litsynth_models::CSet| {
        Matrix1::from_bits(
            (0..n)
                .map(|i| {
                    if s.mask >> i & 1 == 1 {
                        Circuit::TRUE
                    } else {
                        Circuit::FALSE
                    }
                })
                .collect(),
        )
    };
    let lift_rel = |r: &Rel| {
        let mut m = Matrix2::empty(n, n);
        for (i, j) in r.pairs() {
            m.set(i, j, Circuit::TRUE);
        }
        m
    };
    let sctx = Ctx::<SymAlg> {
        n,
        read: lift_set(&cctx.read),
        write: lift_set(&cctx.write),
        fence_full: lift_set(&cctx.fence_full),
        fence_lw: lift_set(&cctx.fence_lw),
        fence_acqrel: lift_set(&cctx.fence_acqrel),
        fence_acq: lift_set(&cctx.fence_acq),
        fence_rel: lift_set(&cctx.fence_rel),
        acquire: lift_set(&cctx.acquire),
        release: lift_set(&cctx.release),
        seqcst: lift_set(&cctx.seqcst),
        consume: lift_set(&cctx.consume),
        po: lift_rel(&cctx.po),
        loc: lift_rel(&cctx.loc),
        rf: lift_rel(&cctx.rf),
        co: lift_rel(&cctx.co),
        addr_dep: lift_rel(&cctx.addr_dep),
        data_dep: lift_rel(&cctx.data_dep),
        ctrl_dep: lift_rel(&cctx.ctrl_dep),
        ctrlisync_dep: lift_rel(&cctx.ctrlisync_dep),
        rmw: lift_rel(&cctx.rmw),
        sc: lift_rel(&cctx.sc),
        int: lift_rel(&cctx.int),
        ext: lift_rel(&cctx.ext),
        orphan: lift_set(&cctx.orphan),
    };
    let mut calg = litsynth_models::ConcreteAlg;
    let _: ConcreteAlg = calg;
    let mut salg = SymAlg::new();
    model.axioms().iter().all(|ax| {
        let want = model.axiom(&mut calg, &cctx, ax);
        let bit = model.axiom(&mut salg, &sctx, ax);
        // Constant inputs fold to constants.
        bit == if want { Circuit::TRUE } else { Circuit::FALSE }
    })
}

/// For random tests and executions, every model's axioms evaluate the
/// same through both algebra instantiations.
#[test]
fn models_agree_symbolically_and_concretely() {
    let mut rng = SplitMix64::new(0x700E);
    for _ in 0..32 {
        let t = gen_test(&mut rng, true);
        let execs = Execution::enumerate(&t);
        let e = &execs[rng.below(execs.len())];
        assert!(symbolic_equals_concrete(&Sc::new(), &t, e), "SC on {t}");
        assert!(symbolic_equals_concrete(&Tso::new(), &t, e), "TSO on {t}");
        assert!(
            symbolic_equals_concrete(&Power::new(), &t, e),
            "Power on {t}"
        );
        assert!(
            symbolic_equals_concrete(&litsynth_models::Power::armv7(), &t, e),
            "ARMv7 on {t}"
        );
        assert!(
            symbolic_equals_concrete(&litsynth_models::C11::new(), &t, e),
            "C11 on {t}"
        );
    }
}
