use super::tests::{run, run_with};
use super::*;
use crate::budget::{BudgetedResult, Interrupt, SolveBudget};
use crate::exchange::ClauseExchange;
use crate::shared::CnfBuilder;
use crate::NoExchange;

/// A toy exchange endpoint: an unbounded in-memory pool with a read
/// cursor, no filtering. The real bounded/filtered bus lives in
/// `crates/portfolio`.
#[derive(Default)]
struct BufferExchange {
    pool: Vec<(Vec<Lit>, u32, bool)>,
    cursor: usize,
}

impl ClauseExchange for BufferExchange {
    fn export(&mut self, lits: &[Lit], lbd: u32, skeleton: bool) {
        self.pool.push((lits.to_vec(), lbd, skeleton));
    }
    fn fetch(&mut self, out: &mut Vec<(Vec<Lit>, u32, bool)>) {
        out.extend(self.pool[self.cursor..].iter().cloned());
        self.cursor = self.pool.len();
    }
}

fn exactly_one(n: usize) -> (std::sync::Arc<SharedCnf>, Vec<Var>) {
    let mut b = CnfBuilder::new();
    let vs: Vec<Var> = (0..n).map(|_| b.new_var()).collect();
    b.add_clause(vs.iter().map(|&v| Lit::pos(v)));
    for i in 0..n {
        for j in (i + 1)..n {
            b.add_clause([Lit::neg(vs[i]), Lit::neg(vs[j])]);
        }
    }
    (std::sync::Arc::new(b.build()), vs)
}

/// Enumerates all models over `vs` (blocking each found model), using
/// `exchange` for clause traffic. Returns the sorted model set.
fn enumerate(
    s: &mut Solver,
    vs: &[Var],
    assumptions: &[Lit],
    exchange: &mut dyn ClauseExchange,
) -> Vec<Vec<bool>> {
    let mut models = Vec::new();
    while run_with(s, assumptions, exchange).is_sat() {
        let m: Vec<bool> = vs.iter().map(|&v| s.value(v).unwrap()).collect();
        let block: Vec<Lit> = vs.iter().zip(&m).map(|(&v, &b)| Lit::new(v, !b)).collect();
        models.push(m);
        s.add_clause(block);
    }
    models.sort();
    models
}

#[test]
fn attached_solver_matches_brute_force() {
    // Random formulas split over 1–4 layers (so clause lookups cross layer
    // boundaries), with binary clauses common enough to drive the binary
    // watcher path on SAT and UNSAT formulas alike. Each formula is
    // attached eagerly and lazily and enumerated to exhaustion; with no
    // definitional layer both must search identically.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let (mut sat_rounds, mut unsat_rounds) = (0, 0);
    for round in 0..200 {
        let n_vars = 3 + (next() % 6) as usize;
        let n_clauses = 2 + (next() % 20) as usize;
        let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
        for _ in 0..n_clauses {
            let len = if next() % 3 == 0 {
                2
            } else {
                1 + (next() % 3) as usize
            };
            let mut c = Vec::new();
            for _ in 0..len {
                c.push(((next() as usize) % n_vars, next() % 2 == 0));
            }
            clauses.push(c);
        }
        let mut brute: Vec<Vec<bool>> = (0..1u32 << n_vars)
            .filter(|m| {
                clauses
                    .iter()
                    .all(|c| c.iter().any(|&(v, pos)| ((m >> v) & 1 == 1) == pos))
            })
            .map(|m| (0..n_vars).map(|v| (m >> v) & 1 == 1).collect())
            .collect();
        brute.sort();
        if brute.is_empty() {
            unsat_rounds += 1;
        } else {
            sat_rounds += 1;
        }
        let n_layers = 1 + (next() % 4) as usize;
        let mut b = CnfBuilder::new();
        let vs: Vec<Var> = (0..n_vars).map(|_| b.new_var()).collect();
        for li in 0..n_layers {
            let (lo, hi) = (li * n_clauses / n_layers, (li + 1) * n_clauses / n_layers);
            for c in &clauses[lo..hi] {
                b.add_clause(c.iter().map(|&(v, pos)| Lit::new(vs[v], pos)));
            }
            if li + 1 < n_layers {
                b = CnfBuilder::extending(&b.build());
            }
        }
        let cnf = std::sync::Arc::new(b.build());
        assert_eq!(cnf.num_layers(), n_layers);
        let mut eager = Solver::attach_shared(cnf.clone());
        let mut lazy = Solver::attach_shared_lazy(cnf);
        let me = enumerate(&mut eager, &vs, &[], &mut NoExchange);
        let ml = enumerate(&mut lazy, &vs, &[], &mut NoExchange);
        assert_eq!(me, brute, "round {round}: clauses {clauses:?}");
        assert_eq!(ml, brute, "round {round}: clauses {clauses:?}");
        assert_eq!(eager.stats(), lazy.stats(), "round {round}");
    }
    assert!(sat_rounds > 0 && unsat_rounds > 0);
}

#[test]
fn two_attached_solvers_enumerate_independently() {
    let (cnf, vs) = exactly_one(8);
    let mut a = Solver::attach_shared(cnf.clone());
    let mut bvr = Solver::attach_shared(cnf.clone());
    assert_eq!(a.num_clauses(), bvr.num_clauses());
    // Interleave the two enumerations: blocking clauses in one solver
    // must not leak into the other through the shared arena.
    let mut count_a = 0;
    let mut count_b = 0;
    loop {
        let sa = run(&mut a).is_sat();
        let sb = run(&mut bvr).is_sat();
        assert_eq!(sa, sb);
        if !sa {
            break;
        }
        count_a += 1;
        count_b += 1;
        for s in [&mut a, &mut bvr] {
            let block: Vec<Lit> = vs
                .iter()
                .map(|&v| Lit::new(v, !s.value(v).unwrap()))
                .collect();
            s.add_clause(block);
        }
    }
    assert_eq!(count_a, 8);
    assert_eq!(count_b, 8);
}

/// The satellite unit test: blocking-clause enumeration counts are
/// unchanged when clause import is enabled. This mirrors the portfolio
/// setup exactly: two workers attached to one compiled formula, cubes
/// pinned on an observed variable, and the peer's traffic — learnt
/// clauses *and* its blocking clauses — imported mid-enumeration.
#[test]
fn enumeration_count_unchanged_with_clause_import() {
    let (cnf, vs) = exactly_one(8);
    let pin = Lit::pos(vs[0]);

    // Cube A (v0 = true): enumerate, exporting learnt clauses and its
    // blocking clauses into the pool.
    let mut bus = BufferExchange::default();
    let mut a = Solver::attach_shared(cnf.clone());
    let mut a_models = Vec::new();
    while run_with(&mut a, &[pin], &mut bus).is_sat() {
        let m: Vec<bool> = vs.iter().map(|&v| a.value(v).unwrap()).collect();
        let block: Vec<Lit> = vs.iter().zip(&m).map(|(&v, &b)| Lit::new(v, !b)).collect();
        // Every model in the other cube differs on the pinned observed
        // variable, so A's blocking clauses are satisfied there — the
        // worst-case import traffic for cube B.
        bus.export(&block, block.len() as u32, false);
        a_models.push(m);
        a.add_clause(block);
    }
    assert_eq!(a_models.len(), 1);

    // Cube B (v0 = false) with imports vs. a clean reference run.
    let mut b = Solver::attach_shared(cnf.clone());
    let with_import = enumerate(&mut b, &vs, &[!pin], &mut bus);
    let mut b_ref = Solver::attach_shared(cnf);
    let without_import = enumerate(&mut b_ref, &vs, &[!pin], &mut NoExchange);
    assert_eq!(with_import.len(), 7);
    assert_eq!(with_import, without_import);
}

#[test]
fn exchange_roundtrip_between_attached_solvers() {
    // An UNSAT core in the shared part: pigeonhole 4→3 plus extra vars.
    let mut bld = CnfBuilder::new();
    let p: Vec<Vec<Var>> = (0..4)
        .map(|_| (0..3).map(|_| bld.new_var()).collect())
        .collect();
    for row in &p {
        bld.add_clause(row.iter().map(|&v| Lit::pos(v)));
    }
    for (i1, row1) in p.iter().enumerate() {
        for row2 in &p[i1 + 1..] {
            for (&v1, &v2) in row1.iter().zip(row2) {
                bld.add_clause([Lit::neg(v1), Lit::neg(v2)]);
            }
        }
    }
    let cnf = std::sync::Arc::new(bld.build());
    let mut bus = BufferExchange::default();
    let mut a = Solver::attach_shared(cnf.clone());
    assert_eq!(run_with(&mut a, &[], &mut bus), SolveResult::Unsat);
    assert!(!bus.pool.is_empty(), "UNSAT proof should learn clauses");
    // A second solver importing A's clauses must agree.
    let mut b = Solver::attach_shared(cnf);
    assert_eq!(run_with(&mut b, &[], &mut bus), SolveResult::Unsat);
}

#[test]
fn conflict_budget_probe_respects_budget_and_warms_activity() {
    // The portfolio's pin probe: a conflict-budgeted solve that stops
    // early and leaves VSIDS activity behind to rank variables by.
    let cnf = hard_pigeonhole();
    let mut s = Solver::attach_shared(cnf.clone());
    s.set_inprocessing(false);
    let r = s.solve(&[], &mut NoExchange, &SolveBudget::conflicts(3));
    assert_eq!(r, BudgetedResult::Interrupted(Interrupt::Conflicts));
    assert_eq!(s.stats().conflicts, 3, "budget too small to finish");
    let warmed = (0..cnf.num_vars()).any(|v| s.activity(Var::from_index(v)) > 0.0);
    assert!(warmed, "probing must leave VSIDS activity behind");
    // With an ample budget the same call is definitive.
    let mut s2 = Solver::attach_shared(cnf);
    let r = s2.solve(&[], &mut NoExchange, &SolveBudget::conflicts(u64::MAX));
    assert_eq!(r, BudgetedResult::Done(SolveResult::Unsat));
}

/// Pigeonhole 7→6: hard enough that an unbudgeted solve needs many
/// restarts, so budget checks at restart boundaries actually fire.
fn hard_pigeonhole() -> std::sync::Arc<SharedCnf> {
    let mut bld = CnfBuilder::new();
    let n = 7;
    let m = 6;
    let p: Vec<Vec<Var>> = (0..n)
        .map(|_| (0..m).map(|_| bld.new_var()).collect())
        .collect();
    for row in &p {
        bld.add_clause(row.iter().map(|&v| Lit::pos(v)));
    }
    for (i1, row1) in p.iter().enumerate() {
        for row2 in &p[i1 + 1..] {
            for (&v1, &v2) in row1.iter().zip(row2) {
                bld.add_clause([Lit::neg(v1), Lit::neg(v2)]);
            }
        }
    }
    std::sync::Arc::new(bld.build())
}

#[test]
fn conflict_budget_is_honored_exactly() {
    let mut s = Solver::attach_shared(hard_pigeonhole());
    let r = s.solve(&[], &mut NoExchange, &SolveBudget::conflicts(50));
    assert_eq!(r, BudgetedResult::Interrupted(Interrupt::Conflicts));
    // The conflict limit clamps each restart's budget, so it is exact.
    assert_eq!(s.stats().conflicts, 50);
    // The solver state stays warm: resuming with no limit finishes.
    let resumed = s.solve(&[], &mut NoExchange, &SolveBudget::unlimited());
    assert_eq!(resumed, BudgetedResult::Done(SolveResult::Unsat));
}

#[test]
fn injected_faults_fire_at_restart_coordinates() {
    use crate::fault::{FaultCtx, FaultPlan};
    let cnf = hard_pigeonhole();
    let plan = std::sync::Arc::new(FaultPlan::parse("q@0@0@1@interrupt").expect("plan parses"));
    let ctx = FaultCtx {
        plan: plan.clone(),
        query: std::sync::Arc::from("q"),
        cube: 0,
        attempt: 0,
    };
    let budget = SolveBudget {
        fault: Some(ctx),
        ..SolveBudget::default()
    };
    let mut s = Solver::attach_shared(cnf.clone());
    let r = s.solve(&[], &mut NoExchange, &budget);
    assert_eq!(r, BudgetedResult::Interrupted(Interrupt::Injected));
    // The site armed restart 1, so exactly one restart ran first.
    assert_eq!(s.stats().restarts, 1);
    assert_eq!(plan.injections(), 1);

    // A panic site actually panics (the pool's catch_unwind recovers).
    let panic_plan = std::sync::Arc::new(FaultPlan::parse("q@*@*@0@panic").expect("plan parses"));
    let panic_budget = SolveBudget {
        fault: Some(FaultCtx {
            plan: panic_plan,
            query: std::sync::Arc::from("q"),
            cube: 0,
            attempt: 0,
        }),
        ..SolveBudget::default()
    };
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut s = Solver::attach_shared(cnf);
        s.solve(&[], &mut NoExchange, &panic_budget)
    }));
    assert!(caught.is_err(), "armed panic site must panic");
}

#[test]
fn attach_propagates_shared_units() {
    let mut b = CnfBuilder::new();
    let x = b.new_var();
    let y = b.new_var();
    let z = b.new_var();
    b.add_clause([Lit::pos(x)]);
    b.add_clause([Lit::neg(x), Lit::pos(y)]);
    b.add_clause([Lit::neg(y), Lit::pos(z)]);
    let mut s = Solver::attach_shared(std::sync::Arc::new(b.build()));
    assert!(run(&mut s).is_sat());
    assert_eq!(s.value(x), Some(true));
    assert_eq!(s.value(y), Some(true));
    assert_eq!(s.value(z), Some(true));
}

#[test]
fn attach_detects_contradictory_units() {
    let mut b = CnfBuilder::new();
    let x = b.new_var();
    b.add_clause([Lit::pos(x)]);
    b.add_clause([Lit::neg(x)]);
    let mut s = Solver::attach_shared(std::sync::Arc::new(b.build()));
    assert_eq!(run(&mut s), SolveResult::Unsat);
}

fn add_pigeonhole(bld: &mut CnfBuilder) {
    let p: Vec<Vec<Var>> = (0..4)
        .map(|_| (0..3).map(|_| bld.new_var()).collect())
        .collect();
    for row in &p {
        bld.add_clause(row.iter().map(|&v| Lit::pos(v)));
    }
    for (i1, row1) in p.iter().enumerate() {
        for row2 in &p[i1 + 1..] {
            for (&v1, &v2) in row1.iter().zip(row2) {
                bld.add_clause([Lit::neg(v1), Lit::neg(v2)]);
            }
        }
    }
}

/// Provenance propagation: learnt clauses derived exclusively from
/// skeleton-tagged shared clauses export as skeleton-pure, and the
/// very same derivations export impure when the identical clauses sit
/// in a non-skeleton layer.
#[test]
fn learnt_purity_follows_layer_provenance() {
    // Pigeonhole 4→3 is UNSAT, so the solver must learn clauses — and
    // every antecedent lives in the single tagged layer.
    for (skeleton, what) in [(true, "pure"), (false, "impure")] {
        let mut bld = CnfBuilder::new();
        add_pigeonhole(&mut bld);
        let cnf = std::sync::Arc::new(bld.build_tagged(skeleton));
        let mut bus = BufferExchange::default();
        let mut s = Solver::attach_shared(cnf);
        assert_eq!(run_with(&mut s, &[], &mut bus), SolveResult::Unsat);
        assert!(!bus.pool.is_empty(), "UNSAT proof should learn clauses");
        assert!(
            bus.pool.iter().all(|(_, _, pure)| *pure == skeleton),
            "clauses derived only from a skeleton={skeleton} layer must export {what}"
        );
    }
}

/// Purity is preserved across layer chains: an axiom-style extension
/// layer whose clauses never join a conflict leaves skeleton-derived
/// learnt clauses pure.
#[test]
fn purity_survives_inert_extension_layers() {
    let mut bld = CnfBuilder::new();
    add_pigeonhole(&mut bld);
    let base = bld.build_tagged(true);
    let mut e = CnfBuilder::extending(&base);
    let w = e.new_var();
    let u = e.new_var();
    // Extension units fix fresh variables at level 0; they cannot be
    // antecedents of any conflict over the pigeonhole core.
    e.add_clause([Lit::pos(w)]);
    e.add_clause([Lit::neg(w), Lit::pos(u)]);
    let chain = std::sync::Arc::new(e.build());
    assert_eq!(chain.num_layers(), 2);
    let mut bus = BufferExchange::default();
    let mut s = Solver::attach_shared(chain);
    assert_eq!(run_with(&mut s, &[], &mut bus), SolveResult::Unsat);
    assert!(!bus.pool.is_empty(), "UNSAT proof should learn clauses");
    assert!(
        bus.pool.iter().all(|(_, _, pure)| *pure),
        "skeleton-only derivations must stay pure under an inert axiom layer"
    );
}

#[test]
fn local_vars_and_clauses_extend_an_attached_solver() {
    let (cnf, vs) = exactly_one(4);
    let mut s = Solver::attach_shared(cnf);
    // A local variable defined on top of shared ones: w ↔ v0 ∨ v1.
    let w = s.new_var();
    s.add_clause([Lit::neg(vs[0]), Lit::pos(w)]);
    s.add_clause([Lit::neg(vs[1]), Lit::pos(w)]);
    s.add_clause([Lit::pos(vs[0]), Lit::pos(vs[1]), Lit::neg(w)]);
    let mut with_w = 0;
    let mut total = 0;
    let all: Vec<Var> = vs.iter().copied().chain([w]).collect();
    while run(&mut s).is_sat() {
        total += 1;
        if s.value(w) == Some(true) {
            with_w += 1;
        }
        let block: Vec<Lit> = all
            .iter()
            .map(|&v| Lit::new(v, !s.value(v).unwrap()))
            .collect();
        s.add_clause(block);
    }
    assert_eq!(total, 4);
    assert_eq!(with_w, 2);
}

#[test]
fn attach_arenas_with_units_and_empty_clauses() {
    // Units in the arena propagate at attach time on both paths.
    let mut b = CnfBuilder::new();
    let x = b.new_var();
    let y = b.new_var();
    b.add_clause([Lit::pos(x)]);
    b.add_clause([Lit::neg(x), Lit::pos(y)]);
    let cnf = std::sync::Arc::new(b.build());
    for mut s in [
        Solver::attach_shared(cnf.clone()),
        Solver::attach_shared_lazy(cnf.clone()),
    ] {
        assert!(run(&mut s).is_sat());
        assert_eq!(s.value(x), Some(true));
        assert_eq!(s.value(y), Some(true));
    }
    // An arena holding an empty clause attaches as already-unsat.
    let mut b = CnfBuilder::new();
    let z = b.new_var();
    b.add_clause([Lit::pos(z)]);
    b.add_clause([]);
    let cnf = std::sync::Arc::new(b.build());
    assert!(!cnf.is_ok());
    for mut s in [
        Solver::attach_shared(cnf.clone()),
        Solver::attach_shared_lazy(cnf),
    ] {
        assert_eq!(run(&mut s), SolveResult::Unsat);
        assert!(!s.add_clause([Lit::pos(z)]), "an unsat attach stays unsat");
    }
}

#[test]
fn eager_and_lazy_attach_search_identically_without_definitional_layers() {
    // With no definitional layer nothing starts dormant, so the lazy
    // path must install the same watchers and units in the same order
    // as the eager one, and every search counter must match.
    let (base, vs) = exactly_one(6);
    let mut e = CnfBuilder::extending(&base);
    let w = e.new_var();
    let u = e.new_var();
    e.add_clause([Lit::pos(u)]);
    e.add_clause([Lit::neg(w), Lit::pos(vs[0]), Lit::pos(vs[1])]);
    e.add_clause([Lit::pos(w), Lit::neg(vs[0])]);
    e.add_clause([Lit::neg(u), Lit::pos(w), Lit::pos(vs[2]), Lit::pos(vs[3])]);
    let chain = std::sync::Arc::new(e.build());
    assert_eq!(chain.num_layers(), 2);
    assert!(chain.layers().iter().all(|l| !l.is_definitional()));
    let mut eager = Solver::attach_shared(chain.clone());
    let mut lazy = Solver::attach_shared_lazy(chain);
    let all: Vec<Var> = vs.iter().copied().chain([w, u]).collect();
    let me = enumerate(&mut eager, &all, &[], &mut NoExchange);
    let ml = enumerate(&mut lazy, &all, &[], &mut NoExchange);
    assert_eq!(me, ml);
    assert_eq!(me.len(), 4, "w ∨ v2 ∨ v3 drops v4 and v5");
    assert_eq!(eager.stats(), lazy.stats());
}

#[test]
fn fresh_attach_resets_shared_watch_positions() {
    // Pool-reuse shape: solver A enumerates against the arena (moving
    // its private watch positions), then a fresh solver attaches to
    // the same arena — its `shared_watch` must start at [0, 1] for
    // every clause, unaffected by A's searches.
    let (cnf, vs) = exactly_one(6);
    let mut a = Solver::attach_shared(cnf.clone());
    assert_eq!(enumerate(&mut a, &vs, &[], &mut NoExchange).len(), 6);
    assert!(
        a.shared_watch.iter().any(|&wp| wp != [0, 1]),
        "enumeration should have moved at least one watch position"
    );
    let mut fresh = Solver::attach_shared(cnf.clone());
    assert_eq!(fresh.shared_watch, vec![[0, 1]; cnf.num_clauses()]);
    assert_eq!(enumerate(&mut fresh, &vs, &[], &mut NoExchange).len(), 6);
    // Same contract on the lazy path: dormant clauses keep the reset
    // positions until activation installs real watchers.
    let fresh_lazy = Solver::attach_shared_lazy(cnf.clone());
    assert_eq!(fresh_lazy.shared_watch, vec![[0, 1]; cnf.num_clauses()]);
}

// ----- lazy definitional activation -----

/// A three-layer chain: an exactly-one(4) skeleton, then two
/// definitional cones — `g0 := v0 ∨ v2` and `g1 := g0 ∨ v3` (pure
/// Tseitin namings; every clause mentions its layer's own gate).
fn layered_chain() -> (std::sync::Arc<SharedCnf>, Vec<Var>, Var, Var) {
    let mut b = CnfBuilder::new();
    let vs: Vec<Var> = (0..4).map(|_| b.new_var()).collect();
    b.add_clause(vs.iter().map(|&v| Lit::pos(v)));
    for i in 0..4 {
        for j in (i + 1)..4 {
            b.add_clause([Lit::neg(vs[i]), Lit::neg(vs[j])]);
        }
    }
    let base = b.build_tagged(true);
    let mut e1 = CnfBuilder::extending(&base);
    let g0 = e1.new_var();
    e1.add_clause([Lit::neg(g0), Lit::pos(vs[0]), Lit::pos(vs[2])]);
    e1.add_clause([Lit::pos(g0), Lit::neg(vs[0])]);
    e1.add_clause([Lit::pos(g0), Lit::neg(vs[2])]);
    let l1 = e1.build_layer(true, true);
    let mut e2 = CnfBuilder::extending(&l1);
    let g1 = e2.new_var();
    e2.add_clause([Lit::neg(g1), Lit::pos(g0), Lit::pos(vs[3])]);
    e2.add_clause([Lit::pos(g1), Lit::neg(g0)]);
    e2.add_clause([Lit::pos(g1), Lit::neg(vs[3])]);
    (std::sync::Arc::new(e2.build_layer(true, true)), vs, g0, g1)
}

#[test]
fn lazy_attach_skips_dormant_cones_until_referenced() {
    let (cnf, vs, _g0, _g1) = layered_chain();
    let mut eager = Solver::attach_shared(cnf.clone());
    let mut lazy = Solver::attach_shared_lazy(cnf.clone());
    assert_eq!(eager.active_layer_count(), 3);
    assert_eq!(
        lazy.active_layer_count(),
        1,
        "definitional cones start dormant"
    );
    // A query that never touches the gates: identical model set over
    // the skeleton, and no activation from skeleton-only blocking.
    let me = enumerate(&mut eager, &vs, &[], &mut NoExchange);
    let ml = enumerate(&mut lazy, &vs, &[], &mut NoExchange);
    assert_eq!(me, ml);
    assert_eq!(ml.len(), 4);
    assert_eq!(lazy.active_layer_count(), 1);
    assert!(
        lazy.stats().propagations < eager.stats().propagations,
        "dormant cones must not be propagated: lazy {} vs eager {}",
        lazy.stats().propagations,
        eager.stats().propagations
    );
}

#[test]
fn assumptions_wake_cones_transitively_and_match_eager() {
    let (cnf, vs, _g0, g1) = layered_chain();
    let mut eager = Solver::attach_shared(cnf.clone());
    let mut lazy = Solver::attach_shared_lazy(cnf.clone());
    let assume = [Lit::pos(g1)];
    let me = enumerate(&mut eager, &vs, &assume, &mut NoExchange);
    let ml = enumerate(&mut lazy, &vs, &assume, &mut NoExchange);
    assert_eq!(me, ml);
    assert_eq!(ml.len(), 3, "g1 = v0 ∨ v2 ∨ v3 under exactly-one");
    assert_eq!(
        lazy.active_layer_count(),
        3,
        "assuming g1 must wake its cone and, transitively, g0's"
    );
}

#[test]
fn adding_a_clause_on_a_dormant_cone_activates_it() {
    let (cnf, vs, g0, _g1) = layered_chain();
    let mut lazy = Solver::attach_shared_lazy(cnf.clone());
    assert_eq!(lazy.active_layer_count(), 1);
    lazy.add_clause([Lit::pos(g0)]);
    assert_eq!(
        lazy.active_layer_count(),
        2,
        "asserting g0 wakes only its cone"
    );
    let ml = enumerate(&mut lazy, &vs, &[], &mut NoExchange);
    let mut eager = Solver::attach_shared(cnf);
    eager.add_clause([Lit::pos(g0)]);
    let me = enumerate(&mut eager, &vs, &[], &mut NoExchange);
    assert_eq!(me, ml);
    assert_eq!(ml.len(), 2, "g0 keeps exactly the v0 and v2 models");
}

#[test]
fn imports_over_dormant_cones_are_shelved_not_activating() {
    let (cnf, vs, g0, g1) = layered_chain();
    let mut lazy = Solver::attach_shared_lazy(cnf.clone());
    let mut bus = BufferExchange::default();
    // Peer clauses over dormant gates: redundant for this query, so
    // parking them on the shelf must change nothing but effort.
    bus.pool.push((vec![Lit::pos(g0), Lit::pos(g1)], 2, true));
    bus.pool
        .push((vec![Lit::neg(g1), Lit::pos(vs[3]), Lit::pos(g0)], 3, true));
    let ml = enumerate(&mut lazy, &vs, &[], &mut bus);
    assert_eq!(lazy.active_layer_count(), 1, "imports must not wake cones");
    assert_eq!(lazy.shelved_count(), 2, "both imports wait on the shelf");
    assert_eq!(lazy.stats().shelved_replayed, 0);
    let mut eager = Solver::attach_shared(cnf.clone());
    let me = enumerate(&mut eager, &vs, &[], &mut NoExchange);
    assert_eq!(me, ml);
    // Ablation knob: with shelving off the imports are dropped outright
    // (the pre-fix behavior), still without waking any cone.
    let mut dropper = Solver::attach_shared_lazy(cnf);
    dropper.set_shelving(false);
    let mut bus2 = BufferExchange::default();
    bus2.pool.push((vec![Lit::pos(g0), Lit::pos(g1)], 2, true));
    let md = enumerate(&mut dropper, &vs, &[], &mut bus2);
    assert_eq!(md, me);
    assert_eq!(dropper.active_layer_count(), 1);
    assert_eq!(dropper.shelved_count(), 0, "shelving off means dropping");
}

#[test]
fn shelved_import_replays_and_prunes_once_its_cone_activates() {
    // ¬g0 ∨ ¬v1 is implied (v1 excludes v0 and v2, and g0 = v0 ∨ v2)
    // but over the dormant gate g0 at import time. Shelved, it must be
    // installed by the activation that a later solve's assumptions
    // trigger — and then prune the contradictory assumption pair
    // {g0, v1} *directly*, with no conflict analysis at all.
    let (cnf, vs, g0, _g1) = layered_chain();
    let mut s = Solver::attach_shared_lazy(cnf.clone());
    let mut bus = BufferExchange::default();
    bus.pool
        .push((vec![Lit::neg(g0), Lit::neg(vs[1])], 2, true));
    assert!(run_with(&mut s, &[], &mut bus).is_sat());
    assert_eq!(s.shelved_count(), 1, "import over dormant g0 is shelved");
    assert_eq!(s.active_layer_count(), 1);
    let before = s.stats();
    let r = run_with(&mut s, &[Lit::pos(g0), Lit::pos(vs[1])], &mut NoExchange);
    assert_eq!(r, SolveResult::Unsat);
    let after = s.stats();
    assert_eq!(after.shelved_replayed, 1, "activation replayed the shelf");
    assert_eq!(s.shelved_count(), 0);
    assert_eq!(
        after.conflicts, before.conflicts,
        "the replayed import falsifies the second assumption outright"
    );
    // Control: with shelving off the import is gone, and refuting the
    // same assumption pair costs at least one analyzed conflict.
    let mut ctrl = Solver::attach_shared_lazy(cnf);
    ctrl.set_shelving(false);
    let mut bus2 = BufferExchange::default();
    bus2.pool
        .push((vec![Lit::neg(g0), Lit::neg(vs[1])], 2, true));
    assert!(run_with(&mut ctrl, &[], &mut bus2).is_sat());
    let before = ctrl.stats();
    let r = run_with(&mut ctrl, &[Lit::pos(g0), Lit::pos(vs[1])], &mut NoExchange);
    assert_eq!(r, SolveResult::Unsat);
    assert_eq!(ctrl.stats().shelved_replayed, 0);
    assert!(
        ctrl.stats().conflicts > before.conflicts,
        "without the import the refutation needs conflict analysis"
    );
}

#[test]
fn shelved_import_replays_on_declare_roots() {
    let (cnf, vs, g0, _g1) = layered_chain();
    let mut s = Solver::attach_shared_lazy(cnf);
    let mut bus = BufferExchange::default();
    bus.pool
        .push((vec![Lit::neg(g0), Lit::neg(vs[1])], 2, true));
    assert!(run_with(&mut s, &[], &mut bus).is_sat());
    assert_eq!(s.shelved_count(), 1);
    s.declare_roots([Lit::pos(g0)]);
    assert_eq!(s.stats().shelved_replayed, 1);
    assert_eq!(s.shelved_count(), 0);
    assert_eq!(s.active_layer_count(), 2, "only g0's cone woke");
}

#[test]
fn decision_domain_branches_on_declared_cone_first() {
    let (cnf, vs, g0, _g1) = layered_chain();
    let mut eager = Solver::attach_shared(cnf.clone());
    let me = enumerate(&mut eager, &vs, &[Lit::pos(g0)], &mut NoExchange);
    let mut s = Solver::attach_shared_lazy(cnf.clone());
    s.set_domain_enabled(true);
    s.declare_roots([Lit::pos(g0)]);
    let md = enumerate(&mut s, &vs, &[Lit::pos(g0)], &mut NoExchange);
    assert_eq!(me, md, "the domain only reorders decisions");
    let st = s.stats();
    assert!(
        st.domain_decisions > 0,
        "decisions should be served from the declared cone"
    );
    assert!(st.domain_decisions <= st.decisions);
    // Default-off: a solver that never enables the domain reports 0.
    let mut plain = Solver::attach_shared_lazy(cnf);
    let _ = enumerate(&mut plain, &vs, &[Lit::pos(g0)], &mut NoExchange);
    assert_eq!(plain.stats().domain_decisions, 0);
}

#[test]
fn decision_domain_falls_back_to_global_heap_when_cone_exhausted() {
    // Cone of g0 is {g0, v0, v2}; a full model still needs v1 and v3,
    // which only the global fallback can decide once the cone is
    // assigned. Deciding g0 false propagates ¬v0 and ¬v2, leaving
    // v1 ∨ v3 undetermined — so the SAT answer requires at least one
    // global (non-domain) decision.
    let (cnf, _vs, g0, _g1) = layered_chain();
    let mut s = Solver::attach_shared_lazy(cnf);
    s.set_domain_enabled(true);
    s.declare_roots([Lit::pos(g0)]);
    assert!(run(&mut s).is_sat());
    let st = s.stats();
    assert!(st.domain_decisions > 0, "local level used first");
    assert!(
        st.decisions > st.domain_decisions,
        "completing the model needs the global fallback"
    );
    // Disabling re-enables plain VSIDS: no further local decisions.
    s.set_domain_enabled(false);
    let before = s.stats().domain_decisions;
    assert!(run(&mut s).is_sat());
    assert_eq!(s.stats().domain_decisions, before);
}

// ----- level-0 inprocessing, tiered retention, arena GC -----

#[test]
fn simplify_purges_clauses_satisfied_at_level_zero() {
    let mut s = Solver::new();
    let x = s.new_var();
    let y = s.new_var();
    let z = s.new_var();
    s.add_clause([Lit::pos(x), Lit::pos(y)]);
    s.add_clause([Lit::pos(x), Lit::pos(z)]);
    assert_eq!(s.num_clauses(), 2);
    // The unit satisfies both clauses at level 0; the next solve's
    // inprocessing pass must purge them.
    s.add_clause([Lit::pos(x)]);
    assert!(run(&mut s).is_sat());
    assert!(s.stats().simplify_removed >= 2);
    assert_eq!(s.num_clauses(), 0);
    // The toggle restores the old keep-everything behavior.
    let mut off = Solver::new();
    off.set_inprocessing(false);
    let x = off.new_var();
    let y = off.new_var();
    off.add_clause([Lit::pos(x), Lit::pos(y)]);
    off.add_clause([Lit::pos(x)]);
    assert!(run(&mut off).is_sat());
    assert_eq!(off.stats().simplify_removed, 0);
    assert_eq!(off.num_clauses(), 1);
    // Attached: shared clauses stay in the arena, but a local unit that
    // satisfies them makes the next solve drop this solver's watchers on
    // both — the tagged binary clause's and the ternary clause's.
    let mut b = CnfBuilder::new();
    let x = b.new_var();
    let y = b.new_var();
    let z = b.new_var();
    b.add_clause([Lit::pos(x), Lit::pos(y)]);
    b.add_clause([Lit::pos(x), Lit::pos(y), Lit::pos(z)]);
    let mut s = Solver::attach_shared(std::sync::Arc::new(b.build()));
    s.add_clause([Lit::pos(x)]);
    assert!(run(&mut s).is_sat());
    assert_eq!(s.stats().simplify_removed, 2);
    assert!(s.watches.iter().all(Vec::is_empty));
    assert_eq!(
        run_with(&mut s, &[Lit::neg(y), Lit::neg(z)], &mut NoExchange),
        SolveResult::Sat
    );
    assert_eq!(s.value(x), Some(true));
    assert_eq!(
        run_with(&mut s, &[Lit::neg(x)], &mut NoExchange),
        SolveResult::Unsat
    );
}

#[test]
fn subsumption_deletes_and_strengthens_imported_learnts() {
    // Imports enter the database as learnts, so feeding crafted
    // clauses over an exchange exercises the subsumption pass
    // deterministically: (a ∨ b) subsumes (a ∨ b ∨ c) exactly, and
    // self-subsumes (¬a ∨ b ∨ d) down to (b ∨ d).
    let mut s = Solver::new();
    let a = s.new_var();
    let b = s.new_var();
    let c = s.new_var();
    let d = s.new_var();
    let mut bus = BufferExchange::default();
    bus.pool.push((vec![Lit::pos(a), Lit::pos(b)], 2, false));
    bus.pool
        .push((vec![Lit::pos(a), Lit::pos(b), Lit::pos(c)], 3, false));
    bus.pool
        .push((vec![Lit::neg(a), Lit::pos(b), Lit::pos(d)], 3, false));
    assert!(run_with(&mut s, &[], &mut bus).is_sat());
    let st = s.stats();
    assert!(st.subsumed >= 1, "exact subsumption must fire");
    assert!(st.strengthened >= 1, "self-subsuming resolution must fire");
}

#[test]
fn tiered_retention_shrinks_pooled_solver_across_tasks() {
    // The pooled-solver shape: one long-lived solver, consecutive
    // hard queries. The size-triggered reduce must keep the live
    // learnt count near the LOCAL budget instead of growing without
    // bound, and the tier counters must stay consistent.
    let mut s = Solver::attach_shared(hard_pigeonhole());
    s.set_learnt_budget(20);
    assert_eq!(run(&mut s), SolveResult::Unsat);
    let st = s.stats();
    assert!(st.conflicts > 100, "pigeonhole 7→6 must be nontrivial");
    assert_eq!(
        st.learnts,
        st.learnts_core + st.learnts_mid + st.learnts_local,
        "tier counters must partition the live learnt set"
    );
    assert!(
        st.learnts < st.conflicts / 2,
        "retention must shed learnts: {} live of {} learned",
        st.learnts,
        st.conflicts
    );
}

#[test]
fn arena_gc_fires_under_churn_and_preserves_results() {
    let mut s = Solver::attach_shared(hard_pigeonhole());
    s.set_learnt_budget(10);
    assert_eq!(run(&mut s), SolveResult::Unsat);
    let st = s.stats();
    assert!(st.gc_runs > 0, "churn at budget 10 must trigger arena GC");
    assert!(st.gc_reclaimed_words > 0);
}

#[test]
fn toggles_preserve_enumerated_model_sets() {
    // The byte-identity bar, at solver scope: every combination of the
    // new toggles enumerates the identical model set, with and without
    // exchange traffic.
    let (cnf, vs) = exactly_one(8);
    let mut reference: Option<Vec<Vec<bool>>> = None;
    for inproc in [false, true] {
        for tiers in [false, true] {
            for lazy in [false, true] {
                let mut s = if lazy {
                    Solver::attach_shared_lazy(cnf.clone())
                } else {
                    Solver::attach_shared(cnf.clone())
                };
                s.set_inprocessing(inproc);
                s.set_tiered_retention(tiers);
                s.set_learnt_budget(4);
                let mut bus = BufferExchange::default();
                let models = enumerate(&mut s, &vs, &[], &mut bus);
                assert_eq!(models.len(), 8);
                match &reference {
                    None => reference = Some(models),
                    Some(r) => assert_eq!(
                        &models, r,
                        "inproc={inproc} tiers={tiers} lazy={lazy} diverged"
                    ),
                }
            }
        }
    }
}

#[test]
fn imported_lbd_is_clamped_not_length() {
    // The satellite fix: an import's stored LBD is the sender's value
    // (clamped to [1, len]), not unconditionally the clause length.
    // Detect it through tier accounting: an LBD-2 import of length 4
    // must land in CORE, which length-based filing would put in MID.
    let mut s = Solver::new();
    let vs: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
    let mut bus = BufferExchange::default();
    bus.pool
        .push((vs.iter().map(|&v| Lit::pos(v)).collect(), 2, false));
    assert!(run_with(&mut s, &[], &mut bus).is_sat());
    let st = s.stats();
    assert_eq!(st.learnts_core, 1, "sender LBD 2 files the import as CORE");
    assert_eq!(st.learnts_mid + st.learnts_local, 0);
}
