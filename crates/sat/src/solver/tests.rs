use super::search::luby;
use super::*;
use crate::budget::SolveBudget;
use crate::exchange::ClauseExchange;
use crate::NoExchange;

/// Test shorthand: an unbudgeted [`Solver::solve`], unwrapped to its
/// definitive answer.
pub(super) fn run_with(
    s: &mut Solver,
    assumptions: &[Lit],
    exchange: &mut dyn ClauseExchange,
) -> SolveResult {
    s.solve(assumptions, exchange, &SolveBudget::unlimited())
        .done()
        .expect("an unlimited budget never interrupts")
}

/// [`run_with`] with no assumptions and no exchange.
pub(super) fn run(s: &mut Solver) -> SolveResult {
    run_with(s, &[], &mut NoExchange)
}

fn lit(s: &mut Solver, v: &mut Vec<Var>, i: usize, pos: bool) -> Lit {
    while v.len() <= i {
        v.push(s.new_var());
    }
    Lit::new(v[i], pos)
}

#[test]
fn luby_sequence() {
    let expect = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
    for (i, &e) in expect.iter().enumerate() {
        assert_eq!(luby(i as u64), e, "luby({i})");
    }
}

#[test]
fn simple_implication_chain() {
    let mut s = Solver::new();
    let vs: Vec<Var> = (0..10).map(|_| s.new_var()).collect();
    for w in vs.windows(2) {
        s.add_clause([Lit::neg(w[0]), Lit::pos(w[1])]);
    }
    s.add_clause([Lit::pos(vs[0])]);
    assert!(run(&mut s).is_sat());
    for &v in &vs {
        assert_eq!(s.value(v), Some(true));
    }
}

#[test]
fn pigeonhole_3_into_2_unsat() {
    // 3 pigeons, 2 holes: var p_{i,j} = pigeon i in hole j.
    let mut s = Solver::new();
    let mut p = [[Var(0); 2]; 3];
    for row in p.iter_mut() {
        for cell in row.iter_mut() {
            *cell = s.new_var();
        }
    }
    for row in &p {
        s.add_clause([Lit::pos(row[0]), Lit::pos(row[1])]);
    }
    for j in 0..2 {
        for i1 in 0..3 {
            for i2 in (i1 + 1)..3 {
                s.add_clause([Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
            }
        }
    }
    assert_eq!(run(&mut s), SolveResult::Unsat);
}

#[test]
fn pigeonhole_5_into_4_unsat() {
    let n = 5;
    let m = 4;
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
    assert_eq!(run(&mut s), SolveResult::Unsat);
}

#[test]
fn model_enumeration_with_blocking_clauses() {
    // x ∨ y has exactly 3 models.
    let mut s = Solver::new();
    let x = s.new_var();
    let y = s.new_var();
    s.add_clause([Lit::pos(x), Lit::pos(y)]);
    let mut models = Vec::new();
    while run(&mut s).is_sat() {
        let mx = s.value(x).unwrap();
        let my = s.value(y).unwrap();
        models.push((mx, my));
        s.add_clause([Lit::new(x, !mx), Lit::new(y, !my)]);
    }
    models.sort();
    assert_eq!(models, vec![(false, true), (true, false), (true, true)]);
}

#[test]
fn assumptions_are_transient() {
    let mut s = Solver::new();
    let x = s.new_var();
    let y = s.new_var();
    s.add_clause([Lit::pos(x), Lit::pos(y)]);
    assert_eq!(
        run_with(&mut s, &[Lit::neg(x), Lit::neg(y)], &mut NoExchange),
        SolveResult::Unsat
    );
    // The assumptions must not persist.
    assert!(run(&mut s).is_sat());
    assert!(run_with(&mut s, &[Lit::neg(x)], &mut NoExchange).is_sat());
    assert_eq!(s.value(y), Some(true));
}

#[test]
fn tautology_and_duplicate_literals() {
    let mut s = Solver::new();
    let x = s.new_var();
    let y = s.new_var();
    assert!(s.add_clause([Lit::pos(x), Lit::neg(x)])); // tautology dropped
    assert!(s.add_clause([Lit::pos(y), Lit::pos(y)])); // dedup to unit
    assert!(run(&mut s).is_sat());
    assert_eq!(s.value(y), Some(true));
}

#[test]
fn empty_clause_unsat() {
    let mut s = Solver::new();
    let _ = s.new_var();
    assert!(!s.add_clause([]));
    assert_eq!(run(&mut s), SolveResult::Unsat);
}

#[test]
fn unsat_is_sticky_but_clause_add_reports_it() {
    let mut s = Solver::new();
    let x = s.new_var();
    s.add_clause([Lit::pos(x)]);
    s.add_clause([Lit::neg(x)]);
    assert_eq!(run(&mut s), SolveResult::Unsat);
    assert!(!s.add_clause([Lit::pos(x)]));
    assert_eq!(run(&mut s), SolveResult::Unsat);
}

#[test]
fn at_most_one_chain() {
    // Exactly-one over 8 variables, 8 models.
    let mut s = Solver::new();
    let vs: Vec<Var> = (0..8).map(|_| s.new_var()).collect();
    s.add_clause(vs.iter().map(|&v| Lit::pos(v)));
    for i in 0..vs.len() {
        for j in (i + 1)..vs.len() {
            s.add_clause([Lit::neg(vs[i]), Lit::neg(vs[j])]);
        }
    }
    let mut count = 0;
    while run(&mut s).is_sat() {
        count += 1;
        let block: Vec<Lit> = vs
            .iter()
            .map(|&v| Lit::new(v, !s.value(v).unwrap()))
            .collect();
        s.add_clause(block);
    }
    assert_eq!(count, 8);
}

#[test]
fn graph_coloring_triangle() {
    // Triangle 2-colorable: UNSAT. Triangle 3-colorable: SAT.
    for (colors, expect_sat) in [(2usize, false), (3usize, true)] {
        let mut s = Solver::new();
        let v: Vec<Vec<Var>> = (0..3)
            .map(|_| (0..colors).map(|_| s.new_var()).collect())
            .collect();
        for node in &v {
            s.add_clause(node.iter().map(|&x| Lit::pos(x)));
        }
        for (a, b) in [(0, 1), (1, 2), (0, 2)] {
            for c in 0..colors {
                s.add_clause([Lit::neg(v[a][c]), Lit::neg(v[b][c])]);
            }
        }
        assert_eq!(run(&mut s).is_sat(), expect_sat, "colors={colors}");
    }
}

#[test]
fn solver_is_send() {
    // The parallel synthesis engine gives each worker thread a private
    // Solver; every field must stay Send (no Rc, no raw pointers).
    fn assert_send<T: Send>() {}
    assert_send::<Solver>();
    assert_send::<SolverStats>();
}

#[test]
fn stats_accumulate() {
    let mut s = Solver::new();
    let mut vars = Vec::new();
    for i in 0..6 {
        let a = lit(&mut s, &mut vars, i, true);
        let b = lit(&mut s, &mut vars, (i + 1) % 6, false);
        s.add_clause([a, b]);
    }
    run(&mut s);
    assert!(s.stats().propagations > 0 || s.stats().decisions > 0);
}

/// Cross-check the CDCL solver against brute force on many small random
/// formulas. This is the key correctness test for the solver.
#[test]
fn random_formulas_match_brute_force() {
    // Simple deterministic LCG so the test needs no external crates here.
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    for round in 0..300 {
        let n_vars = 3 + (next() % 6) as usize; // 3..8
        let n_clauses = 2 + (next() % 20) as usize;
        let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
        for _ in 0..n_clauses {
            let len = 1 + (next() % 3) as usize;
            let mut c = Vec::new();
            for _ in 0..len {
                c.push(((next() as usize) % n_vars, next() % 2 == 0));
            }
            clauses.push(c);
        }
        // Brute force.
        let mut brute_sat = false;
        'outer: for m in 0..(1u32 << n_vars) {
            for c in &clauses {
                if !c.iter().any(|&(v, pos)| ((m >> v) & 1 == 1) == pos) {
                    continue 'outer;
                }
            }
            brute_sat = true;
            break;
        }
        // CDCL.
        let mut s = Solver::new();
        let vs: Vec<Var> = (0..n_vars).map(|_| s.new_var()).collect();
        for c in &clauses {
            s.add_clause(c.iter().map(|&(v, pos)| Lit::new(vs[v], pos)));
        }
        let got = run(&mut s).is_sat();
        assert_eq!(got, brute_sat, "round {round}: clauses {clauses:?}");
        if got {
            // The model must actually satisfy every clause.
            for c in &clauses {
                assert!(
                    c.iter().any(|&(v, pos)| s.value(vs[v]).unwrap() == pos),
                    "model does not satisfy {c:?}"
                );
            }
        }
    }
}
