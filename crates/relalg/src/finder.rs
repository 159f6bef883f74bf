//! CNF compilation (Tseitin) and instance enumeration.

use crate::circuit::{Bit, Circuit, Node};
use crate::compiled::CompiledCircuit;
use litsynth_sat::{
    BudgetedResult, ClauseExchange, Interrupt, Lit, SolveBudget, SolveResult, Solver, Var,
};

/// A satisfying assignment to the circuit inputs.
///
/// Inputs that never reached the solver (unconstrained) default to `false`,
/// which is always a legal completion.
#[derive(Clone, Debug)]
pub struct Instance {
    inputs: Vec<bool>,
}

impl Instance {
    /// The value of input `idx`.
    pub fn input(&self, idx: usize) -> bool {
        self.inputs.get(idx).copied().unwrap_or(false)
    }

    /// Evaluates an arbitrary circuit bit under this instance.
    pub fn eval(&self, c: &Circuit, bit: Bit) -> bool {
        let mut memo: Vec<Option<bool>> = vec![None; c.num_nodes()];
        self.eval_memo(c, bit, &mut memo)
    }

    /// Evaluates many bits, sharing the memo table.
    pub fn eval_many(&self, c: &Circuit, bits: &[Bit]) -> Vec<bool> {
        let mut memo: Vec<Option<bool>> = vec![None; c.num_nodes()];
        bits.iter()
            .map(|&b| self.eval_memo(c, b, &mut memo))
            .collect()
    }

    fn eval_memo(&self, c: &Circuit, bit: Bit, memo: &mut [Option<bool>]) -> bool {
        // Iterative DFS to avoid deep recursion on large circuits.
        let mut stack = vec![bit.node()];
        while let Some(&n) = stack.last() {
            if memo[n].is_some() {
                stack.pop();
                continue;
            }
            match c.node(n) {
                Node::ConstTrue => {
                    memo[n] = Some(true);
                    stack.pop();
                }
                Node::Input(i) => {
                    memo[n] = Some(self.input(i as usize));
                    stack.pop();
                }
                Node::And(a, b) => {
                    let (na, nb) = (a.node(), b.node());
                    match (memo[na], memo[nb]) {
                        (Some(va), Some(vb)) => {
                            let ra = va ^ a.is_negated();
                            let rb = vb ^ b.is_negated();
                            memo[n] = Some(ra && rb);
                            stack.pop();
                        }
                        (None, _) => stack.push(na),
                        (_, None) => stack.push(nb),
                    }
                }
            }
        }
        memo[bit.node()].expect("evaluated") ^ bit.is_negated()
    }
}

/// Translates circuit formulas to CNF and enumerates satisfying instances.
///
/// The typical enumeration loop is:
///
/// ```ignore
/// let mut finder = Finder::new(&circuit);
/// let budget = SolveBudget::unlimited();
/// while let Some(inst) = finder
///     .next_instance_budgeted_assuming(&circuit, &asserts, &[], &mut NoExchange, &budget)
///     .expect("an unlimited budget never interrupts")
/// {
///     /* extract a model instance */
///     finder.block_guarded(&circuit, &inst, &observable_bits, None);
/// }
/// ```
#[derive(Debug)]
pub struct Finder {
    solver: Solver,
    node_var: Vec<Option<Var>>,
    const_true: Option<Var>,
    input_of_var: Vec<Option<usize>>,
}

impl Finder {
    /// Creates a finder for (the current state of) `circuit`.
    ///
    /// The circuit may keep growing afterwards; translation is demand-driven.
    pub fn new(circuit: &Circuit) -> Finder {
        let _ = circuit;
        Finder {
            solver: Solver::new(),
            node_var: Vec::new(),
            const_true: None,
            input_of_var: Vec::new(),
        }
    }

    /// Creates a finder attached to a pre-compiled circuit.
    ///
    /// The CNF clauses stay in the compiled circuit's shared arena — only
    /// the node→variable maps are cloned — so a portfolio of workers pays
    /// the Tseitin transform once (see [`CompiledCircuit::compile`]) and
    /// each attach is cheap. The finder behaves exactly like one built with
    /// [`Finder::new`] afterwards: blocking clauses, incremental
    /// translation of uncompiled bits, and assumptions all work, privately
    /// per finder.
    pub fn attach(compiled: &CompiledCircuit) -> Finder {
        Finder::over(compiled, Solver::attach_shared(compiled.cnf().clone()))
    }

    /// [`Finder::attach`], but via [`Solver::attach_shared_lazy`]: the
    /// arena's definitional layers (see
    /// [`CompiledCircuit::extend_definitional`]) stay dormant until this
    /// finder's assumptions, blocking clauses, or demand-translated bits
    /// reference one of their variables. Dormant cones cost no watchers
    /// and no propagation; activation only adds constraints the full
    /// formula already contains, so the enumerated instance set is
    /// identical to an eager attach.
    pub fn attach_lazy(compiled: &CompiledCircuit) -> Finder {
        Finder::over(compiled, Solver::attach_shared_lazy(compiled.cnf().clone()))
    }

    /// The one attach constructor: `solver` is attached to `compiled`'s
    /// arena, and the node→variable maps are cloned from it.
    fn over(compiled: &CompiledCircuit, solver: Solver) -> Finder {
        Finder {
            solver,
            node_var: compiled.node_var().to_vec(),
            const_true: compiled.const_true(),
            input_of_var: compiled.input_of_var().to_vec(),
        }
    }

    /// Statistics from the underlying SAT solver.
    pub fn solver_stats(&self) -> litsynth_sat::SolverStats {
        self.solver.stats()
    }

    /// Seeds the solver's branching order with the cones of `roots`: every
    /// already-compiled variable reachable from them gets one initial
    /// activity bump. On a formula attached from a shared multi-query
    /// compilation this steers the first decisions into the cone *this*
    /// finder's query constrains instead of plain variable-index order
    /// (which would start in whatever layer was compiled first). Purely a
    /// search-order hint: the set of satisfying instances is untouched.
    pub fn warm<I: IntoIterator<Item = Bit>>(&mut self, c: &Circuit, roots: I) {
        let mut seen = vec![false; c.num_nodes().min(self.node_var.len())];
        let mut stack: Vec<usize> = roots
            .into_iter()
            .map(|b| b.node())
            .filter(|&n| n < seen.len())
            .collect();
        while let Some(n) = stack.pop() {
            if seen[n] {
                continue;
            }
            seen[n] = true;
            if let Some(v) = self.node_var[n] {
                self.solver.warm_var(v);
            }
            if let Node::And(a, b) = c.node(n) {
                for m in [a.node(), b.node()] {
                    if m < seen.len() && !seen[m] {
                        stack.push(m);
                    }
                }
            }
        }
    }

    /// Number of CNF variables allocated so far.
    pub fn num_cnf_vars(&self) -> usize {
        self.solver.num_vars()
    }

    /// Shared-arena layers this finder's solver has activated (all of
    /// them on an eager attach; see [`Finder::attach_lazy`]).
    pub fn active_layer_count(&self) -> usize {
        self.solver.active_layer_count()
    }

    /// CNF variables with watchers live (all of them on an eager attach;
    /// the demand-activated subset after [`Finder::attach_lazy`]).
    pub fn active_var_count(&self) -> usize {
        self.solver.active_var_count()
    }

    /// Declares the cone roots this finder is about to enumerate under
    /// (see [`litsynth_sat::Solver::declare_roots`]): on a lazily
    /// attached solver, activates the bits' defining cones now, so that
    /// pruning clauses seeded *before* the first solve — a vault fetch,
    /// an exchange drain — install immediately instead of passing
    /// through the shelve-and-replay path; and, when the decision domain
    /// is enabled ([`Finder::set_domain_enabled`]), rebuilds the local
    /// decision domain as this query's cone. No-op on an eager attach
    /// with the domain off.
    pub fn declare_roots(&mut self, c: &Circuit, bits: &[Bit]) {
        let lits: Vec<Lit> = bits.iter().map(|&b| self.lit_of(c, b)).collect();
        self.solver.declare_roots(lits);
    }

    /// Controls shelve-and-replay of exchange/vault imports over dormant
    /// cones (see [`litsynth_sat::Solver::set_shelving`]; default on).
    pub fn set_shelving(&mut self, on: bool) {
        self.solver.set_shelving(on);
    }

    /// Enables the two-level decision domain (see
    /// [`litsynth_sat::Solver::set_domain_enabled`]; default off): after
    /// the next [`Finder::declare_roots`], solves branch on the declared
    /// cone first and fall back to global VSIDS once it is exhausted.
    pub fn set_domain_enabled(&mut self, on: bool) {
        self.solver.set_domain_enabled(on);
    }

    /// Controls level-0 inprocessing of the solver's private clause
    /// database (see [`litsynth_sat::Solver::set_inprocessing`]; default
    /// on). Inprocessing only removes satisfied/subsumed clauses and false
    /// literals, so the enumerated instance set is unchanged either way.
    pub fn set_inprocessing(&mut self, on: bool) {
        self.solver.set_inprocessing(on);
    }

    /// Controls tiered learnt-clause retention (see
    /// [`litsynth_sat::Solver::set_tiered_retention`]; default on). `false`
    /// falls back to the legacy single-activity reduction policy. Retention
    /// only discards learnt clauses, so the enumerated instance set is
    /// unchanged either way.
    pub fn set_tiered_retention(&mut self, on: bool) {
        self.solver.set_tiered_retention(on);
    }

    /// Number of CNF clauses added so far.
    pub fn num_cnf_clauses(&self) -> usize {
        self.solver.num_clauses()
    }

    /// The CNF literal equivalent to `bit`, creating Tseitin definitions on
    /// demand.
    pub fn lit_of(&mut self, c: &Circuit, bit: Bit) -> Lit {
        if self.node_var.len() < c.num_nodes() {
            self.node_var.resize(c.num_nodes(), None);
        }
        // Iterative post-order translation.
        let mut stack = vec![bit.node()];
        while let Some(&n) = stack.last() {
            if self.node_var[n].is_some() {
                stack.pop();
                continue;
            }
            match c.node(n) {
                Node::ConstTrue => {
                    let v = *self.const_true.get_or_insert_with(|| {
                        let v = self.solver.new_var();
                        self.input_of_var.push(None);
                        self.solver.add_clause([Lit::pos(v)]);
                        v
                    });
                    self.node_var[n] = Some(v);
                    stack.pop();
                }
                Node::Input(i) => {
                    let v = self.solver.new_var();
                    self.input_of_var.push(Some(i as usize));
                    self.node_var[n] = Some(v);
                    stack.pop();
                }
                Node::And(a, b) => {
                    let (na, nb) = (a.node(), b.node());
                    if self.node_var[na].is_none() {
                        stack.push(na);
                        continue;
                    }
                    if self.node_var[nb].is_none() {
                        stack.push(nb);
                        continue;
                    }
                    let la = Lit::new(
                        self.node_var[na].expect("operand translated before its AND node"),
                        !a.is_negated(),
                    );
                    let lb = Lit::new(
                        self.node_var[nb].expect("operand translated before its AND node"),
                        !b.is_negated(),
                    );
                    let v = self.solver.new_var();
                    self.input_of_var.push(None);
                    // v ↔ la ∧ lb
                    self.solver.add_clause([Lit::neg(v), la]);
                    self.solver.add_clause([Lit::neg(v), lb]);
                    self.solver.add_clause([Lit::pos(v), !la, !lb]);
                    self.node_var[n] = Some(v);
                    stack.pop();
                }
            }
        }
        Lit::new(
            self.node_var[bit.node()].expect("root node translated by the post-order walk"),
            !bit.is_negated(),
        )
    }

    /// Allocates a fresh activation guard for one enumeration pass.
    ///
    /// A guard is a solver literal with no circuit meaning. Blocking
    /// clauses added under it ([`Finder::block_guarded`]) take the form
    /// `¬guard ∨ block`, so they constrain the search only while the guard
    /// is assumed — which the enumeration loop does by passing the guard in
    /// `extra` to [`Finder::next_instance_budgeted_assuming`]. Once a pass
    /// is over and its guard is never assumed again, its blocking clauses
    /// (and everything the solver derived from them, which necessarily
    /// carries `¬guard`) become inert, so the *same live solver* can serve
    /// a different query of the identical formula and still enumerate that
    /// query's full instance set — while keeping every clause it learnt
    /// from the formula alone. That is the whole point: incremental SAT
    /// across queries instead of a cold solver per query.
    pub fn new_guard(&mut self) -> Lit {
        let v = self.solver.new_var();
        self.input_of_var.push(None);
        Lit::pos(v)
    }

    /// Retires an activation guard that will never be assumed again: the
    /// unit clause `¬guard` is added, which satisfies — permanently, at
    /// level 0 — every blocking clause the guard enclosed and every learnt
    /// derived from them (all carry `¬guard`), so the next inprocessing
    /// pass physically purges them from a pooled solver instead of leaving
    /// them as inert dead weight. Sound because the guard variable occurs
    /// only negatively outside the finished pass's assumptions: asserting
    /// `¬guard` can satisfy clauses but never falsify one, and no future
    /// pass observes or assumes it.
    pub fn retire_guard(&mut self, guard: Lit) {
        self.solver.add_clause([!guard]);
    }

    /// Finds the next instance satisfying all `asserts`: the one
    /// enumeration call.
    ///
    /// The assertions and the `extra` literals — typically one activation
    /// guard from [`Finder::new_guard`] — are passed as solver
    /// assumptions, so they constrain only this call; blocking clauses
    /// added via [`Finder::block_guarded`] persist. The solver trades
    /// learnt clauses with portfolio peers through `exchange` at its
    /// restart boundaries (imports may only prune, so the enumerated set
    /// is unchanged as long as the endpoint honors the soundness contract
    /// in [`litsynth_sat::ClauseExchange`]).
    ///
    /// `Ok(Some(inst))` is the next instance, `Ok(None)` means the query is
    /// exhausted, and `Err(interrupt)` means `budget`'s conflict limit or
    /// an injected fault stopped the solve first. On
    /// `Err` the finder stays warm (blocking clauses, learnt clauses and
    /// VSIDS activities are kept), so the call can be retried with a
    /// larger budget, or the activities read back with
    /// [`Finder::activity_of`] — which is how the portfolio's pin probe
    /// ranks cube candidates.
    pub fn next_instance_budgeted_assuming(
        &mut self,
        c: &Circuit,
        asserts: &[Bit],
        extra: &[Lit],
        exchange: &mut dyn ClauseExchange,
        budget: &SolveBudget,
    ) -> Result<Option<Instance>, Interrupt> {
        let Some(mut assumptions) = self.assumptions_for(c, asserts) else {
            return Ok(None);
        };
        assumptions.extend_from_slice(extra);
        match self.solver.solve(&assumptions, exchange, budget) {
            BudgetedResult::Interrupted(i) => Err(i),
            BudgetedResult::Done(SolveResult::Unsat) => Ok(None),
            BudgetedResult::Done(SolveResult::Sat) => {
                let mut inputs = vec![false; c.num_inputs()];
                for (vi, &input) in self.input_of_var.iter().enumerate() {
                    if let Some(i) = input {
                        if let Some(val) = self.solver.value(Var::from_index(vi)) {
                            inputs[i] = val;
                        }
                    }
                }
                Ok(Some(Instance { inputs }))
            }
        }
    }

    /// Translates `asserts` to assumption literals; `None` if one of them
    /// is the constant false.
    fn assumptions_for(&mut self, c: &Circuit, asserts: &[Bit]) -> Option<Vec<Lit>> {
        let mut assumptions = Vec::with_capacity(asserts.len());
        for &a in asserts {
            if a == Circuit::FALSE {
                return None;
            }
            if a == Circuit::TRUE {
                continue;
            }
            assumptions.push(self.lit_of(c, a));
        }
        Some(assumptions)
    }

    /// The VSIDS activity of the CNF variable behind `bit` (0.0 for
    /// constants and for bits whose cone never conflicted).
    pub fn activity_of(&mut self, c: &Circuit, bit: Bit) -> f64 {
        if bit == Circuit::TRUE || bit == Circuit::FALSE {
            return 0.0;
        }
        let l = self.lit_of(c, bit);
        self.solver.activity(l.var())
    }

    /// Permanently excludes every instance that agrees with `inst` on all of
    /// the `observed` bits — while `guard` is assumed, when one is given:
    /// the blocking clause is then `¬guard ∨ block` (see
    /// [`Finder::new_guard`]). `None` blocks unconditionally.
    pub fn block_guarded(
        &mut self,
        c: &Circuit,
        inst: &Instance,
        observed: &[Bit],
        guard: Option<Lit>,
    ) {
        let live: Vec<Bit> = observed
            .iter()
            .copied()
            .filter(|&b| b != Circuit::TRUE && b != Circuit::FALSE) // a constant can never differ
            .collect();
        // One shared-memo evaluation pass over all observed bits — the
        // bits share most of their cone, so per-bit eval would redo
        // O(bits × nodes) work on every blocked instance.
        let vals = inst.eval_many(c, &live);
        let mut clause = Vec::with_capacity(live.len() + 1);
        clause.extend(guard.map(|g| !g));
        for (&b, val) in live.iter().zip(vals) {
            let lit = self.lit_of(c, b);
            clause.push(if val { !lit } else { lit });
        }
        self.solver.add_clause(clause);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::matrix::{Matrix1, Matrix2};
    use litsynth_sat::NoExchange;

    /// Test shorthand: the next instance with no guard, exchange or budget.
    pub(crate) fn next(f: &mut Finder, c: &Circuit, asserts: &[Bit]) -> Option<Instance> {
        f.next_instance_budgeted_assuming(
            c,
            asserts,
            &[],
            &mut NoExchange,
            &SolveBudget::unlimited(),
        )
        .expect("an unlimited budget never interrupts")
    }

    #[test]
    fn sat_and_unsat_roots() {
        let mut c = Circuit::new();
        let x = c.input("x");
        let y = c.input("y");
        let both = c.and(x, y);
        let mut f = Finder::new(&c);
        let inst = next(&mut f, &c, &[both]).expect("x∧y is satisfiable");
        assert!(inst.eval(&c, x));
        assert!(inst.eval(&c, y));
        let contradiction = c.and(x, x.not());
        assert!(next(&mut f, &c, &[contradiction]).is_none());
    }

    #[test]
    fn constants_as_asserts() {
        let c = Circuit::new();
        let mut f = Finder::new(&c);
        assert!(next(&mut f, &c, &[Circuit::TRUE]).is_some());
        assert!(next(&mut f, &c, &[Circuit::FALSE]).is_none());
    }

    #[test]
    fn enumeration_counts_models() {
        // x ∨ y: 3 models over observed {x, y}.
        let mut c = Circuit::new();
        let x = c.input("x");
        let y = c.input("y");
        let root = c.or(x, y);
        let mut f = Finder::new(&c);
        let mut n = 0;
        while let Some(inst) = next(&mut f, &c, &[root]) {
            n += 1;
            f.block_guarded(&c, &inst, &[x, y], None);
            assert!(n <= 3);
        }
        assert_eq!(n, 3);
    }

    #[test]
    fn blocking_on_derived_bits() {
        // Observe only x⊕y: two classes {same, different}.
        let mut c = Circuit::new();
        let x = c.input("x");
        let y = c.input("y");
        let obs = c.xor(x, y);
        let mut f = Finder::new(&c);
        let mut n = 0;
        while let Some(inst) = next(&mut f, &c, &[Circuit::TRUE]) {
            n += 1;
            f.block_guarded(&c, &inst, &[obs], None);
            assert!(n <= 2);
        }
        assert_eq!(n, 2);
    }

    #[test]
    fn assumptions_do_not_persist_across_queries() {
        let mut c = Circuit::new();
        let x = c.input("x");
        let mut f = Finder::new(&c);
        assert!(next(&mut f, &c, &[x]).is_some());
        assert!(next(&mut f, &c, &[x.not()]).is_some());
        assert!(next(&mut f, &c, &[x]).is_some());
    }

    #[test]
    fn instance_eval_matches_solver() {
        let mut c = Circuit::new();
        let xs: Vec<Bit> = (0..4).map(|i| c.input(format!("x{i}"))).collect();
        let f1 = c.xor(xs[0], xs[1]);
        let f2 = c.ite(xs[2], f1, xs[3]);
        let root = c.and(f2, xs[0]);
        let mut f = Finder::new(&c);
        let inst = next(&mut f, &c, &[root]).expect("satisfiable");
        assert!(inst.eval(&c, root));
        assert!(inst.eval(&c, xs[0]));
    }

    #[test]
    fn count_permutation_matrices() {
        // Bijections on 3 atoms: 3! = 6.
        let mut c = Circuit::new();
        let r = Matrix2::free(&mut c, 3, 3, "r");
        let func = r.is_function(&mut c);
        let inj = r.is_injective(&mut c);
        let total: Vec<Bit> = (0..3)
            .map(|i| {
                let row: Vec<Bit> = (0..3).map(|j| r.get(i, j)).collect();
                c.or_many(row)
            })
            .collect();
        let all_total = c.and_many(total);
        let asserts = vec![func, inj, all_total];
        let observed: Vec<Bit> = (0..3)
            .flat_map(|i| (0..3).map(move |j| (i, j)))
            .map(|(i, j)| r.get(i, j))
            .collect();
        let mut f = Finder::new(&c);
        let mut n = 0;
        while let Some(inst) = next(&mut f, &c, &asserts) {
            n += 1;
            f.block_guarded(&c, &inst, &observed, None);
            assert!(n <= 6);
        }
        assert_eq!(n, 6);
    }

    #[test]
    fn interrupted_enumeration_resumes_without_losing_instances() {
        // An interrupt injected at restart 0 stops the solve before any
        // search; retrying with no budget must then enumerate exactly the
        // clean-run instances.
        let mut c = Circuit::new();
        let x = c.input("x");
        let y = c.input("y");
        let root = c.or(x, y);
        let plan = litsynth_sat::FaultPlan::parse("q@*@*@0@interrupt").expect("plan parses");
        let interrupting = SolveBudget {
            fault: Some(litsynth_sat::FaultCtx {
                plan: std::sync::Arc::new(plan),
                query: "q".into(),
                cube: 0,
                attempt: 0,
            }),
            ..SolveBudget::default()
        };
        let mut f = Finder::new(&c);
        let mut n = 0;
        let mut interrupts = 0;
        loop {
            // First try under the injected interrupt: always interrupted.
            match f.next_instance_budgeted_assuming(
                &c,
                &[root],
                &[],
                &mut NoExchange,
                &interrupting,
            ) {
                Err(Interrupt::Injected) => interrupts += 1,
                other => panic!("expected an injected interrupt, got {other:?}"),
            }
            // Retry without a budget: the finder stayed warm.
            match next(&mut f, &c, &[root]) {
                None => break,
                Some(inst) => {
                    n += 1;
                    f.block_guarded(&c, &inst, &[x, y], None);
                    assert!(n <= 3);
                }
            }
        }
        assert_eq!(n, 3, "interrupts must not lose or duplicate instances");
        assert_eq!(interrupts, 4);
    }

    #[test]
    fn finder_and_instance_are_send() {
        // The parallel synthesis engine moves a private Finder (and its
        // enumerated Instances) into each worker thread.
        fn assert_send<T: Send>() {}
        assert_send::<Finder>();
        assert_send::<Instance>();
        assert_send::<Circuit>();
    }

    #[test]
    fn cube_assumptions_partition_the_model_count() {
        // Pinning a set of observed bits to every boolean pattern splits
        // one enumeration into disjoint subqueries: the per-cube model
        // counts must sum to the unpartitioned count exactly.
        let build = || {
            let mut c = Circuit::new();
            let xs: Vec<Bit> = (0..5).map(|i| c.input(format!("x{i}"))).collect();
            // x0 ∨ x1 ∨ (x2 ∧ x3): 5 free-ish bits, a non-trivial count.
            let a = c.and(xs[2], xs[3]);
            let b = c.or(xs[0], xs[1]);
            let root = c.or(a, b);
            (c, xs, root)
        };
        let count = |mk_pins: &dyn Fn(&[Bit]) -> Vec<Bit>| {
            let (c, xs, root) = build();
            let mut f = Finder::new(&c);
            let mut asserts = vec![root];
            asserts.extend(mk_pins(&xs));
            let mut n = 0;
            while let Some(inst) = next(&mut f, &c, &asserts) {
                n += 1;
                f.block_guarded(&c, &inst, &xs, None);
                assert!(n <= 32);
            }
            n
        };
        let total = count(&|_| Vec::new());
        assert_eq!(total, 26, "6 of 32 assignments falsify the root");
        for bits in 1..=3usize {
            let mut sum = 0;
            for cube in 0..(1usize << bits) {
                sum += count(&|xs: &[Bit]| {
                    (0..bits)
                        .map(|j| {
                            if cube >> j & 1 == 1 {
                                xs[j]
                            } else {
                                xs[j].not()
                            }
                        })
                        .collect()
                });
            }
            assert_eq!(sum, total, "cube split over {bits} bit(s)");
        }
    }

    #[test]
    fn attached_finder_enumerates_like_a_fresh_one() {
        // The compile-once path must reproduce the demand-driven path
        // class for class, including blocking on derived (non-input) bits.
        let mut c = Circuit::new();
        let xs: Vec<Bit> = (0..5).map(|i| c.input(format!("x{i}"))).collect();
        let a = c.and(xs[2], xs[3]);
        let b = c.or(xs[0], xs[1]);
        let root = c.or(a, b);
        let obs = vec![xs[0], xs[1], a];
        let enumerate = |mut f: Finder| {
            let mut seen = Vec::new();
            while let Some(inst) = next(&mut f, &c, &[root]) {
                seen.push(inst.eval_many(&c, &obs));
                f.block_guarded(&c, &inst, &obs, None);
                assert!(seen.len() <= 8);
            }
            seen.sort();
            seen
        };
        let fresh = enumerate(Finder::new(&c));
        let compiled = CompiledCircuit::compile(&c, [root].into_iter().chain(obs.clone()));
        let attached = enumerate(Finder::attach(&compiled));
        // A second attach is independent of the first one's blocking.
        let attached2 = enumerate(Finder::attach(&compiled));
        assert_eq!(fresh, attached);
        assert_eq!(fresh, attached2);
    }

    #[test]
    fn attached_cubes_partition_like_fresh_cubes() {
        let mut c = Circuit::new();
        let xs: Vec<Bit> = (0..5).map(|i| c.input(format!("x{i}"))).collect();
        let a = c.and(xs[2], xs[3]);
        let b = c.or(xs[0], xs[1]);
        let root = c.or(a, b);
        let compiled = CompiledCircuit::compile(&c, [root].into_iter().chain(xs.iter().copied()));
        let count = |pins: &[Bit]| {
            let mut f = Finder::attach(&compiled);
            let mut asserts = vec![root];
            asserts.extend_from_slice(pins);
            let mut n = 0;
            while let Some(inst) = next(&mut f, &c, &asserts) {
                n += 1;
                f.block_guarded(&c, &inst, &xs, None);
                assert!(n <= 32);
            }
            n
        };
        let total = count(&[]);
        assert_eq!(total, 26);
        let split: usize = (0..4usize)
            .map(|cube| {
                let pins: Vec<Bit> = (0..2)
                    .map(|j| {
                        if cube >> j & 1 == 1 {
                            xs[j]
                        } else {
                            xs[j].not()
                        }
                    })
                    .collect();
                count(&pins)
            })
            .sum();
        assert_eq!(split, total);
    }

    #[test]
    fn one_live_solver_serves_consecutive_guarded_enumerations() {
        // The solver-pool contract: one finder, attached once, runs many
        // enumeration passes in sequence — same query or different queries
        // over the same formula — each pass under its own activation
        // guard. Every pass must see the full class set, because earlier
        // passes' blocking clauses are guarded and inert once their guard
        // is no longer assumed. Learnt clauses survive between passes;
        // they are formula-implied, so they may only prune.
        let mut c = Circuit::new();
        let xs: Vec<Bit> = (0..5).map(|i| c.input(format!("x{i}"))).collect();
        let a = c.and(xs[2], xs[3]);
        let b = c.or(xs[0], xs[1]);
        let root = c.or(a, b);
        let roots: Vec<Bit> = [root, a, b].into_iter().chain(xs.iter().copied()).collect();
        let compiled = CompiledCircuit::compile(&c, roots);
        let mut f = Finder::attach(&compiled);
        let queries: [(&[Bit], usize); 4] = [
            (&[root], 26),   // 6 of 32 assignments falsify the root
            (&[a], 8),       // x2 ∧ x3 pinned
            (&[root], 26),   // the first query again: nothing leaked
            (&[b.not()], 8), // ¬(x0 ∨ x1)
        ];
        for (pass, &(asserts, expected)) in queries.iter().enumerate() {
            let guard = f.new_guard();
            f.warm(&c, asserts.iter().copied());
            let mut n = 0;
            loop {
                let got = f
                    .next_instance_budgeted_assuming(
                        &c,
                        asserts,
                        &[guard],
                        &mut NoExchange,
                        &SolveBudget::unlimited(),
                    )
                    .expect("unlimited budget never interrupts");
                let Some(inst) = got else { break };
                n += 1;
                f.block_guarded(&c, &inst, &xs, Some(guard));
                assert!(n <= 32);
            }
            assert_eq!(n, expected, "pass {pass} must enumerate its full set");
        }
    }

    #[test]
    fn probe_warms_activities_deterministically() {
        let mut c = Circuit::new();
        let r = Matrix2::free(&mut c, 4, 4, "r");
        let func = r.is_function(&mut c);
        let inj = r.is_injective(&mut c);
        let obs: Vec<Bit> = (0..4)
            .flat_map(|i| (0..4).map(move |j| (i, j)))
            .map(|(i, j)| r.get(i, j))
            .collect();
        let roots: Vec<Bit> = [func, inj].into_iter().chain(obs.iter().copied()).collect();
        let compiled = CompiledCircuit::compile(&c, roots);
        let rank = |_: ()| {
            let mut f = Finder::attach(&compiled);
            let probe = SolveBudget::conflicts(50);
            let _ =
                f.next_instance_budgeted_assuming(&c, &[func, inj], &[], &mut NoExchange, &probe);
            let mut scored: Vec<(usize, f64)> = obs
                .iter()
                .enumerate()
                .map(|(i, &bit)| (i, f.activity_of(&c, bit)))
                .collect();
            scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            scored.into_iter().map(|(i, _)| i).collect::<Vec<_>>()
        };
        // Probing is a pure function of the compiled query: two runs agree.
        assert_eq!(rank(()), rank(()));
    }

    #[test]
    fn compiled_circuit_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<CompiledCircuit>();
    }

    #[test]
    fn subset_enumeration() {
        // Subsets of a 4-atom sort that contain atom 0: 8.
        let mut c = Circuit::new();
        let s = Matrix1::free(&mut c, 4, "s");
        let has0 = s.get(0);
        let observed: Vec<Bit> = (0..4).map(|i| s.get(i)).collect();
        let mut f = Finder::new(&c);
        let mut n = 0;
        while let Some(inst) = next(&mut f, &c, &[has0]) {
            n += 1;
            f.block_guarded(&c, &inst, &observed, None);
            assert!(n <= 8);
        }
        assert_eq!(n, 8);
    }
}
