//! Compile-once circuit → CNF translation for portfolio solving.
//!
//! [`Finder`](crate::Finder) translates on demand into a private solver, so
//! every enumeration worker of a cube-split query used to redo the same
//! Tseitin transform. A [`CompiledCircuit`] performs that transform exactly
//! once, into an immutable [`SharedCnf`] arena plus the node→variable map,
//! and any number of finders then attach to it via
//! [`Finder::attach`](crate::Finder::attach) — sharing the clause arena by
//! reference and cloning only the (small) variable maps.

use crate::circuit::{Bit, Circuit, Node};
use litsynth_sat::{CnfBuilder, Lit, SharedCnf, Var};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Per-thread count of [`CompiledCircuit::compile`] runs.
    static THREAD_COMPILATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Number of circuit→CNF compilations performed by the **calling thread**
/// (demand-driven [`Finder::new`](crate::Finder::new) translation is not
/// counted — only whole-circuit [`CompiledCircuit::compile`] runs). A
/// delta of this value around a code region counts exactly the region's
/// own compilations, immune to concurrent compilation elsewhere.
pub fn thread_compilations() -> u64 {
    THREAD_COMPILATIONS.with(|c| c.get())
}

/// The frozen result of Tseitin-translating a circuit once.
///
/// Holds the shared clause arena and the maps a [`Finder`](crate::Finder)
/// needs to resume translation incrementally (e.g. for blocking clauses
/// over bits that were not compiled as roots).
#[derive(Debug)]
pub struct CompiledCircuit {
    cnf: Arc<SharedCnf>,
    node_var: Vec<Option<Var>>,
    const_true: Option<Var>,
    input_of_var: Vec<Option<usize>>,
}

impl CompiledCircuit {
    /// Translates the cones of all `roots` to CNF, in one pass.
    ///
    /// The roots should cover every bit the attached finders will touch —
    /// assertions, observables, and candidate cube pins — so that workers
    /// never have to extend the CNF beyond their own blocking clauses. Bits
    /// outside the compiled cone still work after attach; they are simply
    /// translated locally, per finder.
    pub fn compile<I: IntoIterator<Item = Bit>>(c: &Circuit, roots: I) -> CompiledCircuit {
        CompiledCircuit::compile_tagged(c, roots, false)
    }

    /// [`CompiledCircuit::compile`] with an explicit provenance tag for the
    /// built CNF layer: `skeleton == true` marks the formula as
    /// axiom-independent structural skeleton, which makes it eligible both
    /// as a base for [`CompiledCircuit::extend`] chains and as an anchor
    /// for cross-query clause reuse (see the portfolio crate's vault).
    pub fn compile_tagged<I: IntoIterator<Item = Bit>>(
        c: &Circuit,
        roots: I,
        skeleton: bool,
    ) -> CompiledCircuit {
        THREAD_COMPILATIONS.with(|c| c.set(c.get() + 1));
        let mut b = CnfBuilder::new();
        let mut state = TranslationState {
            node_var: vec![None; c.num_nodes()],
            const_true: None,
            input_of_var: Vec::new(),
        };
        translate_cones(c, roots, &mut b, &mut state);
        CompiledCircuit {
            cnf: Arc::new(b.build_tagged(skeleton)),
            node_var: state.node_var,
            const_true: state.const_true,
            input_of_var: state.input_of_var,
        }
    }

    /// Incrementally compiles `roots` as an extension of `base`: the
    /// node→variable map is inherited, so only nodes *not* already covered
    /// by `base`'s cones are Tseitin-encoded — into one new [`SharedCnf`]
    /// layer that `Arc`-shares every clause of `base`. `base` itself is
    /// untouched and can anchor any number of divergent extensions.
    ///
    /// Requires that `c` is the same (possibly grown) circuit arena `base`
    /// was compiled from: node indices must mean the same nodes.
    pub fn extend<I: IntoIterator<Item = Bit>>(
        base: &CompiledCircuit,
        c: &Circuit,
        roots: I,
        skeleton: bool,
    ) -> CompiledCircuit {
        CompiledCircuit::extend_with(base, c, roots, skeleton, false)
    }

    /// [`CompiledCircuit::extend`], additionally tagging the new layer
    /// *definitional* ([`litsynth_sat::CnfLayer::is_definitional`]): a
    /// pure Tseitin cone a lazy solver may leave dormant until the query
    /// references one of its variables. The tag's promise — every clause
    /// mentions a layer-own gate variable, and those gates are functions
    /// of earlier variables — holds for any `translate_cones` output by
    /// construction: each emitted clause names the fresh variable it
    /// defines (the AND-gate triple and the const-true unit both contain
    /// their own fresh var; inputs emit no clauses at all).
    pub fn extend_definitional<I: IntoIterator<Item = Bit>>(
        base: &CompiledCircuit,
        c: &Circuit,
        roots: I,
        skeleton: bool,
    ) -> CompiledCircuit {
        CompiledCircuit::extend_with(base, c, roots, skeleton, true)
    }

    fn extend_with<I: IntoIterator<Item = Bit>>(
        base: &CompiledCircuit,
        c: &Circuit,
        roots: I,
        skeleton: bool,
        definitional: bool,
    ) -> CompiledCircuit {
        let mut b = CnfBuilder::extending(&base.cnf);
        let mut node_var = base.node_var.clone();
        node_var.resize(c.num_nodes(), None);
        let mut state = TranslationState {
            node_var,
            const_true: base.const_true,
            input_of_var: base.input_of_var.clone(),
        };
        translate_cones(c, roots, &mut b, &mut state);
        CompiledCircuit {
            cnf: Arc::new(b.build_layer(skeleton, definitional)),
            node_var: state.node_var,
            const_true: state.const_true,
            input_of_var: state.input_of_var,
        }
    }

    /// The shared clause arena.
    pub fn cnf(&self) -> &Arc<SharedCnf> {
        &self.cnf
    }

    /// Number of CNF variables in the compiled formula.
    pub fn num_vars(&self) -> usize {
        self.cnf.num_vars()
    }

    /// Number of CNF clauses (including units) in the compiled formula.
    pub fn num_clauses(&self) -> usize {
        self.cnf.num_clauses() + self.cnf.units().len()
    }

    pub(crate) fn node_var(&self) -> &[Option<Var>] {
        &self.node_var
    }

    pub(crate) fn const_true(&self) -> Option<Var> {
        self.const_true
    }

    pub(crate) fn input_of_var(&self) -> &[Option<usize>] {
        &self.input_of_var
    }

    /// Checks that `self` and `other` encode the same CNF clause-for-clause
    /// modulo the variable renaming induced by their node→variable maps:
    /// both must cover exactly the same circuit nodes, and renaming every
    /// literal of `self` through "node's var here ↦ node's var there" must
    /// yield `other`'s clause multiset exactly.
    ///
    /// This is the oracle the incremental-compilation property tests use:
    /// an extension chain built across bounds must be indistinguishable —
    /// up to variable names — from a from-scratch compilation of the same
    /// roots.
    pub fn same_cnf_modulo_renaming(&self, other: &CompiledCircuit) -> bool {
        if self.cnf.num_vars() != other.cnf.num_vars() {
            return false;
        }
        // Build the renaming from the node maps (and the const-true var).
        let mut rename: Vec<Option<Var>> = vec![None; self.cnf.num_vars()];
        let longest = self.node_var.len().max(other.node_var.len());
        for n in 0..longest {
            let a = self.node_var.get(n).copied().flatten();
            let b = other.node_var.get(n).copied().flatten();
            match (a, b) {
                (Some(va), Some(vb)) => rename[va.index()] = Some(vb),
                (None, None) => {}
                _ => return false, // one side compiled a node the other didn't
            }
        }
        if let (Some(ca), Some(cb)) = (self.const_true, other.const_true) {
            rename[ca.index()] = Some(cb);
        } else if self.const_true.is_some() != other.const_true.is_some() {
            return false;
        }
        if rename.iter().any(|r| r.is_none()) {
            return false; // some var of `self` corresponds to no node
        }
        let map_clause = |lits: &[Lit]| -> Option<Vec<Lit>> {
            let mut out = Vec::with_capacity(lits.len());
            for &l in lits {
                out.push(Lit::new(rename[l.var().index()]?, l.is_positive()));
            }
            out.sort();
            Some(out)
        };
        let normalize = |cnf: &SharedCnf, renamed: bool| -> Option<Vec<Vec<Lit>>> {
            let mut all = Vec::with_capacity(cnf.num_clauses() + cnf.units().len());
            for i in 0..cnf.num_clauses() {
                let c = cnf.clause(i);
                all.push(if renamed {
                    map_clause(c)?
                } else {
                    let mut c = c.to_vec();
                    c.sort();
                    c
                });
            }
            for &u in cnf.units() {
                all.push(if renamed { map_clause(&[u])? } else { vec![u] });
            }
            all.sort();
            Some(all)
        };
        normalize(&self.cnf, true) == normalize(&other.cnf, false)
    }
}

/// The mutable maps threaded through a translation pass; for an extension
/// they start as copies of the base's maps so covered nodes are skipped.
struct TranslationState {
    node_var: Vec<Option<Var>>,
    const_true: Option<Var>,
    input_of_var: Vec<Option<usize>>,
}

/// Tseitin-translates the cones of `roots` into `b`, skipping (and
/// reusing) every node already present in `state.node_var`. The same
/// iterative post-order walk as `Finder::lit_of`, emitting into a builder
/// instead of a live solver.
fn translate_cones<I: IntoIterator<Item = Bit>>(
    c: &Circuit,
    roots: I,
    b: &mut CnfBuilder,
    state: &mut TranslationState,
) {
    let TranslationState {
        node_var,
        const_true,
        input_of_var,
    } = state;
    for root in roots {
        let mut stack = vec![root.node()];
        while let Some(&n) = stack.last() {
            if node_var[n].is_some() {
                stack.pop();
                continue;
            }
            match c.node(n) {
                Node::ConstTrue => {
                    let v = *const_true.get_or_insert_with(|| {
                        let v = b.new_var();
                        input_of_var.push(None);
                        b.add_clause([Lit::pos(v)]);
                        v
                    });
                    node_var[n] = Some(v);
                    stack.pop();
                }
                Node::Input(i) => {
                    let v = b.new_var();
                    input_of_var.push(Some(i as usize));
                    node_var[n] = Some(v);
                    stack.pop();
                }
                Node::And(x, y) => {
                    let (nx, ny) = (x.node(), y.node());
                    if node_var[nx].is_none() {
                        stack.push(nx);
                        continue;
                    }
                    if node_var[ny].is_none() {
                        stack.push(ny);
                        continue;
                    }
                    let lx = Lit::new(
                        node_var[nx].expect("operand compiled before its AND node"),
                        !x.is_negated(),
                    );
                    let ly = Lit::new(
                        node_var[ny].expect("operand compiled before its AND node"),
                        !y.is_negated(),
                    );
                    let v = b.new_var();
                    input_of_var.push(None);
                    // v ↔ lx ∧ ly
                    b.add_clause([Lit::neg(v), lx]);
                    b.add_clause([Lit::neg(v), ly]);
                    b.add_clause([Lit::pos(v), !lx, !ly]);
                    node_var[n] = Some(v);
                    stack.pop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finder::tests::next;
    use crate::Finder;

    #[test]
    fn compile_covers_shared_cones_once() {
        let mut c = Circuit::new();
        let x = c.input("x");
        let y = c.input("y");
        let z = c.input("z");
        let xy = c.and(x, y);
        let root1 = c.or(xy, z);
        let root2 = c.and(xy, z); // shares the x∧y cone
        let compiled = CompiledCircuit::compile(&c, [root1, root2]);
        // 3 inputs + xy + ¬(¬xy ∧ ¬z) gate + root2 gate = 6 vars.
        assert_eq!(compiled.num_vars(), 6);
        let mut f = Finder::attach(&compiled);
        assert!(next(&mut f, &c, &[root1]).is_some());
        assert!(next(&mut f, &c, &[root2]).is_some());
    }

    #[test]
    fn compilation_counters_tick() {
        let thread_before = thread_compilations();
        let mut c = Circuit::new();
        let x = c.input("x");
        let _ = CompiledCircuit::compile(&c, [x]);
        // The thread-local counter is exact: no other thread can tick it.
        assert_eq!(thread_compilations(), thread_before + 1);
    }

    #[test]
    fn extend_reuses_base_layers_and_encodes_only_new_nodes() {
        let mut c = Circuit::new();
        let x = c.input("x");
        let y = c.input("y");
        let xy = c.and(x, y);
        let base = CompiledCircuit::compile_tagged(&c, [xy], true);
        let base_vars = base.num_vars();
        let base_clauses = base.num_clauses() as u64;

        let thread_before = thread_compilations();
        // Grow the same arena and extend the compilation over it.
        let z = c.input("z");
        let root = c.or(xy, z);
        let ext = CompiledCircuit::extend(&base, &c, [root], false);

        assert_eq!(
            thread_compilations(),
            thread_before,
            "an extension is not a full compilation"
        );
        // The base's layer is literally shared, the chain holds every base
        // clause plus the OR gate's three, and only the new cone got fresh
        // variables: input z plus the OR gate.
        assert_eq!(ext.num_clauses() as u64, base_clauses + 3);
        assert!(Arc::ptr_eq(&base.cnf().layers()[0], &ext.cnf().layers()[0]));
        assert_eq!(ext.cnf().num_layers(), 2);
        assert_eq!(ext.num_vars(), base_vars + 2);
        // The extension is solvable, and the untouched base still is too.
        let mut f = Finder::attach(&ext);
        assert!(next(&mut f, &c, &[root]).is_some());
        let mut fb = Finder::attach(&base);
        assert!(next(&mut fb, &c, &[xy]).is_some());
    }

    #[test]
    fn definitional_extensions_tag_their_layer() {
        let mut c = Circuit::new();
        let x = c.input("x");
        let y = c.input("y");
        let base = CompiledCircuit::compile_tagged(&c, [x, y], true);
        let xy = c.and(x, y);
        let ext = CompiledCircuit::extend_definitional(&base, &c, [xy], true);
        assert!(!ext.cnf().layers()[0].is_definitional());
        assert!(ext.cnf().layers()[1].is_definitional());
        assert!(ext.cnf().layers()[1].is_skeleton());
        // The cone encodes and solves exactly like a plain extension.
        let plain = CompiledCircuit::extend(&base, &c, [xy], true);
        assert_eq!(ext.num_vars(), plain.num_vars());
        assert_eq!(ext.num_clauses(), plain.num_clauses());
        let mut f = Finder::attach_lazy(&ext);
        assert!(next(&mut f, &c, &[xy]).is_some());
    }

    #[test]
    fn extension_chain_matches_from_scratch_modulo_renaming() {
        // Build a three-stage circuit; compile it as a chain (stage by
        // stage) and from scratch, then compare clause-for-clause.
        let mut c = Circuit::new();
        let inputs: Vec<Bit> = (0..4).map(|i| c.input(format!("i{i}"))).collect();
        let s1 = c.and_many(inputs[..2].iter().copied());
        let base = CompiledCircuit::compile_tagged(&c, [s1], true);
        let s2 = c.or(s1, inputs[2]);
        let mid = CompiledCircuit::extend(&base, &c, [s2], true);
        let s3 = c.and(s2, inputs[3]);
        let chain = CompiledCircuit::extend(&mid, &c, [s3], false);
        let scratch = CompiledCircuit::compile(&c, [s3]);
        assert!(chain.same_cnf_modulo_renaming(&scratch));
        assert!(scratch.same_cnf_modulo_renaming(&chain));
        // The oracle is not vacuous: a different root set must not match.
        let other = CompiledCircuit::compile(&c, [s2]);
        assert!(!chain.same_cnf_modulo_renaming(&other));
    }
}
