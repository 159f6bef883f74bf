//! Layered compile-once CNF sharing.
//!
//! A [`SharedCnf`] is an immutable CNF formula stored as a chain of
//! reference-counted [`CnfLayer`]s. It is built once with a [`CnfBuilder`]
//! and then attached to any number of solvers via
//! [`crate::Solver::attach_shared`]; the attached solvers read clause
//! literals straight out of the (`Arc`'d) layer arenas — one locator load
//! per lookup, whatever the chain's length — and keep only their tiny
//! per-clause watch metadata private. This is what lets a portfolio
//! of cube workers solve the same compiled query without each
//! re-translating — or even copying — the clause database.
//!
//! The layering is what makes compilation incremental: a builder created
//! with [`CnfBuilder::extending`] continues variable numbering where the
//! base formula left off and records only the *new* clauses, so the built
//! [`SharedCnf`] shares every base layer by `Arc` with the formula it
//! extends. A synthesis sweep compiles the structural skeleton once and
//! derives each (bound, axiom) query's formula as a one-layer extension.
//!
//! Each layer carries a provenance tag ([`CnfLayer::is_skeleton`]): `true`
//! for layers encoding the axiom-independent structural skeleton, `false`
//! for axiom-specific (or monolithic) layers. Solvers propagate the tag
//! through conflict analysis so that learnt clauses implied by the
//! skeleton alone can be reused across queries sharing the same skeleton
//! chain — see [`SharedCnf::skeleton_fingerprints`] and the clause vault
//! in the portfolio crate.
//!
//! Orthogonally, a layer can be tagged *definitional*
//! ([`CnfLayer::is_definitional`]): every clause in it is a pure Tseitin
//! naming constraint — its freshest (maximum) variable is a gate the
//! clause helps define, and gates are functions of strictly older
//! variables. A definitional layer asserts nothing by itself, so a solver
//! may defer watching its clauses gate by gate until the query actually
//! references them ([`crate::Solver::attach_shared_lazy`]). The cone
//! metadata a lazy solver needs is precomputed here: each layer owns the
//! contiguous variable range `[prev.num_vars(), num_vars())`
//! ([`SharedCnf::layer_var_range`]) and the contiguous clause range
//! [`SharedCnf::layer_clause_range`] ("which cone does this variable
//! belong to" is a single binary search, [`SharedCnf::layer_of_var`]),
//! and a definitional layer additionally indexes, per gate variable, the
//! clauses and units defining that gate ([`CnfLayer::gate_defs`]) so
//! activation can walk exactly the referenced sub-DAG of a cone instead
//! of waking whole layers.

use crate::types::{Lit, Var};
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold_u64(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One immutable layer of clauses in a [`SharedCnf`] chain.
///
/// Invariants (established by [`CnfBuilder`]): every stored non-unit
/// clause has at least two distinct, non-complementary literals.
#[derive(Debug)]
pub struct CnfLayer {
    /// Total variables allocated up to and including this layer.
    num_vars: usize,
    /// Flat literal arena for this layer's non-unit clauses.
    lits: Vec<Lit>,
    /// `(start, len)` of each clause inside this layer's `lits`.
    ranges: Vec<(u32, u32)>,
    /// Unit clauses contributed by this layer.
    units: Vec<Lit>,
    /// `true` when this layer encodes shared structural skeleton.
    skeleton: bool,
    /// `true` when every clause of this layer is a Tseitin naming
    /// constraint over the layer's own gate variables (a definition cone):
    /// the layer asserts nothing and is eligible for lazy watching.
    definitional: bool,
    /// First variable index owned by this layer (`num_vars` of the
    /// previous layer in the chain).
    first_var: usize,
    /// Definitional layers only: CSR index from layer-own gate variable to
    /// the items (clauses/units) defining it. `def_start.len()` is the
    /// layer's own variable count + 1; `def_items[def_start[v-first_var]..
    /// def_start[v-first_var+1]]` encodes a layer-local non-unit clause
    /// index as `ci << 1` and a layer-local unit index as `ui << 1 | 1`.
    /// Empty for non-definitional layers.
    def_start: Vec<u32>,
    def_items: Vec<u32>,
    /// Content fingerprint of the whole chain ending at this layer.
    fingerprint: u64,
}

/// One item defining a gate variable of a definitional [`CnfLayer`]: a
/// layer-local non-unit clause index, or a unit literal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GateDef {
    /// Index into the layer's non-unit clauses (layer-local; add the
    /// layer's flat clause offset to address the solver's arena).
    Clause(usize),
    /// A unit clause (e.g. the constant-true gate's pin).
    Unit(Lit),
}

impl CnfLayer {
    /// Non-unit clauses contributed by this layer alone.
    pub fn num_clauses(&self) -> usize {
        self.ranges.len()
    }

    /// `true` when this layer encodes shared structural skeleton.
    pub fn is_skeleton(&self) -> bool {
        self.skeleton
    }

    /// `true` when this layer is a pure definition cone (see
    /// [`CnfBuilder::build_layer`]): a lazy solver may skip its watchers
    /// until one of its variables is referenced.
    pub fn is_definitional(&self) -> bool {
        self.definitional
    }

    /// Unit clauses contributed by this layer alone.
    pub fn units(&self) -> &[Lit] {
        &self.units
    }

    /// Total variables allocated up to and including this layer (the
    /// cumulative count, not the layer's own).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// First variable index owned by this layer.
    pub fn first_var(&self) -> usize {
        self.first_var
    }

    /// The items defining gate variable `v` of a definitional layer: the
    /// clauses whose freshest variable is `v`, in layer order. Empty for
    /// non-definitional layers, input variables (which have no defining
    /// clauses), and variables outside the layer.
    pub fn gate_defs(&self, v: Var) -> impl Iterator<Item = GateDef> + '_ {
        let i = v.index().wrapping_sub(self.first_var);
        let range = match (self.def_start.get(i), self.def_start.get(i + 1)) {
            (Some(&lo), Some(&hi)) => lo as usize..hi as usize,
            _ => 0..0,
        };
        self.def_items[range].iter().map(|&item| {
            if item & 1 == 0 {
                GateDef::Clause((item >> 1) as usize)
            } else {
                GateDef::Unit(self.units[(item >> 1) as usize])
            }
        })
    }

    /// The cumulative chain fingerprint ending at this layer. Equal
    /// fingerprints imply literally identical clause sets over identical
    /// variable indices, which is what makes cross-query clause reuse
    /// keyed on it sound.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// Where flat clause `i` of a chain lives: its layer and its `(start,
/// len)` inside that layer's `lits`.
#[derive(Clone, Copy, Debug)]
struct ClauseLoc {
    layer: u32,
    start: u32,
    len: u32,
}

/// An immutable shared CNF formula: a chain of [`CnfLayer`]s plus the
/// flattened indexing a solver needs to address clauses by a single dense
/// index. Cloning is cheap for the clause data (layers are shared by
/// `Arc`).
#[derive(Debug, Clone, Default)]
pub struct SharedCnf {
    layers: Vec<Arc<CnfLayer>>,
    /// `clause_start[i]` = number of non-unit clauses in layers `0..i`.
    clause_start: Vec<usize>,
    /// One [`ClauseLoc`] per flat clause index, built once per chain, so
    /// a clause lookup (the propagation hot path) is one indexed load
    /// instead of a search over `clause_start`.
    locator: Vec<ClauseLoc>,
    num_vars: usize,
    num_clauses: usize,
    num_lits: usize,
    /// All unit clauses of the chain, in layer order.
    units: Vec<Lit>,
    ok: bool,
}

impl SharedCnf {
    /// Number of variables the formula was built over.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of non-unit clauses in the arena.
    pub fn num_clauses(&self) -> usize {
        self.num_clauses
    }

    /// The unit clauses, as literals.
    pub fn units(&self) -> &[Lit] {
        &self.units
    }

    /// `false` if an empty clause was added: the formula is trivially
    /// unsatisfiable.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// The literals of clause `i`.
    #[inline]
    pub fn clause(&self, i: usize) -> &[Lit] {
        let loc = self.locator[i];
        let start = loc.start as usize;
        &self.layers[loc.layer as usize].lits[start..start + loc.len as usize]
    }

    /// Whether clause `i` comes from a skeleton layer.
    pub fn clause_is_skeleton(&self, i: usize) -> bool {
        self.layers[self.layer_of_clause(i)].skeleton
    }

    /// The index of the layer that owns (non-unit) clause `i`.
    #[inline]
    pub fn layer_of_clause(&self, i: usize) -> usize {
        self.locator[i].layer as usize
    }

    /// The index of the layer that owns variable `v` — layers own
    /// contiguous, ascending variable ranges, so this is a binary search.
    #[inline]
    pub fn layer_of_var(&self, v: Var) -> usize {
        self.layers.partition_point(|l| l.num_vars <= v.index())
    }

    /// The half-open variable range `[lo, hi)` owned by layer `li`.
    pub fn layer_var_range(&self, li: usize) -> std::ops::Range<usize> {
        let lo = if li == 0 {
            0
        } else {
            self.layers[li - 1].num_vars
        };
        lo..self.layers[li].num_vars
    }

    /// The half-open flat clause-index range owned by layer `li`.
    pub fn layer_clause_range(&self, li: usize) -> std::ops::Range<usize> {
        let lo = self.clause_start[li];
        lo..lo + self.layers[li].ranges.len()
    }

    /// Total literal count across all arena clauses.
    pub fn num_lits(&self) -> usize {
        self.num_lits
    }

    /// Number of layers in the chain.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The layers, oldest first.
    pub fn layers(&self) -> &[Arc<CnfLayer>] {
        &self.layers
    }

    /// Content fingerprint of the whole chain (see
    /// [`CnfLayer::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.layers.last().map_or(FNV_OFFSET, |l| l.fingerprint)
    }

    /// Cumulative fingerprints of every prefix of the maximal skeleton
    /// prefix of the chain: `[fp(L0), fp(L0·L1), …]` over the leading run
    /// of skeleton-tagged layers. Two formulas sharing a fingerprint in
    /// this list agree clause-for-clause and variable-for-variable on that
    /// prefix, so skeleton-pure learnt clauses published under it are
    /// sound imports for both.
    pub fn skeleton_fingerprints(&self) -> Vec<u64> {
        self.layers
            .iter()
            .take_while(|l| l.skeleton)
            .map(|l| l.fingerprint)
            .collect()
    }

    /// The definitional cone of `roots`: every variable reachable from a
    /// root by repeatedly following [`CnfLayer::gate_defs`] through
    /// definitional layers. Variables owned by non-definitional layers are
    /// included but not expanded (they have no defining clauses to chase),
    /// exactly mirroring the closure the solver's `activate_vars`
    /// computes when it wakes a cone. The result is deduplicated; its
    /// order is a deterministic function of the root order.
    pub fn cone_vars(&self, roots: impl IntoIterator<Item = Var>) -> Vec<Var> {
        let mut seen = vec![false; self.num_vars];
        let mut out = Vec::new();
        let mut worklist: Vec<Var> = Vec::new();
        for r in roots {
            if r.index() < self.num_vars && !seen[r.index()] {
                seen[r.index()] = true;
                worklist.push(r);
            }
        }
        while let Some(v) = worklist.pop() {
            out.push(v);
            let li = self.layer_of_var(v);
            let layer = &self.layers[li];
            if !layer.definitional {
                continue;
            }
            let clause_base = self.clause_start[li];
            for def in layer.gate_defs(v) {
                match def {
                    GateDef::Unit(u) => {
                        let w = u.var();
                        if !seen[w.index()] {
                            seen[w.index()] = true;
                            worklist.push(w);
                        }
                    }
                    GateDef::Clause(local) => {
                        for &l in self.clause(clause_base + local) {
                            let w = l.var();
                            if !seen[w.index()] {
                                seen[w.index()] = true;
                                worklist.push(w);
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// Builds a [`SharedCnf`], mirroring the clause normalization that
/// [`crate::Solver::add_clause`] performs (sorting, duplicate removal,
/// tautology elimination) minus the assignment-dependent simplification a
/// live solver would also apply.
#[derive(Debug, Default)]
pub struct CnfBuilder {
    base: Vec<Arc<CnfLayer>>,
    num_vars: usize,
    lits: Vec<Lit>,
    ranges: Vec<(u32, u32)>,
    units: Vec<Lit>,
    ok: bool,
}

impl CnfBuilder {
    /// Creates an empty builder (fresh chain).
    pub fn new() -> CnfBuilder {
        CnfBuilder {
            ok: true,
            ..CnfBuilder::default()
        }
    }

    /// A builder that extends `base`: variable numbering continues where
    /// `base` left off, and the built formula shares every one of `base`'s
    /// layers by `Arc`, adding exactly one new layer holding the clauses
    /// added here.
    pub fn extending(base: &SharedCnf) -> CnfBuilder {
        CnfBuilder {
            base: base.layers.clone(),
            num_vars: base.num_vars,
            ok: base.ok,
            ..CnfBuilder::default()
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Number of variables allocated so far (including any base chain).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of non-unit clauses added to this builder's own layer.
    pub fn num_clauses(&self) -> usize {
        self.ranges.len()
    }

    /// Adds a clause. Returns `false` if the clause was empty (the formula
    /// is now trivially unsatisfiable).
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        let mut ls: Vec<Lit> = lits.into_iter().collect();
        ls.sort();
        ls.dedup();
        for (i, &l) in ls.iter().enumerate() {
            if i + 1 < ls.len() && ls[i + 1] == !l {
                return true; // tautology: l and ¬l both present
            }
        }
        match ls.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.units.push(ls[0]);
                true
            }
            _ => {
                self.ranges.push((self.lits.len() as u32, ls.len() as u32));
                self.lits.extend(ls);
                true
            }
        }
    }

    /// Finalizes the formula, tagging the new layer non-skeleton.
    pub fn build(self) -> SharedCnf {
        self.build_layer(false, false)
    }

    /// Finalizes the formula, tagging the newly built layer's provenance:
    /// `skeleton == true` marks it as axiom-independent structural
    /// skeleton, eligible to anchor cross-query clause reuse.
    pub fn build_tagged(self, skeleton: bool) -> SharedCnf {
        self.build_layer(skeleton, false)
    }

    /// Finalizes the formula with full provenance. `definitional == true`
    /// additionally promises that every clause of the new layer is a
    /// Tseitin naming constraint — its freshest (maximum) variable is one
    /// of the layer's own gate variables, defined as a function of
    /// strictly older variables — so the layer asserts nothing by itself
    /// and a lazy solver may defer watching it, gate by gate (see
    /// [`crate::Solver::attach_shared_lazy`]). The promise is checked
    /// structurally here (every clause must be owned by a layer-own
    /// variable); the deeper functional property is the encoder's contract
    /// — `litsynth-relalg` is the only producer.
    ///
    /// # Panics
    ///
    /// Panics if `definitional` is set and some clause of the new layer
    /// contains no layer-own variable.
    pub fn build_layer(self, skeleton: bool, definitional: bool) -> SharedCnf {
        let first_var = self.base.last().map_or(0, |l| l.num_vars);
        let (def_start, def_items) = if definitional {
            let own = self.num_vars - first_var;
            let owner_of = |lits: &[Lit]| -> usize {
                let v = lits.iter().map(|l| l.var().index()).max().unwrap_or(0);
                assert!(
                    v >= first_var && !lits.is_empty(),
                    "definitional layer clause owns no layer variable"
                );
                v - first_var
            };
            let mut counts = vec![0u32; own + 1];
            for &(start, len) in &self.ranges {
                counts[owner_of(&self.lits[start as usize..(start + len) as usize])] += 1;
            }
            for &u in &self.units {
                counts[owner_of(std::slice::from_ref(&u))] += 1;
            }
            let mut def_start = vec![0u32; own + 1];
            for i in 0..own {
                def_start[i + 1] = def_start[i] + counts[i];
            }
            let mut next = def_start.clone();
            let mut def_items = vec![0u32; def_start[own] as usize];
            // Fill in layer order per owner: clauses first, then units —
            // activation replays them in this order.
            for (ci, &(start, len)) in self.ranges.iter().enumerate() {
                let o = owner_of(&self.lits[start as usize..(start + len) as usize]);
                def_items[next[o] as usize] = (ci as u32) << 1;
                next[o] += 1;
            }
            for (ui, &u) in self.units.iter().enumerate() {
                let o = owner_of(std::slice::from_ref(&u));
                def_items[next[o] as usize] = (ui as u32) << 1 | 1;
                next[o] += 1;
            }
            (def_start, def_items)
        } else {
            (Vec::new(), Vec::new())
        };
        let mut fp = self.base.last().map_or(FNV_OFFSET, |l| l.fingerprint);
        fp = fnv_fold_u64(fp, self.num_vars as u64);
        fp = fnv_fold_u64(fp, skeleton as u64 | (definitional as u64) << 1);
        for &u in &self.units {
            fp = fnv_fold_u64(fp, 1 + u.code() as u64);
        }
        fp = fnv_fold_u64(fp, u64::MAX); // separator: units vs clauses
        for &(start, len) in &self.ranges {
            fp = fnv_fold_u64(fp, len as u64);
            for &l in &self.lits[start as usize..(start + len) as usize] {
                fp = fnv_fold_u64(fp, 1 + l.code() as u64);
            }
        }
        let layer = Arc::new(CnfLayer {
            num_vars: self.num_vars,
            lits: self.lits,
            ranges: self.ranges,
            units: self.units,
            skeleton,
            definitional,
            first_var,
            def_start,
            def_items,
            fingerprint: fp,
        });
        let mut layers = self.base;
        layers.push(layer);
        let mut clause_start = Vec::with_capacity(layers.len());
        let mut num_clauses = 0usize;
        let mut num_lits = 0usize;
        let mut units = Vec::new();
        for l in &layers {
            clause_start.push(num_clauses);
            num_clauses += l.ranges.len();
            num_lits += l.lits.len();
            units.extend_from_slice(&l.units);
        }
        let mut locator = Vec::with_capacity(num_clauses);
        for (li, l) in layers.iter().enumerate() {
            locator.extend(l.ranges.iter().map(|&(start, len)| ClauseLoc {
                layer: li as u32,
                start,
                len,
            }));
        }
        SharedCnf {
            num_vars: layers.last().map_or(0, |l| l.num_vars),
            layers,
            clause_start,
            locator,
            num_clauses,
            num_lits,
            units,
            ok: self.ok,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_normalizes_clauses() {
        let mut b = CnfBuilder::new();
        let x = b.new_var();
        let y = b.new_var();
        assert!(b.add_clause([Lit::pos(x), Lit::neg(x)])); // tautology dropped
        assert!(b.add_clause([Lit::pos(y), Lit::pos(y)])); // dedups to a unit
        assert!(b.add_clause([Lit::pos(x), Lit::pos(y)]));
        let cnf = b.build();
        assert!(cnf.is_ok());
        assert_eq!(cnf.num_clauses(), 1);
        assert_eq!(cnf.units(), &[Lit::pos(y)]);
        assert_eq!(cnf.clause(0), &[Lit::pos(x), Lit::pos(y)]);
    }

    #[test]
    fn empty_clause_marks_unsat() {
        let mut b = CnfBuilder::new();
        let _ = b.new_var();
        assert!(!b.add_clause([]));
        assert!(!b.build().is_ok());
    }

    #[test]
    fn extending_shares_base_layers_and_continues_var_numbering() {
        let mut b = CnfBuilder::new();
        let v0 = b.new_var();
        let v1 = b.new_var();
        b.add_clause([Lit::pos(v0), Lit::pos(v1)]);
        b.add_clause([Lit::neg(v0)]);
        let base = b.build_tagged(true);
        assert_eq!(base.num_layers(), 1);
        assert!(base.clause_is_skeleton(0));

        let mut e = CnfBuilder::extending(&base);
        let v2 = e.new_var();
        assert_eq!(v2.index(), 2, "numbering continues past the base");
        e.add_clause([Lit::neg(v1), Lit::pos(v2)]);
        e.add_clause([Lit::pos(v2)]);
        let ext = e.build();

        assert_eq!(ext.num_layers(), 2);
        assert_eq!(ext.num_vars(), 3);
        assert_eq!(ext.num_clauses(), 2);
        // Clause indexing is flat across layers, base first.
        assert_eq!(ext.clause(0), &[Lit::pos(v0), Lit::pos(v1)]);
        assert_eq!(ext.clause(1), &[Lit::neg(v1), Lit::pos(v2)]);
        assert!(ext.clause_is_skeleton(0));
        assert!(!ext.clause_is_skeleton(1));
        // Units concatenate in layer order: exactly the layers' own units
        // back to back, which is the order attach enqueues them in.
        assert_eq!(ext.units(), &[Lit::neg(v0), Lit::pos(v2)]);
        let concat: Vec<Lit> = ext
            .layers()
            .iter()
            .flat_map(|l| l.units().iter().copied())
            .collect();
        assert_eq!(ext.units(), &concat[..]);
        assert!(ext.layers()[0].is_skeleton());
        assert!(!ext.layers()[1].is_skeleton());
        // The base layer is literally shared, not copied.
        assert!(Arc::ptr_eq(&base.layers()[0], &ext.layers()[0]));
        // The base view is untouched.
        assert_eq!(base.num_vars(), 2);
        assert_eq!(base.num_clauses(), 1);
    }

    #[test]
    fn fingerprints_identify_identical_prefixes() {
        let build_base = || {
            let mut b = CnfBuilder::new();
            let v0 = b.new_var();
            let v1 = b.new_var();
            b.add_clause([Lit::pos(v0), Lit::pos(v1)]);
            b.build_tagged(true)
        };
        let base1 = build_base();
        let base2 = build_base();
        assert_eq!(base1.fingerprint(), base2.fingerprint());

        let mut e1 = CnfBuilder::extending(&base1);
        let v2 = e1.new_var();
        e1.add_clause([Lit::pos(v2)]);
        let ext1 = e1.build();
        // The extension changes the chain fingerprint but keeps the
        // skeleton prefix fingerprint visible.
        assert_ne!(ext1.fingerprint(), base1.fingerprint());
        assert_eq!(ext1.skeleton_fingerprints(), vec![base1.fingerprint()]);
        // A full-skeleton chain exposes every prefix fingerprint.
        let mut e2 = CnfBuilder::extending(&base1);
        let v2 = e2.new_var();
        e2.add_clause([Lit::pos(v2)]);
        let ext2 = e2.build_tagged(true);
        assert_eq!(
            ext2.skeleton_fingerprints(),
            vec![base1.fingerprint(), ext2.fingerprint()]
        );
        // Different content ⇒ different fingerprint.
        let mut d = CnfBuilder::new();
        let v0 = d.new_var();
        let v1 = d.new_var();
        d.add_clause([Lit::pos(v0), Lit::neg(v1)]);
        assert_ne!(d.build_tagged(true).fingerprint(), base1.fingerprint());
    }

    #[test]
    fn layer_metadata_exposes_cone_ranges_and_tags() {
        let mut b = CnfBuilder::new();
        let v0 = b.new_var();
        let v1 = b.new_var();
        b.add_clause([Lit::pos(v0), Lit::pos(v1)]);
        let base = b.build_tagged(true);
        let extend = |definitional: bool| {
            let mut e = CnfBuilder::extending(&base);
            let v2 = e.new_var();
            let v3 = e.new_var();
            e.add_clause([Lit::neg(v2), Lit::pos(v0)]);
            e.add_clause([Lit::neg(v3), Lit::pos(v2)]);
            e.add_clause([Lit::pos(v3)]);
            e.build_layer(true, definitional)
        };
        let ext = extend(true);
        assert!(!ext.layers()[0].is_definitional());
        assert!(ext.layers()[1].is_definitional());
        assert!(ext.layers()[1].is_skeleton());
        // Contiguous per-layer variable and clause ownership.
        assert_eq!(ext.layer_var_range(0), 0..2);
        assert_eq!(ext.layer_var_range(1), 2..4);
        assert_eq!(ext.layer_clause_range(0), 0..1);
        assert_eq!(ext.layer_clause_range(1), 1..3);
        assert_eq!(ext.layer_of_var(v0), 0);
        assert_eq!(ext.layer_of_var(v1), 0);
        let v2 = Var::from_index(2);
        assert_eq!(ext.layer_of_var(v2), 1);
        assert_eq!(ext.layer_of_clause(0), 0);
        assert_eq!(ext.layer_of_clause(2), 1);
        assert_eq!(ext.layers()[1].units().len(), 1);
        assert_eq!(ext.layers()[1].num_vars(), 4, "cumulative, not own");
        // The definitional tag is part of the chain fingerprint: two
        // chains that differ only in lazy eligibility must not share
        // vault shelves.
        assert_ne!(ext.fingerprint(), extend(false).fingerprint());
    }

    #[test]
    fn cone_vars_walks_definitional_defs_only() {
        // Skeleton over v0, v1; then two stacked definitional cones
        // g0 := v0 ∨ v1 and g1 := g0 ∨ v1.
        let mut b = CnfBuilder::new();
        let v0 = b.new_var();
        let v1 = b.new_var();
        b.add_clause([Lit::pos(v0), Lit::pos(v1)]);
        let base = b.build_tagged(true);
        let mut e1 = CnfBuilder::extending(&base);
        let g0 = e1.new_var();
        e1.add_clause([Lit::neg(g0), Lit::pos(v0), Lit::pos(v1)]);
        e1.add_clause([Lit::pos(g0), Lit::neg(v0)]);
        e1.add_clause([Lit::pos(g0), Lit::neg(v1)]);
        let l1 = e1.build_layer(true, true);
        let mut e2 = CnfBuilder::extending(&l1);
        let g1 = e2.new_var();
        e2.add_clause([Lit::neg(g1), Lit::pos(g0), Lit::pos(v1)]);
        e2.add_clause([Lit::pos(g1), Lit::neg(g0)]);
        e2.add_clause([Lit::pos(g1), Lit::neg(v1)]);
        let chain = e2.build_layer(true, true);
        let sorted = |mut v: Vec<Var>| {
            v.sort();
            v
        };
        // A skeleton root does not expand (its layer has no gate defs).
        assert_eq!(sorted(chain.cone_vars([v0])), vec![v0]);
        // g0's cone pulls in its skeleton inputs.
        assert_eq!(sorted(chain.cone_vars([g0])), vec![v0, v1, g0]);
        // g1 chains through g0 transitively.
        assert_eq!(sorted(chain.cone_vars([g1])), vec![v0, v1, g0, g1]);
        // Duplicated and out-of-range roots are tolerated and deduped.
        assert_eq!(
            sorted(chain.cone_vars([g0, g0, Var::from_index(99)])),
            vec![v0, v1, g0]
        );
    }

    #[test]
    fn extending_an_unsat_base_stays_unsat() {
        let mut b = CnfBuilder::new();
        let _ = b.new_var();
        b.add_clause([]);
        let base = b.build();
        let mut e = CnfBuilder::extending(&base);
        let v = e.new_var();
        e.add_clause([Lit::pos(v)]);
        assert!(!e.build().is_ok());
    }
}
