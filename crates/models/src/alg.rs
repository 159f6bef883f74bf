//! The relational-algebra abstraction that lets each memory model be written
//! once and evaluated two ways.
//!
//! Axioms are generic over [`RelAlg`]. Instantiated with [`ConcreteAlg`]
//! they evaluate a fully known execution to a `bool` (the explicit oracle);
//! instantiated with [`SymAlg`] they build boolean circuits over a symbolic
//! execution (the SAT-based synthesis). Divergence between the two is
//! impossible by construction — there is only one definition of each model.

use litsynth_litmus::Rel;
use litsynth_relalg::{Bit, Circuit, Matrix1, Matrix2};

/// Bounded relational operations over booleans `B`, sets `Set`, and binary
/// relations `Rel`.
pub trait RelAlg {
    /// Truth values (bool or circuit bit).
    type B: Copy;
    /// Sets of events.
    type Set: Clone;
    /// Binary relations over events.
    type Rel: Clone;

    /// Constant true.
    fn tt(&self) -> Self::B;
    /// Constant false.
    fn ff(&self) -> Self::B;
    /// Conjunction.
    fn and(&mut self, a: Self::B, b: Self::B) -> Self::B;
    /// Disjunction.
    fn or(&mut self, a: Self::B, b: Self::B) -> Self::B;
    /// Negation.
    fn not(&mut self, a: Self::B) -> Self::B;
    /// Conjunction of many.
    fn and_many(&mut self, bs: Vec<Self::B>) -> Self::B {
        let mut acc = self.tt();
        for b in bs {
            acc = self.and(acc, b);
        }
        acc
    }
    /// Disjunction of many.
    fn or_many(&mut self, bs: Vec<Self::B>) -> Self::B {
        let mut acc = self.ff();
        for b in bs {
            acc = self.or(acc, b);
        }
        acc
    }

    /// The empty set over `n` events.
    fn empty_set(&self, n: usize) -> Self::Set;
    /// Set union.
    fn set_union(&mut self, a: &Self::Set, b: &Self::Set) -> Self::Set;
    /// Set intersection.
    fn set_inter(&mut self, a: &Self::Set, b: &Self::Set) -> Self::Set;
    /// Set difference.
    fn set_diff(&mut self, a: &Self::Set, b: &Self::Set) -> Self::Set;

    /// The empty relation over `n` events.
    fn empty_rel(&self, n: usize) -> Self::Rel;
    /// The identity relation.
    fn iden(&self, n: usize) -> Self::Rel;
    /// Relation union.
    fn union(&mut self, a: &Self::Rel, b: &Self::Rel) -> Self::Rel;
    /// Relation intersection.
    fn inter(&mut self, a: &Self::Rel, b: &Self::Rel) -> Self::Rel;
    /// Relation difference.
    fn diff(&mut self, a: &Self::Rel, b: &Self::Rel) -> Self::Rel;
    /// Relational composition `a ; b`.
    fn seq(&mut self, a: &Self::Rel, b: &Self::Rel) -> Self::Rel;
    /// Converse.
    fn inv(&mut self, a: &Self::Rel) -> Self::Rel;
    /// Transitive closure.
    fn tc(&mut self, a: &Self::Rel) -> Self::Rel;
    /// Reflexive-transitive closure.
    fn rtc(&mut self, a: &Self::Rel) -> Self::Rel;
    /// Domain restriction `s <: r`.
    fn dom(&mut self, s: &Self::Set, r: &Self::Rel) -> Self::Rel;
    /// Range restriction `r :> s`.
    fn ran(&mut self, r: &Self::Rel, s: &Self::Set) -> Self::Rel;
    /// Cross product `a -> b`.
    fn cross(&mut self, a: &Self::Set, b: &Self::Set) -> Self::Rel;
    /// The domain of a relation, as a set.
    fn dom_set(&mut self, r: &Self::Rel) -> Self::Set;
    /// The range of a relation, as a set.
    fn ran_set(&mut self, r: &Self::Rel) -> Self::Set;
    /// Acyclicity.
    fn acyclic(&mut self, r: &Self::Rel) -> Self::B;
    /// Irreflexivity.
    fn irreflexive(&mut self, r: &Self::Rel) -> Self::B;
    /// Emptiness (`no r`).
    fn is_empty(&mut self, r: &Self::Rel) -> Self::B;

    /// Structural equality, when decidable without solving: `Some(_)` in the
    /// concrete world, `None` symbolically. Fixpoint computations use this to
    /// stop early when they can.
    fn rel_eq(&self, a: &Self::Rel, b: &Self::Rel) -> Option<bool> {
        let _ = (a, b);
        None
    }

    /// Union of many relations.
    fn union_many(&mut self, rels: &[&Self::Rel]) -> Self::Rel {
        assert!(!rels.is_empty());
        let mut acc = rels[0].clone();
        for r in &rels[1..] {
            acc = self.union(&acc, r);
        }
        acc
    }
}

/// A concrete set: a bitmask over event ids, tagged with the carrier size.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CSet {
    /// Carrier size (number of events).
    pub n: usize,
    /// Membership bitmask.
    pub mask: u64,
}

impl CSet {
    /// Builds a set from a carrier size and bitmask.
    pub fn new(n: usize, mask: u64) -> CSet {
        CSet { n, mask }
    }
}

/// The concrete instantiation: everything is fully known.
#[derive(Clone, Copy, Default, Debug)]
pub struct ConcreteAlg;

impl RelAlg for ConcreteAlg {
    type B = bool;
    type Set = CSet;
    type Rel = Rel;

    fn tt(&self) -> bool {
        true
    }
    fn ff(&self) -> bool {
        false
    }
    fn and(&mut self, a: bool, b: bool) -> bool {
        a && b
    }
    fn or(&mut self, a: bool, b: bool) -> bool {
        a || b
    }
    fn not(&mut self, a: bool) -> bool {
        !a
    }

    fn empty_set(&self, n: usize) -> CSet {
        CSet::new(n, 0)
    }
    fn set_union(&mut self, a: &CSet, b: &CSet) -> CSet {
        debug_assert_eq!(a.n, b.n);
        CSet::new(a.n, a.mask | b.mask)
    }
    fn set_inter(&mut self, a: &CSet, b: &CSet) -> CSet {
        debug_assert_eq!(a.n, b.n);
        CSet::new(a.n, a.mask & b.mask)
    }
    fn set_diff(&mut self, a: &CSet, b: &CSet) -> CSet {
        debug_assert_eq!(a.n, b.n);
        CSet::new(a.n, a.mask & !b.mask)
    }

    fn empty_rel(&self, n: usize) -> Rel {
        Rel::new(n)
    }
    fn iden(&self, n: usize) -> Rel {
        Rel::identity(n)
    }
    fn union(&mut self, a: &Rel, b: &Rel) -> Rel {
        a.union(b)
    }
    fn inter(&mut self, a: &Rel, b: &Rel) -> Rel {
        a.intersect(b)
    }
    fn diff(&mut self, a: &Rel, b: &Rel) -> Rel {
        a.difference(b)
    }
    fn seq(&mut self, a: &Rel, b: &Rel) -> Rel {
        a.compose(b)
    }
    fn inv(&mut self, a: &Rel) -> Rel {
        a.transpose()
    }
    fn tc(&mut self, a: &Rel) -> Rel {
        a.transitive_closure()
    }
    fn rtc(&mut self, a: &Rel) -> Rel {
        a.reflexive_transitive_closure()
    }
    fn dom(&mut self, s: &CSet, r: &Rel) -> Rel {
        r.restrict(s.mask, u64::MAX)
    }
    fn ran(&mut self, r: &Rel, s: &CSet) -> Rel {
        r.restrict(u64::MAX, s.mask)
    }
    fn dom_set(&mut self, r: &Rel) -> CSet {
        let mut m = 0u64;
        for (i, _) in r.pairs() {
            m |= 1 << i;
        }
        CSet::new(r.len(), m)
    }
    fn ran_set(&mut self, r: &Rel) -> CSet {
        let mut m = 0u64;
        for (_, j) in r.pairs() {
            m |= 1 << j;
        }
        CSet::new(r.len(), m)
    }
    fn cross(&mut self, a: &CSet, b: &CSet) -> Rel {
        debug_assert_eq!(a.n, b.n);
        let mut r = Rel::new(a.n);
        for i in 0..a.n {
            if a.mask >> i & 1 == 1 {
                for j in 0..b.n {
                    if b.mask >> j & 1 == 1 {
                        r.add(i, j);
                    }
                }
            }
        }
        r
    }
    fn acyclic(&mut self, r: &Rel) -> bool {
        r.is_acyclic()
    }
    fn irreflexive(&mut self, r: &Rel) -> bool {
        r.is_irreflexive()
    }
    fn is_empty(&mut self, r: &Rel) -> bool {
        r.no_edges()
    }
    fn rel_eq(&self, a: &Rel, b: &Rel) -> Option<bool> {
        Some(a == b)
    }
}

/// The symbolic instantiation: operations build circuits.
#[derive(Debug, Default)]
pub struct SymAlg {
    /// The circuit being built.
    pub circuit: Circuit,
}

impl SymAlg {
    /// Creates an algebra with a fresh circuit.
    pub fn new() -> SymAlg {
        SymAlg {
            circuit: Circuit::new(),
        }
    }

    /// Consumes the algebra, returning the built circuit.
    pub fn into_circuit(self) -> Circuit {
        self.circuit
    }
}

impl RelAlg for SymAlg {
    type B = Bit;
    type Set = Matrix1;
    type Rel = Matrix2;

    fn tt(&self) -> Bit {
        Circuit::TRUE
    }
    fn ff(&self) -> Bit {
        Circuit::FALSE
    }
    fn and(&mut self, a: Bit, b: Bit) -> Bit {
        self.circuit.and(a, b)
    }
    fn or(&mut self, a: Bit, b: Bit) -> Bit {
        self.circuit.or(a, b)
    }
    fn not(&mut self, a: Bit) -> Bit {
        a.not()
    }

    fn empty_set(&self, n: usize) -> Matrix1 {
        Matrix1::empty(n)
    }
    fn set_union(&mut self, a: &Matrix1, b: &Matrix1) -> Matrix1 {
        a.union(&mut self.circuit, b)
    }
    fn set_inter(&mut self, a: &Matrix1, b: &Matrix1) -> Matrix1 {
        a.intersect(&mut self.circuit, b)
    }
    fn set_diff(&mut self, a: &Matrix1, b: &Matrix1) -> Matrix1 {
        a.difference(&mut self.circuit, b)
    }

    fn empty_rel(&self, n: usize) -> Matrix2 {
        Matrix2::empty(n, n)
    }
    fn iden(&self, n: usize) -> Matrix2 {
        Matrix2::identity(n)
    }
    fn union(&mut self, a: &Matrix2, b: &Matrix2) -> Matrix2 {
        a.union(&mut self.circuit, b)
    }
    fn inter(&mut self, a: &Matrix2, b: &Matrix2) -> Matrix2 {
        a.intersect(&mut self.circuit, b)
    }
    fn diff(&mut self, a: &Matrix2, b: &Matrix2) -> Matrix2 {
        a.difference(&mut self.circuit, b)
    }
    fn seq(&mut self, a: &Matrix2, b: &Matrix2) -> Matrix2 {
        a.compose(&mut self.circuit, b)
    }
    fn inv(&mut self, a: &Matrix2) -> Matrix2 {
        a.transpose()
    }
    fn tc(&mut self, a: &Matrix2) -> Matrix2 {
        a.transitive_closure(&mut self.circuit)
    }
    fn rtc(&mut self, a: &Matrix2) -> Matrix2 {
        a.reflexive_transitive_closure(&mut self.circuit)
    }
    fn dom(&mut self, s: &Matrix1, r: &Matrix2) -> Matrix2 {
        r.restrict_domain(&mut self.circuit, s)
    }
    fn ran(&mut self, r: &Matrix2, s: &Matrix1) -> Matrix2 {
        r.restrict_range(&mut self.circuit, s)
    }
    fn cross(&mut self, a: &Matrix1, b: &Matrix1) -> Matrix2 {
        a.product(&mut self.circuit, b)
    }
    fn dom_set(&mut self, r: &Matrix2) -> Matrix1 {
        r.domain(&mut self.circuit)
    }
    fn ran_set(&mut self, r: &Matrix2) -> Matrix1 {
        r.range(&mut self.circuit)
    }
    fn acyclic(&mut self, r: &Matrix2) -> Bit {
        r.is_acyclic(&mut self.circuit)
    }
    fn irreflexive(&mut self, r: &Matrix2) -> Bit {
        r.is_irreflexive(&mut self.circuit)
    }
    fn is_empty(&mut self, r: &Matrix2) -> Bit {
        r.is_no(&mut self.circuit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use litsynth_relalg::Finder;
    use litsynth_sat::{NoExchange, SolveBudget};

    /// The same generic computation must agree concretely and symbolically.
    fn check_both(edges: &[(usize, usize)], n: usize) {
        fn compute<A: RelAlg>(alg: &mut A, r: &A::Rel) -> A::B {
            let t = alg.tc(r);
            let sq = alg.seq(&t, &t);
            let u = alg.union(&t, &sq);
            alg.acyclic(&u)
        }
        let mut ca = ConcreteAlg;
        let cr = Rel::from_pairs(n, edges.iter().copied());
        let want = compute(&mut ca, &cr);

        let mut sr = Matrix2::empty(n, n);
        for &(i, j) in edges {
            sr.set(i, j, Circuit::TRUE);
        }
        let mut sa = SymAlg::new();
        let got_bit = compute(&mut sa, &sr);
        // With constant inputs the circuit folds to a constant.
        assert_eq!(got_bit == Circuit::TRUE, want);
        assert!(got_bit == Circuit::TRUE || got_bit == Circuit::FALSE);
    }

    #[test]
    fn concrete_and_symbolic_agree_on_constants() {
        check_both(&[(0, 1), (1, 2)], 3);
        check_both(&[(0, 1), (1, 0)], 2);
        check_both(&[], 3);
        check_both(&[(0, 0)], 1);
    }

    #[test]
    fn symbolic_acyclicity_is_solvable() {
        // Find a non-empty acyclic orientation of a free 3×3 relation.
        let mut alg = SymAlg::new();
        let r = Matrix2::free(&mut alg.circuit, 3, 3, "r");
        let ac = alg.acyclic(&r);
        let some = {
            let e = alg.is_empty(&r);
            alg.not(e)
        };
        let root = alg.and(ac, some);
        let circ = alg.into_circuit();
        let mut f = Finder::new(&circ);
        let budget = SolveBudget::unlimited();
        let inst = f
            .next_instance_budgeted_assuming(&circ, &[root], &[], &mut NoExchange, &budget)
            .expect("an unlimited budget never interrupts")
            .expect("exists");
        // Extract and verify concretely.
        let mut cr = Rel::new(3);
        for i in 0..3 {
            for j in 0..3 {
                if inst.eval(&circ, r.get(i, j)) {
                    cr.add(i, j);
                }
            }
        }
        assert!(cr.is_acyclic());
        assert!(!cr.no_edges());
    }

    #[test]
    fn concrete_set_ops() {
        let mut a = ConcreteAlg;
        let s1 = CSet::new(4, 0b0110);
        let s2 = CSet::new(4, 0b0011);
        assert_eq!(a.set_union(&s1, &s2).mask, 0b0111);
        assert_eq!(a.set_inter(&s1, &s2).mask, 0b0010);
        assert_eq!(a.set_diff(&s1, &s2).mask, 0b0100);
    }

    #[test]
    fn concrete_dom_ran_cross() {
        let mut a = ConcreteAlg;
        let r = Rel::from_pairs(3, [(0, 1), (1, 2)]);
        let d = a.dom(&CSet::new(3, 0b001), &r);
        assert!(d.contains(0, 1) && !d.contains(1, 2));
        let rr = a.ran(&r, &CSet::new(3, 0b100));
        assert!(rr.contains(1, 2) && !rr.contains(0, 1));
        let x = a.cross(&CSet::new(3, 0b001), &CSet::new(3, 0b110));
        assert_eq!(x.len(), 3);
        assert!(x.contains(0, 1) && x.contains(0, 2) && !x.contains(1, 2));
    }
}
