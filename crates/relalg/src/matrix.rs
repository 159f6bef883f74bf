//! Relations as boolean matrices over bounded atom sorts.
//!
//! This is the heart of the Kodkod-style translation: a unary relation over a
//! sort of `n` atoms is a vector of `n` circuit bits, and a binary relation is
//! an `n × m` matrix of bits. Relational algebra (union, join, transpose,
//! closure, …) becomes elementwise or matrix-product circuit construction,
//! and relational predicates (subset, acyclicity, …) compile to single bits.

use crate::circuit::{Bit, Circuit};

/// A unary relation (a set of atoms) over a sort of fixed size.
#[derive(Clone, Debug)]
pub struct Matrix1 {
    bits: Vec<Bit>,
}

impl Matrix1 {
    /// A set with explicitly given membership bits.
    pub fn from_bits(bits: Vec<Bit>) -> Matrix1 {
        Matrix1 { bits }
    }

    /// A fully free set over `n` atoms: each membership is a fresh input
    /// named `{name}[i]`.
    pub fn free(c: &mut Circuit, n: usize, name: &str) -> Matrix1 {
        Matrix1 {
            bits: (0..n).map(|i| c.input(format!("{name}[{i}]"))).collect(),
        }
    }

    /// The empty set over `n` atoms.
    pub fn empty(n: usize) -> Matrix1 {
        Matrix1 {
            bits: vec![Circuit::FALSE; n],
        }
    }

    /// The full set over `n` atoms.
    pub fn full(n: usize) -> Matrix1 {
        Matrix1 {
            bits: vec![Circuit::TRUE; n],
        }
    }

    /// The singleton `{atom}` over `n` atoms.
    pub fn singleton(n: usize, atom: usize) -> Matrix1 {
        let mut bits = vec![Circuit::FALSE; n];
        bits[atom] = Circuit::TRUE;
        Matrix1 { bits }
    }

    /// Number of atoms in the sort.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// `true` if the sort is empty (zero atoms — not an empty *set*).
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Membership bit of `atom`.
    pub fn get(&self, atom: usize) -> Bit {
        self.bits[atom]
    }

    /// Replaces the membership bit of `atom`.
    pub fn set(&mut self, atom: usize, bit: Bit) {
        self.bits[atom] = bit;
    }

    /// Set union.
    pub fn union(&self, c: &mut Circuit, other: &Matrix1) -> Matrix1 {
        self.zip(other, |c, a, b| c.or(a, b), c)
    }

    /// Set intersection.
    pub fn intersect(&self, c: &mut Circuit, other: &Matrix1) -> Matrix1 {
        self.zip(other, |c, a, b| c.and(a, b), c)
    }

    /// Set difference.
    pub fn difference(&self, c: &mut Circuit, other: &Matrix1) -> Matrix1 {
        self.zip(other, |c, a, b| c.and(a, b.not()), c)
    }

    fn zip(
        &self,
        other: &Matrix1,
        mut f: impl FnMut(&mut Circuit, Bit, Bit) -> Bit,
        c: &mut Circuit,
    ) -> Matrix1 {
        assert_eq!(self.len(), other.len(), "sort size mismatch");
        Matrix1 {
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(&a, &b)| f(c, a, b))
                .collect(),
        }
    }

    /// Complement within the sort.
    pub fn complement(&self) -> Matrix1 {
        Matrix1 {
            bits: self.bits.iter().map(|b| b.not()).collect(),
        }
    }

    /// `self ⊆ other` as a single bit.
    pub fn is_subset(&self, c: &mut Circuit, other: &Matrix1) -> Bit {
        assert_eq!(self.len(), other.len());
        let imps: Vec<Bit> = self
            .bits
            .iter()
            .zip(&other.bits)
            .map(|(&a, &b)| c.implies(a, b))
            .collect();
        c.and_many(imps)
    }

    /// `self = other` as a single bit.
    pub fn is_equal(&self, c: &mut Circuit, other: &Matrix1) -> Bit {
        assert_eq!(self.len(), other.len());
        let iffs: Vec<Bit> = self
            .bits
            .iter()
            .zip(&other.bits)
            .map(|(&a, &b)| c.iff(a, b))
            .collect();
        c.and_many(iffs)
    }

    /// `some self`: the set is non-empty.
    pub fn is_some(&self, c: &mut Circuit) -> Bit {
        c.or_many(self.bits.iter().copied())
    }

    /// `no self`: the set is empty.
    pub fn is_no(&self, c: &mut Circuit) -> Bit {
        self.is_some(c).not()
    }

    /// `lone self`: at most one member.
    pub fn is_lone(&self, c: &mut Circuit) -> Bit {
        c.at_most_one(&self.bits)
    }

    /// `one self`: exactly one member.
    pub fn is_one(&self, c: &mut Circuit) -> Bit {
        c.exactly_one(&self.bits)
    }

    /// Relational join `self.r`: the image of this set under `r`.
    pub fn join(&self, c: &mut Circuit, r: &Matrix2) -> Matrix1 {
        assert_eq!(self.len(), r.rows());
        let mut bits = Vec::with_capacity(r.cols());
        for j in 0..r.cols() {
            let terms: Vec<Bit> = (0..r.rows())
                .map(|i| c.and(self.bits[i], r.get(i, j)))
                .collect();
            bits.push(c.or_many(terms));
        }
        Matrix1 { bits }
    }

    /// Cross product `self -> other` as a binary relation.
    pub fn product(&self, c: &mut Circuit, other: &Matrix1) -> Matrix2 {
        let mut m = Matrix2::empty(self.len(), other.len());
        for i in 0..self.len() {
            for j in 0..other.len() {
                let b = c.and(self.bits[i], other.bits[j]);
                m.set(i, j, b);
            }
        }
        m
    }
}

/// A binary relation over two (possibly equal) sorts, as a bit matrix.
#[derive(Clone, Debug)]
pub struct Matrix2 {
    rows: usize,
    cols: usize,
    bits: Vec<Bit>, // row-major
}

impl Matrix2 {
    /// A fully free relation: every cell is a fresh input `{name}[i,j]`.
    pub fn free(c: &mut Circuit, rows: usize, cols: usize, name: &str) -> Matrix2 {
        let bits = (0..rows * cols)
            .map(|k| c.input(format!("{name}[{},{}]", k / cols, k % cols)))
            .collect();
        Matrix2 { rows, cols, bits }
    }

    /// The empty relation.
    pub fn empty(rows: usize, cols: usize) -> Matrix2 {
        Matrix2 {
            rows,
            cols,
            bits: vec![Circuit::FALSE; rows * cols],
        }
    }

    /// The identity relation over a sort of size `n`.
    pub fn identity(n: usize) -> Matrix2 {
        let mut m = Matrix2::empty(n, n);
        for i in 0..n {
            m.set(i, i, Circuit::TRUE);
        }
        m
    }

    /// A relation from an explicit edge list, all edges constant-true.
    pub fn from_edges(rows: usize, cols: usize, edges: &[(usize, usize)]) -> Matrix2 {
        let mut m = Matrix2::empty(rows, cols);
        for &(i, j) in edges {
            m.set(i, j, Circuit::TRUE);
        }
        m
    }

    /// Number of rows (size of the domain sort).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (size of the range sort).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The bit at cell `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Bit {
        self.bits[i * self.cols + j]
    }

    /// Replaces the bit at cell `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, b: Bit) {
        self.bits[i * self.cols + j] = b;
    }

    fn zip(
        &self,
        other: &Matrix2,
        mut f: impl FnMut(&mut Circuit, Bit, Bit) -> Bit,
        c: &mut Circuit,
    ) -> Matrix2 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        Matrix2 {
            rows: self.rows,
            cols: self.cols,
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(&a, &b)| f(c, a, b))
                .collect(),
        }
    }

    /// Relation union.
    pub fn union(&self, c: &mut Circuit, other: &Matrix2) -> Matrix2 {
        self.zip(other, |c, a, b| c.or(a, b), c)
    }

    /// Relation intersection.
    pub fn intersect(&self, c: &mut Circuit, other: &Matrix2) -> Matrix2 {
        self.zip(other, |c, a, b| c.and(a, b), c)
    }

    /// Relation difference.
    pub fn difference(&self, c: &mut Circuit, other: &Matrix2) -> Matrix2 {
        self.zip(other, |c, a, b| c.and(a, b.not()), c)
    }

    /// Union of several relations.
    pub fn union_many(c: &mut Circuit, rels: &[&Matrix2]) -> Matrix2 {
        assert!(!rels.is_empty());
        let mut acc = rels[0].clone();
        for r in &rels[1..] {
            acc = acc.union(c, r);
        }
        acc
    }

    /// The converse relation `~self`.
    pub fn transpose(&self) -> Matrix2 {
        let mut m = Matrix2::empty(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                m.set(j, i, self.get(i, j));
            }
        }
        m
    }

    /// Relational composition (join) `self ; other`.
    pub fn compose(&self, c: &mut Circuit, other: &Matrix2) -> Matrix2 {
        assert_eq!(self.cols, other.rows, "inner dimension mismatch");
        let mut m = Matrix2::empty(self.rows, other.cols);
        for i in 0..self.rows {
            for j in 0..other.cols {
                let terms: Vec<Bit> = (0..self.cols)
                    .map(|k| c.and(self.get(i, k), other.get(k, j)))
                    .collect();
                let b = c.or_many(terms);
                m.set(i, j, b);
            }
        }
        m
    }

    /// Transitive closure `^self` via iterated squaring.
    pub fn transitive_closure(&self, c: &mut Circuit) -> Matrix2 {
        assert_eq!(self.rows, self.cols, "closure needs a homogeneous relation");
        let mut acc = self.clone();
        let mut span = 1usize;
        while span < self.rows {
            let sq = acc.compose(c, &acc);
            acc = acc.union(c, &sq);
            span *= 2;
        }
        acc
    }

    /// Reflexive-transitive closure `*self`.
    pub fn reflexive_transitive_closure(&self, c: &mut Circuit) -> Matrix2 {
        let tc = self.transitive_closure(c);
        tc.union(c, &Matrix2::identity(self.rows))
    }

    /// Domain restriction `s <: self`.
    pub fn restrict_domain(&self, c: &mut Circuit, s: &Matrix1) -> Matrix2 {
        assert_eq!(s.len(), self.rows);
        let mut m = Matrix2::empty(self.rows, self.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let b = c.and(s.get(i), self.get(i, j));
                m.set(i, j, b);
            }
        }
        m
    }

    /// Range restriction `self :> s`.
    pub fn restrict_range(&self, c: &mut Circuit, s: &Matrix1) -> Matrix2 {
        assert_eq!(s.len(), self.cols);
        let mut m = Matrix2::empty(self.rows, self.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let b = c.and(self.get(i, j), s.get(j));
                m.set(i, j, b);
            }
        }
        m
    }

    /// The domain of the relation, as a set.
    pub fn domain(&self, c: &mut Circuit) -> Matrix1 {
        let mut bits = Vec::with_capacity(self.rows);
        for i in 0..self.rows {
            let row: Vec<Bit> = (0..self.cols).map(|j| self.get(i, j)).collect();
            bits.push(c.or_many(row));
        }
        Matrix1::from_bits(bits)
    }

    /// The range of the relation, as a set.
    pub fn range(&self, c: &mut Circuit) -> Matrix1 {
        self.transpose().domain(c)
    }

    /// Relational join on the right with a set: `self . s` (preimage union).
    pub fn join_right(&self, c: &mut Circuit, s: &Matrix1) -> Matrix1 {
        assert_eq!(s.len(), self.cols);
        let mut bits = Vec::with_capacity(self.rows);
        for i in 0..self.rows {
            let terms: Vec<Bit> = (0..self.cols)
                .map(|j| c.and(self.get(i, j), s.get(j)))
                .collect();
            bits.push(c.or_many(terms));
        }
        Matrix1::from_bits(bits)
    }

    /// `self ⊆ other` as a bit.
    pub fn is_subset(&self, c: &mut Circuit, other: &Matrix2) -> Bit {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let imps: Vec<Bit> = self
            .bits
            .iter()
            .zip(&other.bits)
            .map(|(&a, &b)| c.implies(a, b))
            .collect();
        c.and_many(imps)
    }

    /// `self = other` as a bit.
    pub fn is_equal(&self, c: &mut Circuit, other: &Matrix2) -> Bit {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let iffs: Vec<Bit> = self
            .bits
            .iter()
            .zip(&other.bits)
            .map(|(&a, &b)| c.iff(a, b))
            .collect();
        c.and_many(iffs)
    }

    /// `no self`: the relation is empty.
    pub fn is_no(&self, c: &mut Circuit) -> Bit {
        c.or_many(self.bits.iter().copied()).not()
    }

    /// `some self`: the relation is non-empty.
    pub fn is_some(&self, c: &mut Circuit) -> Bit {
        c.or_many(self.bits.iter().copied())
    }

    /// Irreflexivity: no atom is related to itself.
    pub fn is_irreflexive(&self, c: &mut Circuit) -> Bit {
        assert_eq!(self.rows, self.cols);
        let diag: Vec<Bit> = (0..self.rows).map(|i| self.get(i, i)).collect();
        c.or_many(diag).not()
    }

    /// Acyclicity: the transitive closure is irreflexive
    /// (Alloy's `acyclic[r] ≡ no iden & ^r`).
    pub fn is_acyclic(&self, c: &mut Circuit) -> Bit {
        let tc = self.transitive_closure(c);
        tc.is_irreflexive(c)
    }

    /// Totality over distinct atoms: for every `i ≠ j`, `(i,j)` or `(j,i)`.
    ///
    /// Together with [`Matrix2::is_acyclic`] on the base relation this makes
    /// the closure a strict total order.
    pub fn is_total_on_distinct(&self, c: &mut Circuit) -> Bit {
        assert_eq!(self.rows, self.cols);
        let mut req = Vec::new();
        for i in 0..self.rows {
            for j in (i + 1)..self.rows {
                let fwd = self.get(i, j);
                let bwd = self.get(j, i);
                req.push(c.or(fwd, bwd));
            }
        }
        c.and_many(req)
    }

    /// Totality restricted to a subset `s`: distinct atoms *within s* must be
    /// related one way or the other.
    pub fn is_total_on_set(&self, c: &mut Circuit, s: &Matrix1) -> Bit {
        assert_eq!(self.rows, self.cols);
        assert_eq!(s.len(), self.rows);
        let mut req = Vec::new();
        for i in 0..self.rows {
            for j in (i + 1)..self.rows {
                let both = c.and(s.get(i), s.get(j));
                let fwd = self.get(i, j);
                let bwd = self.get(j, i);
                let either = c.or(fwd, bwd);
                req.push(c.implies(both, either));
            }
        }
        c.and_many(req)
    }

    /// Transitivity: `self;self ⊆ self`.
    pub fn is_transitive(&self, c: &mut Circuit) -> Bit {
        let sq = self.compose(c, self);
        sq.is_subset(c, self)
    }

    /// Functionality on the domain: each row has at most one true cell.
    pub fn is_function(&self, c: &mut Circuit) -> Bit {
        let mut conj = Vec::new();
        for i in 0..self.rows {
            let row: Vec<Bit> = (0..self.cols).map(|j| self.get(i, j)).collect();
            conj.push(c.at_most_one(&row));
        }
        c.and_many(conj)
    }

    /// Injectivity on the range: each column has at most one true cell.
    pub fn is_injective(&self, c: &mut Circuit) -> Bit {
        self.transpose().is_function(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finder::tests::next;
    use crate::finder::Finder;

    fn count_instances(c: &Circuit, asserts: &[Bit], observed: &[Bit]) -> usize {
        let mut f = Finder::new(c);
        let mut n = 0;
        while let Some(inst) = next(&mut f, c, asserts) {
            n += 1;
            f.block_guarded(c, &inst, observed, None);
            assert!(n < 10_000, "runaway enumeration");
        }
        n
    }

    #[test]
    fn closure_of_chain_is_upper_triangle() {
        let mut c = Circuit::new();
        let chain = Matrix2::from_edges(4, 4, &[(0, 1), (1, 2), (2, 3)]);
        let tc = chain.transitive_closure(&mut c);
        for i in 0..4 {
            for j in 0..4 {
                let want = i < j;
                assert_eq!(tc.get(i, j) == Circuit::TRUE, want, "({i},{j})");
                assert_eq!(tc.get(i, j) == Circuit::FALSE, !want, "({i},{j})");
            }
        }
    }

    #[test]
    fn closure_detects_cycle() {
        let mut c = Circuit::new();
        let cyc = Matrix2::from_edges(3, 3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(cyc.is_acyclic(&mut c), Circuit::FALSE);
        let dag = Matrix2::from_edges(3, 3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(dag.is_acyclic(&mut c), Circuit::TRUE);
    }

    #[test]
    fn compose_is_matrix_product() {
        let mut c = Circuit::new();
        let a = Matrix2::from_edges(2, 3, &[(0, 0), (1, 2)]);
        let b = Matrix2::from_edges(3, 2, &[(0, 1), (2, 0)]);
        let ab = a.compose(&mut c, &b);
        assert_eq!(ab.get(0, 1), Circuit::TRUE);
        assert_eq!(ab.get(1, 0), Circuit::TRUE);
        assert_eq!(ab.get(0, 0), Circuit::FALSE);
        assert_eq!(ab.get(1, 1), Circuit::FALSE);
    }

    #[test]
    fn transpose_roundtrip() {
        let mut c = Circuit::new();
        let r = Matrix2::free(&mut c, 3, 2, "r");
        let rt = r.transpose().transpose();
        assert_eq!(r.is_equal(&mut c, &rt), Circuit::TRUE);
    }

    #[test]
    fn identity_is_compose_neutral() {
        let mut c = Circuit::new();
        let r = Matrix2::free(&mut c, 3, 3, "r");
        let id = Matrix2::identity(3);
        let left = id.compose(&mut c, &r);
        let right = r.compose(&mut c, &id);
        assert_eq!(r.is_equal(&mut c, &left), Circuit::TRUE);
        assert_eq!(r.is_equal(&mut c, &right), Circuit::TRUE);
    }

    #[test]
    fn domain_and_range() {
        let mut c = Circuit::new();
        let r = Matrix2::from_edges(3, 3, &[(0, 2)]);
        let dom = r.domain(&mut c);
        let ran = r.range(&mut c);
        assert_eq!(dom.get(0), Circuit::TRUE);
        assert_eq!(dom.get(1), Circuit::FALSE);
        assert_eq!(ran.get(2), Circuit::TRUE);
        assert_eq!(ran.get(0), Circuit::FALSE);
    }

    #[test]
    fn restrictions() {
        let mut c = Circuit::new();
        let r = Matrix2::from_edges(2, 2, &[(0, 1), (1, 0)]);
        let s = Matrix1::singleton(2, 0);
        let dr = r.restrict_domain(&mut c, &s);
        assert_eq!(dr.get(0, 1), Circuit::TRUE);
        assert_eq!(dr.get(1, 0), Circuit::FALSE);
        let rr = r.restrict_range(&mut c, &s);
        assert_eq!(rr.get(1, 0), Circuit::TRUE);
        assert_eq!(rr.get(0, 1), Circuit::FALSE);
    }

    #[test]
    fn count_strict_total_orders() {
        // Strict total orders on 3 atoms = 3! = 6 (counting the closure
        // matrices; base relations are counted via their closures).
        let mut c = Circuit::new();
        let r = Matrix2::free(&mut c, 3, 3, "r");
        let tc = r.transitive_closure(&mut c);
        let trans = r.is_transitive(&mut c);
        let acyc = r.is_acyclic(&mut c);
        let total = r.is_total_on_distinct(&mut c);
        let asserts = vec![acyc, total, trans];
        let observed: Vec<Bit> = (0..3)
            .flat_map(|i| (0..3).map(move |j| (i, j)))
            .map(|(i, j)| tc.get(i, j))
            .collect();
        // With transitivity, r == its closure, so instances = total orders.
        assert_eq!(count_instances(&c, &asserts, &observed), 6);
    }

    #[test]
    fn function_and_injective() {
        let mut c = Circuit::new();
        let f = Matrix2::from_edges(2, 2, &[(0, 0), (1, 0)]);
        assert_eq!(f.is_function(&mut c), Circuit::TRUE);
        assert_eq!(f.is_injective(&mut c), Circuit::FALSE);
    }

    #[test]
    fn set_algebra() {
        let mut c = Circuit::new();
        let a = Matrix1::singleton(3, 0);
        let b = Matrix1::singleton(3, 1);
        let u = a.union(&mut c, &b);
        assert_eq!(u.get(0), Circuit::TRUE);
        assert_eq!(u.get(1), Circuit::TRUE);
        assert_eq!(u.get(2), Circuit::FALSE);
        let i = a.intersect(&mut c, &b);
        assert_eq!(i.is_some(&mut c), Circuit::FALSE);
        let d = u.difference(&mut c, &a);
        let eq = d.is_equal(&mut c, &b);
        assert_eq!(eq, Circuit::TRUE);
        assert_eq!(a.is_one(&mut c), Circuit::TRUE);
        assert_eq!(u.is_lone(&mut c), Circuit::FALSE);
    }

    #[test]
    fn join_image() {
        let mut c = Circuit::new();
        let s = Matrix1::singleton(3, 0);
        let r = Matrix2::from_edges(3, 3, &[(0, 1), (1, 2)]);
        let img = s.join(&mut c, &r);
        assert_eq!(img.get(1), Circuit::TRUE);
        assert_eq!(img.get(0), Circuit::FALSE);
        assert_eq!(img.get(2), Circuit::FALSE);
    }

    #[test]
    fn product_cross() {
        let mut c = Circuit::new();
        let a = Matrix1::singleton(2, 0);
        let b = Matrix1::full(2);
        let p = a.product(&mut c, &b);
        assert_eq!(p.get(0, 0), Circuit::TRUE);
        assert_eq!(p.get(0, 1), Circuit::TRUE);
        assert_eq!(p.get(1, 0), Circuit::FALSE);
    }
}
