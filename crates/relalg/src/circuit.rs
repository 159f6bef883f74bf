//! Hash-consed AND-inverter-graph (AIG) boolean circuits.
//!
//! Every boolean function is built from AND gates, inputs, and complemented
//! edges. Hash consing plus local constant folding keeps the circuits the
//! relational layer generates compact before they ever reach CNF.

use std::collections::HashMap;

/// A reference to a circuit node, with a complement flag in the low bit.
///
/// `Bit`s are created through [`Circuit`] methods; [`Circuit::TRUE`] and
/// [`Circuit::FALSE`] are the constants.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Bit(u32);

impl Bit {
    /// The index of the node this bit references; a bit and its
    /// complement share one node.
    #[inline]
    pub fn node(self) -> usize {
        (self.0 >> 1) as usize
    }

    #[inline]
    pub(crate) fn is_negated(self) -> bool {
        self.0 & 1 == 1
    }

    #[inline]
    fn make(node: usize, neg: bool) -> Bit {
        Bit(((node as u32) << 1) | neg as u32)
    }

    /// The complement of this bit. Free: just flips the edge polarity.
    /// (Named `not` deliberately — `Bit` is a logic value, and callers read
    /// `b.not()` as negation; no `Not` impl exists to confuse it with.)
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn not(self) -> Bit {
        Bit(self.0 ^ 1)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum Node {
    /// The constant true node (node 0 by convention).
    ConstTrue,
    /// An input variable, identified by a dense input index.
    Input(u32),
    /// Conjunction of two bits.
    And(Bit, Bit),
}

/// A boolean circuit builder with hash consing and constant folding.
#[derive(Clone, Debug)]
pub struct Circuit {
    nodes: Vec<Node>,
    dedup: HashMap<(Bit, Bit), u32>,
    inputs: Vec<String>,
}

impl Default for Circuit {
    fn default() -> Self {
        Circuit::new()
    }
}

impl Circuit {
    /// The constant-true bit.
    pub const TRUE: Bit = Bit(0);
    /// The constant-false bit.
    pub const FALSE: Bit = Bit(1);

    /// Creates a circuit containing only the constants.
    pub fn new() -> Circuit {
        Circuit {
            nodes: vec![Node::ConstTrue],
            dedup: HashMap::new(),
            inputs: Vec::new(),
        }
    }

    /// Allocates a fresh input (free variable). `name` is kept for debugging
    /// and instance display.
    pub fn input(&mut self, name: impl Into<String>) -> Bit {
        let idx = self.inputs.len() as u32;
        self.inputs.push(name.into());
        let node = self.nodes.len();
        self.nodes.push(Node::Input(idx));
        Bit::make(node, false)
    }

    /// Number of inputs allocated so far.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of nodes (constants + inputs + gates).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The debug name of input `idx`.
    pub fn input_name(&self, idx: usize) -> &str {
        &self.inputs[idx]
    }

    pub(crate) fn node(&self, i: usize) -> Node {
        self.nodes[i]
    }

    /// If `bit` is (possibly negated) input `i`, returns `(i, negated)`.
    pub fn as_input(&self, bit: Bit) -> Option<(usize, bool)> {
        match self.nodes[bit.node()] {
            Node::Input(i) => Some((i as usize, bit.is_negated())),
            _ => None,
        }
    }

    /// Conjunction with constant folding and hash consing.
    pub fn and(&mut self, a: Bit, b: Bit) -> Bit {
        if a == Self::FALSE || b == Self::FALSE || a == b.not() {
            return Self::FALSE;
        }
        if a == Self::TRUE {
            return b;
        }
        if b == Self::TRUE || a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if let Some(&n) = self.dedup.get(&(a, b)) {
            return Bit::make(n as usize, false);
        }
        let node = self.nodes.len();
        self.nodes.push(Node::And(a, b));
        self.dedup.insert((a, b), node as u32);
        Bit::make(node, false)
    }

    /// Disjunction, via De Morgan.
    pub fn or(&mut self, a: Bit, b: Bit) -> Bit {
        self.and(a.not(), b.not()).not()
    }

    /// Implication `a → b`.
    pub fn implies(&mut self, a: Bit, b: Bit) -> Bit {
        self.or(a.not(), b)
    }

    /// Exclusive or.
    pub fn xor(&mut self, a: Bit, b: Bit) -> Bit {
        let n1 = self.and(a, b.not());
        let n2 = self.and(a.not(), b);
        self.or(n1, n2)
    }

    /// Biconditional `a ↔ b`.
    pub fn iff(&mut self, a: Bit, b: Bit) -> Bit {
        self.xor(a, b).not()
    }

    /// If-then-else `c ? t : e`.
    pub fn ite(&mut self, c: Bit, t: Bit, e: Bit) -> Bit {
        let ct = self.and(c, t);
        let ce = self.and(c.not(), e);
        self.or(ct, ce)
    }

    /// Conjunction of many bits (balanced reduction).
    pub fn and_many<I: IntoIterator<Item = Bit>>(&mut self, bits: I) -> Bit {
        let mut layer: Vec<Bit> = bits.into_iter().collect();
        if layer.is_empty() {
            return Self::TRUE;
        }
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                next.push(if pair.len() == 2 {
                    self.and(pair[0], pair[1])
                } else {
                    pair[0]
                });
            }
            layer = next;
        }
        layer[0]
    }

    /// Disjunction of many bits (balanced reduction).
    pub fn or_many<I: IntoIterator<Item = Bit>>(&mut self, bits: I) -> Bit {
        let negs: Vec<Bit> = bits.into_iter().map(Bit::not).collect();
        self.and_many(negs).not()
    }

    /// At most one of `bits` is true (pairwise encoding — fine at our scales).
    pub fn at_most_one(&mut self, bits: &[Bit]) -> Bit {
        let mut conj = Vec::new();
        for i in 0..bits.len() {
            for j in (i + 1)..bits.len() {
                conj.push(self.and(bits[i], bits[j]).not());
            }
        }
        self.and_many(conj)
    }

    /// Exactly one of `bits` is true.
    pub fn exactly_one(&mut self, bits: &[Bit]) -> Bit {
        let some = self.or_many(bits.iter().copied());
        let amo = self.at_most_one(bits);
        self.and(some, amo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding() {
        let mut c = Circuit::new();
        let x = c.input("x");
        assert_eq!(c.and(x, Circuit::TRUE), x);
        assert_eq!(c.and(Circuit::TRUE, x), x);
        assert_eq!(c.and(x, Circuit::FALSE), Circuit::FALSE);
        assert_eq!(c.and(x, x), x);
        assert_eq!(c.and(x, x.not()), Circuit::FALSE);
        assert_eq!(c.or(x, x.not()), Circuit::TRUE);
        assert_eq!(Circuit::TRUE.not(), Circuit::FALSE);
    }

    #[test]
    fn hash_consing_dedupes() {
        let mut c = Circuit::new();
        let x = c.input("x");
        let y = c.input("y");
        let a = c.and(x, y);
        let b = c.and(y, x);
        assert_eq!(a, b);
        let n = c.num_nodes();
        let _ = c.and(x, y);
        assert_eq!(c.num_nodes(), n);
    }

    #[test]
    fn and_many_empty_is_true() {
        let mut c = Circuit::new();
        assert_eq!(c.and_many([]), Circuit::TRUE);
        assert_eq!(c.or_many([]), Circuit::FALSE);
    }

    /// Depth of the cone under `bit`, in AND gates.
    fn gate_depth(c: &Circuit, bit: Bit) -> usize {
        match c.node(bit.node()) {
            Node::ConstTrue | Node::Input(_) => 0,
            Node::And(a, b) => 1 + gate_depth(c, a).max(gate_depth(c, b)),
        }
    }

    /// Regression guard for the balanced `and_many`/`or_many` reductions:
    /// a left-fold over n fresh inputs would build a depth-(n-1) chain,
    /// while the balanced tree must stay at ⌈log₂ n⌉ depth with exactly
    /// n-1 gates. Tseitin depth and hash-consing hit rate both depend on
    /// this shape, so a silent revert to folding should fail loudly here.
    #[test]
    fn and_many_builds_balanced_trees_without_extra_nodes() {
        for n in [2usize, 3, 5, 8, 13, 32, 57] {
            let mut c = Circuit::new();
            let xs: Vec<Bit> = (0..n).map(|i| c.input(format!("x{i}"))).collect();
            let before = c.num_nodes();
            let root = c.and_many(xs.iter().copied());
            assert_eq!(c.num_nodes() - before, n - 1, "n={n}: n-1 AND gates");
            let want_depth = (usize::BITS - (n - 1).leading_zeros()) as usize; // ⌈log₂ n⌉
            assert_eq!(gate_depth(&c, root), want_depth, "n={n}: logarithmic depth");
            // or_many shares the shape (De Morgan over the same reduction).
            let mut c2 = Circuit::new();
            let ys: Vec<Bit> = (0..n).map(|i| c2.input(format!("y{i}"))).collect();
            let before = c2.num_nodes();
            let oroot = c2.or_many(ys.iter().copied());
            assert_eq!(c2.num_nodes() - before, n - 1, "n={n}: or gate count");
            assert_eq!(gate_depth(&c2, oroot), want_depth, "n={n}: or depth");
        }
        // Balanced halving also exposes shared subtrees to the hash-conser:
        // reducing the same prefix twice must reuse every gate.
        let mut c = Circuit::new();
        let xs: Vec<Bit> = (0..8).map(|i| c.input(format!("x{i}"))).collect();
        let _ = c.and_many(xs.iter().copied());
        let n = c.num_nodes();
        let _ = c.and_many(xs.iter().copied());
        assert_eq!(c.num_nodes(), n, "identical reduction is fully hash-consed");
    }

    #[test]
    fn exactly_one_semantics_exhaustive() {
        // Check exactly_one against all assignments of 3 inputs by evaluation.
        let mut c = Circuit::new();
        let xs = [c.input("a"), c.input("b"), c.input("c")];
        let f = c.exactly_one(&xs);
        for m in 0u32..8 {
            let vals = vec![(m & 1) != 0, (m & 2) != 0, (m & 4) != 0];
            let got = eval(&c, f, &vals);
            let want = vals.iter().filter(|&&b| b).count() == 1;
            assert_eq!(got, want, "assignment {vals:?}");
        }
    }

    #[test]
    fn ite_and_xor_semantics() {
        let mut c = Circuit::new();
        let xs = [c.input("c"), c.input("t"), c.input("e")];
        let f = c.ite(xs[0], xs[1], xs[2]);
        let g = c.xor(xs[0], xs[1]);
        for m in 0u32..8 {
            let vals = vec![(m & 1) != 0, (m & 2) != 0, (m & 4) != 0];
            assert_eq!(eval(&c, f, &vals), if vals[0] { vals[1] } else { vals[2] });
            assert_eq!(eval(&c, g, &vals), vals[0] ^ vals[1]);
        }
    }

    /// Direct recursive evaluation used by the tests.
    pub(crate) fn eval(c: &Circuit, bit: Bit, inputs: &[bool]) -> bool {
        let v = match c.node(bit.node()) {
            Node::ConstTrue => true,
            Node::Input(i) => inputs[i as usize],
            Node::And(a, b) => eval(c, a, inputs) && eval(c, b, inputs),
        };
        v ^ bit.is_negated()
    }
}
