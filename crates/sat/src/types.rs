//! Core value types: variables and literals.

use std::fmt;
use std::ops::Not;

/// A propositional variable, identified by a dense index starting at 0.
///
/// Variables are created by [`crate::Solver::new_var`]; indices are assigned
/// sequentially.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(pub(crate) u32);

impl Var {
    /// Constructs a variable from its raw index.
    #[inline]
    pub fn from_index(index: usize) -> Var {
        Var(index as u32)
    }

    /// The dense index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable together with a polarity.
///
/// Encoded MiniSAT-style as `2 * var + sign` where `sign == 1` means the
/// negated literal. This makes literal negation a single XOR and allows
/// literals to directly index watcher lists.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// The positive literal of `v`.
    #[inline]
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    #[inline]
    pub fn neg(v: Var) -> Lit {
        Lit((v.0 << 1) | 1)
    }

    /// Constructs a literal with an explicit polarity; `positive == true`
    /// yields the positive literal.
    #[inline]
    pub fn new(v: Var, positive: bool) -> Lit {
        if positive {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` for a positive literal.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The raw code (`2*var + sign`), usable as a dense array index.
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }
}

impl Not for Lit {
    type Output = Lit;
    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "{}", self.var())
        } else {
            write!(f, "¬{}", self.var())
        }
    }
}

/// Three-valued assignment used internally by the solver.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum LBool {
    True,
    False,
    Undef,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding_roundtrip() {
        let v = Var::from_index(7);
        assert_eq!(Lit::pos(v).var(), v);
        assert_eq!(Lit::neg(v).var(), v);
        assert!(Lit::pos(v).is_positive());
        assert!(!Lit::neg(v).is_positive());
        assert_eq!(!Lit::pos(v), Lit::neg(v));
        assert_eq!(!!Lit::pos(v), Lit::pos(v));
    }

    #[test]
    fn lit_new_polarity() {
        let v = Var::from_index(3);
        assert_eq!(Lit::new(v, true), Lit::pos(v));
        assert_eq!(Lit::new(v, false), Lit::neg(v));
    }

    #[test]
    fn display_forms() {
        let v = Var::from_index(2);
        assert_eq!(Lit::pos(v).to_string(), "x2");
        assert_eq!(Lit::neg(v).to_string(), "¬x2");
    }
}
