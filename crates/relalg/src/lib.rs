//! # litsynth-relalg
//!
//! A bounded relational model finder — the stack's stand-in for Kodkod, the
//! engine underneath Alloy in the paper's pipeline.
//!
//! Relational formulas over a finite universe are compiled to boolean
//! circuits, the circuits are translated to CNF via the Tseitin transform,
//! and the CNF is handed to the CDCL solver in `litsynth-sat`. Instances are
//! enumerated by adding blocking clauses over a caller-chosen set of
//! observable variables.
//!
//! The layers are:
//!
//! * [`Circuit`]/[`Bit`] — hash-consed AND-inverter-graph boolean circuits
//!   with constant folding,
//! * [`Matrix1`]/[`Matrix2`] — unary and binary relations over bounded atom
//!   sorts, represented as matrices of circuit bits, with the full relational
//!   algebra (union, join, transpose, transitive closure, restriction, …) and
//!   relational predicates (subset, acyclicity, irreflexivity, totality, …),
//! * [`Finder`] — CNF compilation, solving, and instance enumeration.
//!
//! # Example: find a 3-atom strict total order
//!
//! ```
//! use litsynth_relalg::{Circuit, Finder, Matrix2};
//! use litsynth_sat::{NoExchange, SolveBudget};
//!
//! let mut c = Circuit::new();
//! let r = Matrix2::free(&mut c, 3, 3, "r");
//! let tc = r.transitive_closure(&mut c);
//! let asserts = vec![
//!     r.is_acyclic(&mut c),
//!     tc.is_total_on_distinct(&mut c),
//! ];
//! let mut finder = Finder::new(&c);
//! let inst = finder
//!     .next_instance_budgeted_assuming(&c, &asserts, &[], &mut NoExchange, &SolveBudget::unlimited())
//!     .expect("an unlimited budget never interrupts")
//!     .expect("a total order exists");
//! let mut edges = 0;
//! for i in 0..3 {
//!     for j in 0..3 {
//!         if inst.eval(&c, tc.get(i, j)) {
//!             edges += 1;
//!         }
//!     }
//! }
//! assert_eq!(edges, 3); // a strict total order on 3 atoms has 3 pairs
//! ```

mod circuit;
mod compiled;
mod finder;
mod matrix;

pub use circuit::{Bit, Circuit};
pub use compiled::{thread_compilations, CompiledCircuit};
pub use finder::{Finder, Instance};
pub use matrix::{Matrix1, Matrix2};
