//! # litsynth-litmus
//!
//! Litmus-test infrastructure: the program/outcome AST, concrete relation
//! algebra, explicit execution enumeration, the saturation-based
//! consistency-checking core ([`check`]), a line-oriented wire codec
//! ([`wire`]), canonicalization, reference suites, and a diy-style
//! randomized generator.
//!
//! A [`LitmusTest`] is a small multi-threaded program; an [`Outcome`] is the
//! observable result of one execution (who each read read from, plus the
//! final write per location). A memory model (see `litsynth-models`) decides
//! which outcomes are legal; a litmus test *in a suite* is a program paired
//! with a forbidden outcome.
//!
//! # Example
//!
//! ```
//! use litsynth_litmus::{Instr, LitmusTest, MemOrder, Execution};
//!
//! // The message-passing (MP) test of the paper's Figure 1.
//! let mp = LitmusTest::new(
//!     "MP",
//!     vec![
//!         vec![Instr::store(0), Instr::store_ord(1, MemOrder::Release)],
//!         vec![Instr::load_ord(1, MemOrder::Acquire), Instr::load(0)],
//!     ],
//! );
//! assert_eq!(mp.num_events(), 4);
//! // Four candidate executions (2 rf choices per read).
//! assert_eq!(Execution::enumerate(&mp).len(), 4);
//! ```

mod canon;
mod convert;
mod event;
mod exec;
mod rel;
mod test;

pub mod check;
pub mod diy;
pub mod format;
pub mod rng;
pub mod suites;
pub mod wire;

pub use canon::{
    apply_thread_order, canonical_key_exact, canonical_key_hash, canonicalize_exact, serialize,
    TwoTierCanon,
};
pub use check::{each_co_extension, saturate, AxiomSpec, CycleWitness, RfPart, SpecKind};
pub use convert::to_rmw_pairs;
pub use event::{Addr, DepKind, FenceKind, Instr, MemOrder, Scope};
pub use exec::{Execution, ExecutionIter};
pub use rel::{union_all, Rel};
pub use rng::SplitMix64;
pub use test::{Dep, LitmusTest, Outcome, RmwPair};
