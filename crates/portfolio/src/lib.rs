//! # litsynth-portfolio
//!
//! Solver orchestration for parallel suite synthesis: compile-once CNF
//! sharing, a bounded learnt-clause exchange bus, and adaptive cube
//! selection.
//!
//! The synthesis engine partitions each (axiom, bound) enumeration into
//! `2^b` cubes by pinning observed selector bits, and fans the cubes over a
//! worker pool. Before this crate, every worker re-ran the same Tseitin
//! transform and solved cold. The portfolio fixes all three costs:
//!
//! * **Compile once** — [`CompiledQuery`] translates the query circuit to
//!   an immutable shared clause arena exactly once; workers attach in
//!   O(vars + clauses) via [`CompiledQuery::attach`] and share the arena by
//!   reference ([`litsynth_relalg::CompiledCircuit`] /
//!   [`litsynth_sat::Solver::attach_shared`] underneath).
//! * **Exchange learnt clauses** — cube workers publish learnt clauses
//!   under an LBD/size filter to an [`ExchangeBus`] and import peers'
//!   clauses at restart boundaries. Sharing across cubes is sound because
//!   pins are assumptions and blocking clauses from one cube are satisfied
//!   by every model remaining in the others (see [`exchange`] for the full
//!   argument) — so the exchange prunes search but can never change the
//!   enumerated model set, keeping suites byte-identical to the sequential
//!   path. On lazily attached workers the import path is cone-aware:
//!   clauses over still-dormant cones shelve inside the receiving solver
//!   and replay on activation, so laziness never forfeits bus or
//!   [`vault`] pruning.
//! * **Pick cubes adaptively** — a short probing run samples VSIDS
//!   activity and [`cube::rank_pins`] splits on the bits the solver
//!   actually branches on, instead of the first `b` slots.
//!
//! The deterministic scoped-thread pool the callers fan out on lives in
//! [`pool`]; it returns results in item order so merged output is
//! byte-identical at any thread count. [`resilient`] wraps that pool in a
//! supervisor: each attempt runs under `catch_unwind`, panicked or
//! interrupted items are retried with exponential backoff (fresh solver
//! per attempt, imports off on the last), and items that still fail come
//! back as [`TaskReport::degraded`] instead of poisoning the pool. This is
//! the engine's only retry layer: the serving tier runs each cold
//! (axiom, bound) unit once, and its cube attempts retry here.

pub mod cube;
pub mod exchange;
pub mod pool;
pub mod query;
pub mod resilient;
pub mod unit;
pub mod vault;

pub use exchange::{ExchangeBus, ExchangeConfig, ExchangeEndpoint, ExchangeStats};
pub use pool::{resolve_threads, run_ordered};
pub use query::{CompiledQuery, CubeConfig};
pub use resilient::{run_resilient, Attempt, TaskReport, MAX_ATTEMPTS};
pub use unit::WorkUnit;
pub use vault::{ClauseVault, VaultConfig, VaultStats, VaultedExchange};
