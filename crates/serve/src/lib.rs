//! # litsynth-serve
//!
//! A distributed synthesis service over the litsynth engine: a std-only
//! TCP server (the workspace is dependency-free by policy) answering
//! `(model, relaxations, bound)` suite queries.
//!
//! * [`protocol`] — length-prefixed text frames (`QUERY`, `SUITE`,
//!   `PROGRESS`, `ERR`, `PING`/`PONG`, `STATS`, `CHECK`/`VERDICT`).
//! * [`cache`] — the warm tier: a byte-capped LRU keyed by
//!   [`cache::suite_fingerprint`], an FNV fold over the query's
//!   (key, [`litsynth_core::config_fingerprint`]) unit list.
//! * [`shard`] — the cold path: (axiom, bound) units claimed from one
//!   shared counter by spawned shard threads, each unit run once (its cube
//!   attempts retry inside it), and merged in plan order. It is the one
//!   place a unit runs locally, remote-degraded units included.
//! * [`remote`] — the multi-host tier: units leased to remote workers
//!   under deadlines, reclaimed on expiry, validated on return, and handed
//!   back to the shard threads when the fleet thins out. It only leases:
//!   [`litsynth_core::finish_unit`] finishes every unit, wherever it ran.
//! * [`worker`] — the other end of the lease: `HELLO`, run, renew, ship
//!   the result bytes back (or `NACK` a config it can't reproduce).
//! * [`server`] / [`client`] — the two ends of the wire.
//! * [`models`] — model-name dispatch (the `MemoryModel` trait is not
//!   object-safe, so names are matched to concrete types).
//!
//! The load-bearing invariant is **byte identity**: whatever the cache
//! state, shard count, claim order, or crash timing, a served suite is
//! byte-for-byte the suite a direct
//! [`litsynth_core::synthesize_union_up_to`] call returns. Warm queries
//! additionally do *zero* solver work — the loopback tests assert both,
//! on the served counters.

pub mod cache;
pub mod client;
pub mod models;
pub mod protocol;
pub mod remote;
pub mod server;
pub mod shard;
pub mod worker;

pub use cache::{suite_fingerprint, CacheStats, SuiteCache};
pub use client::{Client, ClientConfig, ClientError, ServedSuite};
pub use litsynth_core::plan_query;
pub use protocol::{CheckReply, CheckRequest, Progress, QueryReply, QueryRequest};
pub use remote::{RemotePool, RemoteStats};
pub use server::{ServeConfig, Server, ServerStats};
pub use shard::{run_distributed, run_sharded, ShardRunStats};
pub use worker::{run_worker, FaultKind, WorkerConfig, WorkerFault, WorkerHandle};
