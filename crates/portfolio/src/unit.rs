//! Work units: the independent (axiom, bound) queries of a sweep.
//!
//! A [`WorkUnit`] names one (axiom, bound) query of a sweep: its journal
//! key, its config fingerprint (the network-visible cache key — see
//! `litsynth_core::journal::config_fingerprint`), and its position in the
//! sweep's deterministic merge order. Units carry no work themselves; the
//! serving layer pairs each unit with the state needed to run it and
//! merges results by `seq`, never by completion order, which is what keeps
//! sharded suites byte-identical to a direct sweep.

use std::sync::Arc;

/// One claimable (axiom, bound) unit of a sweep.
#[derive(Clone, Debug)]
pub struct WorkUnit {
    /// The query's journal/fault-plan key, e.g. `tso/sc_per_loc/3`.
    pub key: Arc<str>,
    /// The query's config fingerprint — two units with equal keys and
    /// fingerprints provably produce the same canonical suite.
    pub fingerprint: u64,
    /// Position in the sweep's deterministic merge order (bound-ascending,
    /// axiom order within a bound).
    pub seq: usize,
}
