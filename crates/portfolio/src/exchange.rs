//! The bounded learnt-clause exchange bus.
//!
//! Cube workers of one query share an [`ExchangeBus`]; each worker holds an
//! [`ExchangeEndpoint`], which implements the solver-side
//! [`ClauseExchange`] trait. Exports are admitted under an LBD/size filter
//! and a pool cap; fetches return every admitted clause the endpoint has
//! not seen yet, excluding its own exports.
//!
//! # Why sharing clauses across cubes is sound
//!
//! All workers attach to one compiled formula F. A worker's clause database
//! is F plus its blocking clauses, and every clause it learns is a
//! resolvent of database clauses — cube pins enter the search as
//! assumptions (decisions), never as axioms, so learnt clauses are implied
//! by F ∧ (that worker's blocking clauses). Blocking clauses exclude
//! exactly the observable classes the worker already enumerated, and
//! because cube pins are themselves *observed* bits, any model that remains
//! to be found in a different cube differs from every blocked class on at
//! least one pinned observed bit — it satisfies all of the peer's blocking
//! clauses, hence every clause the peer ever learns. Imports therefore
//! never exclude a model any worker still has to enumerate: the exchange
//! prunes search, and provably nothing else. (If an import does make a
//! worker's formula unsatisfiable, that cube genuinely had no remaining
//! models.)
//!
//! Lazily attached workers (`CompiledQuery::attach_lazy`) add one wrinkle:
//! a fetched clause may mention gate variables of a definitional cone the
//! importer has never activated. The solver treats such clauses as absent
//! — it silently drops them at import time rather than waking the cone —
//! which keeps the dormant-cone saving and stays sound by the same
//! argument: an import can only prune, so *not* installing one changes no
//! enumeration result.

use litsynth_sat::{ClauseExchange, Lit};
use std::sync::{Arc, Mutex, MutexGuard};

/// Locks ignoring poison: a worker that panicked mid-export must not take
/// the whole bus down with it — the pool isolates the panic and retries,
/// and the clause pool itself is always in a consistent state (pushes are
/// atomic).
fn lock_pool(m: &Mutex<Vec<PooledClause>>) -> MutexGuard<'_, Vec<PooledClause>> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Tuning knobs for the exchange bus.
#[derive(Clone, Copy, Debug)]
pub struct ExchangeConfig {
    /// Master switch; `false` turns every endpoint into a no-op.
    pub enabled: bool,
    /// Only clauses with LBD ≤ this are published.
    pub max_lbd: u32,
    /// Only clauses with at most this many literals are published.
    pub max_len: usize,
    /// Hard cap on clauses held by the bus; exports beyond it are dropped.
    pub max_pool: usize,
}

impl Default for ExchangeConfig {
    fn default() -> Self {
        ExchangeConfig {
            enabled: true,
            max_lbd: 6,
            max_len: 30,
            max_pool: 10_000,
        }
    }
}

/// Per-endpoint exchange counters.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct ExchangeStats {
    /// Clauses this endpoint published to the bus.
    pub exported: u64,
    /// Peer clauses this endpoint handed to its solver.
    pub imported: u64,
    /// Clauses this endpoint dropped (LBD/size filter or full pool).
    pub filtered: u64,
}

/// One clause on the bus: who published it, its literals, the LBD its
/// sender reported, and whether it is skeleton-pure (derived from
/// skeleton-tagged layers alone — see [`litsynth_sat::ClauseExchange`]).
/// The LBD travels with the clause so importing solvers file it in the
/// right retention tier before its first use, and purity travels so
/// importers keep propagating it and the cross-query vault can harvest
/// pure clauses downstream.
type PooledClause = (usize, Arc<[Lit]>, u32, bool);

/// The shared clause pool for one query's cube workers.
#[derive(Debug, Default)]
pub struct ExchangeBus {
    cfg: ExchangeConfig,
    pool: Mutex<Vec<PooledClause>>,
}

impl ExchangeBus {
    /// Creates a bus with the given configuration.
    pub fn new(cfg: ExchangeConfig) -> Arc<ExchangeBus> {
        Arc::new(ExchangeBus {
            cfg,
            pool: Mutex::new(Vec::new()),
        })
    }

    /// The endpoint for worker `worker` (its cube index). Endpoints start
    /// with an empty read cursor: the first fetch sees everything peers
    /// published so far.
    pub fn endpoint(self: &Arc<Self>, worker: usize) -> ExchangeEndpoint {
        ExchangeEndpoint {
            bus: Arc::clone(self),
            worker,
            cursor: 0,
            imports_enabled: true,
            stats: ExchangeStats::default(),
        }
    }

    /// Number of clauses currently pooled.
    pub fn pooled(&self) -> usize {
        lock_pool(&self.pool).len()
    }
}

/// A worker's handle on the bus; plugs into [`litsynth_sat::Solver::solve`]
/// as its exchange endpoint.
#[derive(Debug)]
pub struct ExchangeEndpoint {
    bus: Arc<ExchangeBus>,
    worker: usize,
    cursor: usize,
    imports_enabled: bool,
    stats: ExchangeStats,
}

impl ExchangeEndpoint {
    /// The counters accumulated by this endpoint.
    pub fn stats(&self) -> ExchangeStats {
        self.stats
    }

    /// Stops this endpoint from importing peer clauses; exports still
    /// flow. The retry ladder uses this on a cube's last attempt, making
    /// the final try independent of peer timing while peers keep
    /// benefiting from its learnt clauses.
    pub fn disable_imports(&mut self) {
        self.imports_enabled = false;
    }
}

impl ClauseExchange for ExchangeEndpoint {
    fn export(&mut self, lits: &[Lit], lbd: u32, skeleton: bool) {
        let cfg = &self.bus.cfg;
        if !cfg.enabled {
            return;
        }
        if lbd > cfg.max_lbd || lits.len() > cfg.max_len {
            self.stats.filtered += 1;
            return;
        }
        let mut pool = lock_pool(&self.bus.pool);
        if pool.len() >= cfg.max_pool {
            self.stats.filtered += 1;
            return;
        }
        pool.push((self.worker, lits.into(), lbd, skeleton));
        self.stats.exported += 1;
    }

    fn fetch(&mut self, out: &mut Vec<(Vec<Lit>, u32, bool)>) {
        if !self.bus.cfg.enabled || !self.imports_enabled {
            return;
        }
        let pool = lock_pool(&self.bus.pool);
        for (owner, clause, lbd, pure) in &pool[self.cursor..] {
            if *owner != self.worker {
                out.push((clause.to_vec(), *lbd, *pure));
                self.stats.imported += 1;
            }
        }
        self.cursor = pool.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use litsynth_sat::Var;

    fn lit(i: usize) -> Lit {
        Lit::pos(Var::from_index(i))
    }

    #[test]
    fn no_self_import_and_cursor_advances() {
        let bus = ExchangeBus::new(ExchangeConfig::default());
        let mut a = bus.endpoint(0);
        let mut b = bus.endpoint(1);
        a.export(&[lit(0), lit(1)], 2, true);
        b.export(&[lit(2), lit(3)], 2, false);
        let mut got = Vec::new();
        a.fetch(&mut got);
        assert_eq!(got, vec![(vec![lit(2), lit(3)], 2, false)]);
        got.clear();
        a.fetch(&mut got);
        assert!(got.is_empty(), "cursor must advance past seen clauses");
        got.clear();
        b.fetch(&mut got);
        assert_eq!(
            got,
            vec![(vec![lit(0), lit(1)], 2, true)],
            "LBD and purity travel with the clause"
        );
        assert_eq!(a.stats().exported, 1);
        assert_eq!(a.stats().imported, 1);
        assert_eq!(b.stats().imported, 1);
    }

    #[test]
    fn lbd_and_size_filters_count_drops() {
        let cfg = ExchangeConfig {
            max_lbd: 2,
            max_len: 3,
            ..ExchangeConfig::default()
        };
        let bus = ExchangeBus::new(cfg);
        let mut a = bus.endpoint(0);
        a.export(&[lit(0), lit(1)], 5, false); // LBD too high
        a.export(&[lit(0), lit(1), lit(2), lit(3)], 1, false); // too long
        a.export(&[lit(0), lit(1)], 2, false); // admitted
        assert_eq!(a.stats().exported, 1);
        assert_eq!(a.stats().filtered, 2);
        assert_eq!(bus.pooled(), 1);
    }

    #[test]
    fn pool_cap_bounds_memory() {
        let cfg = ExchangeConfig {
            max_pool: 2,
            ..ExchangeConfig::default()
        };
        let bus = ExchangeBus::new(cfg);
        let mut a = bus.endpoint(0);
        for i in 0..5 {
            a.export(&[lit(i), lit(i + 1)], 1, false);
        }
        assert_eq!(bus.pooled(), 2);
        assert_eq!(a.stats().exported, 2);
        assert_eq!(a.stats().filtered, 3);
    }

    #[test]
    fn disabled_imports_still_export() {
        let bus = ExchangeBus::new(ExchangeConfig::default());
        let mut a = bus.endpoint(0);
        let mut b = bus.endpoint(1);
        b.disable_imports();
        a.export(&[lit(0), lit(1)], 1, false);
        b.export(&[lit(2), lit(3)], 1, false);
        let mut got = Vec::new();
        b.fetch(&mut got);
        assert!(got.is_empty(), "imports disabled");
        assert_eq!(b.stats().imported, 0);
        got.clear();
        a.fetch(&mut got);
        assert_eq!(
            got,
            vec![(vec![lit(2), lit(3)], 1, false)],
            "exports still flow"
        );
    }

    #[test]
    fn disabled_bus_is_a_no_op() {
        let cfg = ExchangeConfig {
            enabled: false,
            ..ExchangeConfig::default()
        };
        let bus = ExchangeBus::new(cfg);
        let mut a = bus.endpoint(0);
        let mut b = bus.endpoint(1);
        a.export(&[lit(0), lit(1)], 1, false);
        let mut got = Vec::new();
        b.fetch(&mut got);
        assert!(got.is_empty());
        assert_eq!(a.stats(), ExchangeStats::default());
    }
}
