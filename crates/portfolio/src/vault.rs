//! The cross-query clause vault.
//!
//! The exchange bus ([`crate::ExchangeBus`]) shares learnt clauses between
//! the cube workers of *one* query and dies with it. The vault extends that
//! reuse across queries: at solve time every *skeleton-pure* learnt clause
//! (derived exclusively from skeleton-tagged shared layers — see
//! [`litsynth_sat::ClauseExchange`]) is teed into the vault under the
//! fingerprint of the query's skeleton layer chain, and the next query
//! whose chain contains an identical prefix is seeded with those clauses
//! before its first restart, the same way the bus seeds peer cubes.
//!
//! # Why cross-query reuse is sound
//!
//! A skeleton-pure clause is a resolvent whose every antecedent lives in a
//! skeleton-tagged layer, so it is implied by the skeleton chain alone —
//! not by the axiom layer, any blocking clause, or any impure import of
//! the query that learnt it. Layer fingerprints commit to the exact clause
//! *and variable numbering* content of a chain prefix
//! ([`litsynth_sat::SharedCnf::skeleton_fingerprints`]); when a later
//! query's chain contains a prefix with the same fingerprint, the clause
//! is implied by that query's own formula, literally, over the same
//! variable indices. Imports therefore only prune search — enumerated
//! model sets, and hence synthesized suites, stay byte-identical with the
//! vault on or off.
//!
//! On a *lazily* attached receiver ([`litsynth_sat::Solver::attach_shared_lazy`])
//! the fetch is additionally cone-aware: seeds over the query's declared
//! cone install immediately, and seeds touching a still-dormant cone are
//! shelved inside the solver and replayed when that cone activates
//! ([`litsynth_sat::Solver::set_shelving`]), so laziness never costs
//! vaulted pruning.

use litsynth_sat::{ClauseExchange, Lit};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Tuning knobs for the clause vault.
#[derive(Clone, Copy, Debug)]
pub struct VaultConfig {
    /// Master switch; `false` turns publish and seed into no-ops.
    pub enabled: bool,
    /// Only clauses with LBD ≤ this are vaulted.
    pub max_lbd: u32,
    /// Only clauses with at most this many literals are vaulted.
    pub max_len: usize,
    /// Hard cap on clauses vaulted per fingerprint shelf.
    pub max_per_key: usize,
}

impl Default for VaultConfig {
    fn default() -> Self {
        VaultConfig {
            enabled: true,
            max_lbd: 12,
            max_len: 60,
            max_per_key: 16_000,
        }
    }
}

/// Vault-wide counters.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct VaultStats {
    /// Clauses admitted into the vault.
    pub published: u64,
    /// Clauses handed out as seeds (counted per seeding).
    pub imported: u64,
    /// Publish attempts dropped (filter, cap, or duplicate).
    pub filtered: u64,
}

/// One fingerprint's shelf: insertion-ordered clauses (each with the LBD
/// its publisher reported, so seeded solvers file them in the right
/// retention tier) plus a membership set so duplicate publishes (the same
/// clause learnt by several cubes) are dropped.
#[derive(Debug, Default)]
struct Shelf {
    clauses: Vec<(Arc<[Lit]>, u32)>,
    seen: HashSet<Arc<[Lit]>>,
}

fn lock_shelves(m: &Mutex<HashMap<u64, Shelf>>) -> MutexGuard<'_, HashMap<u64, Shelf>> {
    // Like the exchange pool: a worker panicking mid-publish leaves the
    // map consistent, so poisoning is ignored.
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Skeleton-pure learnt clauses, shelved by skeleton-chain fingerprint,
/// surviving from query to query within one synthesis sweep.
#[derive(Debug, Default)]
pub struct ClauseVault {
    cfg: VaultConfig,
    shelves: Mutex<HashMap<u64, Shelf>>,
    published: AtomicU64,
    imported: AtomicU64,
    filtered: AtomicU64,
}

impl ClauseVault {
    /// Creates a vault with the given configuration.
    pub fn new(cfg: VaultConfig) -> Arc<ClauseVault> {
        Arc::new(ClauseVault {
            cfg,
            ..ClauseVault::default()
        })
    }

    /// Offers a skeleton-pure clause learnt by a query whose skeleton
    /// chain has `fingerprint`. Returns `true` if the clause was admitted.
    pub fn publish(&self, fingerprint: u64, lits: &[Lit], lbd: u32) -> bool {
        if !self.cfg.enabled {
            return false;
        }
        if lbd > self.cfg.max_lbd || lits.len() > self.cfg.max_len {
            self.filtered.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let mut sorted: Vec<Lit> = lits.to_vec();
        sorted.sort();
        let clause: Arc<[Lit]> = sorted.into();
        let mut shelves = lock_shelves(&self.shelves);
        let shelf = shelves.entry(fingerprint).or_default();
        if shelf.clauses.len() >= self.cfg.max_per_key || !shelf.seen.insert(clause.clone()) {
            self.filtered.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        shelf.clauses.push((clause, lbd));
        self.published.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Every vaulted clause shelved under any of `fingerprints` — the
    /// receiving query passes its full list of skeleton-chain prefix
    /// fingerprints, and anything published under an identical prefix is a
    /// sound seed. Clauses come back with their publisher-reported LBD and
    /// flagged skeleton-pure, so the receiving solver files them in the
    /// right retention tier and its own derivations from them can be
    /// re-vaulted.
    pub fn seed(&self, fingerprints: &[u64]) -> Vec<(Vec<Lit>, u32, bool)> {
        if !self.cfg.enabled {
            return Vec::new();
        }
        let shelves = lock_shelves(&self.shelves);
        let mut out = Vec::new();
        for fp in fingerprints {
            if let Some(shelf) = shelves.get(fp) {
                out.extend(
                    shelf
                        .clauses
                        .iter()
                        .map(|(c, lbd)| (c.to_vec(), *lbd, true)),
                );
            }
        }
        drop(shelves);
        self.imported.fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> VaultStats {
        VaultStats {
            published: self.published.load(Ordering::Relaxed),
            imported: self.imported.load(Ordering::Relaxed),
            filtered: self.filtered.load(Ordering::Relaxed),
        }
    }
}

/// Wraps a per-query exchange endpoint with vault traffic: skeleton-pure
/// exports are teed into the vault under `publish_fp`, and the first fetch
/// seeds the solver with every clause shelved under the query's prefix
/// fingerprints (then defers to the wrapped endpoint as usual).
#[derive(Debug)]
pub struct VaultedExchange<E: ClauseExchange> {
    inner: E,
    vault: Arc<ClauseVault>,
    publish_fp: u64,
    import_fps: Vec<u64>,
    seeded: bool,
    imports_enabled: bool,
}

impl<E: ClauseExchange> VaultedExchange<E> {
    /// Wraps `inner`. `publish_fp` is the fingerprint of the query's full
    /// skeleton chain (what its pure clauses are implied by); `import_fps`
    /// are all the chain's prefix fingerprints
    /// ([`litsynth_sat::SharedCnf::skeleton_fingerprints`]).
    pub fn new(
        inner: E,
        vault: Arc<ClauseVault>,
        publish_fp: u64,
        import_fps: Vec<u64>,
    ) -> VaultedExchange<E> {
        VaultedExchange {
            inner,
            vault,
            publish_fp,
            import_fps,
            seeded: false,
            imports_enabled: true,
        }
    }

    /// Stops vault seeding for this wrapper (publishes still flow), e.g.
    /// on a cube's final retry attempt where the solve must be independent
    /// of all sharing.
    pub fn suppress_imports(&mut self) {
        self.imports_enabled = false;
    }

    /// The wrapped endpoint.
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E: ClauseExchange> ClauseExchange for VaultedExchange<E> {
    fn export(&mut self, lits: &[Lit], lbd: u32, skeleton: bool) {
        if skeleton {
            self.vault.publish(self.publish_fp, lits, lbd);
        }
        self.inner.export(lits, lbd, skeleton);
    }

    fn fetch(&mut self, out: &mut Vec<(Vec<Lit>, u32, bool)>) {
        if !self.seeded {
            self.seeded = true;
            if self.imports_enabled {
                // The whole shelf seeds, cross-axiom clauses included: on a
                // sweep-shared chain every axiom's definitional gates are
                // functions of the shared skeleton variables, so a clause
                // over a sibling's gates still propagates — and prunes — in
                // this query's search. The fetch is cone-aware on a lazily
                // attached solver: a seeded clause over the receiver's
                // *declared* cone installs immediately, while one touching
                // a still-dormant cone is shelved inside the solver and
                // replayed the moment that cone activates, so no vaulted
                // pruning is ever discarded. (Before shelving, such seeds
                // were dropped outright — sound, imports only prune, but
                // measurably costly at deep bounds.)
                out.extend(self.vault.seed(&self.import_fps));
            }
        }
        self.inner.fetch(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use litsynth_sat::{NoExchange, Var};

    fn lit(i: usize) -> Lit {
        Lit::pos(Var::from_index(i))
    }

    #[test]
    fn publish_and_seed_are_keyed_by_fingerprint() {
        let vault = ClauseVault::new(VaultConfig::default());
        assert!(vault.publish(7, &[lit(0), lit(1)], 2));
        assert!(vault.publish(9, &[lit(2), lit(3)], 2));
        assert_eq!(
            vault.seed(&[7]),
            vec![(vec![lit(0), lit(1)], 2, true)],
            "only the matching shelf seeds"
        );
        assert!(vault.seed(&[8]).is_empty(), "unknown fingerprint is empty");
        let both = vault.seed(&[7, 9]);
        assert_eq!(both.len(), 2, "all prefix shelves contribute");
        assert_eq!(vault.stats().published, 2);
        assert_eq!(vault.stats().imported, 3);
    }

    #[test]
    fn filters_caps_and_duplicates_are_dropped() {
        let cfg = VaultConfig {
            max_lbd: 2,
            max_len: 2,
            max_per_key: 2,
            ..VaultConfig::default()
        };
        let vault = ClauseVault::new(cfg);
        assert!(!vault.publish(1, &[lit(0), lit(1)], 5)); // LBD too high
        assert!(!vault.publish(1, &[lit(0), lit(1), lit(2)], 1)); // too long
        assert!(vault.publish(1, &[lit(0), lit(1)], 1));
        assert!(!vault.publish(1, &[lit(1), lit(0)], 1)); // duplicate mod order
        assert!(vault.publish(1, &[lit(2), lit(3)], 1));
        assert!(!vault.publish(1, &[lit(4), lit(5)], 1)); // shelf full
        assert_eq!(vault.stats().published, 2);
        assert_eq!(vault.stats().filtered, 4);
    }

    #[test]
    fn disabled_vault_is_inert() {
        let cfg = VaultConfig {
            enabled: false,
            ..VaultConfig::default()
        };
        let vault = ClauseVault::new(cfg);
        assert!(!vault.publish(1, &[lit(0), lit(1)], 1));
        assert!(vault.seed(&[1]).is_empty());
        assert_eq!(vault.stats(), VaultStats::default());
    }

    #[test]
    fn vaulted_exchange_tees_pure_exports_and_seeds_once() {
        let vault = ClauseVault::new(VaultConfig::default());
        // Query A publishes under fingerprint 42: one pure clause is teed,
        // the impure one is not.
        let mut a = VaultedExchange::new(NoExchange, vault.clone(), 42, vec![42]);
        a.export(&[lit(0), lit(1)], 2, true);
        a.export(&[lit(2), lit(3)], 2, false);
        assert_eq!(vault.stats().published, 1);
        // Query B's chain shares the prefix: its first fetch is seeded,
        // later fetches are not re-seeded.
        let mut b = VaultedExchange::new(NoExchange, vault.clone(), 99, vec![42, 99]);
        let mut got = Vec::new();
        b.fetch(&mut got);
        assert_eq!(got, vec![(vec![lit(0), lit(1)], 2, true)]);
        got.clear();
        b.fetch(&mut got);
        assert!(got.is_empty(), "seeding happens exactly once");
        // A suppressed wrapper never seeds but still publishes.
        let mut c = VaultedExchange::new(NoExchange, vault.clone(), 42, vec![42]);
        c.suppress_imports();
        let mut got = Vec::new();
        c.fetch(&mut got);
        assert!(got.is_empty());
        c.export(&[lit(4), lit(5)], 2, true);
        assert_eq!(vault.stats().published, 2);
    }
}
