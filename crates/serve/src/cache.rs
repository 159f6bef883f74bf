//! The in-memory suite cache: fingerprint-keyed, byte-capped, LRU.
//!
//! The key is the *suite fingerprint* — an FNV-1a fold over the query's
//! (key, config-fingerprint) unit list (see [`suite_fingerprint`]) — so
//! two requests hit the same entry iff they would run the exact same
//! units under the exact same semantic config. Parallelism knobs are
//! excluded by construction because
//! [`litsynth_core::config_fingerprint`] excludes them (suites are
//! byte-identical across thread/cube/shard counts).
//!
//! Eviction is least-recently-used by total body bytes. The cache is the
//! fast tier; the journal (size-capped on disk, see
//! [`litsynth_core::Journal`]) is the persistent tier below it — a server
//! restart empties this cache but a journaled query still replays with
//! zero compilations.

use litsynth_core::fnv1a;
use litsynth_portfolio::WorkUnit;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The cache key for a whole query: a versioned FNV-1a fold over the
/// query's units in merge order. Each unit contributes its journal key
/// and its [`litsynth_core::config_fingerprint`], so any semantic change
/// to any unit changes the suite fingerprint.
pub fn suite_fingerprint(
    units: impl IntoIterator<Item = impl std::borrow::Borrow<WorkUnit>>,
) -> u64 {
    let mut text = String::from("litsynth-serve v1\n");
    for u in units {
        let u = u.borrow();
        text.push_str(&format!("{} {:016x}\n", u.key, u.fingerprint));
    }
    fnv1a(text.as_bytes())
}

struct Entry {
    body: Arc<String>,
    tests: usize,
    last_used: u64,
}

struct Inner {
    map: HashMap<u64, Entry>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Monotone counters plus current occupancy, snapshotted together.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to stay under the byte cap.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Body bytes currently resident.
    pub bytes: usize,
}

/// A byte-capped LRU map from suite fingerprint to encoded suite body.
pub struct SuiteCache {
    inner: Mutex<Inner>,
    cap_bytes: usize,
}

impl SuiteCache {
    /// A cache holding at most `cap_bytes` of suite bodies (minimum 1 —
    /// a zero cap would evict every entry the moment it lands).
    pub fn new(cap_bytes: usize) -> SuiteCache {
        SuiteCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                bytes: 0,
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            cap_bytes: cap_bytes.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks `fingerprint` up, counting a hit or miss and refreshing
    /// recency on a hit. Returns the body and its test count.
    pub fn get(&self, fingerprint: u64) -> Option<(Arc<String>, usize)> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&fingerprint) {
            Some(e) => {
                e.last_used = tick;
                let out = (e.body.clone(), e.tests);
                inner.hits += 1;
                Some(out)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) an entry, then evicts least-recently-used
    /// entries until the cache fits the cap again. The entry just
    /// inserted is never evicted — a single over-cap suite still serves
    /// its own warm repeats.
    pub fn put(&self, fingerprint: u64, body: Arc<String>, tests: usize) {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.remove(&fingerprint) {
            inner.bytes -= old.body.len();
        }
        inner.bytes += body.len();
        inner.map.insert(
            fingerprint,
            Entry {
                body,
                tests,
                last_used: tick,
            },
        );
        while inner.bytes > self.cap_bytes && inner.map.len() > 1 {
            let oldest = inner
                .map
                .iter()
                .filter(|(&fp, _)| fp != fingerprint)
                .min_by_key(|(&fp, e)| (e.last_used, fp))
                .map(|(&fp, _)| fp);
            let Some(fp) = oldest else { break };
            let gone = inner.map.remove(&fp).expect("picked from the map");
            inner.bytes -= gone.body.len();
            inner.evictions += 1;
        }
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len(),
            bytes: inner.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(text: &str) -> Arc<String> {
        Arc::new(text.to_string())
    }

    #[test]
    fn hits_refresh_recency_and_misses_are_counted() {
        let c = SuiteCache::new(1024);
        assert!(c.get(1).is_none());
        c.put(1, body("one"), 1);
        let (b, tests) = c.get(1).expect("warm hit");
        assert_eq!((&**b, tests), ("one", 1));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn eviction_is_lru_by_bytes_and_spares_the_newest_entry() {
        // Cap fits two 4-byte bodies; a third insert evicts the least
        // recently *used* (entry 2 — entry 1 was refreshed by a get).
        let c = SuiteCache::new(8);
        c.put(1, body("aaaa"), 1);
        c.put(2, body("bbbb"), 1);
        assert!(c.get(1).is_some());
        c.put(3, body("cccc"), 1);
        assert!(c.get(2).is_none(), "LRU entry evicted");
        assert!(c.get(1).is_some(), "recently used entry survives");
        assert!(c.get(3).is_some(), "newest entry survives");
        assert_eq!(c.stats().evictions, 1);

        // A single body larger than the whole cap still serves warm.
        let c = SuiteCache::new(2);
        c.put(9, body("oversized"), 3);
        assert!(c.get(9).is_some());
    }

    #[test]
    fn suite_fingerprint_distinguishes_units_and_configs() {
        let unit = |key: &str, fp: u64| WorkUnit {
            key: key.into(),
            fingerprint: fp,
        };
        let a = suite_fingerprint([unit("tso/sc_per_loc/2", 7)]);
        assert_eq!(a, suite_fingerprint([unit("tso/sc_per_loc/2", 7)]));
        assert_ne!(a, suite_fingerprint([unit("tso/sc_per_loc/3", 7)]));
        assert_ne!(a, suite_fingerprint([unit("tso/sc_per_loc/2", 8)]));
        assert_ne!(
            a,
            suite_fingerprint([unit("tso/sc_per_loc/2", 7), unit("tso/causality/2", 7)])
        );
    }
}
