//! The session cache: LRU-evicting, single-flight, keyed by matrix content
//! and solver configuration.
//!
//! A cache hit means a job skips partitioning, row distribution, and the
//! whole preconditioner factorization — the dominant cost of small repeated
//! solves. Keys combine the matrix [`fingerprint`](parapre_sparse::Csr::fingerprint)
//! with [`SessionConfig::config_string`], so two jobs share a session iff
//! they would have built bit-identical ones. Hit/miss/eviction counts are
//! kept per cache ([`SessionCache::stats`]) and reported once each to
//! `parapre_cache_*_total`.

use crate::session::{SessionConfig, SolverSession};
use crate::EngineError;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Cache identity of a session.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SessionKey {
    /// Content fingerprint of the (already layout-ready) matrix.
    pub fingerprint: u64,
    /// Canonical solver-configuration string
    /// ([`SessionConfig::config_string`]).
    pub config: String,
}

impl SessionKey {
    /// Builds the key for `cfg` applied to a matrix with `fingerprint`.
    pub fn new(fingerprint: u64, cfg: &SessionConfig) -> SessionKey {
        SessionKey {
            fingerprint,
            config: cfg.config_string(),
        }
    }
}

/// Counter snapshot for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from cache.
    pub hits: u64,
    /// Lookups that had to build.
    pub misses: u64,
    /// Sessions evicted by the LRU policy.
    pub evictions: u64,
    /// Times a caller blocked behind another thread's in-flight build of
    /// the same key (single-flight waits; each is one factorization saved).
    pub waits: u64,
    /// Sessions currently resident.
    pub len: usize,
    /// Maximum resident sessions.
    pub capacity: usize,
}

/// Removes the least recently used entries of `map` until at most
/// `capacity` remain; returns how many went.
pub(crate) fn evict_lru<K: Clone + Eq + Hash, V>(
    map: &mut HashMap<K, V>,
    capacity: usize,
    last_used: impl Fn(&V) -> u64,
) -> u64 {
    let mut evicted = 0;
    while map.len() > capacity {
        let lru = map
            .iter()
            .min_by_key(|(_, v)| last_used(v))
            .map(|(k, _)| k.clone())
            .expect("non-empty over capacity");
        map.remove(&lru);
        evicted += 1;
    }
    evicted
}

struct Entry {
    session: Arc<SolverSession>,
    last_used: u64,
}

struct Inner {
    map: HashMap<SessionKey, Entry>,
    /// Keys currently being built by some thread (single-flight guard:
    /// concurrent identical jobs wait instead of factoring twice).
    building: Vec<SessionKey>,
    tick: u64,
}

/// A bounded, thread-safe LRU cache of [`SolverSession`]s.
pub struct SessionCache {
    capacity: usize,
    inner: Mutex<Inner>,
    built: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    waits: AtomicU64,
}

impl SessionCache {
    /// Creates a cache holding at most `capacity` sessions (min 1).
    pub fn new(capacity: usize) -> SessionCache {
        SessionCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                building: Vec::new(),
                tick: 0,
            }),
            built: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            waits: AtomicU64::new(0),
        }
    }

    /// Returns the cached session for `key`, building it with `build` on a
    /// miss. The boolean is `true` for a hit. Concurrent callers with the
    /// same key block until the first finishes (single-flight); callers
    /// with different keys build concurrently (the lock is not held while
    /// building).
    pub fn get_or_build<F>(
        &self,
        key: SessionKey,
        build: F,
    ) -> Result<(Arc<SolverSession>, bool), EngineError>
    where
        F: FnOnce() -> Result<SolverSession, EngineError>,
    {
        {
            let mut inner = self.inner.lock().expect("cache lock");
            let mut waited = false;
            loop {
                if inner.map.contains_key(&key) {
                    inner.tick += 1;
                    let tick = inner.tick;
                    let entry = inner.map.get_mut(&key).expect("just found");
                    entry.last_used = tick;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    parapre_metrics::inc(parapre_metrics::names::CACHE_HITS_TOTAL, 1);
                    return Ok((Arc::clone(&entry.session), true));
                }
                if inner.building.contains(&key) {
                    if !waited {
                        // Count wait *episodes*, not condvar wakeups: one
                        // per caller that parked behind an in-flight build.
                        waited = true;
                        self.waits.fetch_add(1, Ordering::Relaxed);
                    }
                    inner = self.built.wait(inner).expect("cache lock");
                    continue;
                }
                inner.building.push(key.clone());
                self.misses.fetch_add(1, Ordering::Relaxed);
                parapre_metrics::inc(parapre_metrics::names::CACHE_MISSES_TOTAL, 1);
                break;
            }
        }
        let built = build();
        let mut inner = self.inner.lock().expect("cache lock");
        inner.building.retain(|k| k != &key);
        let result = match built {
            Ok(session) => {
                let session = Arc::new(session);
                self.admit(&mut inner, key, Arc::clone(&session));
                Ok((session, false))
            }
            Err(e) => Err(e),
        };
        drop(inner);
        self.built.notify_all();
        result
    }

    /// Makes `session` the most recently used entry under `key`, then
    /// evicts down to capacity, counting every session dropped.
    fn admit(&self, inner: &mut Inner, key: SessionKey, session: Arc<SolverSession>) {
        inner.tick += 1;
        let last_used = inner.tick;
        inner.map.insert(key, Entry { session, last_used });
        let n = evict_lru(&mut inner.map, self.capacity, |e| e.last_used);
        if n > 0 {
            self.evictions.fetch_add(n, Ordering::Relaxed);
            parapre_metrics::inc(parapre_metrics::names::CACHE_EVICTIONS_TOTAL, n);
        }
    }

    /// The refactorization donor for a matrix that missed: the most
    /// recently used **resident** session with the same configuration and
    /// the same sparsity pattern (values differ, or it would have been a
    /// hit). A scan of at most `capacity` entries — no second index, and an
    /// evicted session is never a donor.
    pub fn donor(&self, config: &str, pattern_fingerprint: u64) -> Option<Arc<SolverSession>> {
        let inner = self.inner.lock().expect("cache lock");
        inner
            .map
            .iter()
            .filter(|(k, e)| {
                k.config == config && e.session.pattern_fingerprint() == pattern_fingerprint
            })
            .max_by_key(|(_, e)| e.last_used)
            .map(|(_, e)| Arc::clone(&e.session))
    }

    /// Inserts (or replaces) a ready-made session under `key`, evicting
    /// LRU entries if needed. The service swaps in a cold rebuild for a
    /// refactored session whose frozen pattern went stale.
    pub fn insert(&self, key: SessionKey, session: Arc<SolverSession>) {
        self.admit(&mut self.inner.lock().expect("cache lock"), key, session);
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            len: inner.map.len(),
            capacity: self.capacity,
        }
    }

    /// Drops every resident session (counters are kept).
    pub fn clear(&self) {
        self.inner.lock().expect("cache lock").map.clear();
    }
}
