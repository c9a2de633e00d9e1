//! Lock-striped strategy cache with singleflight, for the serve hot path.
//!
//! The PR 4 server funneled every request through one global
//! `Mutex<StrategyCache>`, serializing even pure cache hits, and ran N
//! concurrent identical queries as N redundant searches. This module fixes
//! both:
//!
//! * **Sharding** — the cache is split into [`ShardedCache::shard_count`]
//!   independent [`StrategyCache`] shards, each behind its own mutex,
//!   selected by bits of the content-addressed key (already a well-mixed
//!   FNV-1a hash, so no re-hashing is needed). Hits on different keys
//!   proceed in parallel; a shard mutex is only ever held for an LRU probe
//!   or insert, never across a search.
//! * **Singleflight** — the first request to miss on a key becomes the
//!   *leader* and registers an in-flight marker; concurrent requests for
//!   the same key block on that marker instead of searching, then answer
//!   from the entry the leader cached (counted as `coalesced`, not `hits`).
//!   If the leader fails to produce an entry (budget exhausted, I/O error),
//!   each waiter retries the full lookup — one of them becomes the next
//!   leader, so a poisoned key degrades to the unshared behavior instead of
//!   wedging.
//!
//! Every lookup is counted as exactly one of `hits`, `misses` (the caller
//! got a [`MissGuard`] and must search), or `coalesced`. The counters are
//! process-wide atomics, readable lock-free for the `stats` wire request.

use crate::cache::{write_entry_file, CacheEntry, StrategyCache};
use pase_core::Error;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// One in-flight search marker. Waiters block on the condvar until the
/// leader (the [`MissGuard`] holder) finishes — successfully or not.
struct Flight {
    done: Mutex<bool>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Self {
            done: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) {
        let mut done = self.done.lock().expect("flight lock");
        while !*done {
            done = self.cv.wait(done).expect("flight wait");
        }
    }

    fn finish(&self) {
        *self.done.lock().expect("flight lock") = true;
        self.cv.notify_all();
    }
}

struct Shard {
    cache: Mutex<StrategyCache>,
    flights: Mutex<HashMap<u64, Arc<Flight>>>,
}

/// Aggregated lookup counters (see [`ShardedCache::counters`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered directly from a shard (memory or disk).
    pub hits: u64,
    /// Lookups that obtained a [`MissGuard`] (the caller searched).
    pub misses: u64,
    /// Lookups answered by waiting on another request's in-flight search.
    pub coalesced: u64,
    /// Searches currently in flight (outstanding [`MissGuard`]s).
    pub in_flight: u64,
}

/// A sharded, singleflight-coalescing [`StrategyCache`] front. See the
/// module docs.
pub struct ShardedCache {
    shards: Vec<Shard>,
    singleflight: bool,
    /// Shared by all stripes; entry filenames embed the full key, so the
    /// stripes never collide on disk. Held here (in addition to each
    /// stripe's [`StrategyCache`]) so [`MissGuard::fulfill`] can build the
    /// entry's path and JSON without taking the stripe lock.
    disk_dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    in_flight: AtomicU64,
    /// Test-only artificial latency injected into disk writes, in
    /// milliseconds (see [`ShardedCache::set_disk_write_delay_for_tests`]).
    disk_write_delay_ms: AtomicU64,
}

/// What [`ShardedCache::lookup`] resolved to.
pub enum Lookup<'a> {
    /// The entry was cached (counted as a hit).
    Hit(CacheEntry),
    /// Another request searched this key while we waited (counted as
    /// coalesced).
    Coalesced(CacheEntry),
    /// Nobody has this key: the caller is now the leader and must search,
    /// then [`MissGuard::fulfill`] (or drop the guard on failure).
    Miss(MissGuard<'a>),
}

impl ShardedCache {
    /// Build a cache of `shards` stripes (rounded up to a power of two,
    /// minimum 1) holding `capacity` entries in total, optionally persisted
    /// under `disk_dir` (shared by all stripes — entry filenames embed the
    /// full key, so stripes never collide on disk). With `singleflight`
    /// off, concurrent misses on one key each run their own search; the
    /// server always turns it on.
    pub fn new(
        shards: usize,
        capacity: usize,
        disk_dir: Option<PathBuf>,
        singleflight: bool,
    ) -> Self {
        let n = shards.max(1).next_power_of_two();
        let per_shard = capacity.div_ceil(n).max(1);
        let shards = (0..n)
            .map(|_| {
                let mut cache = StrategyCache::new(per_shard);
                if let Some(dir) = &disk_dir {
                    cache = cache.with_disk_dir(dir);
                }
                Shard {
                    cache: Mutex::new(cache),
                    flights: Mutex::new(HashMap::new()),
                }
            })
            .collect();
        Self {
            shards,
            singleflight,
            disk_dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            disk_write_delay_ms: AtomicU64::new(0),
        }
    }

    /// Inject artificial latency into every entry-persistence write, to
    /// let tests pin down *where* slow disk I/O is paid. Not part of the
    /// serving API.
    #[doc(hidden)]
    pub fn set_disk_write_delay_for_tests(&self, delay: Duration) {
        self.disk_write_delay_ms
            .store(delay.as_millis() as u64, Ordering::Relaxed);
    }

    /// Bound the resident entry bytes to roughly `max_bytes` in total,
    /// split evenly across the stripes (0 = unbounded). Each stripe evicts
    /// by bytes before its entry cap (see [`StrategyCache::with_max_bytes`]).
    pub fn with_max_bytes(self, max_bytes: u64) -> Self {
        let per_shard = if max_bytes == 0 {
            0
        } else {
            max_bytes.div_ceil(self.shards.len() as u64)
        };
        for shard in &self.shards {
            shard
                .cache
                .lock()
                .expect("shard cache")
                .set_max_bytes(per_shard);
        }
        self
    }

    /// Number of stripes (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, key: u64) -> &Shard {
        // The key is an FNV-1a hash; fold the high half in so shard choice
        // does not depend on low-byte patterns alone.
        &self.shards[((key ^ (key >> 32)) as usize) & (self.shards.len() - 1)]
    }

    /// Resolve `key`: a cached entry, a coalesced wait on someone else's
    /// search, or a [`MissGuard`] making the caller the searcher. Each call
    /// increments exactly one of the hit/miss/coalesced counters.
    pub fn lookup(&self, key: u64) -> Lookup<'_> {
        let shard = self.shard(key);
        loop {
            if let Some(entry) = shard.cache.lock().expect("shard cache").probe(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Lookup::Hit(entry);
            }
            if !self.singleflight {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.in_flight.fetch_add(1, Ordering::Relaxed);
                return Lookup::Miss(MissGuard {
                    owner: self,
                    key,
                    flight: None,
                    released: false,
                });
            }
            let flight = {
                let mut flights = shard.flights.lock().expect("shard flights");
                match flights.get(&key) {
                    Some(f) => Some(Arc::clone(f)),
                    None => {
                        flights.insert(key, Arc::new(Flight::new()));
                        None
                    }
                }
            };
            match flight {
                None => {
                    // We registered the flight: we are the leader.
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    self.in_flight.fetch_add(1, Ordering::Relaxed);
                    return Lookup::Miss(MissGuard {
                        owner: self,
                        key,
                        flight: Some(()),
                        released: false,
                    });
                }
                Some(f) => {
                    f.wait();
                    if let Some(entry) = shard.cache.lock().expect("shard cache").probe(key) {
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                        return Lookup::Coalesced(entry);
                    }
                    // The leader failed without caching an entry; retry the
                    // lookup — one waiter will become the next leader.
                }
            }
        }
    }

    /// Answer `key` from a stripe's memory alone: on a resident entry,
    /// refresh its LRU recency, count a hit and return `answer(entry)`,
    /// run under the stripe lock so the entry is never cloned. Returns
    /// `None`, counting nothing, when the entry is not in memory. Never
    /// reads the disk directory, registers a flight or waits on one, so it
    /// is safe on an event-loop thread; whatever it declines goes through
    /// [`ShardedCache::lookup`].
    pub fn memory_hit<R>(&self, key: u64, answer: impl FnOnce(&CacheEntry) -> R) -> Option<R> {
        let mut cache = self.shard(key).cache.lock().expect("shard cache");
        let r = answer(cache.probe_memory(key)?);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(r)
    }

    /// Snapshot of the lookup counters. `hits + misses + coalesced` equals
    /// the number of completed [`ShardedCache::lookup`] and successful
    /// [`ShardedCache::memory_hit`] calls.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
        }
    }

    /// Non-mutating in-memory lookup: no counters, no LRU refresh, no
    /// disk promotion (see [`StrategyCache::peek`]). The inspection path
    /// for prewarm checks and tests; serving goes through
    /// [`ShardedCache::lookup`].
    pub fn peek(&self, key: u64) -> Option<CacheEntry> {
        self.shard(key).cache.lock().expect("shard cache").peek(key)
    }

    /// Total entries across all stripes' in-memory maps.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.cache.lock().expect("shard cache").len())
            .sum()
    }

    /// Whether every stripe is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes across all stripes (per
    /// [`CacheEntry::approx_bytes`]), for the `stats` wire request.
    pub fn bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.cache.lock().expect("shard cache").bytes())
            .sum()
    }
}

/// Leadership over one in-flight search, returned by a miss. Call
/// [`MissGuard::fulfill`] with the search result to cache it and release
/// the waiters; dropping the guard without fulfilling (the search failed)
/// releases them empty-handed so one of them can take over.
pub struct MissGuard<'a> {
    owner: &'a ShardedCache,
    key: u64,
    /// `Some` iff a flight marker was registered (singleflight on).
    flight: Option<()>,
    /// Whether the flight was already released (fulfill releases early,
    /// before its disk write; Drop is then a no-op).
    released: bool,
}

impl MissGuard<'_> {
    /// The key this guard leads.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Cache `entry` under the guarded key (memory + disk when configured)
    /// and release any coalesced waiters. The stripe lock is held only
    /// for the in-memory insert; the entry is serialized before and the
    /// file is written after, so a slow disk never stalls hits on the
    /// stripe — and the waiters are woken *before* the disk write, so
    /// coalesced requests are answered at memory speed too. Disk failures
    /// are returned after the in-memory insert; waiters are still served.
    pub fn fulfill(mut self, entry: CacheEntry) -> Result<(), Error> {
        let json = self.owner.disk_dir.as_ref().map(|dir| {
            (
                dir.join(format!("{:016x}.json", self.key)),
                entry.to_json(self.key),
            )
        });
        self.owner
            .shard(self.key)
            .cache
            .lock()
            .expect("shard cache")
            .put_memory(self.key, entry);
        // The entry is visible in memory: release the waiters now — their
        // re-probe is guaranteed to hit — and keep only the file write.
        self.release();
        if let Some((path, json)) = json {
            let delay = self.owner.disk_write_delay_ms.load(Ordering::Relaxed);
            if delay > 0 {
                std::thread::sleep(Duration::from_millis(delay));
            }
            write_entry_file(&path, &json)?;
        }
        Ok(())
    }

    /// Decrement `in_flight` and wake any coalesced waiters. Idempotent;
    /// called by [`MissGuard::fulfill`] before its disk write and by Drop
    /// for the failure path.
    fn release(&mut self) {
        if self.released {
            return;
        }
        self.released = true;
        self.owner.in_flight.fetch_sub(1, Ordering::Relaxed);
        if self.flight.is_some() {
            let removed = self
                .owner
                .shard(self.key)
                .flights
                .lock()
                .expect("shard flights")
                .remove(&self.key);
            if let Some(f) = removed {
                // Remove before notify: a waiter that re-probes and misses
                // must find the flight slot free so it can become leader.
                f.finish();
            }
        }
    }
}

impl Drop for MissGuard<'_> {
    fn drop(&mut self) {
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(tag: &str) -> CacheEntry {
        CacheEntry {
            model: tag.to_string(),
            devices: 8,
            cost: 2.5e9,
            config_ids: vec![1, 2, 3],
            frontier: vec![],
            report_json: "{}".to_string(),
        }
    }

    #[test]
    fn byte_budget_applies_per_stripe_and_is_reported() {
        let c = ShardedCache::new(1, 64, None, true)
            .with_max_bytes(2 * entry("a").approx_bytes() + entry("a").approx_bytes() / 2);
        assert_eq!(c.bytes(), 0);
        for key in 0..3u64 {
            if let Lookup::Miss(g) = c.lookup(key) {
                g.fulfill(entry("a")).unwrap();
            }
        }
        // Three same-size entries exceed the 2.5-entry budget: one evicted.
        assert_eq!(c.len(), 2, "byte budget evicted despite 64 free slots");
        assert_eq!(c.bytes(), 2 * entry("a").approx_bytes());
    }

    #[test]
    fn memory_hits_count_once_and_never_touch_disk_or_flights() {
        let dir = std::env::temp_dir().join(format!("pase-memory-hit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // An entry that exists only on disk, written by another cache.
        let writer = ShardedCache::new(1, 4, Some(dir.clone()), true);
        match writer.lookup(7) {
            Lookup::Miss(g) => g.fulfill(entry("disk")).unwrap(),
            _ => panic!("fresh cache must miss"),
        }
        let c = ShardedCache::new(1, 4, Some(dir.clone()), true);
        assert_eq!(c.memory_hit(7, |e| e.model.clone()), None, "disk-only");
        assert!(c.is_empty(), "a memory hit must not promote from disk");
        // A key with a search in flight is declined at once, not awaited.
        let guard = match c.lookup(9) {
            Lookup::Miss(g) => g,
            _ => panic!("fresh key must miss"),
        };
        assert_eq!(c.memory_hit(9, |_| ()), None, "in flight");
        guard.fulfill(entry("mem")).unwrap();
        assert_eq!(c.memory_hit(9, |e| e.model.clone()), Some("mem".into()));
        let counters = c.counters();
        // Misses: the in-flight leader only; declined probes count nothing.
        assert_eq!((counters.hits, counters.misses), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn miss_fulfill_hit_cycle_counts_each_phase_once() {
        let c = ShardedCache::new(16, 64, None, true);
        match c.lookup(42) {
            Lookup::Miss(guard) => guard.fulfill(entry("a")).unwrap(),
            _ => panic!("first lookup must miss"),
        }
        match c.lookup(42) {
            Lookup::Hit(e) => assert_eq!(e.model, "a"),
            _ => panic!("second lookup must hit"),
        }
        let counters = c.counters();
        assert_eq!(counters.hits, 1);
        assert_eq!(counters.misses, 1);
        assert_eq!(counters.coalesced, 0);
        assert_eq!(counters.in_flight, 0);
    }

    #[test]
    fn shard_count_is_a_power_of_two_and_capacity_splits() {
        assert_eq!(ShardedCache::new(16, 64, None, true).shard_count(), 16);
        assert_eq!(ShardedCache::new(9, 64, None, true).shard_count(), 16);
        assert_eq!(ShardedCache::new(0, 64, None, true).shard_count(), 1);
        // Tiny capacity still gives every stripe at least one slot.
        let c = ShardedCache::new(16, 1, None, true);
        for key in 0..32u64 {
            if let Lookup::Miss(g) = c.lookup(key) {
                g.fulfill(entry("x")).unwrap();
            }
        }
        assert!(c.len() >= 16, "each stripe retains its own LRU");
    }

    #[test]
    fn concurrent_same_key_lookups_coalesce_into_one_search() {
        let c = Arc::new(ShardedCache::new(16, 64, None, true));
        let key = 7u64;
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || match c.lookup(key) {
                    Lookup::Miss(guard) => {
                        // Simulate a search long enough for others to pile up.
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        guard.fulfill(entry("searched")).unwrap();
                        "miss"
                    }
                    Lookup::Coalesced(e) => {
                        assert_eq!(e.model, "searched");
                        "coalesced"
                    }
                    Lookup::Hit(e) => {
                        assert_eq!(e.model, "searched");
                        "hit"
                    }
                })
            })
            .collect();
        let outcomes: Vec<&str> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        let misses = outcomes.iter().filter(|&&o| o == "miss").count();
        assert_eq!(misses, 1, "exactly one search: {outcomes:?}");
        let counters = c.counters();
        assert_eq!(counters.hits + counters.misses + counters.coalesced, 8);
        assert_eq!(counters.misses, 1);
        assert_eq!(counters.in_flight, 0);
    }

    #[test]
    fn failed_leader_hands_off_to_a_waiter() {
        let c = Arc::new(ShardedCache::new(4, 16, None, true));
        let key = 9u64;
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let waiter = {
            let c = Arc::clone(&c);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait(); // leader holds the flight before we look up
                match c.lookup(key) {
                    Lookup::Miss(guard) => {
                        guard.fulfill(entry("second-try")).unwrap();
                        true
                    }
                    _ => false,
                }
            })
        };
        match c.lookup(key) {
            Lookup::Miss(guard) => {
                barrier.wait();
                // Give the waiter time to block on the flight, then fail.
                std::thread::sleep(std::time::Duration::from_millis(30));
                drop(guard); // search failed: no fulfill
            }
            _ => panic!("leader must miss"),
        }
        assert!(
            waiter.join().unwrap(),
            "waiter must become the next leader after a failed flight"
        );
        assert_eq!(c.counters().misses, 2);
    }

    #[test]
    fn slow_disk_writes_do_not_stall_hits_or_waiters_on_the_stripe() {
        use std::time::{Duration, Instant};
        let dir = std::env::temp_dir().join(format!(
            "pase-slow-disk-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // One stripe: every key contends on the same lock, the worst case.
        let c = Arc::new(ShardedCache::new(1, 16, Some(dir.clone()), true));
        let (hot, cold) = (1u64, 2u64);
        match c.lookup(hot) {
            Lookup::Miss(g) => g.fulfill(entry("hot")).unwrap(),
            _ => panic!("first lookup must miss"),
        }

        const DELAY: Duration = Duration::from_millis(400);
        c.set_disk_write_delay_for_tests(DELAY);
        // A waiter coalesces onto the cold key while the leader's disk
        // write crawls; it must be released at memory speed.
        let leader = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || match c.lookup(cold) {
                Lookup::Miss(g) => g.fulfill(entry("cold")).unwrap(),
                _ => panic!("leader must miss"),
            })
        };
        // Wait until the leader holds the flight (its miss is counted).
        while c.counters().misses < 2 {
            std::thread::yield_now();
        }
        let waiter = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                let t0 = Instant::now();
                match c.lookup(cold) {
                    Lookup::Coalesced(e) | Lookup::Hit(e) => assert_eq!(e.model, "cold"),
                    Lookup::Miss(_) => panic!("must ride the in-flight search"),
                }
                t0.elapsed()
            })
        };

        // Meanwhile, hits on OTHER keys of the same stripe must not queue
        // behind the leader's slow write.
        std::thread::sleep(Duration::from_millis(50));
        let t0 = Instant::now();
        match c.lookup(hot) {
            Lookup::Hit(e) => assert_eq!(e.model, "hot"),
            _ => panic!("hot key must hit"),
        }
        let hit_latency = t0.elapsed();
        assert!(
            hit_latency < DELAY / 2,
            "a slow disk write stalled a same-stripe hit for {hit_latency:?}"
        );
        let waiter_latency = waiter.join().unwrap();
        assert!(
            waiter_latency < DELAY + DELAY / 2,
            "waiter blocked past the search itself: {waiter_latency:?}"
        );
        leader.join().unwrap();
        // The write did land, after the delay.
        assert!(dir.join(format!("{cold:016x}.json")).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn singleflight_off_lets_same_key_searches_race() {
        let c = ShardedCache::new(1, 16, None, false);
        let a = c.lookup(5);
        let b = c.lookup(5);
        assert!(matches!(a, Lookup::Miss(_)));
        assert!(matches!(b, Lookup::Miss(_)), "no coalescing when off");
        assert_eq!(c.counters().misses, 2);
        assert_eq!(c.counters().in_flight, 2);
    }
}
